//! Ordering-service telemetry: block cut reasons, fill levels, reordering
//! cost. Useful for explaining throughput results (e.g. Figure 7: small
//! blocksizes cut on count; large ones cut on the batch timeout).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fabric_reorder::ReorderStats;

use crate::cutter::CutReason;

/// Shared, thread-safe orderer counters (cheap to clone).
#[derive(Clone, Debug, Default)]
pub struct OrdererStats {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    cut_tx_count: AtomicU64,
    cut_bytes: AtomicU64,
    cut_timeout: AtomicU64,
    cut_unique_keys: AtomicU64,
    cut_flush: AtomicU64,
    txs_ordered: AtomicU64,
    blocks: AtomicU64,
    reorder_nanos: AtomicU64,
    nontrivial_sccs: AtomicU64,
    empty_suppressed: AtomicU64,
}

impl OrdererStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one cut batch.
    pub fn record_cut(&self, reason: CutReason, batch_len: usize) {
        let ctr = match reason {
            CutReason::TxCount => &self.inner.cut_tx_count,
            CutReason::Bytes => &self.inner.cut_bytes,
            CutReason::Timeout => &self.inner.cut_timeout,
            CutReason::UniqueKeys => &self.inner.cut_unique_keys,
            CutReason::Flush => &self.inner.cut_flush,
        };
        ctr.fetch_add(1, Ordering::Relaxed);
        self.inner.blocks.fetch_add(1, Ordering::Relaxed);
        self.inner.txs_ordered.fetch_add(batch_len as u64, Ordering::Relaxed);
    }

    /// Records a cut batch whose survivors all early-aborted, so no block
    /// was formed (the orderer suppresses empty blocks).
    pub fn record_empty_suppressed(&self) {
        self.inner.empty_suppressed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one reordering pass: wall-clock spent in the reorderer plus
    /// the pass's conflict-cycle structure.
    pub fn record_reorder(&self, took: Duration, stats: &ReorderStats) {
        self.inner
            .reorder_nanos
            .fetch_add(took.as_nanos().min(u128::from(u64::MAX)) as u64, Ordering::Relaxed);
        self.inner.nontrivial_sccs.fetch_add(stats.nontrivial_sccs as u64, Ordering::Relaxed);
    }

    /// Point-in-time snapshot.
    pub fn snapshot(&self) -> OrdererStatsSnapshot {
        OrdererStatsSnapshot {
            cut_tx_count: self.inner.cut_tx_count.load(Ordering::Relaxed),
            cut_bytes: self.inner.cut_bytes.load(Ordering::Relaxed),
            cut_timeout: self.inner.cut_timeout.load(Ordering::Relaxed),
            cut_unique_keys: self.inner.cut_unique_keys.load(Ordering::Relaxed),
            cut_flush: self.inner.cut_flush.load(Ordering::Relaxed),
            txs_ordered: self.inner.txs_ordered.load(Ordering::Relaxed),
            blocks: self.inner.blocks.load(Ordering::Relaxed),
            reorder_time: Duration::from_nanos(self.inner.reorder_nanos.load(Ordering::Relaxed)),
            fallbacks: 0,
            nontrivial_sccs: self.inner.nontrivial_sccs.load(Ordering::Relaxed),
            empty_suppressed: self.inner.empty_suppressed.load(Ordering::Relaxed),
        }
    }
}

/// Immutable view of [`OrdererStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OrdererStatsSnapshot {
    /// Blocks cut by condition (a): transaction count.
    pub cut_tx_count: u64,
    /// Blocks cut by condition (b): byte size.
    pub cut_bytes: u64,
    /// Blocks cut by condition (c): batch timeout.
    pub cut_timeout: u64,
    /// Blocks cut by Fabric++'s condition (d): unique keys.
    pub cut_unique_keys: u64,
    /// Blocks flushed at shutdown.
    pub cut_flush: u64,
    /// Transactions that entered blocks (before order-phase aborts).
    pub txs_ordered: u64,
    /// Total blocks formed.
    pub blocks: u64,
    /// Cumulative time spent in the reordering mechanism.
    pub reorder_time: Duration,
    /// Always 0 (the reorderer has one engine); kept because the benchmark reads it.
    pub fallbacks: u64,
    /// Total non-trivial strongly connected components (conflict cycles)
    /// seen across all reordering passes.
    pub nontrivial_sccs: u64,
    /// Cut batches fully emptied by early abort (no block emitted).
    pub empty_suppressed: u64,
}

impl OrdererStatsSnapshot {
    /// Average transactions per block (0 when no blocks were cut).
    pub fn avg_block_fill(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.txs_ordered as f64 / self.blocks as f64
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_cut_reasons_and_fill() {
        let s = OrdererStats::new();
        s.record_cut(CutReason::TxCount, 100);
        s.record_cut(CutReason::Timeout, 20);
        s.record_cut(CutReason::UniqueKeys, 60);
        let snap = s.snapshot();
        assert_eq!(snap.cut_tx_count, 1);
        assert_eq!(snap.cut_timeout, 1);
        assert_eq!(snap.cut_unique_keys, 1);
        assert_eq!(snap.blocks, 3);
        assert_eq!(snap.txs_ordered, 180);
        assert!((snap.avg_block_fill() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn records_reorder_time_fallbacks_and_sccs() {
        let s = OrdererStats::new();
        let small = ReorderStats { edges: 3, nontrivial_sccs: 2, ..Default::default() };
        let large = ReorderStats { edges: 90, nontrivial_sccs: 5, ..Default::default() };
        s.record_reorder(Duration::from_millis(5), &small);
        s.record_reorder(Duration::from_millis(7), &large);
        let snap = s.snapshot();
        assert_eq!(snap.reorder_time, Duration::from_millis(12));
        assert_eq!(snap.fallbacks, 0);
        assert_eq!(snap.nontrivial_sccs, 7);
    }

    #[test]
    fn empty_suppressions_counted() {
        let a = OrdererStats::new();
        a.record_empty_suppressed();
        a.record_empty_suppressed();
        let snap = a.snapshot();
        assert_eq!(snap.empty_suppressed, 2);
        assert_eq!(snap.blocks, 0, "suppressed cuts form no block");
    }

    #[test]
    fn empty_snapshot_fill_is_zero() {
        assert_eq!(OrdererStats::new().snapshot().avg_block_fill(), 0.0);
    }

    #[test]
    fn clones_share_state() {
        let a = OrdererStats::new();
        let b = a.clone();
        b.record_cut(CutReason::TxCount, 1);
        assert_eq!(a.snapshot().blocks, 1);
    }
}
