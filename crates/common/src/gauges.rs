//! Network-wide subsystem gauges: shared atomic cells that pipeline
//! stages *write* on their hot paths and the telemetry layer *reads* at
//! window close.
//!
//! The paper's evaluation localizes bottlenecks by watching each pipeline
//! stage over time (Figs. 10–11); these cells are the stage-side half of
//! that instrument. Every write is a single relaxed atomic store or add —
//! no locks, no allocation — so attaching the handle to a subsystem is
//! observation-only: a run with gauges wired is byte-identical to one
//! without (the determinism conformance harness proves this for whole
//! pipelines).
//!
//! Two kinds of cell live here:
//!
//! * **counters** (monotone: endorsements, VSCC batches) — the telemetry
//!   layer turns these into per-window deltas via [`GaugeStats::since`];
//! * **gauges** (instantaneous: cutter queue depth, configured
//!   validation workers) — sampled as-is at window close.
//!
//! Store-side gauges (memtable size, GC floor, live snapshot pins) live
//! on [`crate::metrics::StoreCounters`] instead, next to the engine
//! counters the engines already carry.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::metrics::counter_set;

/// Cheap-to-clone handle to the shared gauge cells (one per network).
#[derive(Clone, Debug, Default)]
pub struct SubsystemGauges {
    inner: Arc<GaugeCells>,
}

counter_set! {
    cells GaugeCells;
    /// Point-in-time view of [`SubsystemGauges`].
    pub struct GaugeStats {
        /// Transactions buffered in the batch cutter (instantaneous).
        cutter_queue_txs: gauge,
        /// Endorsement simulations run, network-wide (counter).
        endorsements,
        /// Endorsement-signature batches handed to the validation pool
        /// (counter).
        vscc_batches_started,
        /// Endorsement-signature batches joined (counter).
        vscc_batches_done,
        /// Configured validation-pool workers (static gauge).
        validation_workers: gauge,
    }
}

impl SubsystemGauges {
    /// Creates zeroed cells.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the batch cutter's current queue depth (transactions buffered
    /// and not yet cut). The ordering service stores this after every
    /// push, timeout cut and flush, so a window close reads the most
    /// recent depth.
    pub fn set_cutter_queue(&self, txs: u64) {
        self.inner.cutter_queue_txs.store(txs, Ordering::Relaxed);
    }

    /// Counts one endorsement simulation (any peer, success or early
    /// abort). Network-wide: with `k` endorsing orgs every proposal bumps
    /// this `k` times.
    pub fn record_endorsement(&self) {
        self.inner.endorsements.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one endorsement-signature batch handed to the validation
    /// pool. In-flight batches = started − done; a batch abandoned by a
    /// crashed peer never finishes and stays visibly in flight.
    pub fn record_vscc_batch_started(&self) {
        self.inner.vscc_batches_started.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one endorsement-signature batch joined (`wait` returned).
    pub fn record_vscc_batch_done(&self) {
        self.inner.vscc_batches_done.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the validation pool's configured worker count (a static
    /// gauge, set once at build).
    pub fn set_validation_workers(&self, n: u64) {
        self.inner.validation_workers.store(n, Ordering::Relaxed);
    }

    /// Immutable snapshot of every cell.
    pub fn snapshot(&self) -> GaugeStats {
        self.inner.snapshot()
    }
}

impl GaugeStats {
    /// Signature batches currently in flight (started − done).
    pub fn vscc_inflight(&self) -> u64 {
        self.vscc_batches_started.saturating_sub(self.vscc_batches_done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_diff() {
        let g = SubsystemGauges::new();
        g.record_endorsement();
        g.record_endorsement();
        g.record_vscc_batch_started();
        g.set_cutter_queue(17);
        g.set_validation_workers(4);
        let a = g.snapshot();
        assert_eq!(a.endorsements, 2);
        assert_eq!(a.vscc_inflight(), 1);
        assert_eq!(a.cutter_queue_txs, 17);

        g.record_endorsement();
        g.record_vscc_batch_done();
        g.set_cutter_queue(3);
        let b = g.snapshot();
        let d = b.since(&a);
        assert_eq!(d.endorsements, 1);
        assert_eq!(d.vscc_batches_done, 1);
        // Instantaneous gauges carry the latest value, not a delta.
        assert_eq!(d.cutter_queue_txs, 3);
        assert_eq!(d.validation_workers, 4);
        assert_eq!(b.vscc_inflight(), 0);
    }

    #[test]
    fn clones_share_cells() {
        let g = SubsystemGauges::new();
        let h = g.clone();
        h.record_endorsement();
        assert_eq!(g.snapshot().endorsements, 1);
    }
}
