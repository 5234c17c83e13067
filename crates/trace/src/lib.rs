//! # fabric-trace
//!
//! Transaction flight recorder for the Fabric++ reproduction.
//!
//! The paper's whole argument is about *where and why* transactions die in
//! the simulate-order-validate-commit pipeline (§4.2, §5.2, Tables 1–2):
//! late MVCC aborts under vanilla Fabric versus Fabric++'s early aborts in
//! the simulation and ordering phases. The aggregate counters in
//! `fabric-common::metrics` can say *how many* transactions died per
//! outcome; this crate records *which* transaction died *where*, killed by
//! *which key* at *which versions*, by *which conflicting transaction or
//! cycle* — one structured event stream per run.
//!
//! ## Event model
//!
//! Every pipeline stage emits fixed-size [`EventKind`] values into a shared
//! [`TraceSink`]. Per-transaction lifecycle events (`TxSubmitted` →
//! `TxEndorsed` → … → `TxCommitted`, or one of the abort events carrying
//! provenance) interleave with per-block span events (`BlockCut`,
//! `BlockSealed`, `BlockVscc`, `BlockMvcc`, `BlockCommitted`, `WalRecord`)
//! and chaos fault events (`FaultNet`, `FaultWal`), all causally ordered by
//! the sink's global sequence number.
//!
//! ## Overhead contract
//!
//! The sink is a bounded MPSC ring: a pre-allocated slot array, an atomic
//! ticket counter for sequence/slot assignment, and one tiny per-slot mutex
//! (std futex underneath — no allocation, contended only when two writers
//! collide on the same slot modulo capacity). When full it drops the
//! *oldest* events, counting them in [`TraceSink::dropped`]. Emitting is
//! allocation-free: event payloads are `Copy` ids/versions plus refcounted
//! [`Key`] handles, so the pipeline's zero-allocation hot paths (see the
//! counting-allocator release tests) stay zero-allocation with tracing
//! enabled. [`TraceSink::disabled`] is a `None` sink whose `emit` is a
//! branch on an `Option` — the default everywhere, costing one predictable
//! branch when tracing is off.
//!
//! ## Exporters
//!
//! * [`jsonl`] — newline-delimited JSON event dump plus a parser
//!   (round-trip tested), the interchange format.
//! * [`chrome`] — Chrome trace-event JSON (`chrome://tracing`, Perfetto):
//!   block-phase spans on per-phase tracks, abort/fault instants.
//! * [`prom`] — Prometheus-style text exposition of `TxStats`,
//!   `StoreStats`, and `PhaseSummary` snapshots plus the sink's own
//!   emitted/dropped counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fabric_common::{BlockNum, ChannelId, ClientId, Key, PeerId, TxId, Version};
use parking_lot::Mutex;

pub mod chrome;
pub mod jsonl;
pub mod prom;

/// Default ring capacity: holds the full event stream of roughly 60
/// thousand emissions (≈ tens of 1024-tx blocks with per-tx events) before
/// drop-oldest engages.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Why the ordering service cut a batch (mirrors the cutter's `CutReason`
/// without depending on `fabric-ordering`, which depends on this crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CutKind {
    /// Condition (a): transaction-count threshold.
    TxCount,
    /// Condition (b): byte-size threshold.
    Bytes,
    /// Condition (c): batch timeout.
    Timeout,
    /// Condition (d), Fabric++: unique-key threshold.
    UniqueKeys,
    /// Explicit flush at shutdown.
    Flush,
}

impl CutKind {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            CutKind::TxCount => "tx_count",
            CutKind::Bytes => "bytes",
            CutKind::Timeout => "timeout",
            CutKind::UniqueKeys => "unique_keys",
            CutKind::Flush => "flush",
        }
    }

    /// Inverse of [`CutKind::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "tx_count" => CutKind::TxCount,
            "bytes" => CutKind::Bytes,
            "timeout" => CutKind::Timeout,
            "unique_keys" => CutKind::UniqueKeys,
            "flush" => CutKind::Flush,
            _ => return None,
        })
    }
}

/// Network fault verdict kind (mirrors `fabric_chaos::SendFault` without the
/// payload knobs — the trace records *that* and *where* a fault fired; the
/// chaos event log remains the authoritative schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Message silently discarded.
    Drop,
    /// Message delivered more than once.
    Duplicate,
    /// Message delayed by a latency spike.
    Delay,
    /// Message caught in a reorder burst.
    Reorder,
}

impl FaultKind {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Delay => "delay",
            FaultKind::Reorder => "reorder",
        }
    }

    /// Inverse of [`FaultKind::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "drop" => FaultKind::Drop,
            "duplicate" => FaultKind::Duplicate,
            "delay" => FaultKind::Delay,
            "reorder" => FaultKind::Reorder,
            _ => return None,
        })
    }
}

/// One recorded pipeline event. All payloads are fixed-size: `Copy` ids and
/// versions plus refcounted [`Key`] handles, so constructing and storing an
/// event never allocates.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A client submitted a proposal.
    TxSubmitted {
        /// The transaction.
        tx: TxId,
        /// Channel it was submitted on.
        channel: ChannelId,
        /// Submitting client.
        client: ClientId,
    },
    /// An endorsing peer simulated and signed a proposal.
    TxEndorsed {
        /// The transaction.
        tx: TxId,
        /// The endorsing peer.
        peer: PeerId,
        /// Simulation + signing wall time in microseconds.
        dur_us: u64,
    },
    /// Fabric++ simulation-phase early abort: a read observed a version
    /// newer than the transaction's snapshot (paper §5.2.1, Figure 6).
    TxEarlyAbortSimulation {
        /// The doomed transaction.
        tx: TxId,
        /// The key whose read was stale.
        key: Key,
        /// Last block visible to the transaction's snapshot.
        snapshot_block: BlockNum,
        /// The (newer) version the read actually observed.
        observed: Version,
    },
    /// The ordering service cut a batch (block number not yet assigned —
    /// sealing happens after early abort + reordering; causal order in the
    /// stream ties this cut to the following `BlockSealed`).
    BlockCut {
        /// Which cutting condition fired.
        reason: CutKind,
        /// Transactions in the cut batch.
        txs: u32,
    },
    /// Fabric++ ordering-phase early abort (paper §5.2.2): within one
    /// batch, this transaction read `key` at a version older than the
    /// newest read of the same key — it is doomed to fail validation.
    TxEarlyAbortVersion {
        /// The doomed transaction.
        tx: TxId,
        /// The key whose read versions mismatch within the batch.
        key: Key,
        /// The newest version of `key` read within the batch (what a
        /// surviving transaction must have read).
        expected: Version,
        /// The stale version this transaction read (`None` = it read the
        /// key as absent before a later commit created it).
        observed: Option<Version>,
        /// The in-batch transaction that read (and thus proves) the newest
        /// version — the conflicting witness.
        conflicting: TxId,
    },
    /// Fabric++ reorder-phase abort (paper §5.1, Algorithm 1): the
    /// transaction sits on an unbreakable conflict cycle. Aborted
    /// transactions sharing one `scc` id are members of the same strongly
    /// connected component of the conflict graph — the cycle membership.
    TxEarlyAbortCycle {
        /// The doomed transaction.
        tx: TxId,
        /// Conflict-graph SCC (cycle component) this abort belongs to,
        /// unique within the batch.
        scc: u32,
        /// Number of transactions in that component.
        scc_size: u32,
    },
    /// The ordering service sealed a block from a cut batch (after early
    /// abort and, under the reorder policy, Algorithm 1).
    BlockSealed {
        /// Assigned block number.
        block: BlockNum,
        /// Surviving transactions in the block.
        txs: u32,
        /// Transactions aborted at order time (version mismatch + cycle).
        early_aborted: u32,
        /// Non-trivial SCCs found in the conflict graph.
        sccs: u32,
        /// Wall time of the reorder pass in microseconds (0 under the
        /// arrival policy).
        reorder_us: u64,
    },
    /// A transaction failed endorsement-policy / signature validation
    /// (Fabric's VSCC).
    TxEndorsementFailed {
        /// The block being validated.
        block: BlockNum,
        /// The failing transaction.
        tx: TxId,
    },
    /// Per-block VSCC span: signature checking finished.
    BlockVscc {
        /// The validated block.
        block: BlockNum,
        /// Transactions checked.
        txs: u32,
        /// Transactions whose endorsements failed.
        failures: u32,
        /// Wall time in microseconds (pool wall time under the parallel
        /// validation pool).
        dur_us: u64,
    },
    /// MVCC serializability abort (paper §2.2.3): a committed read version
    /// no longer matches the current state, or an earlier transaction in
    /// the same block already wrote the key.
    TxMvccConflict {
        /// The block being validated.
        block: BlockNum,
        /// The aborted transaction.
        tx: TxId,
        /// The offending key (first stale read encountered).
        key: Key,
        /// The version the transaction read during simulation (`None` for
        /// a read of an absent key).
        expected: Option<Version>,
        /// The version the validator observed in current state (`None`
        /// when the key is absent). For a conflict against an earlier
        /// committed block, `observed.block`/`observed.tx` name the
        /// committing transaction's position.
        observed: Option<Version>,
        /// For a *within-block* conflict: the earlier transaction in this
        /// block that wrote `key`. `None` when the conflict is against
        /// already-committed state (then `observed` carries provenance).
        writer: Option<TxId>,
    },
    /// Per-block MVCC span: the serializability scan finished.
    BlockMvcc {
        /// The validated block.
        block: BlockNum,
        /// Transactions that passed.
        valid: u32,
        /// Transactions aborted (endorsement + MVCC).
        invalid: u32,
        /// Wall time in microseconds.
        dur_us: u64,
    },
    /// A transaction committed as valid.
    TxCommitted {
        /// The committing block.
        block: BlockNum,
        /// The transaction.
        tx: TxId,
    },
    /// Per-block commit span: writes applied and block appended.
    BlockCommitted {
        /// The committed block.
        block: BlockNum,
        /// Valid transactions.
        valid: u32,
        /// Invalid transactions (recorded in the block, writes skipped).
        invalid: u32,
        /// Key writes applied to state.
        writes: u32,
        /// Wall time in microseconds.
        dur_us: u64,
    },
    /// The LSM engine wrote one group-commit WAL record for a block.
    WalRecord {
        /// The block the record covers.
        block: BlockNum,
        /// Whether the record was fsynced.
        fsync: bool,
    },
    /// A chaos network fault fired (mirrors the injector's event log; the
    /// injector's own sequence number preserves the causal order of the
    /// fault schedule within the interleaved stream).
    FaultNet {
        /// The injector's global fault sequence number.
        fault_seq: u64,
        /// Sending endpoint of the affected link.
        from: u32,
        /// Receiving endpoint of the affected link.
        to: u32,
        /// 0-based index of the message on that link.
        nth: u64,
        /// What the fault did to the message.
        verdict: FaultKind,
        /// True when a scheduled partition (not a dice roll) fired.
        partition: bool,
    },
    /// A chaos WAL fault fired (torn write).
    FaultWal {
        /// The injector's global fault sequence number.
        fault_seq: u64,
        /// The WAL block the fault fired on.
        block: BlockNum,
        /// Bytes of the frame kept on disk.
        keep: u64,
    },
}

impl EventKind {
    /// Stable lowercase label naming the event type in the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::TxSubmitted { .. } => "tx_submitted",
            EventKind::TxEndorsed { .. } => "tx_endorsed",
            EventKind::TxEarlyAbortSimulation { .. } => "early_abort_simulation",
            EventKind::BlockCut { .. } => "block_cut",
            EventKind::TxEarlyAbortVersion { .. } => "early_abort_version",
            EventKind::TxEarlyAbortCycle { .. } => "early_abort_cycle",
            EventKind::BlockSealed { .. } => "block_sealed",
            EventKind::TxEndorsementFailed { .. } => "endorsement_failed",
            EventKind::BlockVscc { .. } => "block_vscc",
            EventKind::TxMvccConflict { .. } => "mvcc_conflict",
            EventKind::BlockMvcc { .. } => "block_mvcc",
            EventKind::TxCommitted { .. } => "tx_committed",
            EventKind::BlockCommitted { .. } => "block_committed",
            EventKind::WalRecord { .. } => "wal_record",
            EventKind::FaultNet { .. } => "fault_net",
            EventKind::FaultWal { .. } => "fault_wal",
        }
    }

    /// Whether this is a per-block *span* event (the block-phase events
    /// the Chrome exporter renders as duration tracks), as opposed to a
    /// per-transaction or fault instant. Span drops are accounted
    /// separately: losing one hole-punches a whole block's phase timeline,
    /// where losing a tx instant only thins one transaction's story.
    pub fn is_span(&self) -> bool {
        matches!(
            self,
            EventKind::BlockCut { .. }
                | EventKind::BlockSealed { .. }
                | EventKind::BlockVscc { .. }
                | EventKind::BlockMvcc { .. }
                | EventKind::BlockCommitted { .. }
        )
    }

    /// The transaction this event is about, if it is a per-tx event.
    pub fn tx(&self) -> Option<TxId> {
        match self {
            EventKind::TxSubmitted { tx, .. }
            | EventKind::TxEndorsed { tx, .. }
            | EventKind::TxEarlyAbortSimulation { tx, .. }
            | EventKind::TxEarlyAbortVersion { tx, .. }
            | EventKind::TxEarlyAbortCycle { tx, .. }
            | EventKind::TxEndorsementFailed { tx, .. }
            | EventKind::TxMvccConflict { tx, .. }
            | EventKind::TxCommitted { tx, .. } => Some(*tx),
            _ => None,
        }
    }
}

/// One event as recorded: the payload plus the sink-assigned global
/// sequence number and a microsecond timestamp relative to the sink epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global sequence number (the causal order of the stream).
    pub seq: u64,
    /// Microseconds since the sink was created.
    pub at_us: u64,
    /// The event payload.
    pub kind: EventKind,
}

struct Ring {
    slots: Vec<Mutex<Option<TraceEvent>>>,
    next: AtomicU64,
    dropped: AtomicU64,
    dropped_spans: AtomicU64,
    epoch: Instant,
}

impl Ring {
    fn emit(&self, kind: EventKind) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let at_us = self.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = (seq % self.slots.len() as u64) as usize;
        let mut slot = self.slots[idx].lock();
        if let Some(old) = slot.as_ref() {
            // Drop-oldest: the previous occupant was never drained. Span
            // losses are tallied separately (`dropped_spans`).
            self.dropped.fetch_add(1, Ordering::Relaxed);
            if old.kind.is_span() {
                self.dropped_spans.fetch_add(1, Ordering::Relaxed);
            }
        }
        *slot = Some(TraceEvent { seq, at_us, kind });
    }
}

/// The flight recorder's shared sink handle. Cheap to clone; all clones
/// feed one ring. The [`TraceSink::disabled`] sink makes every `emit` a
/// no-op branch, which is the default wiring everywhere.
#[derive(Clone)]
pub struct TraceSink {
    ring: Option<Arc<Ring>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.ring {
            Some(r) => f
                .debug_struct("TraceSink")
                .field("capacity", &r.slots.len())
                .field("emitted", &r.next.load(Ordering::Relaxed))
                .field("dropped", &r.dropped.load(Ordering::Relaxed))
                .finish(),
            None => f.write_str("TraceSink(disabled)"),
        }
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::disabled()
    }
}

impl TraceSink {
    /// The no-op sink: `emit` is a branch on `None`, nothing is recorded.
    pub fn disabled() -> Self {
        TraceSink { ring: None }
    }

    /// An enabled sink with [`DEFAULT_CAPACITY`] slots.
    pub fn enabled() -> Self {
        Self::bounded(DEFAULT_CAPACITY)
    }

    /// An enabled sink holding at most `capacity` events; when full, the
    /// oldest undrained events are overwritten and counted as dropped.
    pub fn bounded(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots = (0..capacity).map(|_| Mutex::new(None)).collect();
        TraceSink {
            ring: Some(Arc::new(Ring {
                slots,
                next: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                dropped_spans: AtomicU64::new(0),
                epoch: Instant::now(),
            })),
        }
    }

    /// Whether this sink records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Records one event. Allocation-free; a no-op on a disabled sink.
    #[inline]
    pub fn emit(&self, kind: EventKind) {
        if let Some(ring) = &self.ring {
            ring.emit(kind);
        }
    }

    /// Ring capacity (0 for a disabled sink).
    pub fn capacity(&self) -> usize {
        self.ring.as_ref().map_or(0, |r| r.slots.len())
    }

    /// Total events emitted so far (including dropped ones).
    pub fn emitted(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.next.load(Ordering::Relaxed))
    }

    /// Events lost to drop-oldest overwrites so far.
    pub fn dropped(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.dropped.load(Ordering::Relaxed))
    }

    /// Per-block span events among the dropped (a subset of
    /// [`TraceSink::dropped`]): each one is a hole in a block's phase
    /// timeline, so exposition reports them as their own metric.
    pub fn dropped_spans(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.dropped_spans.load(Ordering::Relaxed))
    }

    /// Events currently retained in the ring (not yet drained, not
    /// overwritten). Cold path: walks every slot.
    pub fn retained(&self) -> u64 {
        self.ring
            .as_ref()
            .map_or(0, |r| r.slots.iter().filter(|s| s.lock().is_some()).count() as u64)
    }

    /// Removes and returns every retained event, oldest first (by sequence
    /// number). Cold path: allocates freely. Subsequent emissions start
    /// filling the ring again; `emitted`/`dropped` totals are cumulative.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let Some(ring) = &self.ring else {
            return Vec::new();
        };
        let mut out: Vec<TraceEvent> = Vec::with_capacity(ring.slots.len());
        for slot in &ring.slots {
            if let Some(ev) = slot.lock().take() {
                out.push(ev);
            }
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Drains the ring into a final [`TraceReport`] for end-of-run
    /// reporting (`RunReport.trace`).
    pub fn report(&self) -> TraceReport {
        TraceReport {
            capacity: self.capacity(),
            emitted: self.emitted(),
            dropped: self.dropped(),
            events: self.drain(),
        }
    }
}

/// End-of-run view of the flight recorder: the drained event stream plus
/// the ring's accounting.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Ring capacity the run used.
    pub capacity: usize,
    /// Total events emitted (including dropped).
    pub emitted: u64,
    /// Events lost to drop-oldest.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl TraceReport {
    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events whose payload concerns transaction `tx`, in causal order —
    /// the per-transaction lifecycle slice of the stream.
    pub fn lifecycle(&self, tx: TxId) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.kind.tx() == Some(tx)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> EventKind {
        EventKind::TxCommitted { block: 1, tx: TxId(i) }
    }

    #[test]
    fn disabled_sink_is_a_no_op() {
        let s = TraceSink::disabled();
        assert!(!s.is_enabled());
        s.emit(ev(1));
        assert_eq!(s.emitted(), 0);
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.capacity(), 0);
        assert!(s.drain().is_empty());
        assert!(s.report().is_empty());
    }

    #[test]
    fn events_come_back_in_sequence_order() {
        let s = TraceSink::bounded(16);
        for i in 0..10 {
            s.emit(ev(i));
        }
        let events = s.drain();
        assert_eq!(events.len(), 10);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.kind, ev(i as u64));
        }
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.emitted(), 10);
    }

    #[test]
    fn full_ring_drops_oldest() {
        let s = TraceSink::bounded(4);
        for i in 0..10 {
            s.emit(ev(i));
        }
        assert_eq!(s.emitted(), 10);
        assert_eq!(s.dropped(), 6);
        let events = s.drain();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "newest four retained");
    }

    #[test]
    fn drain_resets_retention_but_not_totals() {
        let s = TraceSink::bounded(8);
        s.emit(ev(0));
        assert_eq!(s.drain().len(), 1);
        assert!(s.drain().is_empty());
        s.emit(ev(1));
        let again = s.drain();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].seq, 1);
        assert_eq!(s.emitted(), 2);
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn clones_share_one_ring() {
        let s = TraceSink::bounded(8);
        let c = s.clone();
        c.emit(ev(0));
        s.emit(ev(1));
        assert_eq!(s.emitted(), 2);
        assert_eq!(s.drain().len(), 2);
    }

    #[test]
    fn concurrent_emitters_lose_nothing_under_capacity() {
        let s = TraceSink::bounded(4096);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..500 {
                        s.emit(ev(t * 1000 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.emitted(), 2000);
        assert_eq!(s.dropped(), 0);
        let events = s.drain();
        assert_eq!(events.len(), 2000);
        // Sequence numbers are a permutation of 0..2000.
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..2000).collect::<Vec<u64>>());
    }

    #[test]
    fn report_slices_per_tx_lifecycle() {
        let s = TraceSink::bounded(16);
        s.emit(EventKind::TxSubmitted { tx: TxId(7), channel: ChannelId(0), client: ClientId(1) });
        s.emit(EventKind::BlockCut { reason: CutKind::TxCount, txs: 2 });
        s.emit(EventKind::TxCommitted { block: 1, tx: TxId(7) });
        s.emit(EventKind::TxCommitted { block: 1, tx: TxId(8) });
        let r = s.report();
        assert_eq!(r.len(), 4);
        let life = r.lifecycle(TxId(7));
        assert_eq!(life.len(), 2);
        assert_eq!(life[0].kind.label(), "tx_submitted");
        assert_eq!(life[1].kind.label(), "tx_committed");
    }

    #[test]
    fn labels_round_trip() {
        for k in [
            CutKind::TxCount,
            CutKind::Bytes,
            CutKind::Timeout,
            CutKind::UniqueKeys,
            CutKind::Flush,
        ] {
            assert_eq!(CutKind::from_label(k.label()), Some(k));
        }
        assert_eq!(CutKind::from_label("nope"), None);
        for k in [FaultKind::Drop, FaultKind::Duplicate, FaultKind::Delay, FaultKind::Reorder] {
            assert_eq!(FaultKind::from_label(k.label()), Some(k));
        }
        assert_eq!(FaultKind::from_label("nope"), None);
    }
}
