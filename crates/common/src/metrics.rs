//! Throughput counters and latency recording.
//!
//! The paper's primary metric is "the throughput of valid/successful and
//! invalid/failed transactions, that make it through the system" (§6);
//! Table 8 additionally reports minimum, maximum, and average end-to-end
//! latency as measured by Caliper. [`TxCounters`] and [`LatencyRecorder`]
//! provide exactly those measurements, safe to update from every pipeline
//! thread concurrently.
//!
//! Each counter set is declared once, with `counter_set!`. Adding an
//! outcome is one line in the `TxStats` declaration plus its arm in
//! [`TxCounters::record_outcome`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::tx::ValidationCode;

/// Declares one counter set: each field's doc and name, then `: gauge`
/// if the cell is instantaneous rather than a monotone counter. Derives
/// the private cells struct (one `AtomicU64` per field) with `snapshot()`,
/// and the `pub` snapshot struct with `since`, `merge` and `fields()`.
/// Record methods stay hand-written on the handle that owns the cells.
macro_rules! counter_set {
    (@since $now:expr, $earlier:expr, gauge) => { $now };
    (@since $now:expr, $earlier:expr) => { $now.saturating_sub($earlier) };
    (
        cells $cells:ident;
        $(#[$meta:meta])*
        pub struct $stats:ident {
            $( $(#[$fmeta:meta])* $field:ident $(: $kind:ident)? ),* $(,)?
        }
    ) => {
        #[derive(Debug, Default)]
        struct $cells {
            $( $field: ::std::sync::atomic::AtomicU64, )*
        }

        impl $cells {
            fn snapshot(&self) -> $stats {
                $stats {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )*
                }
            }
        }

        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $stats {
            $( $(#[$fmeta])* pub $field: u64, )*
        }

        impl $stats {
            /// Difference `self - earlier`, for interval measurements.
            /// Saturating: an out-of-order snapshot pair (e.g. racing
            /// samplers) clamps to zero instead of panicking in debug /
            /// wrapping in release. Gauges are carried over from `self`.
            pub fn since(&self, earlier: &$stats) -> $stats {
                $stats {
                    $( $field: counter_set!(@since self.$field, earlier.$field $(, $kind)?), )*
                }
            }

            /// Field-wise sum, for aggregating snapshots (several stores,
            /// or the windows of one run).
            pub fn merge(&self, other: &$stats) -> $stats {
                $stats { $( $field: self.$field + other.$field, )* }
            }

            /// Every field as `(name, value)`, in declaration order: the
            /// one listing the exporters render.
            pub fn fields(&self) -> [(&'static str, u64); [$(stringify!($field)),*].len()] {
                [$( (stringify!($field), self.$field), )*]
            }
        }
    };
}
pub(crate) use counter_set;

/// Atomic per-outcome transaction counters; cheap to clone (shared).
#[derive(Clone, Debug, Default)]
pub struct TxCounters {
    inner: Arc<TxCells>,
}

counter_set! {
    cells TxCells;
    /// Point-in-time view of [`TxCounters`].
    pub struct TxStats {
        /// Proposals fired by clients.
        submitted,
        /// Transactions committed as valid.
        valid,
        /// Aborted in validation: stale read version.
        mvcc_conflict,
        /// Aborted in validation: endorsement policy / signature failure.
        endorsement_failure,
        /// Fabric++: aborted during simulation (stale read observed live).
        early_abort_simulation,
        /// Fabric++: aborted by the reorderer (conflict-cycle member).
        early_abort_cycle,
        /// Fabric++: aborted by the orderer (within-block version mismatch).
        early_abort_version_mismatch,
    }
}

impl TxCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts a proposal submitted by a client.
    pub fn record_submitted(&self) {
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts the final outcome of one transaction.
    pub fn record_outcome(&self, code: ValidationCode) {
        let ctr = match code {
            ValidationCode::Valid => &self.inner.valid,
            ValidationCode::MvccConflict => &self.inner.mvcc_conflict,
            ValidationCode::EndorsementFailure => &self.inner.endorsement_failure,
            ValidationCode::EarlyAbortSimulation => &self.inner.early_abort_simulation,
            ValidationCode::EarlyAbortCycle => &self.inner.early_abort_cycle,
            ValidationCode::EarlyAbortVersionMismatch => {
                &self.inner.early_abort_version_mismatch
            }
        };
        ctr.fetch_add(1, Ordering::Relaxed);
    }

    /// Immutable snapshot of the current counts.
    pub fn snapshot(&self) -> TxStats {
        self.inner.snapshot()
    }
}

impl TxStats {
    /// All aborted transactions regardless of where they died: every
    /// field after `submitted` and `valid` is an abort reason.
    pub fn aborted(&self) -> u64 {
        self.fields()[2..].iter().map(|&(_, n)| n).sum()
    }

    /// Transactions that reached a final outcome downstream of the client.
    /// Client-side rejections are submitted but never finish, so
    /// `submitted - finished` does not drain to 0.
    pub fn finished(&self) -> u64 {
        self.valid + self.aborted()
    }

    /// Successful transactions per second over `elapsed`.
    pub fn valid_tps(&self, elapsed: Duration) -> f64 {
        per_second(self.valid, elapsed)
    }

    /// Aborted transactions per second over `elapsed`.
    pub fn aborted_tps(&self, elapsed: Duration) -> f64 {
        per_second(self.aborted(), elapsed)
    }
}

fn per_second(count: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        count as f64 / secs
    }
}

/// Records end-to-end transaction latencies and summarizes them
/// (min/max/avg as in the paper's Table 8, plus percentiles).
///
/// Internally a log-bucketed histogram (~4% relative error per bucket) plus
/// exact min/max/sum, so recording is O(1) and memory is constant.
#[derive(Clone, Debug)]
pub struct LatencyRecorder {
    inner: Arc<Mutex<LatencyInner>>,
}

#[derive(Debug)]
struct LatencyInner {
    /// Bucket i counts samples with micros in [1.05^i, 1.05^(i+1)).
    buckets: Vec<u64>,
    count: u64,
    sum_micros: u64,
    min_micros: u64,
    max_micros: u64,
    /// Whether `sum_micros` overflowed and was clamped to `u64::MAX`; once
    /// set, the arithmetic average is meaningless and the summary caps it
    /// at the exact maximum instead of reporting `u64::MAX / count`.
    saturated: bool,
}

const BUCKET_BASE: f64 = 1.05;
/// ~1.05^600 μs ≈ 5.3e12 μs ≈ 61 days: comfortably covers any run.
const NUM_BUCKETS: usize = 600;

fn bucket_of(micros: u64) -> usize {
    if micros <= 1 {
        return 0;
    }
    let idx = (micros as f64).ln() / BUCKET_BASE.ln();
    (idx as usize).min(NUM_BUCKETS - 1)
}

/// Smallest integer micros value that [`bucket_of`] maps into bucket `idx`:
/// the ceiling of the bucket's real-valued start `1.05^idx`. Truncating
/// instead (the historical bug) reported values *below* the bucket — a
/// single 2µs sample landed in bucket 14 (start ≈ 1.98) and came back as
/// p50 = 1µs, under the recorder's own exact minimum.
fn bucket_lower_bound(idx: usize) -> u64 {
    (BUCKET_BASE.powi(idx as i32).ceil() as u64).max(1)
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder {
            inner: Arc::new(Mutex::new(LatencyInner {
                buckets: vec![0; NUM_BUCKETS],
                count: 0,
                sum_micros: 0,
                min_micros: u64::MAX,
                max_micros: 0,
                saturated: false,
            })),
        }
    }

    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let mut g = self.inner.lock();
        g.buckets[bucket_of(micros)] += 1;
        g.count += 1;
        match g.sum_micros.checked_add(micros) {
            Some(sum) => g.sum_micros = sum,
            None => {
                g.sum_micros = u64::MAX;
                g.saturated = true;
            }
        }
        g.min_micros = g.min_micros.min(micros);
        g.max_micros = g.max_micros.max(micros);
    }

    /// Folds everything `other` has recorded into `self` (bucket-wise sum
    /// plus count/sum addition and min/max combination).
    ///
    /// This is what lets per-worker recorders stay private to their thread
    /// on hot paths — e.g. one recorder per validation-pool worker — and be
    /// aggregated once at reporting time instead of serializing every
    /// `record` through one shared `Mutex`. Merging a recorder with itself
    /// (same shared handle) doubles its contents, consistent with the sum
    /// semantics.
    pub fn merge(&self, other: &LatencyRecorder) {
        // Snapshot `other` first so merging a recorder into itself (or two
        // clones of the same handle) cannot deadlock on the shared lock.
        let (buckets, count, sum_micros, min_micros, max_micros, saturated) = {
            let g = other.inner.lock();
            (g.buckets.clone(), g.count, g.sum_micros, g.min_micros, g.max_micros, g.saturated)
        };
        if count == 0 {
            return;
        }
        let mut g = self.inner.lock();
        for (dst, src) in g.buckets.iter_mut().zip(buckets.iter()) {
            *dst += src;
        }
        g.count += count;
        g.saturated |= saturated;
        match g.sum_micros.checked_add(sum_micros) {
            Some(sum) => g.sum_micros = sum,
            None => {
                g.sum_micros = u64::MAX;
                g.saturated = true;
            }
        }
        g.min_micros = g.min_micros.min(min_micros);
        g.max_micros = g.max_micros.max(max_micros);
    }

    /// Interval quantiles: summarizes only what was recorded since the
    /// last call with the same `base`, then advances `base` to the
    /// current contents. The first call on a fresh
    /// [`LatencyBaseline`] covers everything recorded so far.
    ///
    /// This is the telemetry layer's per-window view: the baseline keeps
    /// a full copy of the bucket array, so the interval histogram is the
    /// element-wise difference and quantiles over it carry the same ~5%
    /// bucket error as [`LatencyRecorder::summary`]. Unlike `summary`,
    /// no exact per-interval min/max exists (the recorder only tracks
    /// lifetime extremes), so interval quantiles are reported on the
    /// bucket grid unclamped.
    ///
    /// Allocation-free: the baseline's bucket array is allocated once at
    /// construction and updated in place, so calling this on a hot
    /// (per-window) path performs no heap allocation.
    pub fn window_since(&self, base: &mut LatencyBaseline) -> WindowLatency {
        let g = self.inner.lock();
        let count = g.count.saturating_sub(base.count);
        let sum_micros = if g.saturated {
            u64::MAX
        } else {
            g.sum_micros.saturating_sub(base.sum_micros)
        };
        let pct = |p: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((count as f64) * p).ceil() as u64;
            let mut seen = 0u64;
            for (i, (&cur, &old)) in g.buckets.iter().zip(base.buckets.iter()).enumerate() {
                seen += cur.saturating_sub(old);
                if seen >= target {
                    return bucket_lower_bound(i);
                }
            }
            bucket_lower_bound(NUM_BUCKETS - 1)
        };
        let out = WindowLatency {
            count,
            sum_micros,
            p50_us: pct(0.50),
            p90_us: pct(0.90),
            p99_us: pct(0.99),
        };
        base.buckets.copy_from_slice(&g.buckets);
        base.count = g.count;
        base.sum_micros = g.sum_micros;
        out
    }

    /// Summarizes everything recorded so far.
    pub fn summary(&self) -> LatencySummary {
        let g = self.inner.lock();
        if g.count == 0 {
            return LatencySummary::default();
        }
        let pct = |p: f64| -> Duration {
            let target = ((g.count as f64) * p).ceil() as u64;
            let mut seen = 0u64;
            for (i, &c) in g.buckets.iter().enumerate() {
                seen += c;
                if seen >= target {
                    // The target sample lies inside bucket i, so its bucket
                    // lower bound is within one bucket width (~5%) below it
                    // — but the bound is a grid point, not an observed
                    // value, so clamp into the exact [min, max] envelope.
                    let v = bucket_lower_bound(i).clamp(g.min_micros, g.max_micros);
                    return Duration::from_micros(v);
                }
            }
            Duration::from_micros(g.max_micros)
        };
        // A saturated sum has no meaningful quotient; cap the average at the
        // exact maximum (the true average can never exceed it) and flag it.
        let avg = if g.saturated { g.max_micros } else { g.sum_micros / g.count };
        LatencySummary {
            count: g.count,
            min: Duration::from_micros(g.min_micros),
            max: Duration::from_micros(g.max_micros),
            avg: Duration::from_micros(avg),
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            saturated: g.saturated,
        }
    }
}

/// Mutable cursor for [`LatencyRecorder::window_since`]: a full copy of
/// the recorder's bucket array as of the previous window close, plus the
/// matching count/sum. One heap allocation at construction, none after.
#[derive(Debug, Clone)]
pub struct LatencyBaseline {
    buckets: Vec<u64>,
    count: u64,
    sum_micros: u64,
}

impl LatencyBaseline {
    /// A baseline at zero: the first `window_since` against it covers the
    /// recorder's whole history.
    pub fn new() -> Self {
        LatencyBaseline { buckets: vec![0; NUM_BUCKETS], count: 0, sum_micros: 0 }
    }
}

impl Default for LatencyBaseline {
    fn default() -> Self {
        Self::new()
    }
}

/// Quantiles over one interval of a [`LatencyRecorder`] (see
/// [`LatencyRecorder::window_since`]). Values are bucket-grid
/// microseconds (~5% relative error), unclamped: no exact per-interval
/// min/max exists to clamp into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowLatency {
    /// Samples recorded in the interval.
    pub count: u64,
    /// Sum of the interval's sample micros (`u64::MAX` when the
    /// underlying recorder's lifetime sum saturated).
    pub sum_micros: u64,
    /// Approximate median, microseconds.
    pub p50_us: u64,
    /// Approximate 90th percentile, microseconds.
    pub p90_us: u64,
    /// Approximate 99th percentile, microseconds.
    pub p99_us: u64,
}

impl WindowLatency {
    /// Arithmetic mean of the interval, microseconds (0 when empty;
    /// meaningless when the recorder's sum saturated).
    pub fn avg_us(&self) -> u64 {
        self.sum_micros.checked_div(self.count).unwrap_or(0)
    }
}

/// Summary statistics over recorded latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Exact minimum.
    pub min: Duration,
    /// Exact maximum.
    pub max: Duration,
    /// Exact average.
    pub avg: Duration,
    /// Approximate median (within 5% below the exact value, clamped into
    /// `[min, max]`).
    pub p50: Duration,
    /// Approximate 95th percentile (same error bound as `p50`).
    pub p95: Duration,
    /// Approximate 99th percentile (same error bound as `p50`).
    pub p99: Duration,
    /// Whether the latency sum overflowed: `avg` is then capped at `max`
    /// rather than reporting the quotient of a saturated sum.
    pub saturated: bool,
}

/// Atomic state-store access counters; cheap to clone (shared), updated by
/// the engine on every batched read/commit.
///
/// These exist to make the batched state-access contract *observable*: one
/// multi-get batch per block on the validation path, at most one shard-lock
/// acquisition per shard per block on the in-memory commit path, and one WAL
/// record (with one flush) per block on the LSM commit path. Tests and the
/// bench harness assert against snapshots of these counters instead of
/// instrumenting the hot path ad hoc.
#[derive(Clone, Debug, Default)]
pub struct StoreCounters {
    inner: Arc<StoreCountersInner>,
}

#[derive(Debug, Default)]
struct StoreCountersInner {
    cells: StoreCells,
    // Instantaneous engine gauges, refreshed by the engines at block
    // apply; kept out of `StoreStats` so `since`/`merge` stay pure
    // counter arithmetic. The telemetry layer samples these at window
    // close.
    gauge_memtable_bytes: AtomicU64,
    gauge_gc_floor: AtomicU64,
    gauge_live_pins: AtomicU64,
}

counter_set! {
    cells StoreCells;
    /// Point-in-time view of [`StoreCounters`].
    pub struct StoreStats {
        /// Batched version prefetches (multi-get calls).
        multi_get_batches,
        /// Total keys probed across all batched prefetches.
        multi_get_keys,
        /// Single-key point lookups (`get`).
        point_gets,
        /// Blocks installed via the batched commit path.
        blocks_applied,
        /// Shard write-lock acquisitions across all committed blocks (in-memory
        /// engine; at most `shards` per block under the batched contract).
        shard_lock_acquisitions,
        /// Group-commit WAL records written (LSM engine; exactly one per block).
        wal_records,
        /// WAL records that were additionally fsynced (`sync_writes` mode).
        wal_fsyncs,
        /// Commit-ticket (per-engine commit lock) acquisitions: block installs,
        /// LSM flushes, and compactions. Snapshot reads must never bump this.
        commit_ticket_acquisitions,
        /// Snapshot pins registered (`pin_snapshot` calls).
        snapshot_pins,
        /// At-height read batches served off version chains.
        snapshot_read_batches,
        /// Total keys resolved across all at-height read batches.
        snapshot_read_keys,
        /// Superseded versions trimmed from chains by the epoch GC.
        gc_trimmed_versions,
    }
}

impl StoreCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one batched version lookup over `keys` keys.
    pub fn record_multi_get(&self, keys: u64) {
        self.inner.cells.multi_get_batches.fetch_add(1, Ordering::Relaxed);
        self.inner.cells.multi_get_keys.fetch_add(keys, Ordering::Relaxed);
    }

    /// Counts one single-key point lookup.
    pub fn record_point_get(&self) {
        self.inner.cells.point_gets.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one committed block that took `shard_locks` write-lock
    /// acquisitions to install.
    pub fn record_block_applied(&self, shard_locks: u64) {
        self.inner.cells.blocks_applied.fetch_add(1, Ordering::Relaxed);
        self.inner.cells.shard_lock_acquisitions.fetch_add(shard_locks, Ordering::Relaxed);
    }

    /// Counts one group-commit WAL record (`fsynced` when the append also
    /// hit the disk with `sync_data`).
    pub fn record_wal_record(&self, fsynced: bool) {
        self.inner.cells.wal_records.fetch_add(1, Ordering::Relaxed);
        if fsynced {
            self.inner.cells.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one commit-ticket acquisition (the per-engine commit lock
    /// taken to install a block, flush, or compact). The lockless
    /// endorsement contract is that *reads never bump this*: snapshot
    /// reads-at-height proceed while a committer holds the ticket.
    pub fn record_commit_ticket(&self) {
        self.inner.cells.commit_ticket_acquisitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one snapshot pin registration (`pin_snapshot`).
    pub fn record_snapshot_pin(&self) {
        self.inner.cells.snapshot_pins.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one at-height read batch over `keys` keys (point gets at a
    /// height count as a batch of one; range scans count their result
    /// size).
    pub fn record_snapshot_read(&self, keys: u64) {
        self.inner.cells.snapshot_read_batches.fetch_add(1, Ordering::Relaxed);
        self.inner.cells.snapshot_read_keys.fetch_add(keys, Ordering::Relaxed);
    }

    /// Counts `n` superseded versions trimmed from version chains by the
    /// epoch GC.
    pub fn record_gc_trimmed(&self, n: u64) {
        self.inner.cells.gc_trimmed_versions.fetch_add(n, Ordering::Relaxed);
    }

    /// Refreshes the instantaneous memtable-size gauge (LSM engine; bytes
    /// buffered and not yet flushed).
    pub fn set_memtable_bytes(&self, bytes: u64) {
        self.inner.gauge_memtable_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Refreshes the instantaneous GC-floor gauge: the lowest block height
    /// whose versions the engine must still retain for pinned snapshots.
    pub fn set_gc_floor(&self, block: u64) {
        self.inner.gauge_gc_floor.store(block, Ordering::Relaxed);
    }

    /// Refreshes the instantaneous live-snapshot-pin gauge.
    pub fn set_live_pins(&self, pins: u64) {
        self.inner.gauge_live_pins.store(pins, Ordering::Relaxed);
    }

    /// Latest memtable-size gauge (bytes; 0 for non-LSM engines).
    pub fn memtable_bytes(&self) -> u64 {
        self.inner.gauge_memtable_bytes.load(Ordering::Relaxed)
    }

    /// Latest GC-floor gauge (block height).
    pub fn gc_floor(&self) -> u64 {
        self.inner.gauge_gc_floor.load(Ordering::Relaxed)
    }

    /// Latest live-snapshot-pin gauge.
    pub fn live_pins(&self) -> u64 {
        self.inner.gauge_live_pins.load(Ordering::Relaxed)
    }

    /// Immutable snapshot of the current counts.
    pub fn snapshot(&self) -> StoreStats {
        self.inner.cells.snapshot()
    }
}

/// One stage of the SOVC pipeline, for per-phase timing (paper §2.2 names
/// the phases; §4.2/§5.2 argue about where each one's time goes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Simulation + signing of one proposal on one endorser.
    Endorse,
    /// Batch ordering end to end: early abort + reordering + block
    /// formation and emission.
    Order,
    /// The reordering step alone (conflict graph, SCCs, cycle breaking,
    /// schedule) — a sub-phase of
    /// [`Phase::Order`], split out so reorder cost is visible separately
    /// from batch assembly and block sealing.
    Reorder,
    /// Endorsement-signature checking of one block (Fabric's VSCC) —
    /// measured from block arrival to the last signature verified, so
    /// under the parallel validation pool it reflects the pool's wall
    /// time, not the summed per-core work.
    ValidateVscc,
    /// MVCC serializability check of one block (under the state gate).
    ValidateMvcc,
    /// Batch-applying one block's writes + ledger append.
    Commit,
}

/// Per-phase latency histograms for the whole pipeline: one
/// [`LatencyRecorder`] per [`Phase`]. Cheap to clone (shared recorders);
/// safe to record from any thread.
///
/// Wired to the *reporting* peer (endorse/validate/commit) and each
/// channel's orderer (order), mirroring how [`TxCounters`] avoids
/// multiplying network-wide numbers by the peer count.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimers {
    endorse: LatencyRecorder,
    order: LatencyRecorder,
    reorder: LatencyRecorder,
    validate_vscc: LatencyRecorder,
    validate_mvcc: LatencyRecorder,
    commit: LatencyRecorder,
}

impl PhaseTimers {
    /// Creates empty per-phase recorders.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample for `phase`.
    pub fn record(&self, phase: Phase, took: Duration) {
        self.recorder(phase).record(took);
    }

    /// The recorder backing `phase`.
    pub fn recorder(&self, phase: Phase) -> &LatencyRecorder {
        match phase {
            Phase::Endorse => &self.endorse,
            Phase::Order => &self.order,
            Phase::Reorder => &self.reorder,
            Phase::ValidateVscc => &self.validate_vscc,
            Phase::ValidateMvcc => &self.validate_mvcc,
            Phase::Commit => &self.commit,
        }
    }

    /// Folds every phase `other` has recorded into `self` (bucket-wise sum
    /// via [`LatencyRecorder::merge`]). Lets per-worker `PhaseTimers` stay
    /// thread-private on hot paths and aggregate at reporting time.
    pub fn merge(&self, other: &PhaseTimers) {
        for phase in [
            Phase::Endorse,
            Phase::Order,
            Phase::Reorder,
            Phase::ValidateVscc,
            Phase::ValidateMvcc,
            Phase::Commit,
        ] {
            self.recorder(phase).merge(other.recorder(phase));
        }
    }

    /// Summarizes every phase recorded so far.
    pub fn summary(&self) -> PhaseSummary {
        PhaseSummary {
            endorse: self.endorse.summary(),
            order: self.order.summary(),
            reorder: self.reorder.summary(),
            validate_vscc: self.validate_vscc.summary(),
            validate_mvcc: self.validate_mvcc.summary(),
            commit: self.commit.summary(),
        }
    }
}

/// Point-in-time summaries of every [`PhaseTimers`] histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseSummary {
    /// Per-proposal simulation + signing.
    pub endorse: LatencySummary,
    /// Per-batch ordering (early abort + reorder + block formation).
    pub order: LatencySummary,
    /// Per-batch Algorithm-1 reordering alone (sub-phase of `order`).
    pub reorder: LatencySummary,
    /// Per-block endorsement-signature checking (VSCC).
    pub validate_vscc: LatencySummary,
    /// Per-block MVCC check.
    pub validate_mvcc: LatencySummary,
    /// Per-block write application + ledger append.
    pub commit: LatencySummary,
}

impl PhaseSummary {
    /// `(label, summary)` rows in pipeline order, for table printing.
    pub fn rows(&self) -> [(&'static str, LatencySummary); 6] {
        [
            ("endorse", self.endorse),
            ("order", self.order),
            ("order-reorder", self.reorder),
            ("validate-vscc", self.validate_vscc),
            ("validate-mvcc", self.validate_mvcc),
            ("commit", self.commit),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_outcomes() {
        let c = TxCounters::new();
        c.record_submitted();
        c.record_submitted();
        c.record_outcome(ValidationCode::Valid);
        c.record_outcome(ValidationCode::MvccConflict);
        c.record_outcome(ValidationCode::EarlyAbortCycle);
        let s = c.snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.valid, 1);
        assert_eq!(s.mvcc_conflict, 1);
        assert_eq!(s.early_abort_cycle, 1);
        assert_eq!(s.aborted(), 2);
        assert_eq!(s.finished(), 3);
    }

    #[test]
    fn counters_shared_across_clones() {
        let c = TxCounters::new();
        let c2 = c.clone();
        c2.record_outcome(ValidationCode::Valid);
        assert_eq!(c.snapshot().valid, 1);
    }

    #[test]
    fn counters_concurrent_updates() {
        let c = TxCounters::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.record_outcome(ValidationCode::Valid);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.snapshot().valid, 8000);
    }

    #[test]
    fn store_counters_track_batches_and_commits() {
        let c = StoreCounters::new();
        c.record_multi_get(128);
        c.record_multi_get(0);
        c.record_point_get();
        c.record_block_applied(7);
        c.record_wal_record(false);
        c.record_wal_record(true);
        let s = c.snapshot();
        assert_eq!(s.multi_get_batches, 2);
        assert_eq!(s.multi_get_keys, 128);
        assert_eq!(s.point_gets, 1);
        assert_eq!(s.blocks_applied, 1);
        assert_eq!(s.shard_lock_acquisitions, 7);
        assert_eq!(s.wal_records, 2);
        assert_eq!(s.wal_fsyncs, 1);
    }

    #[test]
    fn store_counters_shared_across_clones_and_since() {
        let c = StoreCounters::new();
        let c2 = c.clone();
        c2.record_block_applied(3);
        let a = c.snapshot();
        assert_eq!(a.blocks_applied, 1);
        c.record_block_applied(2);
        c.record_multi_get(5);
        let d = c.snapshot().since(&a);
        assert_eq!(d.blocks_applied, 1);
        assert_eq!(d.shard_lock_acquisitions, 2);
        assert_eq!(d.multi_get_batches, 1);
        assert_eq!(d.multi_get_keys, 5);
    }

    #[test]
    fn tps_computation() {
        let s = TxStats { valid: 100, mvcc_conflict: 50, ..Default::default() };
        assert!((s.valid_tps(Duration::from_secs(10)) - 10.0).abs() < 1e-9);
        assert!((s.aborted_tps(Duration::from_secs(10)) - 5.0).abs() < 1e-9);
        assert_eq!(s.valid_tps(Duration::ZERO), 0.0);
    }

    #[test]
    fn stats_since_subtracts() {
        let a = TxStats { submitted: 10, valid: 5, ..Default::default() };
        let b = TxStats { submitted: 25, valid: 9, mvcc_conflict: 3, ..Default::default() };
        let d = b.since(&a);
        assert_eq!(d.submitted, 15);
        assert_eq!(d.valid, 4);
        assert_eq!(d.mvcc_conflict, 3);
    }

    #[test]
    fn stats_since_saturates_on_out_of_order_snapshots() {
        let newer = TxStats { submitted: 10, valid: 5, ..Default::default() };
        let older = TxStats { submitted: 3, valid: 2, mvcc_conflict: 1, ..Default::default() };
        // Arguments swapped: every field clamps to zero instead of wrapping.
        let d = older.since(&newer);
        assert_eq!(d.submitted, 0);
        assert_eq!(d.valid, 0);
        assert_eq!(d.mvcc_conflict, 1);

        let s_new = StoreStats { multi_get_batches: 4, wal_records: 2, ..Default::default() };
        let s_old = StoreStats { multi_get_batches: 9, point_gets: 1, ..Default::default() };
        let d = s_new.since(&s_old);
        assert_eq!(d.multi_get_batches, 0);
        assert_eq!(d.wal_records, 2);
        assert_eq!(d.point_gets, 0);
    }

    #[test]
    fn latency_merge_sums_buckets_and_combines_extremes() {
        let a = LatencyRecorder::new();
        let b = LatencyRecorder::new();
        a.record(Duration::from_millis(10));
        a.record(Duration::from_millis(30));
        b.record(Duration::from_millis(1));
        b.record(Duration::from_millis(100));
        a.merge(&b);
        let s = a.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, Duration::from_millis(1));
        assert_eq!(s.max, Duration::from_millis(100));
        assert_eq!(s.avg, Duration::from_micros((10_000 + 30_000 + 1_000 + 100_000) / 4));
        // Percentile mass moved over too: b stays untouched.
        assert_eq!(b.summary().count, 2);
    }

    #[test]
    fn latency_merge_empty_and_self() {
        let a = LatencyRecorder::new();
        a.record(Duration::from_millis(5));
        a.merge(&LatencyRecorder::new()); // empty other: no-op, min intact
        let s = a.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, Duration::from_millis(5));

        a.merge(&a); // self-merge must not deadlock; doubles the contents
        let s = a.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, Duration::from_millis(5));
        assert_eq!(s.max, Duration::from_millis(5));
    }

    #[test]
    fn phase_timers_merge_folds_every_phase() {
        let a = PhaseTimers::new();
        let b = PhaseTimers::new();
        a.record(Phase::Endorse, Duration::from_millis(2));
        b.record(Phase::Endorse, Duration::from_millis(4));
        b.record(Phase::Commit, Duration::from_millis(8));
        a.merge(&b);
        let s = a.summary();
        assert_eq!(s.endorse.count, 2);
        assert_eq!(s.endorse.max, Duration::from_millis(4));
        assert_eq!(s.commit.count, 1);
        assert_eq!(s.order.count, 0);
    }

    #[test]
    fn latency_exact_min_max_avg() {
        let r = LatencyRecorder::new();
        r.record(Duration::from_millis(10));
        r.record(Duration::from_millis(20));
        r.record(Duration::from_millis(30));
        let s = r.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, Duration::from_millis(10));
        assert_eq!(s.max, Duration::from_millis(30));
        assert_eq!(s.avg, Duration::from_millis(20));
    }

    #[test]
    fn latency_percentiles_approximate() {
        let r = LatencyRecorder::new();
        for i in 1..=1000u64 {
            r.record(Duration::from_micros(i * 100)); // 0.1ms .. 100ms
        }
        let s = r.summary();
        let p50 = s.p50.as_micros() as f64;
        let p95 = s.p95.as_micros() as f64;
        // Within the ±5% bucket error plus slack.
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.10, "p50={p50}");
        assert!((p95 - 95_000.0).abs() / 95_000.0 < 0.10, "p95={p95}");
        assert!(s.p99 >= s.p95 && s.p95 >= s.p50);
    }

    #[test]
    fn empty_recorder_summary_is_zero() {
        let s = LatencyRecorder::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.avg, Duration::ZERO);
    }

    #[test]
    fn percentiles_never_report_below_min_single_sample() {
        // Regression: 2µs lands in bucket 14 (1.05^14 ≈ 1.98); the old
        // truncating lower bound reported p50 = 1µs < min = 2µs.
        let r = LatencyRecorder::new();
        r.record(Duration::from_micros(2));
        let s = r.summary();
        assert_eq!(s.min, Duration::from_micros(2));
        assert_eq!(s.p50, Duration::from_micros(2), "p50 below the exact minimum");
        assert_eq!(s.p95, Duration::from_micros(2));
        assert_eq!(s.p99, Duration::from_micros(2));
        assert!(!s.saturated);
    }

    #[test]
    fn percentiles_stay_inside_min_max_two_samples() {
        let r = LatencyRecorder::new();
        r.record(Duration::from_micros(2));
        r.record(Duration::from_micros(3));
        let s = r.summary();
        assert_eq!(s.min, Duration::from_micros(2));
        assert_eq!(s.max, Duration::from_micros(3));
        for p in [s.p50, s.p95, s.p99] {
            assert!(p >= s.min && p <= s.max, "percentile {p:?} outside [min, max]");
        }
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn bucket_lower_bound_consistent_with_bucket_of() {
        // The bound of a sample's bucket never exceeds the sample, and the
        // sample is within one bucket width (~5%) above the bound: that is
        // the whole percentile error contract.
        // (Samples beyond the last bucket's start — ~61 days — are capped
        // into it and only promise `<= max`, so stay below that here.)
        for m in (0u64..2_000).chain([10_000, 123_456, 10_000_000, 4_000_000_000_000]) {
            let lb = bucket_lower_bound(bucket_of(m));
            assert!(lb <= m.max(1), "bound {lb} above sample {m}");
            assert!((m as f64) < (lb as f64) * BUCKET_BASE + 1.0, "sample {m} > bound {lb} + 5%");
        }
        // A single recorded sample therefore always reports itself.
        for micros in [2u64, 3, 5, 10, 97, 1000, 123_456] {
            let r = LatencyRecorder::new();
            r.record(Duration::from_micros(micros));
            assert_eq!(r.summary().p50, Duration::from_micros(micros));
        }
    }

    #[test]
    fn saturated_sum_caps_avg_and_flags() {
        let r = LatencyRecorder::new();
        r.record(Duration::from_micros(u64::MAX)); // sum = u64::MAX exactly
        assert!(!r.summary().saturated, "one sample fits");
        r.record(Duration::from_micros(u64::MAX)); // overflow
        let s = r.summary();
        assert!(s.saturated, "overflowed sum must be flagged");
        assert_eq!(s.avg, s.max, "avg capped at the exact maximum");
    }

    #[test]
    fn merge_propagates_saturation() {
        let poisoned = LatencyRecorder::new();
        poisoned.record(Duration::from_micros(u64::MAX));
        poisoned.record(Duration::from_micros(u64::MAX));
        assert!(poisoned.summary().saturated);

        let clean = LatencyRecorder::new();
        clean.record(Duration::from_millis(1));
        clean.merge(&poisoned);
        let s = clean.summary();
        assert!(s.saturated, "merging a saturated recorder taints the target");
        assert_eq!(s.avg, s.max);

        // Merging two large-but-unsaturated sums can overflow at merge time.
        let a = LatencyRecorder::new();
        let b = LatencyRecorder::new();
        a.record(Duration::from_micros(u64::MAX));
        b.record(Duration::from_micros(u64::MAX));
        assert!(!a.summary().saturated && !b.summary().saturated);
        a.merge(&b);
        assert!(a.summary().saturated, "overflow during merge must be flagged");
    }

    #[test]
    fn bucket_function_monotonic() {
        let mut last = 0;
        for micros in [0u64, 1, 2, 10, 100, 1000, 10_000, 1_000_000, u64::MAX / 2] {
            let b = bucket_of(micros);
            assert!(b >= last);
            last = b;
        }
        assert!(bucket_of(u64::MAX) < NUM_BUCKETS);
    }
}
