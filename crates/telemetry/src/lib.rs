//! # fabric-telemetry
//!
//! Windowed time-series telemetry for the Fabric++ reproduction: the
//! over-time half of the paper's evaluation instrument (Figs. 10–11
//! localize bottlenecks by watching throughput and phase cost evolve,
//! not by end-of-run aggregates).
//!
//! A [`TelemetryHub`] aggregates the pipeline's *existing* shared
//! counters — [`TxCounters`], the bucketed [`LatencyRecorder`], the
//! reporting peers' [`StoreCounters`], and the [`SubsystemGauges`] cells
//! the stages write — into fixed **logical-time** windows: a window
//! closes after `window_blocks` committed blocks or `window_txs`
//! submitted transactions, never after a wall-clock interval. Logical
//! boundaries keep the series meaningful across machines and keep the
//! instrument honest: a traced/telemetry run's *observable pipeline
//! bytes* are identical to an untraced one (the determinism conformance
//! harness proves this), because the hub only ever reads counters that
//! the stages already maintain.
//!
//! Per window the hub records goodput, submit rate, the full abort
//! breakdown, p50/p90/p99 commit latency (via
//! [`LatencyRecorder::window_since`] bucket diffs), per-window store
//! deltas (WAL frames/fsyncs, snapshot pins, GC trims), and the
//! subsystem gauges sampled at close (cutter queue depth, VSCC batches
//! in flight, memtable bytes, GC floor, live pins).
//!
//! Hot-path cost: [`TelemetryHub::on_block_committed`] is one mutex
//! acquisition per *block* (never per transaction) and performs **zero
//! heap allocations** once constructed — the window buffer is
//! pre-reserved and every record is plain-old-data
//! (`telemetry_alloc.rs` enforces this with a counting allocator).
//! When the buffer fills, new windows are counted as dropped rather
//! than reallocating; the soak gate asserts zero drops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use parking_lot::Mutex;

use fabric_common::{
    GaugeStats, LatencyBaseline, LatencyRecorder, StoreCounters, StoreStats, SubsystemGauges,
    TxCounters, TxStats, WindowLatency,
};

pub mod jsonl;
pub mod prom;

/// Logical-time window shape. Wall-clock never appears here by design.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Close the open window after this many committed blocks
    /// (0 disables the block boundary).
    pub window_blocks: u64,
    /// Close the open window once this many transactions have been
    /// submitted since it opened (0 disables the tx boundary). Checked at
    /// block commits, so tx windows close on block granularity.
    pub window_txs: u64,
    /// Maximum retained windows. The buffer is allocated once up front;
    /// a window closing beyond it is counted in
    /// [`TelemetrySeries::dropped_windows`] instead of reallocating.
    pub capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { window_blocks: 16, window_txs: 0, capacity: 4096 }
    }
}

/// One closed window: pure plain-old-data (every field `Copy`), so
/// recording it never allocates.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowRecord {
    /// 0-based window sequence number.
    pub index: u64,
    /// Logical clock at close: total blocks committed network-wide since
    /// the hub connected. Strictly increasing across windows — the
    /// monotone-watermark invariant.
    pub end_logical_block: u64,
    /// Highest chain height seen at close (max across channels).
    pub end_height: u64,
    /// Blocks committed inside this window.
    pub blocks: u64,
    /// Outcome deltas for this window: `valid` is the window's goodput,
    /// `submitted` its submit volume, and the abort fields its abort
    /// breakdown (early-abort / MVCC / VSCC / stale-read).
    pub stats: TxStats,
    /// Commit-latency quantiles over exactly this window's samples.
    pub latency: WindowLatency,
    /// Store-counter deltas (WAL records/fsyncs, snapshot pins, GC
    /// trims) summed over the reporting stores.
    pub store: StoreStats,
    /// Subsystem gauges: counter cells as window deltas, instantaneous
    /// cells (cutter queue, workers) as sampled at close.
    pub gauges: GaugeStats,
    /// Memtable bytes buffered at close, summed over reporting stores
    /// (0 on non-LSM engines).
    pub memtable_bytes: u64,
    /// Lowest GC floor across reporting stores at close.
    pub gc_floor: u64,
    /// GC-floor lag at close: `end_height - gc_floor` — how many blocks
    /// of version history pinned snapshots are holding live.
    pub gc_floor_lag: u64,
    /// Live snapshot pins at close, summed over reporting stores.
    pub live_pins: u64,
}

/// The closed-window series a run ends with (see
/// [`TelemetryHub::finish`]).
#[derive(Debug, Clone, Default)]
pub struct TelemetrySeries {
    /// Closed windows in order.
    pub windows: Vec<WindowRecord>,
    /// Windows that closed after the buffer filled and were not retained.
    pub dropped_windows: u64,
    /// Final outcome totals, snapshotted at [`TelemetryHub::finish`]; the
    /// windows partition exactly this.
    pub total: TxStats,
}

impl TelemetrySeries {
    /// Sum of every window's outcome deltas. With zero dropped windows
    /// this equals [`TelemetrySeries::total`] exactly (the deltas
    /// telescope), which is the soak gate's first invariant.
    pub fn summed_stats(&self) -> TxStats {
        self.windows.iter().fold(TxStats::default(), |acc, w| acc.merge(&w.stats))
    }

    /// Checks the window invariants against the run's final counters:
    ///
    /// 1. zero dropped windows;
    /// 2. the per-window counts telescope: their sum equals `expected`
    ///    field for field;
    /// 3. monotone watermarks: `end_logical_block` strictly increasing,
    ///    `end_height` non-decreasing, window indexes dense.
    ///
    /// Returns a human-readable violation, or `Ok(())`.
    pub fn check_invariants(&self, expected: &TxStats) -> Result<(), String> {
        if self.dropped_windows != 0 {
            return Err(format!("{} windows dropped; raise the capacity", self.dropped_windows));
        }
        let sum = self.summed_stats();
        if sum != *expected {
            return Err(format!(
                "window sums diverge from final counters: sum {sum:?} != total {expected:?}"
            ));
        }
        let mut last_logical = 0u64;
        let mut last_height = 0u64;
        for (i, w) in self.windows.iter().enumerate() {
            if w.index != i as u64 {
                return Err(format!("window {} carries index {}", i, w.index));
            }
            if w.end_logical_block <= last_logical && !(i == 0 && w.end_logical_block == 0) {
                return Err(format!(
                    "watermark not strictly increasing at window {i}: {} after {last_logical}",
                    w.end_logical_block
                ));
            }
            if w.end_height < last_height {
                return Err(format!(
                    "height watermark regressed at window {i}: {} after {last_height}",
                    w.end_height
                ));
            }
            last_logical = w.end_logical_block;
            last_height = w.end_height;
        }
        Ok(())
    }

    /// Number of closed windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no window ever closed.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

struct HubState {
    /// Sources; `None` until the network builder connects them.
    sources: Option<Sources>,
    lat_base: LatencyBaseline,
    base_stats: TxStats,
    base_store: StoreStats,
    base_gauges: GaugeStats,
    blocks_in_window: u64,
    committed_blocks: u64,
    max_height: u64,
    windows: Vec<WindowRecord>,
    dropped: u64,
}

struct Sources {
    counters: TxCounters,
    latency: LatencyRecorder,
    stores: Vec<StoreCounters>,
    gauges: SubsystemGauges,
}

impl Sources {
    fn fold_store(&self) -> StoreStats {
        self.stores.iter().fold(StoreStats::default(), |acc, s| acc.merge(&s.snapshot()))
    }

    fn fold_store_gauges(&self) -> (u64, u64, u64) {
        let mut memtable = 0u64;
        let mut floor = u64::MAX;
        let mut pins = 0u64;
        for s in &self.stores {
            memtable += s.memtable_bytes();
            floor = floor.min(s.gc_floor());
            pins += s.live_pins();
        }
        if floor == u64::MAX {
            floor = 0;
        }
        (memtable, floor, pins)
    }
}

struct HubInner {
    cfg: TelemetryConfig,
    state: Mutex<HubState>,
}

/// Shared handle to the telemetry layer; cheap to clone. A disabled hub
/// (the default everywhere telemetry was not asked for) makes every
/// operation a no-op, mirroring `TraceSink::disabled`.
#[derive(Clone, Default)]
pub struct TelemetryHub {
    inner: Option<Arc<HubInner>>,
}

impl std::fmt::Debug for TelemetryHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "TelemetryHub(disabled)"),
            Some(h) => {
                let g = h.state.lock();
                write!(
                    f,
                    "TelemetryHub(windows: {}, open blocks: {})",
                    g.windows.len(),
                    g.blocks_in_window
                )
            }
        }
    }
}

impl TelemetryHub {
    /// A hub that records nothing and costs one `Option` check per call.
    pub fn disabled() -> Self {
        TelemetryHub { inner: None }
    }

    /// An enabled hub. It starts unconnected — the network builder calls
    /// [`TelemetryHub::connect`] once the run's shared counters exist;
    /// commits before that point are counted into the first window once
    /// connected (their counters were zero anyway at build time).
    pub fn with_config(cfg: TelemetryConfig) -> Self {
        let capacity = cfg.capacity;
        TelemetryHub {
            inner: Some(Arc::new(HubInner {
                cfg,
                state: Mutex::new(HubState {
                    sources: None,
                    lat_base: LatencyBaseline::new(),
                    base_stats: TxStats::default(),
                    base_store: StoreStats::default(),
                    base_gauges: GaugeStats::default(),
                    blocks_in_window: 0,
                    committed_blocks: 0,
                    max_height: 0,
                    windows: Vec::with_capacity(capacity),
                    dropped: 0,
                }),
            })),
        }
    }

    /// Whether this hub records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Wires the run's shared counters in: the network-wide outcome
    /// counters and latency recorder, one [`StoreCounters`] per reporting
    /// peer, and the network's gauge cells. Baselines snap to the current
    /// counter values, so the first window measures from here.
    pub fn connect(
        &self,
        counters: TxCounters,
        latency: LatencyRecorder,
        stores: Vec<StoreCounters>,
        gauges: SubsystemGauges,
    ) {
        let Some(h) = &self.inner else { return };
        let mut g = h.state.lock();
        let src = Sources { counters, latency, stores, gauges };
        g.base_stats = src.counters.snapshot();
        g.base_store = src.fold_store();
        g.base_gauges = src.gauges.snapshot();
        // Align the latency baseline with whatever the recorder already
        // holds so the first window doesn't double-count pre-connect
        // samples.
        let _ = src.latency.window_since(&mut g.lat_base);
        g.sources = Some(src);
    }

    /// The per-block emit point: the reporting peer calls this after each
    /// block commit with the committed chain height. Advances the logical
    /// clock and closes the open window when a boundary is crossed.
    /// Allocation-free after construction.
    pub fn on_block_committed(&self, height: u64) {
        let Some(h) = &self.inner else { return };
        let mut g = h.state.lock();
        if g.sources.is_none() {
            return;
        }
        g.committed_blocks += 1;
        g.blocks_in_window += 1;
        g.max_height = g.max_height.max(height);

        let close_by_blocks =
            h.cfg.window_blocks > 0 && g.blocks_in_window >= h.cfg.window_blocks;
        let close_by_txs = h.cfg.window_txs > 0 && {
            let submitted = g.sources.as_ref().unwrap().counters.snapshot().submitted;
            submitted.saturating_sub(g.base_stats.submitted) >= h.cfg.window_txs
        };
        if close_by_blocks || close_by_txs {
            Self::close_window(&mut g);
        }
    }

    fn close_window(g: &mut HubState) {
        let src = g.sources.as_ref().expect("close_window requires sources");
        let stats_now = src.counters.snapshot();
        let store_now = src.fold_store();
        let gauges_now = src.gauges.snapshot();
        let (memtable_bytes, gc_floor, live_pins) = src.fold_store_gauges();
        let latency = src.latency.window_since(&mut g.lat_base);
        let record = WindowRecord {
            index: g.windows.len() as u64 + g.dropped,
            end_logical_block: g.committed_blocks,
            end_height: g.max_height,
            blocks: g.blocks_in_window,
            stats: stats_now.since(&g.base_stats),
            latency,
            store: store_now.since(&g.base_store),
            gauges: gauges_now.since(&g.base_gauges),
            memtable_bytes,
            gc_floor,
            gc_floor_lag: g.max_height.saturating_sub(gc_floor),
            live_pins,
        };
        if g.windows.len() < g.windows.capacity() {
            g.windows.push(record);
        } else {
            g.dropped += 1;
        }
        g.base_stats = stats_now;
        g.base_store = store_now;
        g.base_gauges = gauges_now;
        g.blocks_in_window = 0;
    }

    /// Closes the partial last window (so the series partitions the whole
    /// run — the sum invariant is exact) and returns the series. `None`
    /// on a disabled hub. Call after the pipeline has drained; calling
    /// again returns the same series (the final partial window closes at
    /// most once).
    pub fn finish(&self) -> Option<TelemetrySeries> {
        let h = self.inner.as_ref()?;
        let mut g = h.state.lock();
        let src = g.sources.as_ref()?;
        let total = src.counters.snapshot();
        let tail_activity = g.blocks_in_window > 0
            || total.finished() != g.base_stats.finished()
            || total.submitted != g.base_stats.submitted;
        if tail_activity {
            Self::close_window(&mut g);
        }
        Some(TelemetrySeries {
            windows: g.windows.clone(),
            dropped_windows: g.dropped,
            total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_common::ValidationCode;
    use std::time::Duration;

    fn hub_with_sources(cfg: TelemetryConfig) -> (TelemetryHub, TxCounters, LatencyRecorder) {
        let hub = TelemetryHub::with_config(cfg);
        let counters = TxCounters::new();
        let latency = LatencyRecorder::new();
        hub.connect(
            counters.clone(),
            latency.clone(),
            vec![StoreCounters::new()],
            SubsystemGauges::new(),
        );
        (hub, counters, latency)
    }

    fn drive(hub: &TelemetryHub, counters: &TxCounters, latency: &LatencyRecorder, blocks: u64) {
        for b in 1..=blocks {
            for _ in 0..3 {
                counters.record_submitted();
                counters.record_outcome(ValidationCode::Valid);
                latency.record(Duration::from_micros(100 + b));
            }
            counters.record_submitted();
            counters.record_outcome(ValidationCode::MvccConflict);
            hub.on_block_committed(b);
        }
    }

    #[test]
    fn windows_partition_the_run_exactly() {
        let (hub, counters, latency) =
            hub_with_sources(TelemetryConfig { window_blocks: 4, window_txs: 0, capacity: 64 });
        drive(&hub, &counters, &latency, 10);
        let series = hub.finish().unwrap();
        // 10 blocks at window 4 → windows of 4, 4, and a partial 2.
        assert_eq!(series.len(), 3);
        assert_eq!(series.windows[0].blocks, 4);
        assert_eq!(series.windows[2].blocks, 2);
        series.check_invariants(&counters.snapshot()).unwrap();
        // Per-window goodput and abort breakdown.
        assert_eq!(series.windows[0].stats.valid, 12);
        assert_eq!(series.windows[0].stats.mvcc_conflict, 4);
        assert_eq!(series.windows[0].latency.count, 12);
        // Window quantiles report bucket lower bounds, so allow the
        // recorder's ~5% log-bucket quantization below the true 101us.
        assert!(series.windows[0].latency.p50_us >= 95);
        assert!(series.windows[0].latency.p50_us <= 110);
    }

    #[test]
    fn tx_boundary_closes_windows() {
        let (hub, counters, latency) =
            hub_with_sources(TelemetryConfig { window_blocks: 0, window_txs: 8, capacity: 64 });
        drive(&hub, &counters, &latency, 6);
        let series = hub.finish().unwrap();
        // 4 submitted per block, boundary at 8 → close every 2 blocks.
        assert_eq!(series.len(), 3);
        assert!(series.windows.iter().all(|w| w.stats.submitted == 8));
        series.check_invariants(&counters.snapshot()).unwrap();
    }

    #[test]
    fn overflow_counts_dropped_windows() {
        let (hub, counters, latency) =
            hub_with_sources(TelemetryConfig { window_blocks: 1, window_txs: 0, capacity: 2 });
        drive(&hub, &counters, &latency, 5);
        let series = hub.finish().unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series.dropped_windows, 3);
        assert!(series.check_invariants(&counters.snapshot()).is_err());
    }

    #[test]
    fn disabled_hub_is_a_no_op() {
        let hub = TelemetryHub::disabled();
        hub.on_block_committed(1);
        assert!(hub.finish().is_none());
        assert!(!hub.is_enabled());
    }

    #[test]
    fn unconnected_hub_ignores_commits() {
        let hub = TelemetryHub::with_config(TelemetryConfig::default());
        hub.on_block_committed(1);
        assert!(hub.finish().is_none());
    }

    #[test]
    fn finish_is_stable_and_closes_the_tail_once() {
        let (hub, counters, latency) =
            hub_with_sources(TelemetryConfig { window_blocks: 4, window_txs: 0, capacity: 64 });
        drive(&hub, &counters, &latency, 5);
        let a = hub.finish().unwrap();
        let b = hub.finish().unwrap();
        assert_eq!(a.len(), b.len());
        b.check_invariants(&counters.snapshot()).unwrap();
    }

    #[test]
    fn watermarks_are_monotone() {
        let (hub, counters, latency) =
            hub_with_sources(TelemetryConfig { window_blocks: 2, window_txs: 0, capacity: 64 });
        drive(&hub, &counters, &latency, 9);
        let series = hub.finish().unwrap();
        for pair in series.windows.windows(2) {
            assert!(pair[1].end_logical_block > pair[0].end_logical_block);
            assert!(pair[1].end_height >= pair[0].end_height);
        }
    }
}
