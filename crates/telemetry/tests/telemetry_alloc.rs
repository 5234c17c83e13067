//! Asserts the telemetry hot path's allocation contract: once the hub's
//! pre-reserved window ring has warmed up, per-block recording — counter
//! bumps, latency records, gauge writes, and `on_block_committed`
//! including a window close — performs **zero heap allocations**
//! (release builds; debug builds get a small bound for standard-library
//! debug machinery).
//!
//! This is the "always-on, low-overhead" obligation: a window close
//! snapshots every source and writes a `WindowRecord` into capacity the
//! hub reserved at construction, so steady-state observation never
//! touches the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use fabric_common::{
    LatencyRecorder, StoreCounters, SubsystemGauges, TxCounters, ValidationCode,
};
use fabric_telemetry::{TelemetryConfig, TelemetryHub};

struct CountingAlloc;

// Per-thread counter (const-initialized TLS never allocates, so it is safe
// to touch from inside the allocator): each test measures only its own
// thread, so the other tests of this binary and libtest's bookkeeping
// cannot leak allocations into a measured window.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn assert_steady_state(allocated: u64, what: &str) {
    if cfg!(debug_assertions) {
        assert!(allocated < 10_000, "{what}: {allocated} allocations in debug steady state");
    } else {
        assert_eq!(allocated, 0, "{what}: steady-state telemetry must not allocate");
    }
}

const TXS_PER_BLOCK: u64 = 16;
const WARM_BLOCKS: u64 = 8;
const MEASURED_BLOCKS: u64 = 64;

fn drive_block(
    block: u64,
    counters: &TxCounters,
    latency: &LatencyRecorder,
    store: &StoreCounters,
    gauges: &SubsystemGauges,
    hub: &TelemetryHub,
) {
    for i in 0..TXS_PER_BLOCK {
        counters.record_submitted();
        gauges.record_endorsement();
        latency.record(Duration::from_micros(50 + (block * 7 + i) % 400));
        if i % 5 == 0 {
            counters.record_outcome(ValidationCode::MvccConflict);
        } else {
            counters.record_outcome(ValidationCode::Valid);
        }
    }
    gauges.set_cutter_queue(TXS_PER_BLOCK / 2);
    gauges.record_vscc_batch_started();
    gauges.record_vscc_batch_done();
    gauges.record_consensus_msg();
    gauges.record_consensus_height();
    store.record_wal_record(true);
    store.set_memtable_bytes(4096 + block);
    store.set_gc_floor(block.saturating_sub(4));
    store.set_live_pins(1);
    hub.on_block_committed(block);
}

#[test]
fn steady_state_recording_and_window_close_do_not_allocate() {
    // Window every 4 blocks, capacity for every window the run produces.
    let hub = TelemetryHub::with_config(TelemetryConfig {
        window_blocks: 4,
        window_txs: 0,
        capacity: ((WARM_BLOCKS + MEASURED_BLOCKS) / 4 + 2) as usize,
    });
    let counters = TxCounters::new();
    let latency = LatencyRecorder::new();
    let store = StoreCounters::new();
    let gauges = SubsystemGauges::new();
    hub.connect(counters.clone(), latency.clone(), vec![store.clone()], gauges.clone());

    for b in 1..=WARM_BLOCKS {
        drive_block(b, &counters, &latency, &store, &gauges, &hub);
    }

    let before = allocations();
    for b in WARM_BLOCKS + 1..=WARM_BLOCKS + MEASURED_BLOCKS {
        drive_block(b, &counters, &latency, &store, &gauges, &hub);
    }
    let allocated = allocations() - before;

    // Sanity: the measured loop really recorded and really closed windows.
    let series = hub.finish().expect("hub enabled");
    assert_eq!(series.summed_stats().submitted, (WARM_BLOCKS + MEASURED_BLOCKS) * TXS_PER_BLOCK);
    assert!(series.len() >= ((WARM_BLOCKS + MEASURED_BLOCKS) / 4) as usize);
    assert_eq!(series.dropped_windows, 0);
    assert_steady_state(allocated, "per-block telemetry recording + window close");
}

#[test]
fn disabled_hub_does_not_allocate_at_all() {
    let hub = TelemetryHub::disabled();
    let before = allocations();
    for b in 1..=1_000 {
        hub.on_block_committed(b);
    }
    let allocated = allocations() - before;
    if cfg!(debug_assertions) {
        assert!(allocated < 100, "disabled hub allocated {allocated} times in debug");
    } else {
        assert_eq!(allocated, 0, "disabled hub must be allocation-free");
    }
}
