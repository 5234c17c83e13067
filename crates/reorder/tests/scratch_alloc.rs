//! Asserts the scratch-reuse contract of `reorder_with`: once the
//! per-worker arena has warmed up, repeat calls perform **zero heap
//! allocations**, on the enumeration path and the fallback alike.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! warms the arena on every batch shape it will measure, then counts
//! allocations across further calls. Debug builds keep the algorithm's
//! `debug_assert!` consistency checks, some of which allocate on purpose,
//! so the exact zero is asserted in release (`cargo test --release`, as CI
//! runs this crate) and a small bound in debug.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fabric_common::rwset::{rwset_from_keys, ReadWriteSet};
use fabric_common::{Key, Value, Version};
use fabric_reorder::{reorder_with, ReorderConfig, ReorderOutput, ReorderScratch};

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

fn tx(reads: &[u64], writes: &[u64]) -> ReadWriteSet {
    let rk: Vec<Key> = reads.iter().map(|&i| Key::composite("K", i)).collect();
    let wk: Vec<Key> = writes.iter().map(|&i| Key::composite("K", i)).collect();
    rwset_from_keys(&rk, Version::GENESIS, &wk, &Value::from_i64(1))
}

/// Batches of the same shape but fresh keys per batch, the way real cut
/// batches look to a warm worker: structure repeats, keys do not.
fn build_batches(make: impl Fn(u64) -> Vec<ReadWriteSet>, count: u64) -> Vec<Vec<ReadWriteSet>> {
    (0..count).map(make).collect()
}

fn measure(batches: &[Vec<ReadWriteSet>], cfg: &ReorderConfig) -> u64 {
    let ref_batches: Vec<Vec<&ReadWriteSet>> =
        batches.iter().map(|sets| sets.iter().collect()).collect();
    let mut scratch = ReorderScratch::new();
    let mut out = ReorderOutput::new();
    // Warm-up: every shape the measurement will replay.
    for refs in &ref_batches {
        reorder_with(refs, cfg, &mut scratch, &mut out);
    }
    let footprint = scratch.footprint();
    let before = allocations();
    for refs in &ref_batches {
        reorder_with(refs, cfg, &mut scratch, &mut out);
    }
    let allocated = allocations() - before;
    assert_eq!(scratch.footprint(), footprint, "steady state must not grow the arena");
    allocated
}

fn assert_steady_state(allocated: u64, what: &str) {
    if cfg!(debug_assertions) {
        // Debug builds run the algorithm's allocating debug_assert!
        // consistency checks (survivor-acyclicity re-derivation).
        assert!(allocated < 10_000, "{what}: {allocated} allocations in debug steady state");
    } else {
        assert_eq!(allocated, 0, "{what}: steady-state reorder loop must not allocate");
    }
}

#[test]
fn steady_state_edgeless_batches_do_not_allocate() {
    // Disjoint transactions: zero conflict edges, the common low-contention
    // case — exercises interning, graph build, and the fast-path schedule.
    let batches = build_batches(
        |seed| (0..64).map(|i| tx(&[seed * 1000 + 2 * i], &[seed * 1000 + 2 * i + 1])).collect(),
        8,
    );
    let allocated = measure(&batches, &ReorderConfig::default());
    assert_steady_state(allocated, "edgeless");
}

#[test]
fn steady_state_acyclic_batches_do_not_allocate() {
    // Conflict chains (edges, no cycles): exercises Tarjan and the paper
    // schedule walk over the full graph.
    let batches = build_batches(
        |seed| (0..64).map(|i| tx(&[seed * 1000 + i], &[seed * 1000 + i + 1])).collect(),
        8,
    );
    let allocated = measure(&batches, &ReorderConfig::default());
    assert_steady_state(allocated, "acyclic");
}

#[test]
fn steady_state_cyclic_batches_do_not_allocate() {
    // A few small cycles per batch: exercises Johnson enumeration, greedy
    // cycle breaking, and the survivor-graph rebuild + remap.
    let batches = build_batches(
        |seed| {
            let mut sets = Vec::new();
            for c in 0..4u64 {
                let a = seed * 1000 + 10 * c;
                let b = a + 1;
                sets.push(tx(&[a], &[b]));
                sets.push(tx(&[b], &[a]));
            }
            for i in 0..32u64 {
                sets.push(tx(&[seed * 1000 + 500 + 2 * i], &[seed * 1000 + 500 + 2 * i + 1]));
            }
            sets
        },
        8,
    );
    let allocated = measure(&batches, &ReorderConfig::default());
    assert_steady_state(allocated, "cyclic");
}

#[test]
fn steady_state_fallback_batches_do_not_allocate() {
    // One 160-tx ring with chords: a single SCC above
    // `max_scc_for_enumeration`, so every call takes the feedback-vertex-set
    // fallback (peeling, greedy picks and the re-admission DFS).
    let n = 160u64;
    let batches = build_batches(
        |seed| {
            let k = |i: u64| seed * 1000 + i % n;
            (0..n).map(|i| tx(&[k(i), k(i + 3)], &[k(i + 1), k(i + 7)])).collect()
        },
        8,
    );
    let cfg = ReorderConfig::default();
    let refs: Vec<&ReadWriteSet> = batches[0].iter().collect();
    assert!(fabric_reorder::reorder(&refs, &cfg).stats.fallback_used);
    let allocated = measure(&batches, &cfg);
    assert_steady_state(allocated, "fallback");
}
