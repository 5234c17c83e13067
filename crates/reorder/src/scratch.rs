//! Reusable scratch buffers for the reordering hot path.
//!
//! The reorderer runs once per cut batch, thousands of times per benchmark
//! run. The original implementation allocated every intermediate — the
//! key inverted index, both adjacency directions, Tarjan's stacks, the
//! breaker's degree tables, the schedule — afresh per call. This module
//! pools all of that in a [`ReorderScratch`] arena: every buffer is
//! `clear()`ed (keeping capacity) rather than dropped, so once a thread's
//! scratch has warmed up to the largest batch shape it has seen, a
//! [`crate::reorder_with`] call performs **zero heap allocations** in the
//! steady state (asserted by a counting-allocator test in this crate).
//!
//! The arena is deliberately per-thread, not shared: the ordering service
//! owns one `ReorderScratch`, so there is no synchronization on the hot
//! path.

use fabric_common::rwset::ReadWriteSet;
use fabric_common::KeyTable;

use crate::graph::ConflictGraph;

/// A list of variable-length `usize` segments stored flat (one backing
/// vector plus segment bounds), reused across calls without per-segment
/// allocation. Holds Tarjan components.
#[derive(Debug, Clone)]
pub(crate) struct SegList {
    items: Vec<usize>,
    /// `bounds[i]..bounds[i+1]` delimits segment `i`; always starts `[0]`.
    bounds: Vec<usize>,
}

impl Default for SegList {
    fn default() -> Self {
        SegList { items: Vec::new(), bounds: vec![0] }
    }
}

impl SegList {
    /// Drops all segments, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
        self.bounds.clear();
        self.bounds.push(0);
    }

    /// Appends one item to the segment currently being built.
    pub(crate) fn push(&mut self, v: usize) {
        self.items.push(v);
    }

    /// Closes the segment currently being built.
    pub(crate) fn end_seg(&mut self) {
        self.bounds.push(self.items.len());
    }

    /// Sorts the members of the segment currently being built.
    pub(crate) fn sort_open_seg(&mut self) {
        let start = *self.bounds.last().expect("bounds never empty");
        self.items[start..].sort_unstable();
    }

    /// Number of closed segments.
    pub(crate) fn count(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Members of closed segment `i`.
    pub(crate) fn get(&self, i: usize) -> &[usize] {
        &self.items[self.bounds[i]..self.bounds[i + 1]]
    }

    pub(crate) fn capacity(&self) -> usize {
        self.items.capacity() + self.bounds.capacity()
    }
}

/// One batch's read/write sets with every key replaced by its dense
/// [`KeyTable`] id — interned once, shared by the conflict-graph build
/// (and, in the ordering crate, by anything else that would otherwise
/// hash raw keys per stage).
#[derive(Debug, Default, Clone)]
pub struct InternedBatch {
    n_txs: usize,
    read_ids: Vec<u32>,
    read_bounds: Vec<u32>,
    write_ids: Vec<u32>,
    write_bounds: Vec<u32>,
    n_keys: usize,
}

impl InternedBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-interns `rwsets` into this batch, reusing `table` and all
    /// internal buffers. Ids are dense `0..n_keys()` in first-seen order.
    pub fn intern(&mut self, table: &mut KeyTable, rwsets: &[&ReadWriteSet]) {
        table.clear();
        self.n_txs = rwsets.len();
        self.read_ids.clear();
        self.write_ids.clear();
        self.read_bounds.clear();
        self.write_bounds.clear();
        self.read_bounds.push(0);
        self.write_bounds.push(0);
        for rw in rwsets {
            for k in rw.reads.keys() {
                self.read_ids.push(table.intern(k));
            }
            self.read_bounds.push(self.read_ids.len() as u32);
            for k in rw.writes.keys() {
                self.write_ids.push(table.intern(k));
            }
            self.write_bounds.push(self.write_ids.len() as u32);
        }
        self.n_keys = table.len();
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.n_txs
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.n_txs == 0
    }

    /// Number of distinct keys across the batch.
    pub fn n_keys(&self) -> usize {
        self.n_keys
    }

    /// Key ids read by transaction `i`.
    pub fn reads(&self, i: usize) -> &[u32] {
        &self.read_ids[self.read_bounds[i] as usize..self.read_bounds[i + 1] as usize]
    }

    /// Key ids written by transaction `i`.
    pub fn writes(&self, i: usize) -> &[u32] {
        &self.write_ids[self.write_bounds[i] as usize..self.write_bounds[i + 1] as usize]
    }

    fn capacity(&self) -> usize {
        self.read_ids.capacity()
            + self.read_bounds.capacity()
            + self.write_ids.capacity()
            + self.write_bounds.capacity()
    }
}

/// Inverted index key-id → (reader tx indices, writer tx indices), with
/// reusable per-key buckets.
#[derive(Debug, Default, Clone)]
pub(crate) struct KeyIndex {
    readers: Vec<Vec<u32>>,
    writers: Vec<Vec<u32>>,
    active: usize,
}

impl KeyIndex {
    /// Clears the first `n_keys` buckets (keeping their capacity) and
    /// grows the bucket arrays if this batch has more keys than any
    /// before it.
    pub(crate) fn reset(&mut self, n_keys: usize) {
        if self.readers.len() < n_keys {
            self.readers.resize_with(n_keys, Vec::new);
            self.writers.resize_with(n_keys, Vec::new);
        }
        for b in &mut self.readers[..n_keys] {
            b.clear();
        }
        for b in &mut self.writers[..n_keys] {
            b.clear();
        }
        self.active = n_keys;
    }

    pub(crate) fn add_reader(&mut self, key: u32, tx: u32) {
        self.readers[key as usize].push(tx);
    }

    pub(crate) fn add_writer(&mut self, key: u32, tx: u32) {
        self.writers[key as usize].push(tx);
    }

    pub(crate) fn bucket(&self, key: usize) -> (&[u32], &[u32]) {
        (&self.readers[key], &self.writers[key])
    }

    pub(crate) fn active(&self) -> usize {
        self.active
    }

    fn capacity(&self) -> usize {
        self.readers.iter().map(Vec::capacity).sum::<usize>()
            + self.writers.iter().map(Vec::capacity).sum::<usize>()
    }
}

/// Tarjan working set (see [`crate::tarjan`]).
#[derive(Debug, Default, Clone)]
pub(crate) struct TarjanScratch {
    pub(crate) index: Vec<usize>,
    pub(crate) lowlink: Vec<usize>,
    pub(crate) on_stack: Vec<bool>,
    pub(crate) stack: Vec<usize>,
    pub(crate) call_stack: Vec<(usize, usize)>,
}

impl TarjanScratch {
    fn capacity(&self) -> usize {
        self.index.capacity()
            + self.lowlink.capacity()
            + self.on_stack.capacity()
            + self.stack.capacity()
            + self.call_stack.capacity()
    }
}

/// Feedback-vertex-set working set (see [`crate::cycle_break`]).
#[derive(Debug, Default, Clone)]
pub(crate) struct FvsScratch {
    /// Per node: live, kept or aborted.
    pub(crate) state: Vec<u8>,
    /// Per node: live parents / children inside its component.
    pub(crate) in_deg: Vec<u32>,
    pub(crate) out_deg: Vec<u32>,
    /// Nodes whose live in- or out-degree reached zero, awaiting peeling.
    pub(crate) queue: Vec<usize>,
    /// Live members of the component being broken, ascending.
    pub(crate) live: Vec<usize>,
    /// Aborted members of the component being broken, in removal order.
    pub(crate) removed: Vec<usize>,
    /// Re-admission DFS stack and its per-search visit marks.
    pub(crate) stack: Vec<usize>,
    pub(crate) mark: Vec<u32>,
}

impl FvsScratch {
    fn capacity(&self) -> usize {
        self.state.capacity()
            + self.in_deg.capacity()
            + self.out_deg.capacity()
            + self.queue.capacity()
            + self.live.capacity()
            + self.removed.capacity()
            + self.stack.capacity()
            + self.mark.capacity()
    }
}

/// Arena holding every intermediate of one [`crate::reorder_with`]
/// call. Create once per ordering thread; reuse for every batch.
#[derive(Debug, Default, Clone)]
pub struct ReorderScratch {
    pub(crate) table: KeyTable,
    pub(crate) batch: InternedBatch,
    pub(crate) index: KeyIndex,
    pub(crate) graph: ConflictGraph,
    pub(crate) graph2: ConflictGraph,
    pub(crate) tarjan: TarjanScratch,
    pub(crate) sccs: SegList,
    /// SCC segment indices ordered by smallest member (the paper's
    /// deterministic iteration order).
    pub(crate) scc_order: Vec<u32>,
    pub(crate) fvs: FvsScratch,
    /// Node index → rank of its SCC in the deterministic `scc_order`
    /// iteration (abort-provenance lookup; filled whenever Tarjan runs).
    pub(crate) scc_of: Vec<u32>,
    pub(crate) survivors: Vec<usize>,
    pub(crate) scheduled: Vec<bool>,
    pub(crate) local_order: Vec<usize>,
}

impl ReorderScratch {
    /// Creates an empty arena; buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total reserved capacity across every pooled buffer, in elements.
    ///
    /// Diagnostics for the scratch-reuse contract: after warm-up on a
    /// fixed batch shape, repeat calls must leave this number unchanged
    /// (no buffer grew, nothing was dropped and re-allocated).
    pub fn footprint(&self) -> usize {
        self.table.capacity()
            + self.batch.capacity()
            + self.index.capacity()
            + self.graph.scratch_capacity()
            + self.graph2.scratch_capacity()
            + self.tarjan.capacity()
            + self.sccs.capacity()
            + self.scc_order.capacity()
            + self.fvs.capacity()
            + self.scc_of.capacity()
            + self.survivors.capacity()
            + self.scheduled.capacity()
            + self.local_order.capacity()
    }
}

/// Cycle-membership provenance for one aborted transaction: which
/// strongly connected subgraph doomed it, and how big that subgraph was.
///
/// `scc` is the rank of the component in the reorderer's deterministic
/// iteration order (components sorted by smallest member), so two aborted
/// transactions with equal `scc` died breaking the same knot of cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AbortScc {
    /// Deterministic rank of the component containing the transaction.
    pub scc: u32,
    /// Number of transactions in that component.
    pub size: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::tx;

    #[test]
    fn seg_list_round_trip() {
        let mut s = SegList::default();
        s.clear();
        s.push(3);
        s.push(1);
        s.sort_open_seg();
        s.end_seg();
        s.push(9);
        s.end_seg();
        assert_eq!(s.count(), 2);
        assert_eq!(s.get(0), &[1, 3]);
        assert_eq!(s.get(1), &[9]);
        s.clear();
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn interned_batch_ids_are_dense_and_shared() {
        let sets = [tx(&[0, 1], &[2]), tx(&[2], &[0])];
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let mut table = KeyTable::new();
        let mut b = InternedBatch::new();
        b.intern(&mut table, &refs);
        assert_eq!(b.len(), 2);
        assert_eq!(b.n_keys(), 3);
        // tx0 reads K0, K1 → ids 0, 1; writes K2 → id 2.
        assert_eq!(b.reads(0), &[0, 1]);
        assert_eq!(b.writes(0), &[2]);
        // tx1 reads K2 (already id 2), writes K0 (id 0).
        assert_eq!(b.reads(1), &[2]);
        assert_eq!(b.writes(1), &[0]);
    }

    #[test]
    fn interned_batch_reuse_resets_ids() {
        let mut table = KeyTable::new();
        let mut b = InternedBatch::new();
        let first = [tx(&[0, 1, 2], &[3])];
        let refs: Vec<&ReadWriteSet> = first.iter().collect();
        b.intern(&mut table, &refs);
        assert_eq!(b.n_keys(), 4);
        let second = [tx(&[7], &[8])];
        let refs: Vec<&ReadWriteSet> = second.iter().collect();
        b.intern(&mut table, &refs);
        assert_eq!(b.n_keys(), 2);
        assert_eq!(b.reads(0), &[0], "ids restart from zero per batch");
        assert_eq!(b.writes(0), &[1]);
    }

    #[test]
    fn footprint_is_stable_after_warmup() {
        let mut scratch = ReorderScratch::new();
        let sets: Vec<ReadWriteSet> = (0..32).map(|i| tx(&[i], &[(i + 1) % 32])).collect();
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let mut out = crate::ReorderResult::default();
        crate::reorder_with(&refs, &mut scratch, &mut out);
        let warm = scratch.footprint();
        assert!(warm > 0);
        for _ in 0..5 {
            crate::reorder_with(&refs, &mut scratch, &mut out);
        }
        assert_eq!(scratch.footprint(), warm, "steady-state call must not grow any buffer");
    }
}
