//! The conflict graph (paper §5.1, step 1).
//!
//! Nodes are the transactions of one batch; there is a directed edge
//! `Ti → Tj` iff `Ti` writes a key that `Tj` reads (`Ti ⇝ Tj` in the
//! paper's notation), in which case a serializable schedule must commit
//! `Tj` **before** `Ti` — otherwise `Tj`'s read would be outdated. A
//! transaction never conflicts with itself (its own writes are its
//! read-your-own-writes, not a stale read).
//!
//! Two construction paths produce identical graphs:
//!
//! * [`ConflictGraph::build_bitset`] — the paper's method: per transaction
//!   a read bit-vector and a write bit-vector over the batch's unique keys,
//!   pairwise AND (quadratic in the batch size, as the paper notes, but
//!   bounded by the block size).
//! * [`ConflictGraph::build`] — an inverted-index method (for each key:
//!   writers × readers) that is asymptotically cheaper on sparse batches
//!   and is the default. A property test cross-validates the two.

use std::collections::HashMap;

use fabric_common::rwset::ReadWriteSet;
use fabric_common::{BitSet, Key};

use crate::scratch::{InternedBatch, KeyIndex};

/// Directed conflict graph with both adjacency directions materialized.
///
/// The adjacency vectors are kept at their high-water length so a graph
/// held in a [`crate::ReorderScratch`] can be rebuilt for a new batch
/// without reallocating: only the first [`len`](Self::len) entries are
/// active.
#[derive(Debug, Clone, Default)]
pub struct ConflictGraph {
    /// `children[i]` = sorted indices `j` with edge `i → j`
    /// (i writes a key j reads; j must commit before i).
    children: Vec<Vec<usize>>,
    /// `parents[j]` = sorted indices `i` with edge `i → j`.
    parents: Vec<Vec<usize>>,
    edge_count: usize,
    /// Active node count; `children`/`parents` may be longer (pooled).
    n: usize,
}

impl ConflictGraph {
    /// Builds the conflict graph using the inverted-index method (default).
    pub fn build(rwsets: &[&ReadWriteSet]) -> Self {
        let n = rwsets.len();
        // key → (reader indices, writer indices)
        let mut by_key: HashMap<&Key, (Vec<usize>, Vec<usize>)> = HashMap::new();
        for (i, rw) in rwsets.iter().enumerate() {
            for k in rw.reads.keys() {
                by_key.entry(k).or_default().0.push(i);
            }
            for k in rw.writes.keys() {
                by_key.entry(k).or_default().1.push(i);
            }
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (readers, writers) in by_key.values() {
            for &w in writers {
                for &r in readers {
                    if w != r {
                        children[w].push(r);
                    }
                }
            }
        }
        Self::finish(children)
    }

    /// Builds the conflict graph with the paper's bit-vector intersection
    /// (§5.1.1 step 1). Kept for fidelity and cross-validation.
    pub fn build_bitset(rwsets: &[&ReadWriteSet]) -> Self {
        let n = rwsets.len();
        // Assign each unique key a bit position.
        let mut key_ids: HashMap<&Key, usize> = HashMap::new();
        for rw in rwsets {
            for k in rw.reads.keys().chain(rw.writes.keys()) {
                let next = key_ids.len();
                key_ids.entry(k).or_insert(next);
            }
        }
        let nkeys = key_ids.len();
        let mut read_vec = Vec::with_capacity(n);
        let mut write_vec = Vec::with_capacity(n);
        for rw in rwsets {
            let mut r = BitSet::new(nkeys);
            for k in rw.reads.keys() {
                r.set(key_ids[k]);
            }
            let mut w = BitSet::new(nkeys);
            for k in rw.writes.keys() {
                w.set(key_ids[k]);
            }
            read_vec.push(r);
            write_vec.push(w);
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for (j, read) in read_vec.iter().enumerate() {
                if i != j && write_vec[i].intersects(read) {
                    children[i].push(j);
                }
            }
        }
        Self::finish(children)
    }

    /// Builds the conflict graph from a batch interned to dense key ids.
    ///
    /// Produces exactly the graph [`build`](Self::build) produces on the
    /// raw read/write sets (cross-validated by a property test against
    /// [`build_bitset`](Self::build_bitset)); the interned form is what the
    /// allocation-free hot path uses via [`crate::reorder_with`].
    pub fn build_interned(batch: &InternedBatch) -> Self {
        let mut g = Self::default();
        let mut index = KeyIndex::default();
        g.rebuild_interned(batch, &mut index);
        g
    }

    /// In-place [`build_interned`](Self::build_interned): rebuilds this
    /// graph for `batch`, reusing this graph's adjacency buffers and the
    /// caller's inverted `index`.
    pub(crate) fn rebuild_interned(&mut self, batch: &InternedBatch, index: &mut KeyIndex) {
        index.reset(batch.n_keys());
        for i in 0..batch.len() {
            let tx = i as u32;
            for &k in batch.reads(i) {
                index.add_reader(k, tx);
            }
            for &k in batch.writes(i) {
                index.add_writer(k, tx);
            }
        }
        self.rebuild_from_index(batch.len(), index);
    }

    /// Rebuilds this graph over the subset `survivors` (ascending global
    /// indices) of `batch`; node `li` of the result is transaction
    /// `survivors[li]`. Equivalent to building over the survivor rwsets.
    pub(crate) fn rebuild_interned_filtered(
        &mut self,
        batch: &InternedBatch,
        index: &mut KeyIndex,
        survivors: &[usize],
    ) {
        index.reset(batch.n_keys());
        for (li, &gi) in survivors.iter().enumerate() {
            let tx = li as u32;
            for &k in batch.reads(gi) {
                index.add_reader(k, tx);
            }
            for &k in batch.writes(gi) {
                index.add_writer(k, tx);
            }
        }
        self.rebuild_from_index(survivors.len(), index);
    }

    fn rebuild_from_index(&mut self, n: usize, index: &KeyIndex) {
        self.reset(n);
        for k in 0..index.active() {
            let (readers, writers) = index.bucket(k);
            for &w in writers {
                for &r in readers {
                    if w != r {
                        self.children[w as usize].push(r as usize);
                    }
                }
            }
        }
        self.finalize_edges();
    }

    /// Clears the first `n` adjacency lists (keeping capacity) and marks
    /// `n` nodes active, growing the pooled vectors only past their
    /// high-water mark.
    pub(crate) fn reset(&mut self, n: usize) {
        if self.children.len() < n {
            self.children.resize_with(n, Vec::new);
            self.parents.resize_with(n, Vec::new);
        }
        for v in &mut self.children[..n] {
            v.clear();
        }
        for v in &mut self.parents[..n] {
            v.clear();
        }
        self.n = n;
        self.edge_count = 0;
    }

    /// Sorts/dedups the child lists and derives parents and the edge
    /// count, all in place. Pushing in ascending `i` order leaves every
    /// parent list already sorted.
    fn finalize_edges(&mut self) {
        let n = self.n;
        let mut edge_count = 0;
        for ch in &mut self.children[..n] {
            ch.sort_unstable();
            ch.dedup();
            edge_count += ch.len();
        }
        let (children, parents) = (&self.children, &mut self.parents);
        for (i, ch) in children[..n].iter().enumerate() {
            for &j in ch {
                parents[j].push(i);
            }
        }
        self.edge_count = edge_count;
    }

    fn finish(mut children: Vec<Vec<usize>>) -> Self {
        let n = children.len();
        let mut parents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut edge_count = 0;
        for (i, ch) in children.iter_mut().enumerate() {
            ch.sort_unstable();
            ch.dedup();
            edge_count += ch.len();
            for &j in ch.iter() {
                parents[j].push(i);
            }
        }
        for p in &mut parents {
            p.sort_unstable();
        }
        ConflictGraph { children, parents, edge_count, n }
    }

    /// Number of nodes (transactions).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Total reserved adjacency capacity (scratch-reuse diagnostics).
    pub(crate) fn scratch_capacity(&self) -> usize {
        self.children.iter().map(Vec::capacity).sum::<usize>()
            + self.parents.iter().map(Vec::capacity).sum::<usize>()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Nodes `j` with edge `i → j` (readers of i's writes), ascending.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// Nodes `j` with edge `j → i` (writers into i's reads), ascending.
    pub fn parents(&self, i: usize) -> &[usize] {
        &self.parents[i]
    }

    /// All edges as `(from, to)` pairs, ascending (tests/debugging).
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.edge_count);
        for (i, ch) in self.children[..self.n].iter().enumerate() {
            for &j in ch {
                out.push((i, j));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_common::rwset::rwset_from_keys;
    use fabric_common::{Value, Version};
    use proptest::prelude::*;

    fn key(i: usize) -> Key {
        Key::composite("K", i as u64)
    }

    fn tx(reads: &[usize], writes: &[usize]) -> ReadWriteSet {
        let rk: Vec<Key> = reads.iter().map(|&i| key(i)).collect();
        let wk: Vec<Key> = writes.iter().map(|&i| key(i)).collect();
        rwset_from_keys(&rk, Version::GENESIS, &wk, &Value::from_i64(1))
    }

    /// The paper's Table 3 transactions.
    fn paper_example() -> Vec<ReadWriteSet> {
        vec![
            tx(&[0, 1], &[2]),
            tx(&[3, 4, 5], &[0]),
            tx(&[6, 7], &[3, 9]),
            tx(&[2, 8], &[1, 4]),
            tx(&[9], &[5, 6, 8]),
            tx(&[], &[7]),
        ]
    }

    #[test]
    fn paper_figure_3_edges() {
        // Figure 3's conflict graph, derived from Table 3:
        // T0 writes K2, read by T3           → T0→T3
        // T1 writes K0, read by T0           → T1→T0
        // T2 writes K3 (read by T1), K9 (T4) → T2→T1, T2→T4
        // T3 writes K1 (T0), K4 (T1)         → T3→T0, T3→T1
        // T4 writes K5 (T1), K6 (T2), K8 (T3)→ T4→T1, T4→T2, T4→T3
        // T5 writes K7, read by T2           → T5→T2
        let sets = paper_example();
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let cg = ConflictGraph::build(&refs);
        let expected = vec![
            (0, 3),
            (1, 0),
            (2, 1),
            (2, 4),
            (3, 0),
            (3, 1),
            (4, 1),
            (4, 2),
            (4, 3),
            (5, 2),
        ];
        assert_eq!(cg.edges(), expected);
        assert_eq!(cg.edge_count(), 10);
    }

    #[test]
    fn bitset_build_matches_on_paper_example() {
        let sets = paper_example();
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        assert_eq!(
            ConflictGraph::build(&refs).edges(),
            ConflictGraph::build_bitset(&refs).edges()
        );
    }

    #[test]
    fn no_self_edges() {
        let t = tx(&[0, 1], &[0, 1]);
        let refs = [&t];
        let cg = ConflictGraph::build(&refs);
        assert_eq!(cg.edge_count(), 0);
        let cg = ConflictGraph::build_bitset(&refs);
        assert_eq!(cg.edge_count(), 0);
    }

    #[test]
    fn parents_mirror_children() {
        let sets = paper_example();
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let cg = ConflictGraph::build(&refs);
        for i in 0..cg.len() {
            for &j in cg.children(i) {
                assert!(cg.parents(j).contains(&i));
            }
            for &j in cg.parents(i) {
                assert!(cg.children(j).contains(&i));
            }
        }
    }

    #[test]
    fn duplicate_key_conflicts_produce_one_edge() {
        // i writes two keys that j reads: still a single edge.
        let t0 = tx(&[], &[0, 1]);
        let t1 = tx(&[0, 1], &[]);
        let sets = [t0, t1];
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let cg = ConflictGraph::build(&refs);
        assert_eq!(cg.edges(), vec![(0, 1)]);
    }

    #[test]
    fn empty_graph() {
        let cg = ConflictGraph::build(&[]);
        assert!(cg.is_empty());
        assert_eq!(cg.edge_count(), 0);
        assert!(cg.edges().is_empty());
    }

    proptest! {
        /// The fast inverted-index construction and the paper's bit-vector
        /// construction agree on arbitrary batches.
        #[test]
        fn builds_agree(batch in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..12, 0..5), // reads
                proptest::collection::vec(0usize..12, 0..5), // writes
            ),
            0..14,
        )) {
            let sets: Vec<ReadWriteSet> = batch
                .iter()
                .map(|(r, w)| tx(r, w))
                .collect();
            let refs: Vec<&ReadWriteSet> = sets.iter().collect();
            prop_assert_eq!(
                ConflictGraph::build(&refs).edges(),
                ConflictGraph::build_bitset(&refs).edges()
            );
        }

        /// The interned-id construction (the allocation-free hot path)
        /// agrees with the paper's bit-vector construction over raw keys
        /// on arbitrary batches.
        #[test]
        fn interned_build_matches_bitset(batch in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..12, 0..5), // reads
                proptest::collection::vec(0usize..12, 0..5), // writes
            ),
            0..14,
        )) {
            let sets: Vec<ReadWriteSet> = batch
                .iter()
                .map(|(r, w)| tx(r, w))
                .collect();
            let refs: Vec<&ReadWriteSet> = sets.iter().collect();
            let mut table = fabric_common::KeyTable::new();
            let mut interned = InternedBatch::new();
            interned.intern(&mut table, &refs);
            let a = ConflictGraph::build_interned(&interned);
            let b = ConflictGraph::build_bitset(&refs);
            prop_assert_eq!(a.len(), b.len());
            prop_assert_eq!(a.edges(), b.edges());
        }

        /// Rebuilding a pooled graph in place across batches of varying
        /// shape always matches a fresh build.
        #[test]
        fn inplace_rebuild_matches_fresh(batches in proptest::collection::vec(
            proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..10, 0..4),
                    proptest::collection::vec(0usize..10, 0..4),
                ),
                0..10,
            ),
            1..5,
        )) {
            let mut table = fabric_common::KeyTable::new();
            let mut interned = InternedBatch::new();
            let mut index = KeyIndex::default();
            let mut pooled = ConflictGraph::default();
            for batch in &batches {
                let sets: Vec<ReadWriteSet> =
                    batch.iter().map(|(r, w)| tx(r, w)).collect();
                let refs: Vec<&ReadWriteSet> = sets.iter().collect();
                interned.intern(&mut table, &refs);
                pooled.rebuild_interned(&interned, &mut index);
                let fresh = ConflictGraph::build(&refs);
                prop_assert_eq!(pooled.len(), fresh.len());
                prop_assert_eq!(pooled.edges(), fresh.edges());
                for i in 0..fresh.len() {
                    prop_assert_eq!(pooled.parents(i), fresh.parents(i));
                }
            }
        }

        /// Edges exist exactly when a write-read key overlap exists.
        #[test]
        fn edge_iff_overlap(batch in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..8, 0..4),
                proptest::collection::vec(0usize..8, 0..4),
            ),
            2..8,
        )) {
            let sets: Vec<ReadWriteSet> = batch.iter().map(|(r, w)| tx(r, w)).collect();
            let refs: Vec<&ReadWriteSet> = sets.iter().collect();
            let cg = ConflictGraph::build(&refs);
            for i in 0..refs.len() {
                for j in 0..refs.len() {
                    if i == j { continue; }
                    let overlap = refs[i].writes_conflict_with_reads_of(refs[j]);
                    prop_assert_eq!(
                        cg.children(i).contains(&j),
                        overlap,
                        "edge {}→{} vs overlap {}", i, j, overlap
                    );
                }
            }
        }
    }
}
