//! # fabric-reorder
//!
//! The Fabric++ transaction-reordering mechanism (Sharma et al., SIGMOD'19
//! §5.1) as a standalone library. Given the read/write sets of the
//! transactions buffered for one block, it:
//!
//! 1. builds the read-write **conflict graph** (`Ti → Tj` iff `Ti` writes a
//!    key that `Tj` read) ([`graph`]);
//! 2. partitions it into strongly connected subgraphs with **Tarjan's
//!    algorithm** ([`tarjan`]);
//! 3. breaks every non-trivial subgraph with a **minimal feedback vertex
//!    set** ([`cycle_break`]): peel nodes with no live in- or out-edges,
//!    abort the largest `in × out` product, repeat, then re-admit every
//!    aborted node that closes no cycle; and
//! 4. emits a **serializable schedule** of the survivors using the paper's
//!    source-chasing traversal ([`schedule`]).
//!
//! The top-level entry point is [`reorder`]. Ties are always broken toward
//! the smaller transaction index, so the worked example of §5.1.1 (six
//! transactions over ten keys) reproduces the paper's exact output:
//! schedule `T5 ⇒ T1 ⇒ T3 ⇒ T4`, aborts `{T0, T2}`.
//!
//! The paper's own steps 3–4 enumerate every elementary cycle (Johnson)
//! and greedily abort the transaction on the most cycles. Finding a
//! minimum abort set is the NP-hard feedback-vertex-set problem of its
//! Appendix B; cycle enumeration is exponential in the worst case, while
//! the breaker never enumerates a cycle. Algorithm 1 survives as this
//! crate's test reference, and a differential test holds the breaker to
//! it: on the paper's tables, the Appendix B micro-benchmarks and a
//! Smallbank-shaped batch both abort the same transactions. The breaker's
//! abort set is always minimal (no single aborted transaction can be put
//! back); Algorithm 1's is not always.
//!
//! The ordering service calls the mechanism once per cut batch, so the hot
//! path is engineered to be **allocation-free on repeat calls**:
//! [`reorder_with`] runs the identical algorithm over a caller-owned
//! [`ReorderScratch`] arena ([`scratch`]) — keys are interned to dense
//! `u32` ids once per batch, every graph/Tarjan/breaker/schedule buffer is
//! pooled, and Tarjan is skipped outright on an edgeless graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cycle_break;
pub mod graph;
#[cfg(test)]
mod johnson;
#[cfg(test)]
mod reference;
pub mod schedule;
pub mod scratch;
pub mod tarjan;

use fabric_common::rwset::ReadWriteSet;

pub use graph::ConflictGraph;
pub use schedule::{count_valid_in_order, kahn_schedule, verify_serializable};
pub use scratch::{AbortScc, InternedBatch, ReorderScratch};

/// Tuning for the reordering mechanism. The engine has no settings; the
/// type stays so [`reorder`]'s signature and its callers keep compiling.
#[derive(Debug, Clone, Default)]
pub struct ReorderConfig {}

/// Outcome of reordering one batch. [`reorder_with`] clears and refills
/// one in place, keeping the vectors' capacity.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReorderResult {
    /// Indices (into the input slice) of the surviving transactions, in
    /// serializable commit order.
    pub schedule: Vec<usize>,
    /// Indices of transactions aborted to break conflict cycles, ascending.
    pub aborted: Vec<usize>,
    /// Provenance parallel to `aborted`: the conflict-cycle component
    /// (deterministic rank + size) that doomed each aborted transaction.
    pub abort_sccs: Vec<AbortScc>,
    /// Diagnostics.
    pub stats: ReorderStats,
}

impl ReorderResult {
    /// Empties the index lists (keeping capacity) and zeroes the stats.
    pub fn clear(&mut self) {
        self.schedule.clear();
        self.aborted.clear();
        self.abort_sccs.clear();
        self.stats = ReorderStats::default();
    }
}

/// Diagnostics from one reordering run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReorderStats {
    /// Edges in the conflict graph.
    pub edges: usize,
    /// Strongly connected subgraphs with more than one node.
    pub nontrivial_sccs: usize,
    /// Always 0 (no cycle is enumerated); kept because the benchmark reads it.
    pub cycles: usize,
    /// Always `false` (there is one engine); kept because the benchmark reads it.
    pub fallback_used: bool,
}

/// Reorders `rwsets`, aborting a minimal set of cycle participants.
/// `_config` carries no settings (see [`ReorderConfig`]).
///
/// The returned schedule contains every input index exactly once across
/// `schedule` and `aborted`, and `schedule` is serializable: committing the
/// transactions in that order, each transaction's reads see exactly the
/// state its simulation saw (verified by [`schedule::verify_serializable`]
/// in this crate's tests for arbitrary inputs).
pub fn reorder(rwsets: &[&ReadWriteSet], _config: &ReorderConfig) -> ReorderResult {
    let mut out = ReorderResult::default();
    reorder_with(rwsets, &mut ReorderScratch::new(), &mut out);
    out
}

/// [`reorder`] over reusable buffers: every intermediate lives in the
/// caller-owned `scratch` arena and the result lands in `out`, so repeat
/// calls on a warm arena perform no heap allocation (asserted by this
/// crate's counting-allocator test).
///
/// This is the hot-path entry used by the ordering service (one arena
/// per ordering thread). Output is identical to [`reorder`] for
/// any scratch state — the arena only carries capacity, never data.
pub fn reorder_with(
    rwsets: &[&ReadWriteSet],
    scratch: &mut ReorderScratch,
    out: &mut ReorderResult,
) {
    out.clear();
    let n = rwsets.len();
    if n == 0 {
        return;
    }

    let ReorderScratch {
        table,
        batch,
        index,
        graph,
        graph2,
        tarjan: tarjan_scratch,
        sccs,
        scc_order,
        fvs,
        scc_of,
        survivors,
        scheduled,
        local_order,
    } = scratch;

    // Step 1: intern the batch's keys to dense ids once, then build the
    // conflict graph over ids (no further Key hashing or cloning).
    batch.intern(table, rwsets);
    graph.rebuild_interned(batch, index);
    out.stats.edges = graph.edge_count();

    // Fast path: with no conflicts there is nothing to decompose, and the
    // paper's source-chasing walk over an edgeless graph degenerates to
    // pushing 0..n and reversing.
    if graph.edge_count() == 0 {
        out.schedule.extend((0..n).rev());
        return;
    }

    // Step 2: strongly connected subgraphs.
    tarjan::scc_into(graph, tarjan_scratch, sccs, scc_order);
    // Node → SCC rank, for abort provenance (every node is in exactly
    // one component, so the map is total).
    scc_of.clear();
    scc_of.resize(n, u32::MAX);
    for (rank, &ci) in scc_order.iter().enumerate() {
        for &v in sccs.get(ci as usize) {
            scc_of[v] = rank as u32;
        }
    }
    out.stats.nontrivial_sccs =
        scc_order.iter().filter(|&&ci| sccs.get(ci as usize).len() > 1).count();
    if out.stats.nontrivial_sccs == 0 {
        // Acyclic already: no aborts; schedule the graph we have.
        schedule::paper_schedule_into(graph, scheduled, &mut out.schedule);
        return;
    }

    // Step 3: a minimal feedback vertex set of every non-trivial SCC.
    // Each such component holds a cycle, so at least one tx aborts.
    cycle_break::break_by_fvs_into(graph, sccs, scc_of, fvs, &mut out.aborted);
    out.aborted.sort_unstable();
    for &i in &out.aborted {
        let rank = scc_of[i];
        let size = sccs.get(scc_order[rank as usize] as usize).len() as u32;
        out.abort_sccs.push(scratch::AbortScc { scc: rank, size });
    }

    // Step 4: rebuild the conflict graph over the survivors and emit the
    // serializable schedule.
    survivors.clear();
    survivors.extend((0..n).filter(|i| out.aborted.binary_search(i).is_err()));
    graph2.rebuild_interned_filtered(batch, index, survivors);
    debug_assert!(
        tarjan::strongly_connected_components(graph2).iter().all(|c| c.len() == 1),
        "survivor graph must be acyclic"
    );
    schedule::paper_schedule_into(graph2, scheduled, local_order);
    out.schedule.extend(local_order.iter().map(|&li| survivors[li]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_common::rwset::{rwset_from_keys, RwSetBuilder};
    use fabric_common::{Key, Value, Version};

    fn key(i: usize) -> Key {
        Key::composite("K", i as u64)
    }

    /// Builds a transaction reading `reads` and writing `writes` (key
    /// indices), all reads at the genesis version — the setting of the
    /// paper's §5.1.1 example and appendix micro-benchmarks.
    fn tx(reads: &[usize], writes: &[usize]) -> ReadWriteSet {
        let rk: Vec<Key> = reads.iter().map(|&i| key(i)).collect();
        let wk: Vec<Key> = writes.iter().map(|&i| key(i)).collect();
        rwset_from_keys(&rk, Version::GENESIS, &wk, &Value::from_i64(1))
    }

    /// The six transactions of the paper's Table 3.
    fn paper_example() -> Vec<ReadWriteSet> {
        vec![
            tx(&[0, 1], &[2]),       // T0
            tx(&[3, 4, 5], &[0]),    // T1
            tx(&[6, 7], &[3, 9]),    // T2
            tx(&[2, 8], &[1, 4]),    // T3
            tx(&[9], &[5, 6, 8]),    // T4
            tx(&[], &[7]),           // T5
        ]
    }

    #[test]
    fn paper_walkthrough_exact_output() {
        // §5.1.1: aborts {T0, T2}; final schedule T5 ⇒ T1 ⇒ T3 ⇒ T4.
        let sets = paper_example();
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let result = reorder(&refs, &ReorderConfig::default());
        assert_eq!(result.aborted, vec![0, 2]);
        assert_eq!(result.schedule, vec![5, 1, 3, 4]);
        // Figure 4: two non-trivial strongly connected subgraphs holding
        // three cycles (c1, c2 in the green one; c3 in the red one), which
        // only Algorithm 1's enumeration counts.
        assert_eq!(result.stats.nontrivial_sccs, 2);
        let paper = reference::algorithm1(&refs, 4096).expect("three cycles");
        assert_eq!((paper.aborted, paper.cycles), (result.aborted, 3));
    }

    #[test]
    fn paper_walkthrough_abort_provenance() {
        // Figure 4: T0 dies breaking the green subgraph {T0, T1, T3}
        // (rank 0, size 3); T2 the red one {T2, T4} (rank 1, size 2).
        let sets = paper_example();
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let result = reorder(&refs, &ReorderConfig::default());
        assert_eq!(result.aborted, vec![0, 2]);
        assert_eq!(
            result.abort_sccs,
            vec![AbortScc { scc: 0, size: 3 }, AbortScc { scc: 1, size: 2 }]
        );
    }

    #[test]
    fn abort_provenance_parallel_to_aborted_on_fallback() {
        // Dense clique: every aborted tx names the (single) component it
        // belonged to.
        let n = 12;
        let all: Vec<usize> = (0..n).collect();
        let sets: Vec<ReadWriteSet> = (0..n).map(|i| tx(&all, &[i])).collect();
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let result = reorder(&refs, &ReorderConfig::default());
        assert_eq!(result.abort_sccs.len(), result.aborted.len());
        for info in &result.abort_sccs {
            assert_eq!(*info, AbortScc { scc: 0, size: n as u32 });
        }
    }

    #[test]
    fn paper_schedule_is_serializable() {
        let sets = paper_example();
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let result = reorder(&refs, &ReorderConfig::default());
        assert!(verify_serializable(&refs, &result.schedule));
    }

    #[test]
    fn tables_1_and_2_scenario() {
        // Table 1: T1 writes k1; T2, T3, T4 read k1. Arrival order
        // T1⇒T2⇒T3⇒T4 leaves only T1 valid; the reordering must schedule
        // T1 last so all four commit (Table 2 exhibits one such order).
        let t1 = tx(&[], &[1]);
        let t2 = tx(&[1, 2], &[2]);
        let t3 = tx(&[1, 3], &[3]);
        let t4 = tx(&[1, 3], &[4]);
        let sets = [t1, t2, t3, t4];
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();

        // Arrival order: exactly one valid (T1; the rest read stale k1).
        assert_eq!(count_valid_in_order(&refs, &[0, 1, 2, 3]), 1);

        let result = reorder(&refs, &ReorderConfig::default());
        assert!(result.aborted.is_empty(), "no cycles here");
        assert_eq!(result.schedule.len(), 4);
        assert!(verify_serializable(&refs, &result.schedule));
        assert_eq!(count_valid_in_order(&refs, &result.schedule), 4);
        // T1 (index 0) must be scheduled after every reader of k1.
        // T3 writes k3 which T4 reads, so T4 must precede T3 as well.
        let pos = |i: usize| result.schedule.iter().position(|&x| x == i).unwrap();
        assert!(pos(0) > pos(1) && pos(0) > pos(2) && pos(0) > pos(3));
        assert!(pos(3) < pos(2));
    }

    #[test]
    fn empty_input() {
        let result = reorder(&[], &ReorderConfig::default());
        assert!(result.schedule.is_empty());
        assert!(result.aborted.is_empty());
    }

    #[test]
    fn single_transaction() {
        let t = tx(&[0], &[0]);
        let refs = [&t];
        let result = reorder(&refs, &ReorderConfig::default());
        assert_eq!(result.schedule, vec![0]);
        assert!(result.aborted.is_empty());
    }

    #[test]
    fn self_conflict_is_not_a_cycle() {
        // A transaction reading and writing the same key conflicts with
        // itself only trivially; it must not be aborted.
        let sets = [tx(&[0], &[0]), tx(&[1], &[1])];
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let result = reorder(&refs, &ReorderConfig::default());
        assert!(result.aborted.is_empty());
        assert_eq!(result.schedule.len(), 2);
    }

    #[test]
    fn two_cycle_aborts_exactly_one() {
        // T0 reads k0 writes k1; T1 reads k1 writes k0: a 2-cycle.
        let sets = [tx(&[0], &[1]), tx(&[1], &[0])];
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let result = reorder(&refs, &ReorderConfig::default());
        assert_eq!(result.aborted.len(), 1);
        assert_eq!(result.aborted, vec![0], "tie broken toward smaller index");
        assert_eq!(result.schedule, vec![1]);
    }

    #[test]
    fn disjoint_transactions_all_survive() {
        let sets: Vec<ReadWriteSet> =
            (0..20).map(|i| tx(&[2 * i], &[2 * i + 1])).collect();
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let result = reorder(&refs, &ReorderConfig::default());
        assert!(result.aborted.is_empty());
        assert_eq!(result.schedule.len(), 20);
        assert!(verify_serializable(&refs, &result.schedule));
        assert_eq!(result.stats.edges, 0);
    }

    #[test]
    fn long_cycle_aborts_one_transaction() {
        // Appendix B.2 workload shape: T[r(k0),w(k1)], T[r(k1),w(k2)],
        // ..., T[r(kn-1),w(k0)] — one big cycle; aborting any single
        // transaction breaks it.
        let n = 50;
        let sets: Vec<ReadWriteSet> =
            (0..n).map(|i| tx(&[i], &[(i + 1) % n])).collect();
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let result = reorder(&refs, &ReorderConfig::default());
        assert_eq!(result.aborted.len(), 1);
        assert_eq!(result.schedule.len(), n - 1);
        assert!(verify_serializable(&refs, &result.schedule));
    }

    #[test]
    fn fallback_still_produces_serializable_schedule() {
        // A dense clique of conflicting transactions has exponentially many
        // cycles; the breaker never enumerates them and still produces a
        // serializable schedule.
        let n = 12;
        // Every tx reads every key and writes its own: complete conflict.
        let all: Vec<usize> = (0..n).collect();
        let sets: Vec<ReadWriteSet> = (0..n).map(|i| tx(&all, &[i])).collect();
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let result = reorder(&refs, &ReorderConfig::default());
        assert!(!result.schedule.is_empty());
        assert!(verify_serializable(&refs, &result.schedule));
        assert_eq!(result.schedule.len() + result.aborted.len(), n);
    }

    #[test]
    fn custom_lsm_shaped_batch_aborts_no_more_than_the_condensation_breaker() {
        // `reorder_probe`'s hot block, the paper's custom workload (1024
        // txs, RW = 8, HR 40 %, HW 10 %, HSS 1 % of 10 000 keys), seed 1: one
        // dense SCC. The SCC-condensation breaker that preceded the
        // feedback-vertex-set one aborted 595 of these transactions.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let pick = |rng: &mut StdRng, hot_p: f64| -> usize {
            if rng.random::<f64>() < hot_p {
                rng.random_range(0..100)
            } else {
                rng.random_range(100..10_000)
            }
        };
        let sets: Vec<ReadWriteSet> = (0..1024)
            .map(|_| {
                let reads: Vec<usize> = (0..8).map(|_| pick(&mut rng, 0.4)).collect();
                let writes: Vec<usize> = (0..8).map(|_| pick(&mut rng, 0.1)).collect();
                tx(&reads, &writes)
            })
            .collect();
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let result = reorder(&refs, &ReorderConfig::default());
        assert_eq!(result.schedule.len() + result.aborted.len(), 1024);
        assert!(verify_serializable(&refs, &result.schedule));
        assert!(result.aborted.len() <= 595, "{} aborts", result.aborted.len());
    }

    #[test]
    fn schedule_and_aborted_partition_input() {
        let sets = paper_example();
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let result = reorder(&refs, &ReorderConfig::default());
        let mut all: Vec<usize> = result.schedule.clone();
        all.extend(&result.aborted);
        all.sort_unstable();
        assert_eq!(all, (0..sets.len()).collect::<Vec<_>>());
    }

    #[test]
    fn reordering_beats_arrival_order_on_interleaved_workload() {
        // Appendix B.1: writers of k0..k2 before readers of k0..k2 in
        // arrival order → readers die; reordered → everything commits.
        let sets = [
            tx(&[], &[0]),
            tx(&[], &[1]),
            tx(&[], &[2]),
            tx(&[0], &[]),
            tx(&[1], &[]),
            tx(&[2], &[]),
        ];
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let arrival: Vec<usize> = (0..6).collect();
        assert_eq!(count_valid_in_order(&refs, &arrival), 3);
        let result = reorder(&refs, &ReorderConfig::default());
        assert_eq!(count_valid_in_order(&refs, &result.schedule), 6);
    }

    #[test]
    fn deterministic_across_runs() {
        let sets = paper_example();
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let a = reorder(&refs, &ReorderConfig::default());
        let b = reorder(&refs, &ReorderConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn warm_scratch_matches_fresh_reorder_across_varied_batches() {
        // One arena reused across batches of different shape and size must
        // produce exactly what a fresh call produces each time.
        let batches: Vec<Vec<ReadWriteSet>> = vec![
            paper_example(),
            (0..20).map(|i| tx(&[2 * i], &[2 * i + 1])).collect(),
            (0..50).map(|i| tx(&[i], &[(i + 1) % 50])).collect(),
            vec![tx(&[0], &[1]), tx(&[1], &[0])],
            paper_example(),
        ];
        let mut scratch = ReorderScratch::new();
        let mut out = ReorderResult::default();
        for sets in &batches {
            let refs: Vec<&ReadWriteSet> = sets.iter().collect();
            reorder_with(&refs, &mut scratch, &mut out);
            assert_eq!(out, reorder(&refs, &ReorderConfig::default()));
        }
    }

    #[test]
    fn zero_edge_fast_path_matches_general_walk() {
        // The fast path must emit exactly what the paper's walk emits on
        // an edgeless graph: (0..n) reversed.
        let sets: Vec<ReadWriteSet> = (0..7).map(|i| tx(&[2 * i], &[2 * i + 1])).collect();
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let result = reorder(&refs, &ReorderConfig::default());
        assert_eq!(result.schedule, (0..7).rev().collect::<Vec<_>>());
        assert!(verify_serializable(&refs, &result.schedule));
    }

    #[test]
    fn read_your_own_write_transactions() {
        // rwset where a tx both reads and writes overlapping keys mixed
        // with others; regression guard for index bookkeeping.
        let mut b0 = RwSetBuilder::new();
        b0.record_read(key(0), Some(Version::GENESIS));
        b0.record_write(key(0), Some(Value::from_i64(5)));
        b0.record_write(key(1), Some(Value::from_i64(5)));
        let t0 = b0.build();
        let t1 = tx(&[1], &[2]);
        let t2 = tx(&[2], &[0]);
        let sets = [t0, t1, t2];
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let result = reorder(&refs, &ReorderConfig::default());
        // Cycle: T0 →(k1) T1? T0 writes k1, T1 reads k1: T0→T1.
        // T1 writes k2, T2 reads k2: T1→T2. T2 writes k0, T0 reads k0:
        // T2→T0. A 3-cycle → exactly one abort.
        assert_eq!(result.aborted.len(), 1);
        assert!(verify_serializable(&refs, &result.schedule));
    }
}
