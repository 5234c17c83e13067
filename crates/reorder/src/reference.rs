//! Algorithm 1 exactly as the paper states it (§5.1.1), kept as the test
//! reference for [`crate::reorder`].
//!
//! The reference enumerates every elementary cycle of each non-trivial SCC
//! with Johnson's algorithm ([`crate::johnson`]), then greedily aborts the
//! transaction on the most cycles ([`crate::cycle_break::break_cycles_greedy`]).
//! The runtime engine aborts a minimal feedback vertex set instead and
//! never enumerates a cycle. The differential tests below hold the two
//! together: identical abort sets on the paper's tables, the Appendix B
//! micro-benchmarks and a Smallbank-shaped batch, and on random digraphs
//! total aborts within 1 % of each other.

use fabric_common::rwset::{rwset_from_keys, ReadWriteSet};
use fabric_common::{Key, Value, Version};

use crate::graph::ConflictGraph;
use crate::johnson::{self, CycleOverflow};
use crate::{cycle_break, schedule, tarjan};

/// Output of [`algorithm1`].
#[derive(Debug)]
pub(crate) struct Algorithm1 {
    /// Aborted transactions, ascending.
    pub aborted: Vec<usize>,
    /// The survivors in the paper's schedule order.
    pub schedule: Vec<usize>,
    /// Elementary cycles enumerated.
    pub cycles: usize,
    /// Strongly connected subgraphs with more than one node.
    pub nontrivial_sccs: usize,
}

/// Runs Algorithm 1 on `rwsets`, enumerating at most `max_cycles` cycles
/// across the batch.
pub(crate) fn algorithm1(
    rwsets: &[&ReadWriteSet],
    max_cycles: usize,
) -> Result<Algorithm1, CycleOverflow> {
    let g = ConflictGraph::build(rwsets);
    let sccs: Vec<Vec<usize>> = tarjan::strongly_connected_components(&g)
        .into_iter()
        .filter(|scc| scc.len() > 1)
        .collect();
    let mut cycles = Vec::new();
    for scc in &sccs {
        cycles.extend(johnson::elementary_cycles(&g, scc, max_cycles - cycles.len())?);
    }
    let mut aborted = cycle_break::break_cycles_greedy(rwsets.len(), &cycles);
    aborted.sort_unstable();
    let survivors: Vec<usize> =
        (0..rwsets.len()).filter(|i| aborted.binary_search(i).is_err()).collect();
    let kept: Vec<&ReadWriteSet> = survivors.iter().map(|&i| rwsets[i]).collect();
    let schedule = schedule::paper_schedule(&ConflictGraph::build(&kept))
        .into_iter()
        .map(|li| survivors[li])
        .collect();
    Ok(Algorithm1 { aborted, schedule, cycles: cycles.len(), nontrivial_sccs: sccs.len() })
}

/// A transaction reading `reads` and writing `writes` (key indices), all
/// reads at the genesis version.
pub(crate) fn tx(reads: &[usize], writes: &[usize]) -> ReadWriteSet {
    let rk: Vec<Key> = reads.iter().map(|&i| Key::composite("K", i as u64)).collect();
    let wk: Vec<Key> = writes.iter().map(|&i| Key::composite("K", i as u64)).collect();
    rwset_from_keys(&rk, Version::GENESIS, &wk, &Value::from_i64(1))
}

/// Transactions whose conflict graph has exactly `edges`: each edge
/// `i → j` gets its own key, written by `i` and read by `j`.
pub(crate) fn txs_from_edges(n: usize, edges: &[(usize, usize)]) -> Vec<ReadWriteSet> {
    let mut reads = vec![Vec::new(); n];
    let mut writes = vec![Vec::new(); n];
    for (e, &(i, j)) in edges.iter().enumerate() {
        if i != j {
            writes[i].push(e);
            reads[j].push(e);
        }
    }
    (0..n).map(|v| tx(&reads[v], &writes[v])).collect()
}

/// Whether the subgraph induced on the `keep` nodes has a cycle (Kahn:
/// a cycle is whatever never reaches in-degree zero).
fn has_cycle(g: &ConflictGraph, keep: &[bool]) -> bool {
    let n = g.len();
    let mut indeg: Vec<usize> =
        (0..n).map(|v| g.parents(v).iter().filter(|&&w| keep[w]).count()).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&v| keep[v] && indeg[v] == 0).collect();
    let mut seen = 0;
    while let Some(v) = ready.pop() {
        seen += 1;
        for &w in g.children(v) {
            if keep[w] {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    ready.push(w);
                }
            }
        }
    }
    seen < keep.iter().filter(|&&k| k).count()
}

/// The survivors of `aborted` as a keep-mask over `g`'s nodes.
fn survivors_of(g: &ConflictGraph, aborted: &[usize]) -> Vec<bool> {
    let mut keep = vec![true; g.len()];
    for &v in aborted {
        keep[v] = false;
    }
    keep
}

/// The breaker's contract: the survivors are acyclic, and putting back
/// any single aborted node closes a cycle (the abort set is minimal).
pub(crate) fn assert_minimal_fvs(g: &ConflictGraph, aborted: &[usize]) {
    let mut keep = survivors_of(g, aborted);
    assert!(!has_cycle(g, &keep), "survivors of {aborted:?} must be acyclic");
    for &v in aborted {
        keep[v] = true;
        assert!(has_cycle(g, &keep), "re-admitting {v} must close a cycle");
        keep[v] = false;
    }
}

mod tests {
    use super::*;
    use crate::{reorder, verify_serializable, ReorderConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The cycle budget the reference runs with (the retired runtime
    /// default).
    const MAX_CYCLES: usize = 4096;

    /// Asserts that `reorder` and the reference abort the same set and emit
    /// the same serializable schedule; returns the reference's output.
    fn assert_same_aborts(sets: &[ReadWriteSet]) -> Algorithm1 {
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let reference = algorithm1(&refs, MAX_CYCLES).expect("within the cycle budget");
        let engine = reorder(&refs, &ReorderConfig::default());
        assert_eq!(engine.aborted, reference.aborted);
        assert_eq!(engine.schedule, reference.schedule);
        assert_eq!(engine.stats.nontrivial_sccs, reference.nontrivial_sccs);
        assert!(verify_serializable(&refs, &engine.schedule));
        reference
    }

    #[test]
    fn table_3_walkthrough_matches() {
        // §5.1.1 / Figure 4: three cycles in two SCCs; aborts {T0, T2},
        // schedule T5 ⇒ T1 ⇒ T3 ⇒ T4.
        let sets = [
            tx(&[0, 1], &[2]),
            tx(&[3, 4, 5], &[0]),
            tx(&[6, 7], &[3, 9]),
            tx(&[2, 8], &[1, 4]),
            tx(&[9], &[5, 6, 8]),
            tx(&[], &[7]),
        ];
        let reference = assert_same_aborts(&sets);
        assert_eq!(reference.aborted, vec![0, 2]);
        assert_eq!(reference.schedule, vec![5, 1, 3, 4]);
        assert_eq!((reference.cycles, reference.nontrivial_sccs), (3, 2));
    }

    #[test]
    fn tables_1_and_2_match() {
        // Table 1's writer of k1 and its three readers: no cycle, so both
        // schedule all four (Table 2 is one such order).
        let sets = [tx(&[], &[1]), tx(&[1, 2], &[2]), tx(&[1, 3], &[3]), tx(&[1, 3], &[4])];
        let reference = assert_same_aborts(&sets);
        assert!(reference.aborted.is_empty());
        assert_eq!(reference.schedule.len(), 4);
    }

    #[test]
    fn fig15_shifts_match() {
        // Appendix B.1: 512 writers then 512 readers, with `shift` readers
        // moved to the front.
        for shift in (0..=512).step_by(32) {
            let mut sets: Vec<ReadWriteSet> = (0..shift).map(|i| tx(&[511 - i], &[])).collect();
            sets.extend((0..512).map(|k| tx(&[], &[k])));
            sets.extend((0..512 - shift).map(|k| tx(&[k], &[])));
            assert!(assert_same_aborts(&sets).aborted.is_empty(), "shift {shift}");
        }
    }

    #[test]
    fn fig16_cycle_lengths_match() {
        // Appendix B.2: 1024 / t cycles of length t, each
        // T[r(k0),w(k0)], T[r(k0),w(k1)], …, T[r(k_{t-2}),w(k0)].
        for t in [2usize, 4, 8, 16, 32, 64, 128, 256, 512] {
            let mut sets = Vec::new();
            for base in (0..1024).step_by(t) {
                sets.push(tx(&[base], &[base]));
                for i in 1..t {
                    sets.push(tx(&[base + i - 1], &[if i == t - 1 { base } else { base + i }]));
                }
            }
            let reference = assert_same_aborts(&sets);
            assert_eq!(reference.aborted.len(), 1024 / t, "one abort per cycle at t = {t}");
        }
    }

    #[test]
    fn smallbank_batch_matches() {
        // One 1024-tx block of `sb_uniform`'s shape: Smallbank over 20 000
        // accounts, uniform, 95 % writes. Account `a` is checking key 2a and
        // savings key 2a + 1.
        let mut rng = StdRng::seed_from_u64(11);
        let sets: Vec<ReadWriteSet> = (0..1024)
            .map(|_| {
                let a = 2 * rng.random_range(0..20_000usize);
                let b = 2 * rng.random_range(0..20_000usize);
                if rng.random::<f64>() < 0.05 {
                    return tx(&[a, a + 1], &[]); // Balance
                }
                match rng.random_range(0..5) {
                    0 => tx(&[a, a + 1, b], &[a, a + 1, b]), // Amalgamate
                    1 => tx(&[a], &[a]),                     // DepositChecking
                    2 => tx(&[a + 1], &[a + 1]),             // TransactSavings
                    3 => tx(&[a, b], &[a, b]),               // SendPayment
                    _ => tx(&[a, a + 1], &[a]),              // WriteCheck
                }
            })
            .collect();
        let reference = assert_same_aborts(&sets);
        assert!(reference.nontrivial_sccs > 0, "the batch has cycles to break");
    }

    #[test]
    fn random_digraphs_abort_within_one_percent() {
        // 5 000 seeded digraphs of 2–15 nodes and up to 4n edges. Neither
        // engine is uniformly smaller: the greedy is not minimal, the
        // breaker is not minimum. Graphs past the reference's cycle budget
        // are skipped.
        let mut rng = StdRng::seed_from_u64(31);
        let (mut engine_total, mut reference_total) = (0usize, 0usize);
        for _ in 0..5_000 {
            let n = rng.random_range(2..16usize);
            let edges: Vec<(usize, usize)> = (0..rng.random_range(0..4 * n + 1))
                .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
                .collect();
            let sets = txs_from_edges(n, &edges);
            let refs: Vec<&ReadWriteSet> = sets.iter().collect();
            let Ok(reference) = algorithm1(&refs, MAX_CYCLES) else {
                continue;
            };
            let engine = reorder(&refs, &ReorderConfig::default());
            let g = ConflictGraph::build(&refs);
            assert!(!has_cycle(&g, &survivors_of(&g, &reference.aborted)));
            assert_minimal_fvs(&g, &engine.aborted);
            engine_total += engine.aborted.len();
            reference_total += reference.aborted.len();
        }
        assert!(reference_total > 0);
        let drift = engine_total.abs_diff(reference_total) as f64 / reference_total as f64;
        assert!(drift <= 0.01, "breaker {engine_total} vs reference {reference_total} aborts");
    }
}
