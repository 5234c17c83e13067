//! Cycle breaking (paper §5.1.1 steps 3 & 4).
//!
//! Step 3 tabulates, per transaction, the cycles it participates in (the
//! paper's Table 4); step 4 "greedily remove\[s\] the transaction from S'
//! that occurs in most cycles, until all cycles have been resolved", with
//! ties broken toward the smaller transaction index so the mechanism is
//! deterministic.
//!
//! The paper notes the result is not guaranteed to abort a *minimal* set —
//! that would be the NP-hard feedback vertex set problem — but is a "very
//! lightweight way to generate a serializable schedule with a small number
//! of aborts".
//!
//! [`break_by_fvs`] is the overflow fallback, used when cycle enumeration
//! exceeds its budget. It computes a *minimal* feedback vertex set of each
//! non-trivial SCC without enumerating a single cycle: peel every node
//! whose live in- or out-degree is zero (it cannot lie on a cycle), abort
//! the live node with the largest `in × out` product, peel again, and
//! repeat until no live node remains. Then re-admit the aborted nodes in
//! reverse removal order, each one unless it would close a cycle among the
//! survivors of its SCC. The survivors are acyclic, and no single aborted
//! transaction can be put back without closing a cycle.

use crate::graph::ConflictGraph;
use crate::scratch::{FvsScratch, GreedyScratch, SegList, TarjanScratch};

/// Greedy max-participation cycle breaking over enumerated `cycles`
/// (each a vertex list). Returns the aborted node indices, unsorted.
pub fn break_cycles_greedy(n: usize, cycles: &[Vec<usize>]) -> Vec<usize> {
    let mut set = SegList::default();
    for cycle in cycles {
        for &v in cycle {
            set.push(v);
        }
        set.end_seg();
    }
    let mut scratch = GreedyScratch::default();
    let mut aborted = Vec::new();
    break_cycles_greedy_into(n, &set, &mut scratch, &mut aborted);
    aborted
}

/// Allocation-free core of [`break_cycles_greedy`]: cycles come in as
/// segments of a [`SegList`], aborted node indices are appended to
/// `aborted` (unsorted).
pub(crate) fn break_cycles_greedy_into(
    n: usize,
    cycles: &SegList,
    scratch: &mut GreedyScratch,
    aborted: &mut Vec<usize>,
) {
    let n_cycles = cycles.count();
    if n_cycles == 0 {
        return;
    }
    let GreedyScratch { counts, membership, alive } = scratch;
    // counts[v] = number of *alive* cycles containing v (paper Table 4).
    counts.clear();
    counts.resize(n, 0);
    // membership[v] = ids of cycles containing v.
    if membership.len() < n {
        membership.resize_with(n, Vec::new);
    }
    for m in &mut membership[..n] {
        m.clear();
    }
    for cid in 0..n_cycles {
        for &v in cycles.get(cid) {
            counts[v] += 1;
            membership[v].push(cid as u32);
        }
    }
    alive.clear();
    alive.resize(n_cycles, true);
    let mut alive_count = n_cycles;

    while alive_count > 0 {
        // popMax with smallest-index tie-break.
        let (victim, &max) = counts
            .iter()
            .enumerate()
            .max_by(|(ia, ca), (ib, cb)| ca.cmp(cb).then(ib.cmp(ia)))
            .expect("counts non-empty");
        debug_assert!(max > 0, "alive cycles imply a positive count");
        aborted.push(victim);
        for &cid in &membership[victim] {
            let cid = cid as usize;
            if alive[cid] {
                alive[cid] = false;
                alive_count -= 1;
                for &v in cycles.get(cid) {
                    counts[v] -= 1;
                }
            }
        }
        debug_assert_eq!(counts[victim], 0);
    }
}

/// Fallback breaker: a minimal feedback vertex set of every non-trivial
/// SCC of `g` (see the module docs). Deterministic: the greedy aborts the
/// largest `in × out` product, ties toward the smaller index. Returns the
/// aborted node indices, unsorted.
pub fn break_by_fvs(g: &ConflictGraph) -> Vec<usize> {
    let mut sccs = SegList::default();
    let mut order = Vec::new();
    crate::tarjan::scc_into(g, &mut TarjanScratch::default(), &mut sccs, &mut order);
    let mut scc_of = vec![0u32; g.len()];
    for ci in 0..sccs.count() {
        for &v in sccs.get(ci) {
            scc_of[v] = ci as u32;
        }
    }
    let mut aborted = Vec::new();
    break_by_fvs_into(g, &sccs, &scc_of, &mut FvsScratch::default(), &mut aborted);
    aborted
}

/// Node states of the fallback breaker (values of `FvsScratch::state`).
/// Nodes outside every non-trivial component stay `KEPT` throughout.
const LIVE: u8 = 0;
const KEPT: u8 = 1;
const ABORTED: u8 = 2;

/// Allocation-free core of [`break_by_fvs`] over components `g`'s caller
/// has already computed: `sccs` holds one segment per component (members
/// ascending) and `scc_of[v]` labels the component of node `v`. Aborted
/// node indices are appended to `aborted` (unsorted).
///
/// Components are broken independently: only edges inside a component can
/// lie on a cycle, so an abort in one never changes another's degrees.
pub(crate) fn break_by_fvs_into(
    g: &ConflictGraph,
    sccs: &SegList,
    scc_of: &[u32],
    scratch: &mut FvsScratch,
    aborted: &mut Vec<usize>,
) {
    let n = g.len();
    let FvsScratch { state, in_deg, out_deg, queue, live, removed, stack, mark } = scratch;
    state.clear();
    state.resize(n, KEPT);
    in_deg.clear();
    in_deg.resize(n, 0);
    out_deg.clear();
    out_deg.resize(n, 0);
    mark.clear();
    mark.resize(n, 0);
    let mut epoch = 0u32;

    for ci in 0..sccs.count() {
        let members = sccs.get(ci);
        if members.len() < 2 {
            continue;
        }
        let comp = Component { g, scc_of, label: scc_of[members[0]] };
        for &v in members {
            state[v] = LIVE;
            in_deg[v] = g.parents(v).iter().filter(|&&w| comp.contains(w)).count() as u32;
            out_deg[v] = g.children(v).iter().filter(|&&w| comp.contains(w)).count() as u32;
        }
        live.clear();
        live.extend_from_slice(members);
        removed.clear();
        queue.clear();

        // Greedy: every member of a strongly connected component starts
        // with in, out ≥ 1, so the first round aborts before it peels.
        loop {
            while let Some(v) = queue.pop() {
                if state[v] == LIVE {
                    state[v] = KEPT;
                    comp.detach(v, state, in_deg, out_deg, queue);
                }
            }
            // One pass drops the peeled nodes and finds the largest
            // in × out; `live` stays ascending, so the strict `>` keeps
            // the smaller index on ties.
            let mut best: Option<(u64, usize)> = None;
            live.retain(|&v| {
                let keep = state[v] == LIVE;
                let product = in_deg[v] as u64 * out_deg[v] as u64;
                if keep && best.is_none_or(|(top, _)| product > top) {
                    best = Some((product, v));
                }
                keep
            });
            let Some((_, victim)) = best else {
                break;
            };
            state[victim] = ABORTED;
            removed.push(victim);
            comp.detach(victim, state, in_deg, out_deg, queue);
        }

        // Re-admission, last removed first: keep a node unless a path
        // through the survivors leads from one of its children back to it.
        for &v in removed.iter().rev() {
            epoch += 2;
            if comp.closes_cycle(v, state, mark, epoch, stack) {
                aborted.push(v);
            } else {
                state[v] = KEPT;
            }
        }
    }
}

/// The component being broken: only edges between two of its members can
/// lie on one of its cycles.
#[derive(Clone, Copy)]
struct Component<'a> {
    g: &'a ConflictGraph,
    scc_of: &'a [u32],
    label: u32,
}

impl Component<'_> {
    fn contains(self, w: usize) -> bool {
        self.scc_of[w] == self.label
    }

    /// Takes `v` out of the live subgraph: its live neighbours lose one
    /// degree each, and any that reach zero queue for peeling.
    fn detach(
        self,
        v: usize,
        state: &[u8],
        in_deg: &mut [u32],
        out_deg: &mut [u32],
        queue: &mut Vec<usize>,
    ) {
        for &w in self.g.children(v) {
            if self.contains(w) && state[w] == LIVE {
                in_deg[w] -= 1;
                if in_deg[w] == 0 {
                    queue.push(w);
                }
            }
        }
        for &w in self.g.parents(v) {
            if self.contains(w) && state[w] == LIVE {
                out_deg[w] -= 1;
                if out_deg[w] == 0 {
                    queue.push(w);
                }
            }
        }
    }

    /// Whether re-admitting `v` would close a cycle: a DFS from `v` over
    /// kept members reaches one of `v`'s kept parents. Each call takes two
    /// fresh `mark` values: `epoch` tags those parents, so the search stops
    /// the moment it first sees one, and `epoch + 1` tags visited nodes.
    fn closes_cycle(
        self,
        v: usize,
        state: &[u8],
        mark: &mut [u32],
        epoch: u32,
        stack: &mut Vec<usize>,
    ) -> bool {
        let (target, seen) = (epoch, epoch + 1);
        let mut targets = 0;
        for &p in self.g.parents(v) {
            if self.contains(p) && state[p] == KEPT {
                mark[p] = target;
                targets += 1;
            }
        }
        if targets == 0 {
            return false;
        }
        stack.clear();
        stack.push(v);
        while let Some(u) = stack.pop() {
            for &w in self.g.children(u) {
                if mark[w] == target {
                    return true;
                }
                if self.contains(w) && state[w] == KEPT && mark[w] != seen {
                    mark[w] = seen;
                    stack.push(w);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_common::rwset::{rwset_from_keys, ReadWriteSet};
    use fabric_common::{Key, Value, Version};
    use proptest::prelude::*;

    fn tx(reads: &[usize], writes: &[usize]) -> ReadWriteSet {
        let rk: Vec<Key> = reads.iter().map(|&i| Key::composite("K", i as u64)).collect();
        let wk: Vec<Key> = writes.iter().map(|&i| Key::composite("K", i as u64)).collect();
        rwset_from_keys(&rk, Version::GENESIS, &wk, &Value::from_i64(1))
    }

    fn graph_of(txs: &[ReadWriteSet]) -> ConflictGraph {
        let refs: Vec<&ReadWriteSet> = txs.iter().collect();
        ConflictGraph::build(&refs)
    }

    #[test]
    fn paper_table_4_walkthrough() {
        // Cycles: c1 = {T0,T3}, c2 = {T0,T1,T3}, c3 = {T2,T4}.
        // Counts: T0=2, T1=1, T2=1, T3=2, T4=1, T5=0.
        // Greedy: T0 and T3 tie at 2 → pick T0 (smaller index); that kills
        // c1 and c2. Then T2 and T4 tie at 1 → pick T2; kills c3.
        let cycles = vec![vec![0, 3], vec![0, 3, 1], vec![2, 4]];
        let mut aborted = break_cycles_greedy(6, &cycles);
        aborted.sort_unstable();
        assert_eq!(aborted, vec![0, 2]);
    }

    #[test]
    fn no_cycles_no_aborts() {
        assert!(break_cycles_greedy(10, &[]).is_empty());
    }

    #[test]
    fn hub_transaction_aborted_first() {
        // Node 9 sits on every cycle; aborting it alone resolves all.
        let cycles = vec![vec![9, 1], vec![9, 2], vec![9, 3, 4], vec![9, 5]];
        assert_eq!(break_cycles_greedy(10, &cycles), vec![9]);
    }

    #[test]
    fn overlapping_cycles_resolved_incrementally() {
        // Chain of overlapping 2-cycles: {0,1},{1,2},{2,3}.
        // Counts: 0=1, 1=2, 2=2, 3=1 → abort 1 (kills first two), then
        // {2,3} remains with counts 2=1, 3=1 → abort 2.
        let cycles = vec![vec![0, 1], vec![1, 2], vec![2, 3]];
        let mut aborted = break_cycles_greedy(4, &cycles);
        aborted.sort_unstable();
        assert_eq!(aborted, vec![1, 2]);
    }

    #[test]
    fn ties_break_toward_smaller_index() {
        let cycles = vec![vec![5, 7]];
        assert_eq!(break_cycles_greedy(8, &cycles), vec![5]);
    }

    /// The graph with exactly `edges`: each edge `i → j` gets its own key,
    /// written by `i` and read by `j`.
    fn graph_from_edges(n: usize, edges: &[(usize, usize)]) -> ConflictGraph {
        let mut reads = vec![Vec::new(); n];
        let mut writes = vec![Vec::new(); n];
        for (e, &(i, j)) in edges.iter().enumerate() {
            if i != j {
                writes[i].push(e);
                reads[j].push(e);
            }
        }
        graph_of(&(0..n).map(|v| tx(&reads[v], &writes[v])).collect::<Vec<_>>())
    }

    /// Whether the subgraph induced on the `keep` nodes has a cycle (Kahn:
    /// a cycle is whatever never reaches in-degree zero).
    fn has_cycle(g: &ConflictGraph, keep: &[bool]) -> bool {
        let n = g.len();
        let mut indeg: Vec<usize> = (0..n)
            .map(|v| g.parents(v).iter().filter(|&&w| keep[w]).count())
            .collect();
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

    /// The breaker's contract: the survivors are acyclic, and putting back
    /// any single aborted node closes a cycle (the abort set is minimal).
    fn assert_minimal_fvs(g: &ConflictGraph, aborted: &[usize]) {
        let mut keep = vec![true; g.len()];
        for &v in aborted {
            keep[v] = false;
        }
        assert!(!has_cycle(g, &keep), "survivors of {aborted:?} must be acyclic");
        for &v in aborted {
            keep[v] = true;
            assert!(has_cycle(g, &keep), "re-admitting {v} must close a cycle");
            keep[v] = false;
        }
    }

    #[test]
    fn fvs_break_complete_digraph_keeps_one() {
        let n = 10;
        let all_keys: Vec<usize> = (0..n).collect();
        let sets: Vec<ReadWriteSet> = (0..n).map(|i| tx(&all_keys, &[i])).collect();
        let g = graph_of(&sets);
        let aborted = break_by_fvs(&g);
        assert_minimal_fvs(&g, &aborted);
        // On a complete digraph all but one node must go.
        assert_eq!(aborted.len(), n - 1);
    }

    #[test]
    fn fvs_break_on_acyclic_graph_aborts_nothing() {
        let sets = vec![tx(&[], &[0]), tx(&[0], &[1]), tx(&[1], &[])];
        let g = graph_of(&sets);
        assert!(break_by_fvs(&g).is_empty());
    }

    #[test]
    fn fvs_break_single_long_cycle_aborts_one() {
        let n = 20;
        let sets: Vec<ReadWriteSet> = (0..n).map(|i| tx(&[i], &[(i + 1) % n])).collect();
        let g = graph_of(&sets);
        let aborted = break_by_fvs(&g);
        assert_eq!(aborted, vec![0], "one abort breaks a simple cycle; ties go to the smaller index");
    }

    #[test]
    fn fvs_break_readmits_a_greedy_pick_made_redundant() {
        // Hub 0 fans in from 1..=5 and out to 6..=10, which all funnel
        // through 11 into 12, and 12 feeds 1..=5: every cycle through the
        // hub also passes 12, which sits on its own 2-cycle with 13. The
        // greedy takes the hub first (in × out = 25 against 12's 2 × 6),
        // then 12 for the 2-cycle; 12 alone already covers every cycle, so
        // re-admission puts the hub back.
        let mut edges = Vec::new();
        for p in 1..=5 {
            edges.push((p, 0));
            edges.push((12, p));
        }
        for c in 6..=10 {
            edges.push((0, c));
            edges.push((c, 11));
        }
        edges.extend([(11, 12), (12, 13), (13, 12)]);
        let g = graph_from_edges(14, &edges);
        let aborted = break_by_fvs(&g);
        assert_eq!(aborted, vec![12]);
        assert_minimal_fvs(&g, &aborted);
    }

    proptest! {
        /// On arbitrary digraphs the abort set is a minimal feedback
        /// vertex set: acyclic survivors, and no aborted node can return.
        #[test]
        fn fvs_break_is_a_minimal_feedback_vertex_set(
            n in 2usize..14,
            edges in proptest::collection::vec((0usize..14, 0usize..14), 0..48),
        ) {
            let edges: Vec<(usize, usize)> =
                edges.into_iter().filter(|&(i, j)| i < n && j < n).collect();
            let g = graph_from_edges(n, &edges);
            assert_minimal_fvs(&g, &break_by_fvs(&g));
        }
    }
}
