//! Iterative Tarjan strongly-connected-components (paper §5.1.1 step 2).
//!
//! "We identify all cycles \[by\] dividing cg into strongly connected
//! subgraphs using Tarjan's algorithm": every cycle lives entirely inside
//! one SCC, so SCCs of size one (without self-loops, which conflict graphs
//! never have) need no cycle breaking.
//!
//! The implementation is iterative (explicit stack) so deep graphs cannot
//! overflow the call stack, and runs in `O(N + E)`.

use crate::graph::ConflictGraph;
use crate::scratch::{SegList, TarjanScratch};

/// Computes the strongly connected components of `g`.
///
/// Components are returned with their member node indices sorted ascending,
/// and the component list itself is sorted by smallest member, making the
/// output deterministic and convenient to assert on.
pub fn strongly_connected_components(g: &ConflictGraph) -> Vec<Vec<usize>> {
    let mut scratch = TarjanScratch::default();
    let mut out = SegList::default();
    let mut order = Vec::new();
    scc_into(g, &mut scratch, &mut out, &mut order);
    order.iter().map(|&ci| out.get(ci as usize).to_vec()).collect()
}

/// Allocation-free core of [`strongly_connected_components`]: fills `out`
/// with one segment per component (members sorted ascending, segments in
/// Tarjan pop order) and `order` with the segment indices sorted by
/// smallest member — iterate `order` to visit components in the same
/// deterministic order the public function returns them in.
pub(crate) fn scc_into(
    g: &ConflictGraph,
    scratch: &mut TarjanScratch,
    out: &mut SegList,
    order: &mut Vec<u32>,
) {
    let n = g.len();
    const UNVISITED: usize = usize::MAX;

    let TarjanScratch { index, lowlink, on_stack, stack, call_stack } = scratch;
    index.clear();
    index.resize(n, UNVISITED);
    lowlink.clear();
    lowlink.resize(n, 0);
    on_stack.clear();
    on_stack.resize(n, false);
    stack.clear();
    call_stack.clear();
    out.clear();
    order.clear();

    let mut next_index = 0usize;

    for start in 0..n {
        if index[start] != UNVISITED {
            continue;
        }
        call_stack.push((start, 0));
        while let Some(&(v, ci)) = call_stack.last() {
            if ci == 0 {
                // First visit of v.
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if ci < g.children(v).len() {
                call_stack.last_mut().expect("frame present").1 += 1;
                let w = g.children(v)[ci];
                if index[w] == UNVISITED {
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                // All children explored: pop v.
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        out.push(w);
                        if w == v {
                            break;
                        }
                    }
                    out.sort_open_seg();
                    out.end_seg();
                }
            }
        }
    }

    order.extend(0..out.count() as u32);
    // Smallest members are distinct across components (they partition the
    // nodes), so the unstable sort is deterministic.
    order.sort_unstable_by_key(|&ci| out.get(ci as usize)[0]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_common::rwset::{rwset_from_keys, ReadWriteSet};
    use fabric_common::{Key, Value, Version};

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
    fn paper_figure_4_three_subgraphs() {
        // The paper's example decomposes into {T0, T1, T3} (green),
        // {T2, T4} (red), and {T5} (yellow).
        let sets = vec![
            tx(&[0, 1], &[2]),
            tx(&[3, 4, 5], &[0]),
            tx(&[6, 7], &[3, 9]),
            tx(&[2, 8], &[1, 4]),
            tx(&[9], &[5, 6, 8]),
            tx(&[], &[7]),
        ];
        let sccs = strongly_connected_components(&graph_of(&sets));
        assert_eq!(sccs, vec![vec![0, 1, 3], vec![2, 4], vec![5]]);
    }

    #[test]
    fn acyclic_graph_all_singletons() {
        // Chain: T0 writes k0 read by T1; T1 writes k1 read by T2.
        let sets = vec![tx(&[], &[0]), tx(&[0], &[1]), tx(&[1], &[])];
        let sccs = strongly_connected_components(&graph_of(&sets));
        assert_eq!(sccs, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn single_big_cycle_is_one_component() {
        let n = 30;
        let sets: Vec<ReadWriteSet> = (0..n).map(|i| tx(&[i], &[(i + 1) % n])).collect();
        let sccs = strongly_connected_components(&graph_of(&sets));
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0], (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn empty_graph() {
        assert!(strongly_connected_components(&ConflictGraph::build(&[])).is_empty());
    }

    #[test]
    fn isolated_nodes() {
        let sets = vec![tx(&[0], &[]), tx(&[1], &[]), tx(&[2], &[])];
        let sccs = strongly_connected_components(&graph_of(&sets));
        assert_eq!(sccs, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn components_partition_nodes() {
        let n = 40;
        // Two interleaved cycles plus isolated nodes.
        let mut sets = Vec::new();
        for i in 0..10usize {
            sets.push(tx(&[i], &[(i + 1) % 10]));
        }
        for i in 0..10usize {
            sets.push(tx(&[100 + i], &[100 + (i + 1) % 10]));
        }
        for i in 0..20usize {
            sets.push(tx(&[500 + i], &[]));
        }
        let sccs = strongly_connected_components(&graph_of(&sets));
        let mut all: Vec<usize> = sccs.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 20_000-node chain; a recursive Tarjan would blow the stack.
        let n = 20_000;
        let sets: Vec<ReadWriteSet> = (0..n)
            .map(|i| if i == 0 { tx(&[], &[0]) } else { tx(&[i - 1], &[i]) })
            .collect();
        let sccs = strongly_connected_components(&graph_of(&sets));
        assert_eq!(sccs.len(), n);
    }
}
