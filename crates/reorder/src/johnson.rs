//! Johnson's elementary-circuit enumeration (paper §5.1.1 step 2), the
//! cycle-listing half of the test-only Algorithm 1 reference
//! ([`crate::reference::algorithm1`]).
//!
//! "We identify the cycles within the subgraphs using Johnson's algorithm"
//! — run per strongly connected subgraph, each elementary circuit is
//! reported exactly once (attributed to its minimal vertex). The number of
//! circuits can be exponential in the subgraph size, so enumeration is
//! capped by a budget; hitting it returns [`CycleOverflow`].

use crate::graph::ConflictGraph;

/// Enumeration exceeded its cycle budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleOverflow;

/// Enumerates all elementary cycles inside one strongly connected component
/// `scc` (global node indices, ascending) of `g`, up to `budget` cycles.
///
/// Each cycle is returned as its vertex sequence in traversal order,
/// starting at its minimal vertex; the back-edge to the start is implicit.
pub fn elementary_cycles(
    g: &ConflictGraph,
    scc: &[usize],
    budget: usize,
) -> Result<Vec<Vec<usize>>, CycleOverflow> {
    // Local dense indexing of the component, ascending so that local order
    // matches global order (needed for the minimal-vertex attribution).
    let adj: Vec<Vec<usize>> = scc
        .iter()
        .map(|&v| g.children(v).iter().filter_map(|w| scc.binary_search(w).ok()).collect())
        .collect();
    let mut search = Search {
        adj: &adj,
        scc,
        budget,
        out: Vec::new(),
        blocked: vec![false; scc.len()],
        block_lists: vec![Vec::new(); scc.len()],
        stack: Vec::new(),
    };
    for s in 0..scc.len() {
        search.blocked.fill(false);
        search.block_lists.iter_mut().for_each(Vec::clear);
        search.circuit(s, s)?;
    }
    Ok(search.out)
}

struct Search<'a> {
    adj: &'a [Vec<usize>],
    scc: &'a [usize],
    budget: usize,
    out: Vec<Vec<usize>>,
    blocked: Vec<bool>,
    block_lists: Vec<Vec<usize>>,
    stack: Vec<usize>,
}

impl Search<'_> {
    fn unblock(&mut self, v: usize) {
        self.blocked[v] = false;
        for w in std::mem::take(&mut self.block_lists[v]) {
            if self.blocked[w] {
                self.unblock(w);
            }
        }
    }

    /// DFS for circuits whose minimal (local) vertex is `s`; explores only
    /// vertices `>= s`. Returns whether any circuit through `v` was found.
    fn circuit(&mut self, v: usize, s: usize) -> Result<bool, CycleOverflow> {
        let mut found = false;
        self.stack.push(v);
        self.blocked[v] = true;
        let adj = self.adj;
        for &w in adj[v].iter().filter(|&&w| w >= s) {
            if w == s {
                if self.out.len() >= self.budget {
                    return Err(CycleOverflow);
                }
                self.out.push(self.stack.iter().map(|&li| self.scc[li]).collect());
                found = true;
            } else if !self.blocked[w] && self.circuit(w, s)? {
                found = true;
            }
        }
        if found {
            self.unblock(v);
        } else {
            for &w in adj[v].iter().filter(|&&w| w >= s) {
                if !self.block_lists[w].contains(&v) {
                    self.block_lists[w].push(v);
                }
            }
        }
        self.stack.pop();
        Ok(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::tx;
    use crate::tarjan::strongly_connected_components;
    use fabric_common::rwset::ReadWriteSet;

    fn graph_of(txs: &[ReadWriteSet]) -> ConflictGraph {
        let refs: Vec<&ReadWriteSet> = txs.iter().collect();
        ConflictGraph::build(&refs)
    }

    fn all_cycles(g: &ConflictGraph, budget: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for scc in strongly_connected_components(g) {
            if scc.len() > 1 {
                out.extend(elementary_cycles(g, &scc, budget).unwrap());
            }
        }
        out
    }

    /// Canonical form for comparing cycles regardless of rotation.
    fn canon(mut c: Vec<usize>) -> Vec<usize> {
        let min_pos = c
            .iter()
            .enumerate()
            .min_by_key(|(_, &v)| v)
            .map(|(i, _)| i)
            .unwrap();
        c.rotate_left(min_pos);
        c
    }

    #[test]
    fn paper_example_three_cycles() {
        // §5.1.1: c1 = T0→T3→T0, c2 = T0→T3→T1→T0, c3 = T2→T4→T2.
        let sets = vec![
            tx(&[0, 1], &[2]),
            tx(&[3, 4, 5], &[0]),
            tx(&[6, 7], &[3, 9]),
            tx(&[2, 8], &[1, 4]),
            tx(&[9], &[5, 6, 8]),
            tx(&[], &[7]),
        ];
        let g = graph_of(&sets);
        let mut cycles: Vec<Vec<usize>> =
            all_cycles(&g, 1000).into_iter().map(canon).collect();
        cycles.sort();
        assert_eq!(cycles, vec![vec![0, 3], vec![0, 3, 1], vec![2, 4]]);
    }

    #[test]
    fn acyclic_has_no_cycles() {
        let sets = vec![tx(&[], &[0]), tx(&[0], &[1]), tx(&[1], &[])];
        let g = graph_of(&sets);
        assert!(all_cycles(&g, 100).is_empty());
    }

    #[test]
    fn simple_two_cycle() {
        let sets = vec![tx(&[0], &[1]), tx(&[1], &[0])];
        let g = graph_of(&sets);
        let cycles = all_cycles(&g, 100);
        assert_eq!(cycles, vec![vec![0, 1]]);
    }

    #[test]
    fn long_single_cycle_found_once() {
        let n = 200;
        let sets: Vec<ReadWriteSet> = (0..n).map(|i| tx(&[i], &[(i + 1) % n])).collect();
        let g = graph_of(&sets);
        let cycles = all_cycles(&g, 100);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), n);
    }

    #[test]
    fn complete_digraph_cycle_count() {
        // K4 as a digraph has 20 elementary circuits:
        // 12 of length 2? No — pairs: C(4,2)=6 two-cycles, 2·C(4,3)=8
        // three-cycles, 3!=6 four-cycles → 6 + 8 + 6 = 20.
        let n = 4;
        let all_keys: Vec<usize> = (0..n).collect();
        // Every tx writes key i and reads all keys → edge i→j for all i≠j.
        let sets: Vec<ReadWriteSet> = (0..n).map(|i| tx(&all_keys, &[i])).collect();
        let g = graph_of(&sets);
        assert_eq!(g.edge_count(), 12);
        let cycles = all_cycles(&g, 10_000);
        assert_eq!(cycles.len(), 20);
        // All distinct in canonical form.
        let mut canons: Vec<Vec<usize>> = cycles.into_iter().map(canon).collect();
        canons.sort();
        canons.dedup();
        assert_eq!(canons.len(), 20);
    }

    #[test]
    fn budget_overflow_reported() {
        let n = 8;
        let all_keys: Vec<usize> = (0..n).collect();
        let sets: Vec<ReadWriteSet> = (0..n).map(|i| tx(&all_keys, &[i])).collect();
        let g = graph_of(&sets);
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 1);
        assert_eq!(elementary_cycles(&g, &sccs[0], 5), Err(CycleOverflow));
    }

    #[test]
    fn two_disjoint_cycles() {
        let sets = vec![
            tx(&[0], &[1]),
            tx(&[1], &[0]),
            tx(&[2], &[3]),
            tx(&[3], &[2]),
        ];
        let g = graph_of(&sets);
        let mut cycles: Vec<Vec<usize>> = all_cycles(&g, 100).into_iter().map(canon).collect();
        cycles.sort();
        assert_eq!(cycles, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn trivial_scc_yields_nothing() {
        let sets = vec![tx(&[0], &[1])];
        let g = graph_of(&sets);
        assert!(elementary_cycles(&g, &[0], 100).unwrap().is_empty());
    }

    #[test]
    fn figure_eight_shares_a_vertex() {
        // Two 2-cycles sharing vertex 0: 0↔1 and 0↔2.
        // Edges: 0→1, 1→0, 0→2, 2→0.
        // tx0 writes k1,k2; reads k0a,k0b. tx1 reads k1 writes k0a.
        // tx2 reads k2 writes k0b.
        let sets = vec![tx(&[10, 11], &[1, 2]), tx(&[1], &[10]), tx(&[2], &[11])];
        let g = graph_of(&sets);
        let mut cycles: Vec<Vec<usize>> = all_cycles(&g, 100).into_iter().map(canon).collect();
        cycles.sort();
        assert_eq!(cycles, vec![vec![0, 1], vec![0, 2]]);
    }
}
