//! Johnson's elementary-circuit enumeration (paper §5.1.1 step 2).
//!
//! "We identify the cycles within the subgraphs using Johnson's algorithm"
//! — run per strongly connected subgraph, each elementary circuit is
//! reported exactly once (attributed to its minimal vertex). Enumeration is
//! capped by a budget: the number of elementary circuits can be exponential
//! in the subgraph size, and Fabric++ bounds the work per block (the
//! unique-keys batch-cutting condition exists for the same reason). Hitting
//! the cap returns [`CycleOverflow`], signalling the caller to use the
//! feedback-vertex-set fallback breaker instead.

use crate::graph::ConflictGraph;
use crate::scratch::{JohnsonScratch, SegList};

/// Enumeration exceeded its cycle budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleOverflow;

/// Enumerates all elementary cycles inside one strongly connected component
/// `scc` (global node indices) of `g`, up to `budget` cycles.
///
/// Each cycle is returned as its vertex sequence in traversal order,
/// starting at its minimal vertex; the back-edge to the start is implicit.
pub fn elementary_cycles(
    g: &ConflictGraph,
    scc: &[usize],
    budget: usize,
) -> Result<Vec<Vec<usize>>, CycleOverflow> {
    let mut scratch = JohnsonScratch::default();
    let mut out = SegList::default();
    elementary_cycles_into(g, scc, budget, &mut scratch, &mut out)?;
    Ok((0..out.count()).map(|i| out.get(i).to_vec()).collect())
}

/// Allocation-free core of [`elementary_cycles`]: appends each cycle of
/// `scc` as one segment of `out` (global node indices).
///
/// `max_total` caps the **total** segment count of `out`, not just this
/// call's contribution — passing one accumulator across a batch's SCCs
/// with `max_total = max_cycles` reproduces the shared decrementing budget
/// exactly (overflow the moment cycle `max_total + 1` is found).
///
/// On [`CycleOverflow`] the accumulator holds a partial enumeration; the
/// caller is expected to discard it and engage the fallback breaker.
pub(crate) fn elementary_cycles_into(
    g: &ConflictGraph,
    scc: &[usize],
    max_total: usize,
    scratch: &mut JohnsonScratch,
    out: &mut SegList,
) -> Result<(), CycleOverflow> {
    let m = scc.len();
    if m < 2 {
        return Ok(());
    }
    let n = g.len();
    let JohnsonScratch { local_of, adj, blocked, block_lists, stack } = scratch;

    // Local dense indexing of the component, ascending so that local order
    // matches global order (needed for the minimal-vertex attribution).
    // The table is all-MAX between calls; entries set here are reset on
    // every exit path below.
    if local_of.len() < n {
        local_of.resize(n, u32::MAX);
    }
    for (li, &v) in scc.iter().enumerate() {
        local_of[v] = li as u32;
    }
    adj.clear();
    for &v in scc.iter() {
        for w in g.children(v) {
            let lw = local_of[*w];
            if lw != u32::MAX {
                adj.push(lw as usize);
            }
        }
        adj.end_seg();
    }

    blocked.clear();
    blocked.resize(m, false);
    if block_lists.len() < m {
        block_lists.resize_with(m, Vec::new);
    }
    stack.clear();

    struct Ctx<'a> {
        adj: &'a SegList,
        scc: &'a [usize],
        max_total: usize,
        out: &'a mut SegList,
        blocked: &'a mut [bool],
        block_lists: &'a mut [Vec<usize>],
        stack: &'a mut Vec<usize>,
    }

    fn unblock(ctx: &mut Ctx<'_>, v: usize) {
        ctx.blocked[v] = false;
        // Take the list out to recurse without aliasing; it is restored
        // empty with its capacity intact (unblock never repopulates it).
        let mut pending = std::mem::take(&mut ctx.block_lists[v]);
        for &w in &pending {
            if ctx.blocked[w] {
                unblock(ctx, w);
            }
        }
        pending.clear();
        ctx.block_lists[v] = pending;
    }

    /// DFS for circuits whose minimal (local) vertex is `s`; explores only
    /// vertices `>= s`. Returns whether any circuit through `v` was found.
    fn circuit(ctx: &mut Ctx<'_>, v: usize, s: usize) -> Result<bool, CycleOverflow> {
        let mut found = false;
        ctx.stack.push(v);
        ctx.blocked[v] = true;
        for i in 0..ctx.adj.get(v).len() {
            let w = ctx.adj.get(v)[i];
            if w < s {
                continue;
            }
            if w == s {
                if ctx.out.count() >= ctx.max_total {
                    return Err(CycleOverflow);
                }
                for &li in ctx.stack.iter() {
                    ctx.out.push(ctx.scc[li]);
                }
                ctx.out.end_seg();
                found = true;
            } else if !ctx.blocked[w] && circuit(ctx, w, s)? {
                found = true;
            }
        }
        if found {
            unblock(ctx, v);
        } else {
            for i in 0..ctx.adj.get(v).len() {
                let w = ctx.adj.get(v)[i];
                if w >= s && !ctx.block_lists[w].contains(&v) {
                    ctx.block_lists[w].push(v);
                }
            }
        }
        ctx.stack.pop();
        Ok(found)
    }

    let mut ctx = Ctx {
        adj,
        scc,
        max_total,
        out,
        blocked: &mut blocked[..m],
        block_lists: &mut block_lists[..m],
        stack,
    };

    let mut result = Ok(());
    for s in 0..m {
        // Reset the blocking state for each start vertex.
        for b in ctx.blocked.iter_mut() {
            *b = false;
        }
        for bl in ctx.block_lists.iter_mut() {
            bl.clear();
        }
        if let Err(e) = circuit(&mut ctx, s, s) {
            result = Err(e);
            break;
        }
        debug_assert!(ctx.stack.is_empty());
    }

    // Restore the all-MAX invariant on the shared local-index table.
    for &v in scc.iter() {
        local_of[v] = u32::MAX;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tarjan::strongly_connected_components;
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
