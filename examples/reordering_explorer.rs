//! Standalone exploration of the Fabric++ reordering mechanism
//! (Algorithm 1) on the paper's worked example — §5.1.1, Tables 3–4,
//! Figures 3–5 — printing every intermediate artifact.
//!
//! ```bash
//! cargo run --release --example reordering_explorer
//! ```

use fabric_common::rwset::{rwset_from_keys, ReadWriteSet};
use fabric_common::{Key, Value, Version};
use fabric_reorder::tarjan::strongly_connected_components;
use fabric_reorder::{count_valid_in_order, reorder, ConflictGraph, ReorderConfig};

fn tx(reads: &[usize], writes: &[usize]) -> ReadWriteSet {
    let rk: Vec<Key> = reads.iter().map(|&i| Key::composite("K", i as u64)).collect();
    let wk: Vec<Key> = writes.iter().map(|&i| Key::composite("K", i as u64)).collect();
    rwset_from_keys(&rk, Version::GENESIS, &wk, &Value::from_i64(1))
}

fn main() {
    // Table 3: six transactions over ten unique keys.
    let sets = [
        tx(&[0, 1], &[2]),    // T0
        tx(&[3, 4, 5], &[0]), // T1
        tx(&[6, 7], &[3, 9]), // T2
        tx(&[2, 8], &[1, 4]), // T3
        tx(&[9], &[5, 6, 8]), // T4
        tx(&[], &[7]),        // T5
    ];
    let refs: Vec<&ReadWriteSet> = sets.iter().collect();

    println!("=== Step 1: conflict graph (paper Figure 3) ===");
    let cg = ConflictGraph::build(&refs);
    for (from, to) in cg.edges() {
        println!("  T{from} -> T{to}   (T{from} writes a key T{to} read)");
    }

    println!("\n=== Step 2: strongly connected subgraphs (Figure 4) ===");
    for scc in strongly_connected_components(&cg) {
        let names: Vec<String> = scc.iter().map(|i| format!("T{i}")).collect();
        println!("  {{{}}}", names.join(", "));
    }

    println!("\n=== Steps 3–4: abort a minimal cycle-breaking set, schedule the rest ===");
    let result = reorder(&refs, &ReorderConfig::default());
    let aborted: Vec<String> = result.aborted.iter().map(|i| format!("T{i}")).collect();
    let schedule: Vec<String> = result.schedule.iter().map(|i| format!("T{i}")).collect();
    println!("  early aborts:    {{{}}}  (Table 4's greedy picks the same)", aborted.join(", "));
    println!("  final schedule:  {}", schedule.join(" => "));

    let arrival: Vec<usize> = (0..refs.len()).collect();
    println!("\n=== Validation outcome comparison ===");
    println!("  arrival order:   {}/6 valid", count_valid_in_order(&refs, &arrival));
    println!(
        "  reordered:       {}/6 valid ({} aborted at order time)",
        count_valid_in_order(&refs, &result.schedule),
        result.aborted.len()
    );

    assert_eq!(result.schedule, vec![5, 1, 3, 4], "the paper's exact schedule");
    assert_eq!(result.aborted, vec![0, 2], "the paper's exact aborts");
    println!("\nMatches the paper: schedule T5 => T1 => T3 => T4, aborts {{T0, T2}}.");
}
