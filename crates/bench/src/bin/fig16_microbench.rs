//! **Figure 16** (Appendix B.2) — reordering micro-benchmark: varying the
//! length of conflict cycles.
//!
//! 1024 transactions arranged into `1024 / t` cycles of length `t`, each
//! cycle of the form
//! `T[r(k0),w(k0)], T[r(k0),w(k1)], T[r(k1),w(k2)], …, T[r(k_{t-2}),w(k0)]`.
//! For each cycle length we report valid transactions under the arrival
//! order (the paper: always half — "aborting every second transaction
//! breaks the cycles"), under the reordered schedule (high when cycles are
//! long: one abort per cycle), and the reordering time.

use std::time::Instant;

use fabric_bench::runner::print_row;
use fabric_common::rwset::{rwset_from_keys, ReadWriteSet};
use fabric_common::{Key, Value, Version};
use fabric_reorder::{count_valid_in_order, reorder, ReorderConfig};

const N: usize = 1024;

fn tx(read_k: u64, write_k: u64) -> ReadWriteSet {
    rwset_from_keys(
        &[Key::composite("k", read_k)],
        Version::GENESIS,
        &[Key::composite("k", write_k)],
        &Value::from_i64(1),
    )
}

/// Builds `N / t` disjoint cycles of length `t` (paper Appendix B.2 form).
fn sequence(t: usize) -> Vec<ReadWriteSet> {
    let mut seq = Vec::with_capacity(N);
    for c in 0..N / t {
        let base = (c * t) as u64;
        // First transaction reads and writes the cycle's anchor key.
        seq.push(tx(base, base));
        // Chain: reads k_{i-1}, writes k_i; the final one writes back k0.
        for i in 1..t {
            let read_k = base + (i as u64) - 1;
            let write_k = if i == t - 1 { base } else { base + i as u64 };
            seq.push(tx(read_k, write_k));
        }
    }
    seq
}

fn main() {
    let mut header = false;
    for t in [2usize, 4, 8, 16, 32, 64, 128, 256, 512] {
        let sets = sequence(t);
        let refs: Vec<&ReadWriteSet> = sets.iter().collect();
        let arrival: Vec<usize> = (0..refs.len()).collect();
        let arrival_valid = count_valid_in_order(&refs, &arrival);

        let t0 = Instant::now();
        let result = reorder(&refs, &ReorderConfig::default());
        let reorder_time = t0.elapsed();
        let reordered_valid = count_valid_in_order(&refs, &result.schedule);

        print_row(
            &mut header,
            &[
                ("cycle_len", t.to_string()),
                ("arrival_valid", arrival_valid.to_string()),
                ("reordered_valid", reordered_valid.to_string()),
                ("reorder_ms", format!("{:.3}", reorder_time.as_secs_f64() * 1e3)),
            ],
        );
    }
}
