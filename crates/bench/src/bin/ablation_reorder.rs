//! Ablation study over the reorderer's design choices (DESIGN.md §6):
//!
//! 1. **Schedule construction** — the paper's source-chasing walk vs. the
//!    textbook Kahn topological sort: identical commit quality, different
//!    asymptotics.
//! 2. **Conflict-graph construction** — inverted index vs. the paper's
//!    quadratic bit-vector method.

use std::time::Instant;

use fabric_bench::runner::print_row;
use fabric_common::rwset::ReadWriteSet;
use fabric_common::{Key, Value, Version};
use fabric_reorder::{
    kahn_schedule, reorder, schedule::paper_schedule, verify_serializable, ConflictGraph,
    ReorderConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn hot_block(n: usize, seed: u64) -> Vec<ReadWriteSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pick = |rng: &mut StdRng, hot_p: f64| -> u64 {
        if rng.random::<f64>() < hot_p {
            rng.random_range(0..100)
        } else {
            rng.random_range(100..10_000)
        }
    };
    (0..n)
        .map(|_| {
            let reads: Vec<Key> =
                (0..8).map(|_| Key::composite("bal", pick(&mut rng, 0.4))).collect();
            let writes: Vec<Key> =
                (0..8).map(|_| Key::composite("bal", pick(&mut rng, 0.1))).collect();
            fabric_common::rwset::rwset_from_keys(
                &reads,
                Version::GENESIS,
                &writes,
                &Value::from_i64(1),
            )
        })
        .collect()
}

fn time_us(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e6
}

fn main() {
    let block = hot_block(1024, 7);
    let refs: Vec<&ReadWriteSet> = block.iter().collect();

    println!("# 1. schedule construction (over the acyclic survivor graph)");
    let result = reorder(&refs, &ReorderConfig::default());
    let survivors: Vec<&ReadWriteSet> = result.schedule.iter().map(|&i| refs[i]).collect();
    let g = ConflictGraph::build(&survivors);
    let mut header = false;
    for (name, f) in [
        ("paper_walk", Box::new(|| {
            let o = paper_schedule(&g);
            assert_eq!(o.len(), g.len());
        }) as Box<dyn Fn()>),
        ("kahn", Box::new(|| {
            let o = kahn_schedule(&g);
            assert_eq!(o.len(), g.len());
        })),
    ] {
        // Warm + average of 5.
        f();
        let avg = (0..5).map(|_| time_us(&*f)).sum::<f64>() / 5.0;
        print_row(
            &mut header,
            &[
                ("algorithm", name.to_string()),
                ("survivors", g.len().to_string()),
                ("time_us", format!("{avg:.1}")),
            ],
        );
    }
    // Quality equivalence check.
    let paper_order: Vec<usize> = paper_schedule(&g).iter().map(|&i| result.schedule[i]).collect();
    let kahn_order: Vec<usize> = kahn_schedule(&g).iter().map(|&i| result.schedule[i]).collect();
    assert!(verify_serializable(&refs, &paper_order));
    assert!(verify_serializable(&refs, &kahn_order));
    println!("# both serializable over {} survivors", g.len());

    println!("\n# 2. conflict graph construction (1024-tx hot block)");
    let mut header = false;
    for (name, f) in [
        ("inverted_index", Box::new(|| {
            ConflictGraph::build(&refs);
        }) as Box<dyn Fn()>),
        ("bitset_paper", Box::new(|| {
            ConflictGraph::build_bitset(&refs);
        })),
    ] {
        f();
        let avg = (0..3).map(|_| time_us(&*f)).sum::<f64>() / 3.0;
        print_row(&mut header, &[("method", name.to_string()), ("time_us", format!("{avg:.0}"))]);
    }
    assert_eq!(
        ConflictGraph::build(&refs).edges(),
        ConflictGraph::build_bitset(&refs).edges(),
        "the two constructions must agree"
    );
}
