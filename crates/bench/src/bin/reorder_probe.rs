//! Developer probe: times the reordering mechanism on a synthetic hot
//! block matching the Figure 1/10 configuration (1024 txs, RW=8, HR=40%,
//! HW=10%, HSS=1% of 10k accounts).

use std::time::Instant;

use fabric_common::rwset::ReadWriteSet;
use fabric_common::{Key, Value, Version};
use fabric_reorder::{reorder, ReorderConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(1);
    let accounts = 10_000u64;
    let hot = 100u64;
    let mut sets = Vec::new();
    for _ in 0..1024 {
        let pick = |rng: &mut StdRng, hot_p: f64| -> u64 {
            if rng.random::<f64>() < hot_p {
                rng.random_range(0..hot)
            } else {
                rng.random_range(hot..accounts)
            }
        };
        let reads: Vec<Key> =
            (0..8).map(|_| Key::composite("bal", pick(&mut rng, 0.4))).collect();
        let writes: Vec<Key> =
            (0..8).map(|_| Key::composite("bal", pick(&mut rng, 0.1))).collect();
        sets.push(fabric_common::rwset::rwset_from_keys(
            &reads,
            Version::GENESIS,
            &writes,
            &Value::from_i64(1),
        ));
    }
    let refs: Vec<&ReadWriteSet> = sets.iter().collect();

    for _ in 0..3 {
        let t0 = Instant::now();
        let result = reorder(&refs, &ReorderConfig::default());
        println!(
            "reorder(1024 hot txs): {:?}  scheduled={} aborted={} edges={} sccs={}",
            t0.elapsed(),
            result.schedule.len(),
            result.aborted.len(),
            result.stats.edges,
            result.stats.nontrivial_sccs,
        );
    }
}
