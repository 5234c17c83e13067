//! The four benchmark workloads. Later issues refer to them by name.

use std::sync::Arc;

use fabric_common::{Key, PipelineConfig, Value};
use fabric_peer::chaincode::Chaincode;
use fabric_workloads::custom::CustomChaincode;
use fabric_workloads::smallbank::SmallbankChaincode;
use fabric_workloads::{
    CustomConfig, CustomWorkload, SmallbankConfig, SmallbankWorkload, WorkloadGen,
};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Input {
    Smallbank {
        users: u64,
        p_write: f64,
        s_value: f64,
    },
    /// The paper's custom workload at its Fig. 1/10 defaults
    /// (`CustomConfig::default()`: N = 10 000, RW = 8, HR 40 %, HW 10 %,
    /// HSS 1 %).
    Custom,
}

/// One workload: an input distribution, a pipeline preset and a state
/// engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// One line on why the workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Vanilla Fabric preset instead of Fabric++.
    pub vanilla: bool,
    /// `StateEngine::Lsm` instead of the in-memory engine.
    pub lsm: bool,
    input: Input,
}

const ZIPF: Input = Input::Smallbank {
    users: 1_000,
    p_write: 0.9,
    s_value: 0.9,
};

pub const ALL: [Workload; 4] = [
    Workload {
        name: "sb_uniform",
        why: "Smallbank, 20000 users, uniform: almost no conflicts, so reorder does nothing and the client, cutter, VSCC, MVCC, apply and ledger do all the work (control for reorder changes)",
        vanilla: false,
        lsm: false,
        input: Input::Smallbank { users: 20_000, p_write: 0.95, s_value: 0.0 },
    },
    Workload {
        name: "sb_zipf",
        why: "Smallbank, 1000 users, Zipf s=0.9, Fabric++: every block falls back from Algorithm 1 and most aborts are cycle aborts, so ordering and reorder decide the result",
        vanilla: false,
        lsm: false,
        input: ZIPF,
    },
    Workload {
        name: "sb_zipf_vanilla",
        why: "same input and seeds as sb_zipf on vanilla Fabric: reorder and early abort bypassed, every abort is a late MVCC abort under the coarse lock (the paper's Fabric++/Fabric factor)",
        vanilla: true,
        lsm: false,
        input: ZIPF,
    },
    Workload {
        name: "custom_lsm",
        why: "paper's custom workload (N=10000, RW=8, HR 40%, HW 10%, HSS 1%) on the LSM engine: 8 reads and 8 writes per tx through WAL, memtable flushes and compaction",
        vanilla: false,
        lsm: true,
        input: Input::Custom,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

/// Distinct deterministic generator seeds for the streams of one run.
fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream)
}

impl Workload {
    /// The shipped preset, untouched: a later change that deletes a knob
    /// must not break the benchmark.
    pub fn pipeline(&self) -> PipelineConfig {
        if self.vanilla {
            PipelineConfig::vanilla()
        } else {
            PipelineConfig::fabric_pp()
        }
    }

    pub fn chaincode(&self) -> Arc<dyn Chaincode> {
        match self.input {
            Input::Smallbank { .. } => SmallbankChaincode::deployable(),
            Input::Custom => CustomChaincode::deployable(),
        }
    }

    /// Generator for stream `stream` of a run seeded with `seed`. Stream 0
    /// also defines the genesis balances.
    pub fn generator(&self, seed: u64, stream: u64) -> Box<dyn WorkloadGen> {
        let seed = stream_seed(seed, stream);
        match self.input {
            Input::Smallbank {
                users,
                p_write,
                s_value,
            } => Box::new(SmallbankWorkload::new(SmallbankConfig {
                users,
                p_write,
                s_value,
                seed,
            })),
            Input::Custom => Box::new(CustomWorkload::new(CustomConfig {
                seed,
                ..CustomConfig::default()
            })),
        }
    }

    pub fn genesis(&self, seed: u64) -> Vec<(Key, Value)> {
        self.generator(seed, 0).genesis()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in ALL {
            assert_eq!(by_name(w.name), Some(w));
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        assert_eq!(by_name("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs_and_streams_differ() {
        let w = by_name("sb_zipf").unwrap();
        let take = |seed, stream| {
            let mut g = w.generator(seed, stream);
            (0..50).map(|_| g.next_args()).collect::<Vec<_>>()
        };
        assert_eq!(take(1, 1), take(1, 1));
        assert_ne!(take(1, 1), take(1, 2));
        assert_ne!(take(1, 1), take(2, 1));
        assert_eq!(w.genesis(3), w.genesis(3));
    }

    #[test]
    fn zipf_pair_shares_input() {
        let a = by_name("sb_zipf").unwrap();
        let b = by_name("sb_zipf_vanilla").unwrap();
        assert_eq!(a.input, b.input);
        assert_eq!(a.generator(5, 1).next_args(), b.generator(5, 1).next_args());
        assert_ne!(a.pipeline(), b.pipeline());
    }
}
