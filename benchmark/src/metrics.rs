//! Every metric the benchmark reports, by name, with its unit and the
//! direction in which it is better. `BENCHMARK.json` lists the same
//! metrics; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// What a user of the system sees. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: [MetricDef; 6] = [
    hi("goodput_tps", "tx/s"),
    lo("abort_share", "ratio"),
    lo("commit_p50_ms", "ms"),
    lo("commit_p99_ms", "ms"),
    lo("peak_rss_mb", "MB"),
    lo("setup_s", "s"),
];

/// `setup_s` may worsen by its relative bound or by this many seconds,
/// whichever is larger: the Zipf workloads set up in milliseconds, where a
/// relative bound alone would flag scheduler jitter.
pub const SETUP_ABS_SLACK_S: f64 = 0.25;

/// Single layers (the layers are the crates). No bounds.
pub const PER_LAYER: [MetricDef; 54] = [
    // Driver counts and the public RunReport / TxStats of the load phases.
    lo("core.endorse_mismatch_share", "ratio"),
    lo("peer.early_abort_sim_share", "ratio"),
    lo("ordering.early_abort_cycle_share", "ratio"),
    lo("ordering.early_abort_mismatch_share", "ratio"),
    lo("peer.mvcc_conflict_share", "ratio"),
    lo("ordering.fallback_share", "ratio"),
    lo("ordering.reorder_s", "s"),
    hi("ordering.block_fill_avg", "tx/block"),
    lo("ordering.cut_timeout_share", "ratio"),
    lo("ordering.cut_unique_keys_share", "ratio"),
    lo("net.msgs_per_commit", "count"),
    lo("net.bytes_per_commit", "B"),
    lo("statedb.wal_fsyncs_per_block", "count"),
    lo("statedb.multi_get_keys_per_block", "count"),
    lo("statedb.retained_versions", "count"),
    lo("core.inflight_avg", "count"),
    hi("gen.achieved_rate", "1/s"),
    lo("gen.late_p99_ms", "ms"),
    lo("host.calib_ms", "ms"),
    // Traced closed phase: a span around every ClientHandle::submit.
    lo("core.submit_us_p50", "us"),
    lo("core.submit_us_p99", "us"),
    lo("trace.overhead_share", "ratio"),
    // Staged driver: self time per stage, median over blocks.
    lo("workloads.gen_us_per_tx", "us"),
    lo("peer.endorse_us_per_tx", "us"),
    lo("core.assemble_us_per_tx", "us"),
    lo("ordering.cut_us_per_tx", "us"),
    lo("peer.vscc_us_per_tx", "us"),
    lo("ordering.prepare_us_per_block", "us"),
    lo("ordering.seal_us_per_block", "us"),
    lo("peer.mvcc_us_per_block", "us"),
    lo("peer.commit_us_per_block", "us"),
    lo("peer.process_block_us_per_block", "us"),
    lo("ordering.early_abort_us_per_block", "us"),
    lo("reorder.reorder_us_per_block", "us"),
    lo("statedb.mem.apply_us_per_block", "us"),
    lo("statedb.lsm.apply_us_per_block", "us"),
    lo("statedb.mem.multi_get_us_per_block", "us"),
    lo("statedb.lsm.multi_get_us_per_block", "us"),
    lo("ledger.append_us_per_block", "us"),
    lo("staged.us_per_tx_total", "us"),
    lo("staged.unattributed_share", "ratio"),
    lo("staged.process_block_ratio", "ratio"),
    // Staged driver: exact counts, identical for a given seed.
    lo("reorder.graph_edges", "count"),
    lo("reorder.nontrivial_sccs", "count"),
    lo("reorder.cycles", "count"),
    lo("reorder.fallbacks", "count"),
    lo("reorder.cycle_aborts", "count"),
    lo("ordering.mismatch_aborts", "count"),
    lo("peer.mvcc_aborts", "count"),
    hi("staged.valid_share", "ratio"),
    lo("common.block_bytes_avg", "B"),
    lo("statedb.keys_written_per_block", "count"),
    lo("statedb.lsm.wal_bytes_per_block", "B"),
    lo("staged.blocks", "count"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(well_formed(m.name, 64, "_.-"), "name {}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(well_formed(m.unit, 16, "_/%.-"), "unit {}", m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert_eq!(unit_of("goodput_tps"), Some("tx/s"));
        assert_eq!(unit_of("nope"), None);
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// and workloads this program knows, within the contract's limits.
    #[test]
    fn manifest_matches_the_program() {
        use crate::json::Json;
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let manifest = Json::parse(&text).unwrap();
        let Json::Obj(top) = &manifest else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );

        let listed = |key: &str, defs: &[MetricDef], bounded: bool| {
            let entries = manifest.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(entries.len(), defs.len(), "{key}");
            for (entry, def) in entries.iter().zip(defs) {
                let Json::Obj(fields) = entry else {
                    panic!("{key} entry is not an object")
                };
                assert_eq!(fields.len(), if bounded { 4 } else { 3 }, "{}", def.name);
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                if bounded {
                    let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
                    assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", def.name);
                }
            }
        };
        listed("end_to_end", &END_TO_END, true);
        listed("per_layer", &PER_LAYER, false);

        let workloads = manifest.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), crate::workloads::ALL.len());
        for (entry, w) in workloads.iter().zip(crate::workloads::ALL) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(w.name));
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why));
        }
        let paths = manifest.get("paths").and_then(Json::as_arr).unwrap();
        assert_eq!(paths, [Json::str("benchmark")]);
        let seconds = manifest.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
