//! End-to-end: the benchmark binary itself, in `--quick` mode (2 000-
//! proposal phases), on all four workloads with every correctness check.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;
use json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_fabric-benchmark");
const WORKLOADS: [&str; 4] = ["sb_uniform", "sb_zipf", "sb_zipf_vanilla", "custom_lsm"];
const END_TO_END: [&str; 6] = [
    "goodput_tps",
    "abort_share",
    "commit_p50_ms",
    "commit_p99_ms",
    "peak_rss_mb",
    "setup_s",
];

/// The tests drive whole networks; one at a time keeps `--quick`'s time
/// limit meaningful on a small host.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A scratch output directory inside the package (tests never write
/// anywhere else), removed when dropped.
struct OutDir(PathBuf);

impl OutDir {
    fn new(label: &str) -> OutDir {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join("tmp")
            .join(format!("test-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        OutDir(dir)
    }
}

impl Drop for OutDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(out: &OutDir, args: &[&str]) -> (bool, Vec<Json>, Duration) {
    let t0 = Instant::now();
    let output = Command::new(BIN)
        .args(args)
        .arg("--out")
        .arg(&out.0)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    // The result lines close the output: one JSON object per workload.
    let results: Vec<Json> = stdout
        .lines()
        .rev()
        .map_while(|l| Json::parse(l).ok())
        .collect::<Vec<_>>();
    if !output.status.success() {
        eprintln!("{stdout}\n{}", String::from_utf8_lossy(&output.stderr));
    }
    (
        output.status.success(),
        results.into_iter().rev().collect(),
        t0.elapsed(),
    )
}

#[test]
fn quick_runs_all_four_workloads_and_every_check() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = OutDir::new("quick");
    let (ok, results, took) = run(&out, &["--quick", "--seed", "3"]);
    assert!(ok, "a correctness check failed");
    assert!(took < Duration::from_secs(30), "--quick took {took:?}");
    assert_eq!(results.len(), 4);
    for (line, name) in results.iter().zip(WORKLOADS) {
        assert_eq!(line.get("workload").and_then(Json::as_str), Some(name));
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 4_500.0);
        for metric in END_TO_END {
            let value = line
                .get("metrics")
                .and_then(|m| m.get(metric)?.get("value")?.as_f64());
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{name}: {metric} = {value:?}"
            );
        }

        let doc = std::fs::read_to_string(out.0.join(format!("{name}.json"))).unwrap();
        let doc = Json::parse(&doc).unwrap();
        let run = &doc.get("runs").and_then(Json::as_arr).unwrap()[0];
        let checks = run.get("checks").and_then(Json::as_arr).unwrap();
        assert!(
            checks.len() >= 8,
            "{name}: only {} checks ran",
            checks.len()
        );
        assert!(checks
            .iter()
            .all(|c| c.get("ok") == Some(&Json::Bool(true))));
        let env = doc.get("env").unwrap();
        assert_eq!(env.get("seed").and_then(Json::as_f64), Some(3.0));
        assert_eq!(env.get("quick"), Some(&Json::Bool(true)));
    }
    // LSM stores and run entries are gone.
    assert!(!out.0.join("tmp").exists());
}

#[test]
fn quick_traced_run_reports_every_layer_and_repeatable_counts() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = OutDir::new("traced");
    let args = [
        "--quick",
        "--trace",
        "1",
        "--workload",
        "custom_lsm",
        "--seed",
        "5",
    ];
    let (ok, results, _) = run(&out, &args);
    assert!(ok, "a correctness check failed");
    let line = &results[0];
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("no metrics")
    };
    for (name, m) in metrics {
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{name} has no value"
        );
    }
    for stage in [
        "peer.endorse_us_per_tx",
        "reorder.reorder_us_per_block",
        "core.submit_us_p50",
    ] {
        assert!(
            metrics[stage].get("value").and_then(Json::as_f64).unwrap() > 0.0,
            "{stage}"
        );
    }
    let count = |name: &str| metrics[name].get("value").and_then(Json::as_f64).unwrap();

    // The spans are on disk, parents before children.
    let trace = std::fs::read_to_string(out.0.join("trace_custom_lsm.jsonl")).unwrap();
    let spans: Vec<Json> = trace.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert!(spans
        .iter()
        .any(|s| s.get("name").and_then(Json::as_str) == Some("core.submit")));
    assert!(spans
        .iter()
        .any(|s| s.get("name").and_then(Json::as_str) == Some("peer.commit")));
    for s in &spans {
        if let Some(parent) = s.get("parent").and_then(Json::as_f64) {
            assert!(parent < s.get("id").and_then(Json::as_f64).unwrap());
        }
    }

    // A second invocation with the same seed repeats the counts exactly.
    let (ok, again, _) = run(&out, &args);
    assert!(ok);
    let Some(Json::Obj(second)) = again[0].get("metrics") else {
        panic!("no metrics")
    };
    for name in [
        "reorder.graph_edges",
        "reorder.nontrivial_sccs",
        "reorder.cycle_aborts",
        "ordering.mismatch_aborts",
        "peer.mvcc_aborts",
        "staged.valid_share",
        "common.block_bytes_avg",
        "statedb.keys_written_per_block",
        "statedb.lsm.wal_bytes_per_block",
    ] {
        assert_eq!(
            second[name].get("value").and_then(Json::as_f64),
            Some(count(name)),
            "{name}"
        );
    }
}

#[test]
fn bad_usage_exits_non_zero_without_a_result() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = OutDir::new("usage");
    let (ok, results, _) = run(&out, &["--workload", "no_such_workload"]);
    assert!(!ok);
    assert!(results.is_empty());
}
