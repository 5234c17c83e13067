//! **Figure 10** — breakdown of the individual optimizations.
//!
//! The Figure 1 configuration (BS=1024, RW=8, HR=40 %, HW=10 %, HSS=1 %)
//! run under four pipelines: vanilla Fabric, Fabric++ with only
//! reordering, Fabric++ with only early abort, and full Fabric++. The
//! paper: vanilla ≈100 valid tps, each optimization alone ≈150, both
//! together ≈220 — the techniques compose.
//!
//! Flags:
//! - `--smoke`: short trace-enabled run per mode with self-checks (JSONL
//!   round-trip, Chrome document shape, no dropped events, abort
//!   provenance consistent with the outcome counters); exits nonzero on
//!   any failure. This is the CI trace gate.
//! - `--trace <prefix>`: enables the flight recorder and writes
//!   `<prefix>.<mode>.jsonl` + `<prefix>.<mode>.chrome.json` per mode.

use std::path::PathBuf;
use std::time::Duration;

use fabric_bench::{
    arg_value, point_duration, run_experiment,
    runner::{export_trace, print_phase_table, print_row, print_store_stats},
    ExperimentResult, RunSpec, WorkloadKind,
};
use fabric_common::{CostModel, PipelineConfig};
use fabric_net::LatencyModel;
use fabric_workloads::CustomConfig;

/// Ring capacity for traced runs: far above what a short run emits, so the
/// smoke gate can insist on `dropped == 0`.
const TRACE_CAPACITY: usize = 1 << 20;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trace_prefix = arg_value("--trace").map(PathBuf::from);
    let duration = if smoke { Duration::from_millis(600) } else { point_duration() };
    let mut header = false;
    let mut phase_tables = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    for (key, mode, pipeline) in [
        ("fabric", "fabric", PipelineConfig::vanilla()),
        ("reorder", "fabric++(only reordering)", PipelineConfig::reordering_only()),
        ("earlyabort", "fabric++(only early abort)", PipelineConfig::early_abort_only()),
        ("fabricpp", "fabric++(reordering & early abort)", PipelineConfig::fabric_pp()),
    ] {
        let mut spec = RunSpec::paper_default(
            mode,
            pipeline.with_block_size(1024),
            WorkloadKind::Custom(CustomConfig::default()),
            duration,
        );
        if smoke {
            // Keep the gate fast and deterministic-ish on small hosts.
            spec.latency = LatencyModel::zero();
            spec.cost = CostModel::raw();
            spec.rate_per_client = 200.0;
        }
        if smoke || trace_prefix.is_some() {
            spec = spec.with_trace(TRACE_CAPACITY);
        }
        let r = run_experiment(&spec);
        let s = r.report.stats;
        print_row(
            &mut header,
            &[
                ("mode", mode.to_string()),
                ("valid_tps", format!("{:.1}", r.valid_tps())),
                ("aborted_tps", format!("{:.1}", r.aborted_tps())),
                ("mvcc_aborts", s.mvcc_conflict.to_string()),
                ("early_abort_sim", s.early_abort_simulation.to_string()),
                ("early_abort_cycle", s.early_abort_cycle.to_string()),
                ("early_abort_version", s.early_abort_version_mismatch.to_string()),
            ],
        );
        if let Some(prefix) = &trace_prefix {
            let mut os = prefix.as_os_str().to_owned();
            os.push(format!(".{key}"));
            export_trace(mode, &r.report, &PathBuf::from(os)).expect("trace export failed");
        }
        if smoke {
            smoke_check(mode, &r, &mut failures);
        }
        phase_tables.push((mode, r.report.phases, r.report.store));
    }
    for (mode, phases, store) in &phase_tables {
        print_phase_table(mode, phases);
        print_store_stats(mode, store);
    }
    if smoke {
        fabric_bench::smoke::record(
            "fig10_breakdown",
            "trace-self-checks",
            failures.is_empty(),
            &if failures.is_empty() {
                "JSONL round-trip, Chrome envelope, zero drops, counters match per mode".into()
            } else {
                failures.join("; ")
            },
        );
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("SMOKE FAIL: {f}");
        }
        std::process::exit(1);
    }
}

/// The CI gate's checks over one traced run.
fn smoke_check(mode: &str, r: &ExperimentResult, failures: &mut Vec<String>) {
    use fabric_trace::{chrome, jsonl, EventKind};

    let mut check = |cond: bool, msg: String| {
        if !cond {
            failures.push(format!("[{mode}] {msg}"));
        }
    };
    let Some(trace) = &r.report.trace else {
        check(false, "smoke run produced no trace".into());
        return;
    };

    // The ring must have been large enough to retain everything.
    check(trace.dropped == 0, format!("{} events dropped", trace.dropped));
    check(
        trace.emitted == trace.dropped + trace.events.len() as u64,
        format!(
            "emitted {} != dropped {} + retained {}",
            trace.emitted,
            trace.dropped,
            trace.events.len()
        ),
    );
    check(!trace.events.is_empty(), "trace is empty".into());

    // JSONL round-trips losslessly.
    let dump = jsonl::to_string(&trace.events);
    match jsonl::parse_str(&dump) {
        Ok(parsed) => check(parsed == trace.events, "JSONL round-trip mismatch".into()),
        Err(e) => check(false, format!("JSONL parse error: {e:?}")),
    }

    // The Chrome document has the trace-event envelope.
    let doc = chrome::to_string(&trace.events);
    check(
        doc.starts_with('{') && doc.trim_end().ends_with('}'),
        "chrome document is not a JSON object".into(),
    );
    check(doc.contains("\"traceEvents\""), "chrome document lacks traceEvents".into());

    // Abort provenance is present and consistent with the counters: every
    // outcome the reporting peer / orderer counted appears as exactly one
    // provenance-carrying event.
    let s = &r.report.stats;
    let count = |label: &str| {
        trace.events.iter().filter(|e| e.kind.label() == label).count() as u64
    };
    check(
        count("mvcc_conflict") == s.mvcc_conflict,
        format!("{} mvcc_conflict events vs {} counted", count("mvcc_conflict"), s.mvcc_conflict),
    );
    check(
        count("early_abort_version") == s.early_abort_version_mismatch,
        format!(
            "{} early_abort_version events vs {} counted",
            count("early_abort_version"),
            s.early_abort_version_mismatch
        ),
    );
    check(
        count("early_abort_cycle") == s.early_abort_cycle,
        format!(
            "{} early_abort_cycle events vs {} counted",
            count("early_abort_cycle"),
            s.early_abort_cycle
        ),
    );
    check(
        count("tx_committed") == s.valid,
        format!("{} tx_committed events vs {} valid", count("tx_committed"), s.valid),
    );
    for ev in &trace.events {
        if let EventKind::TxMvccConflict { expected, writer, .. } = &ev.kind {
            check(
                expected.is_some() || writer.is_some(),
                format!("mvcc_conflict without provenance at seq {}", ev.seq),
            );
        }
    }
}
