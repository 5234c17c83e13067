//! Machine-readable `RunReport` serialization for the experiment
//! binaries' uniform `--json` flag.
//!
//! `run_experiment` calls [`record_run`] on every result, so **every**
//! binary built on the shared runner honors `--json` with no per-binary
//! wiring: without the flag the hook is inert; with it, the run's full
//! reports — outcome counters, latency summary, orderer/store/phase
//! stats, and the windowed telemetry series when one was recorded —
//! accumulate in one flat JSON document (default
//! `results/BENCH_<bin>.json`, or the path given as `--json=PATH`),
//! rewritten after each run so a crashed sweep still leaves the
//! completed points on disk. Every bench thereby contributes to the
//! `BENCH_*.json` perf trajectory; `soak_zipfian`, which drives the
//! network directly, embeds [`run_to_json`] in its own record instead.
//!
//! Hand-rolled like `smoke.rs` and `fabric-telemetry`'s exporters: flat
//! objects, numeric/bool/string fields, no serde.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use fabricpp::RunReport;

use crate::runner::ExperimentResult;

/// Escapes a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A counter set's ordered field view as one flat JSON object.
fn counters(fields: &[(&str, u64)]) -> String {
    let body: Vec<String> = fields.iter().map(|(name, v)| format!("\"{name}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

fn us(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// Serializes one run (label + report + fire duration) as a JSON object.
/// Public so the soak bin can embed run objects in its own trajectory
/// document.
pub fn run_to_json(label: &str, report: &RunReport, fire_duration: Duration) -> String {
    let s = &report.stats;
    let l = &report.latency;
    let o = &report.orderer;
    let fire_s = fire_duration.as_secs_f64().max(1e-9);
    let mut out = String::with_capacity(2048);
    out.push_str(&format!(
        "{{\"label\":\"{}\",\"elapsed_s\":{:.6},\"fire_duration_s\":{:.6},\
         \"submitted_tps\":{:.2},\"valid_tps\":{:.2},\"aborted_tps\":{:.2},",
        escape(label),
        report.elapsed.as_secs_f64(),
        fire_duration.as_secs_f64(),
        s.submitted as f64 / fire_s,
        s.valid as f64 / fire_s,
        s.aborted() as f64 / fire_s,
    ));
    out.push_str(&format!("\"stats\":{},", counters(&s.fields())));
    out.push_str(&format!(
        "\"latency_us\":{{\"count\":{},\"min\":{},\"max\":{},\"avg\":{},\
         \"p50\":{},\"p95\":{},\"p99\":{},\"saturated\":{}}},",
        l.count,
        us(l.min),
        us(l.max),
        us(l.avg),
        us(l.p50),
        us(l.p95),
        us(l.p99),
        l.saturated,
    ));
    out.push_str(&format!(
        "\"net\":{{\"messages\":{},\"bytes\":{}}},",
        report.net_messages, report.net_bytes
    ));
    out.push_str(&format!(
        "\"orderer\":{{\"blocks\":{},\"txs_ordered\":{},\"cut_tx_count\":{},\
         \"cut_bytes\":{},\"cut_timeout\":{},\"cut_unique_keys\":{},\"cut_flush\":{},\
         \"reorder_time_us\":{},\"nontrivial_sccs\":{},\
         \"empty_suppressed\":{},\"avg_block_fill\":{:.2}}},",
        o.blocks,
        o.txs_ordered,
        o.cut_tx_count,
        o.cut_bytes,
        o.cut_timeout,
        o.cut_unique_keys,
        o.cut_flush,
        us(o.reorder_time),
        o.nontrivial_sccs,
        o.empty_suppressed,
        o.avg_block_fill(),
    ));
    out.push_str("\"phases\":{");
    let rows = report.phases.rows();
    for (i, (name, p)) in rows.iter().enumerate() {
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"avg_us\":{},\"p50_us\":{},\"p95_us\":{},\
             \"p99_us\":{},\"max_us\":{}}}",
            escape(name),
            p.count,
            us(p.avg),
            us(p.p50),
            us(p.p95),
            us(p.p99),
            us(p.max),
        ));
        if i + 1 < rows.len() {
            out.push(',');
        }
    }
    out.push_str("},");
    let heights: Vec<String> = report.block_heights.iter().map(u64::to_string).collect();
    out.push_str(&format!("\"block_heights\":[{}],", heights.join(",")));
    out.push_str(&format!("\"store\":{},", counters(&report.store.fields())));
    match &report.trace {
        Some(t) => out.push_str(&format!(
            "\"trace\":{{\"emitted\":{},\"dropped\":{},\"retained\":{}}},",
            t.emitted,
            t.dropped,
            t.len()
        )),
        None => out.push_str("\"trace\":null,"),
    }
    match &report.timeseries {
        Some(series) => {
            let windows: Vec<String> =
                series.windows.iter().map(fabric_telemetry::jsonl::window_to_line).collect();
            out.push_str(&format!(
                "\"timeseries\":{{\"dropped_windows\":{},\"windows\":[{}]}}",
                series.dropped_windows,
                windows.join(",")
            ));
        }
        None => out.push_str("\"timeseries\":null"),
    }
    out.push('}');
    out
}

/// Parses the uniform `--json` flag: `--json` alone picks the default
/// path for `bin`, `--json=PATH` / `--json PATH` (where PATH ends in
/// `.json`, so positional arguments of bins like `chaos_soak` are never
/// swallowed) overrides it. `None` when the flag is absent.
pub fn json_path_from_args(bin: &str) -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if let Some(rest) = a.strip_prefix("--json=") {
            return Some(PathBuf::from(rest));
        }
        if a == "--json" {
            if let Some(next) = args.get(i + 1) {
                if next.ends_with(".json") {
                    return Some(PathBuf::from(next));
                }
            }
            return Some(PathBuf::from(format!("results/BENCH_{bin}.json")));
        }
    }
    None
}

/// The current binary's name (file stem of `argv[0]`), used for the
/// default `results/BENCH_<bin>.json` path.
pub fn current_bin() -> String {
    std::env::args()
        .next()
        .and_then(|p| {
            PathBuf::from(p).file_stem().map(|s| s.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "bench".to_owned())
}

/// Runs recorded so far by [`record_run`] (serialized run objects).
static RECORDED: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn write_doc(bin: &str, path: &std::path::Path, runs: &[String]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut doc = String::with_capacity(1024 + 2048 * runs.len());
    doc.push_str(&format!("{{\n  \"bin\": \"{}\",\n  \"runs\": [\n", escape(bin)));
    for (i, r) in runs.iter().enumerate() {
        doc.push_str("    ");
        doc.push_str(r);
        doc.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    doc.push_str("  ]\n}\n");
    std::fs::write(path, doc)
}

/// The uniform `--json` hook: `run_experiment` calls this on every
/// result. When the process was invoked with `--json`, the run is
/// appended to the document and the file rewritten; otherwise this is
/// free. Write failures are deliberately swallowed — an experiment must
/// never fail because its bookkeeping did (same policy as
/// `smoke::record`).
pub fn record_run(result: &ExperimentResult) {
    let bin = current_bin();
    let Some(path) = json_path_from_args(&bin) else { return };
    let mut runs = RECORDED.lock().unwrap();
    runs.push(run_to_json(&result.label, &result.report, result.fire_duration));
    if runs.len() == 1 {
        println!("# json: recording run reports -> {}", path.display());
    }
    let _ = write_doc(&bin, &path, &runs);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            elapsed: Duration::from_millis(1500),
            // Every counter field distinct, so a reordered, renamed or
            // dropped field shows in the exact bytes.
            stats: fabric_common::TxStats {
                submitted: 101,
                valid: 102,
                mvcc_conflict: 103,
                endorsement_failure: 104,
                early_abort_simulation: 105,
                early_abort_cycle: 106,
                early_abort_version_mismatch: 107,
            },
            latency: fabric_common::LatencySummary::default(),
            net_messages: 42,
            net_bytes: 4096,
            orderer: Default::default(),
            phases: Default::default(),
            block_heights: vec![5],
            store: fabric_common::StoreStats {
                multi_get_batches: 201,
                multi_get_keys: 202,
                point_gets: 203,
                blocks_applied: 204,
                shard_lock_acquisitions: 205,
                wal_records: 206,
                wal_fsyncs: 207,
                commit_ticket_acquisitions: 208,
                snapshot_pins: 209,
                snapshot_read_batches: 210,
                snapshot_read_keys: 211,
                gc_trimmed_versions: 212,
            },
            trace: None,
            timeseries: None,
        }
    }

    #[test]
    fn run_json_is_flat_and_balanced() {
        let json = run_to_json("mode \"a\"\n", &sample_report(), Duration::from_secs(1));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces: {json}"
        );

        // Exact bytes.
        let phase = r#"{"count":0,"avg_us":0,"p50_us":0,"p95_us":0,"p99_us":0,"max_us":0}"#;
        let expected = [
            r#"{"label":"mode \"a\"\n","elapsed_s":1.500000,"fire_duration_s":1.000000,"#,
            r#""submitted_tps":101.00,"valid_tps":102.00,"aborted_tps":525.00,"#,
            r#""stats":{"submitted":101,"valid":102,"mvcc_conflict":103,"#,
            r#""endorsement_failure":104,"early_abort_simulation":105,"#,
            r#""early_abort_cycle":106,"early_abort_version_mismatch":107},"#,
            r#""latency_us":{"count":0,"min":0,"max":0,"avg":0,"p50":0,"p95":0,"p99":0,"#,
            r#""saturated":false},"net":{"messages":42,"bytes":4096},"#,
            r#""orderer":{"blocks":0,"txs_ordered":0,"cut_tx_count":0,"cut_bytes":0,"#,
            r#""cut_timeout":0,"cut_unique_keys":0,"cut_flush":0,"reorder_time_us":0,"#,
            r#""nontrivial_sccs":0,"empty_suppressed":0,"avg_block_fill":0.00},"#,
            &format!(
                r#""phases":{{"endorse":{phase},"order":{phase},"order-reorder":{phase},"#
            ),
            &format!(r#""validate-vscc":{phase},"validate-mvcc":{phase},"commit":{phase}}},"#),
            r#""block_heights":[5],"#,
            r#""store":{"multi_get_batches":201,"multi_get_keys":202,"point_gets":203,"#,
            r#""blocks_applied":204,"shard_lock_acquisitions":205,"wal_records":206,"#,
            r#""wal_fsyncs":207,"commit_ticket_acquisitions":208,"snapshot_pins":209,"#,
            r#""snapshot_read_batches":210,"snapshot_read_keys":211,"#,
            r#""gc_trimmed_versions":212},"trace":null,"timeseries":null}"#,
        ]
        .concat();
        assert_eq!(json, expected);
    }

    #[test]
    fn timeseries_windows_are_embedded() {
        let mut report = sample_report();
        report.timeseries = Some(fabric_telemetry::TelemetrySeries {
            windows: vec![Default::default(), Default::default()],
            dropped_windows: 0,
            total: report.stats,
        });
        let json = run_to_json("soak", &report, Duration::from_secs(1));
        assert!(json.contains("\"timeseries\":{\"dropped_windows\":0,\"windows\":["));
        assert_eq!(json.matches("\"end_logical_block\":").count(), 2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn sink_writes_document() {
        let dir = std::env::temp_dir().join(format!("fabric-json-sink-{}", std::process::id()));
        let path = dir.join("BENCH_test.json");
        let runs = [
            run_to_json("a", &sample_report(), Duration::from_secs(1)),
            run_to_json("b", &sample_report(), Duration::from_secs(2)),
        ];
        write_doc("test_bin", &path, &runs).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.contains("\"bin\": \"test_bin\""));
        assert!(doc.contains("\"label\":\"a\""));
        assert!(doc.contains("\"label\":\"b\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flag_parsing_defaults_and_overrides() {
        // No --json in the test harness argv.
        assert!(json_path_from_args("x").is_none());
    }
}
