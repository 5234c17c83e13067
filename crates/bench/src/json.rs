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
//! `BENCH_*.json` perf trajectory, not just the soak bin; binaries that
//! drive the network directly (like `soak_zipfian`) use [`JsonSink`]
//! explicitly.
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
    let st = &report.store;
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
    out.push_str(&format!(
        "\"stats\":{{\"submitted\":{},\"valid\":{},\"mvcc_conflict\":{},\
         \"endorsement_failure\":{},\"early_abort_simulation\":{},\
         \"early_abort_cycle\":{},\"early_abort_version_mismatch\":{}}},",
        s.submitted,
        s.valid,
        s.mvcc_conflict,
        s.endorsement_failure,
        s.early_abort_simulation,
        s.early_abort_cycle,
        s.early_abort_version_mismatch,
    ));
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
    out.push_str(&format!(
        "\"store\":{{\"multi_get_batches\":{},\"multi_get_keys\":{},\"point_gets\":{},\
         \"blocks_applied\":{},\"shard_lock_acquisitions\":{},\"wal_records\":{},\
         \"wal_fsyncs\":{},\"commit_ticket_acquisitions\":{},\"snapshot_pins\":{},\
         \"snapshot_read_batches\":{},\"snapshot_read_keys\":{},\
         \"gc_trimmed_versions\":{}}},",
        st.multi_get_batches,
        st.multi_get_keys,
        st.point_gets,
        st.blocks_applied,
        st.shard_lock_acquisitions,
        st.wal_records,
        st.wal_fsyncs,
        st.commit_ticket_acquisitions,
        st.snapshot_pins,
        st.snapshot_read_batches,
        st.snapshot_read_keys,
        st.gc_trimmed_versions,
    ));
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

/// Accumulates run reports and writes them as one JSON document when the
/// binary was invoked with `--json`. Inert (free) otherwise.
pub struct JsonSink {
    bin: String,
    path: Option<PathBuf>,
    runs: Vec<String>,
}

impl JsonSink {
    /// A sink honoring the command line of the current process.
    pub fn from_args(bin: &str) -> Self {
        JsonSink { bin: bin.to_owned(), path: json_path_from_args(bin), runs: Vec::new() }
    }

    /// A sink writing to an explicit path (used by tests and the soak
    /// bin's internal bookkeeping).
    pub fn to_path(bin: &str, path: PathBuf) -> Self {
        JsonSink { bin: bin.to_owned(), path: Some(path), runs: Vec::new() }
    }

    /// Whether `--json` was requested.
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Records one experiment result (no-op when disabled).
    pub fn push(&mut self, result: &ExperimentResult) {
        if self.enabled() {
            self.runs.push(run_to_json(&result.label, &result.report, result.fire_duration));
        }
    }

    /// Records one run given its pieces (for bins that track reports
    /// without an [`ExperimentResult`]).
    pub fn push_report(&mut self, label: &str, report: &RunReport, fire_duration: Duration) {
        if self.enabled() {
            self.runs.push(run_to_json(label, report, fire_duration));
        }
    }

    /// Writes the accumulated document and prints where it went. Returns
    /// `Ok(())` when disabled.
    pub fn finish(self) -> std::io::Result<()> {
        let Some(path) = self.path else { return Ok(()) };
        write_doc(&self.bin, &path, &self.runs)?;
        println!("# json: wrote {} run report(s) -> {}", self.runs.len(), path.display());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            elapsed: Duration::from_millis(1500),
            stats: fabric_common::TxStats {
                submitted: 10,
                valid: 7,
                mvcc_conflict: 3,
                ..Default::default()
            },
            latency: fabric_common::LatencySummary::default(),
            net_messages: 42,
            net_bytes: 4096,
            orderer: Default::default(),
            phases: Default::default(),
            block_heights: vec![5],
            store: Default::default(),
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
        assert!(json.contains("\"label\":\"mode \\\"a\\\"\\n\""), "label escaped: {json}");
        assert!(json.contains("\"submitted\":10"));
        assert!(json.contains("\"valid_tps\":7.00"));
        assert!(json.contains("\"timeseries\":null"));
        assert!(json.contains("\"trace\":null"));
        assert!(json.contains("\"block_heights\":[5]"));
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
        let mut sink = JsonSink::to_path("test_bin", path.clone());
        assert!(sink.enabled());
        sink.push_report("a", &sample_report(), Duration::from_secs(1));
        sink.push_report("b", &sample_report(), Duration::from_secs(2));
        sink.finish().unwrap();
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
