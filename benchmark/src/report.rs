//! What the benchmark prints and writes: every metric by name with its
//! unit, the per-workload result file, and the one-line JSON result.

use crate::compare::Bound;
use crate::json::Json;
use crate::metrics::{unit_of, MetricDef, END_TO_END, PER_LAYER};
use crate::run::RunOutput;
use crate::stats;
use crate::workloads::Workload;

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// One run as it is stored in the result file (and handed from the child
/// process that made the run to the invocation that collects it).
pub fn run_entry(pass: usize, out: &RunOutput) -> Json {
    Json::obj([
        ("pass", Json::Num(pass as f64)),
        ("noisy", Json::Bool(false)),
        ("open_valid", Json::Bool(out.open_valid)),
        ("correct", Json::Bool(out.correct())),
        ("ops_attempted", Json::Num(out.attempted as f64)),
        ("ops_failed", Json::Num(out.failed as f64)),
        ("latency_samples", Json::Num(out.latency_samples as f64)),
        (
            "calib_ms",
            Json::Arr(vec![Json::Num(out.calib_ms.0), Json::Num(out.calib_ms.1)]),
        ),
        (
            "checks",
            Json::Arr(out.checks.iter().map(|c| c.to_json()).collect()),
        ),
        (
            "metrics",
            Json::obj(
                out.metrics
                    .iter()
                    .map(|(name, v)| (*name, metric_json(*v, unit_of(name).unwrap_or("")))),
            ),
        ),
    ])
}

/// The values `metric` took over run entries (runs that could not compute
/// it are left out).
pub fn values_of(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Median, extremes and quartiles of one metric over the passes.
struct Summary {
    n: usize,
    median: f64,
    min: f64,
    max: f64,
    q1: f64,
    q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Option<Summary> {
        let sorted = stats::sorted(values.to_vec());
        let (q1, q3) = stats::quartiles(values);
        Some(Summary {
            n: sorted.len(),
            median: stats::median_sorted(&sorted),
            min: *sorted.first()?,
            max: *sorted.last()?,
            q1,
            q3,
        })
    }
}

/// The entry of a run whose process died before it could report.
pub fn crashed_entry(pass: usize, why: &str) -> Json {
    let mut out = RunOutput {
        attempted: 1,
        failed: 1,
        ..Default::default()
    };
    out.checks
        .push(crate::check::Check::new("run completed", false, why));
    run_entry(pass, &out)
}

/// All runs (one per pass) of one workload in this invocation.
pub struct WorkloadRuns {
    pub workload: Workload,
    runs: Vec<Json>,
}

impl WorkloadRuns {
    pub fn new(workload: Workload) -> Self {
        WorkloadRuns {
            workload,
            runs: Vec::new(),
        }
    }

    pub fn push(&mut self, mut entry: Json, noisy: bool) {
        if let Json::Obj(map) = &mut entry {
            map.insert("noisy".to_owned(), Json::Bool(noisy));
        }
        self.runs.push(entry);
    }

    pub fn correct(&self) -> bool {
        !self.runs.is_empty()
            && self
                .runs
                .iter()
                .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true))
    }

    pub fn values(&self, name: &str) -> Vec<f64> {
        values_of(&self.runs, name)
    }

    fn total(&self, key: &str) -> f64 {
        self.runs.iter().filter_map(|r| r.get(key)?.as_f64()).sum()
    }

    /// The result file: environment, every run, and a summary per metric.
    pub fn document(&self, env: &Json) -> Json {
        let summary = END_TO_END.iter().chain(PER_LAYER.iter()).filter_map(|def| {
            let sum = Summary::of(&self.values(def.name))?;
            Some((
                def.name,
                Json::obj([
                    ("unit", Json::str(def.unit)),
                    ("better", Json::str(def.better.as_str())),
                    ("n", Json::Num(sum.n as f64)),
                    ("median", Json::Num(sum.median)),
                    ("min", Json::Num(sum.min)),
                    ("max", Json::Num(sum.max)),
                    ("q1", Json::Num(sum.q1)),
                    ("q3", Json::Num(sum.q3)),
                ]),
            ))
        });
        Json::obj([
            ("schema", Json::Num(1.0)),
            ("workload", Json::str(self.workload.name)),
            ("why", Json::str(self.workload.why)),
            ("env", env.clone()),
            ("runs", Json::Arr(self.runs.clone())),
            ("summary", Json::obj(summary)),
        ])
    }

    /// The one-line result: `correct`, `attempted`, `failed` and the
    /// medians of the end-to-end metrics (untraced) or of the per-layer
    /// metrics (traced). With several workloads in one invocation each
    /// line also names its workload.
    pub fn contract_line(&self, traced: bool, name_workload: bool) -> Json {
        let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics = defs.iter().map(|def| {
            (
                def.name,
                metric_json(stats::median(&self.values(def.name)), def.unit),
            )
        });
        let mut line = vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.total("ops_attempted").max(1.0))),
            ("failed", Json::Num(self.total("ops_failed"))),
            ("metrics", Json::obj(metrics)),
        ];
        if name_workload {
            line.push(("workload", Json::str(self.workload.name)));
        }
        Json::obj(line)
    }
}

/// Prints every metric of one run by name, with its unit.
pub fn print_run(w: Workload, pass: usize, out: &RunOutput) {
    println!(
        "## {} pass {}: {} | ops_failed {} of ops_attempted {} | open phase {} | {} latency samples \
         | calibration {:.1} -> {:.1} ms",
        w.name,
        pass + 1,
        if out.correct() { "correct" } else { "NOT CORRECT" },
        out.failed,
        out.attempted,
        if out.open_valid { "valid" } else { "INVALID (re-run, not a regression)" },
        out.latency_samples,
        out.calib_ms.0,
        out.calib_ms.1,
    );
    for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if let Some(v) = out.metrics.get(def.name) {
            println!("{:<16} {:<40} {:>16.4} {}", w.name, def.name, v, def.unit);
        }
    }
    for c in out.checks.iter().filter(|c| !c.ok) {
        println!("{:<16} CHECK FAILED: {} ({})", w.name, c.name, c.detail);
    }
}

/// Prints median, min and max over the passes; a metric whose own spread
/// exceeds its bound is marked `unresolved`.
pub fn print_summary(runs: &WorkloadRuns, bounds: &[Bound]) {
    println!(
        "## {} over {} passes: median [min .. max]",
        runs.workload.name,
        runs.runs.len()
    );
    for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let values = runs.values(def.name);
        let Some(sum) = Summary::of(&values) else {
            continue;
        };
        let unresolved = bounds
            .iter()
            .find(|b| b.name == def.name)
            .is_some_and(|b| sum.q3 - sum.q1 > b.allowed(sum.median));
        println!(
            "{:<16} {:<40} {:>16.4} [{:.4} .. {:.4}] {}{}",
            runs.workload.name,
            def.name,
            sum.median,
            sum.min,
            sum.max,
            def.unit,
            if unresolved {
                format!(
                    "  unresolved (spread {:.1} %)",
                    stats::spread_share(&values) * 100.0
                )
            } else {
                String::new()
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Check;

    fn output(goodput: f64) -> RunOutput {
        let mut out = RunOutput {
            attempted: 100,
            open_valid: true,
            ..Default::default()
        };
        for def in END_TO_END {
            out.metrics.insert(def.name, 1.5);
        }
        out.metrics.insert("goodput_tps", goodput);
        out.checks.push(Check::new("a check", true, "detail"));
        out
    }

    #[test]
    fn result_file_round_trips_and_feeds_compare() {
        let mut runs = WorkloadRuns::new(crate::workloads::ALL[1]);
        for (pass, g) in [4000.125, 4100.5, 3900.0625].into_iter().enumerate() {
            // Entries cross a process boundary as text.
            let entry = Json::parse(&run_entry(pass, &output(g)).to_line()).unwrap();
            runs.push(entry, pass == 1);
        }
        let env = crate::host::environment(1, 3, 16, false, false);
        let doc = runs.document(&env);
        let back = Json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(
            values_of(
                back.get("runs").and_then(Json::as_arr).unwrap(),
                "goodput_tps"
            ),
            vec![4000.125, 4100.5, 3900.0625]
        );
        assert_eq!(back.get("workload").unwrap().as_str(), Some("sb_zipf"));
        let summary = back.get("summary").unwrap().get("goodput_tps").unwrap();
        assert_eq!(summary.get("median").unwrap().as_f64(), Some(4000.125));
        assert_eq!(summary.get("unit").unwrap().as_str(), Some("tx/s"));
        for key in [
            "nproc",
            "client_threads",
            "git_commit",
            "rustc",
            "seed",
            "passes",
        ] {
            assert!(
                back.get("env").unwrap().get(key).is_some(),
                "env lacks {key}"
            );
        }
        assert_eq!(
            back.get("runs").unwrap().as_arr().unwrap()[1].get("noisy"),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let mut runs = WorkloadRuns::new(crate::workloads::ALL[0]);
        runs.push(run_entry(0, &output(10_000.0)), false);
        let line = Json::parse(&runs.contract_line(false, false).to_line()).unwrap();
        let Json::Obj(top) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["goodput_tps"].get("unit").unwrap().as_str(),
            Some("tx/s")
        );
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));

        // A failed check makes the whole invocation incorrect.
        let mut bad = output(1.0);
        bad.checks.push(Check::new("broken", false, ""));
        bad.failed = 1;
        runs.push(run_entry(1, &bad), false);
        runs.push(crashed_entry(2, "exit status 101"), false);
        let line = runs.contract_line(true, true);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").unwrap().as_f64(), Some(2.0));
        assert_eq!(line.get("attempted").unwrap().as_f64(), Some(201.0));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(line.get("workload").unwrap().as_str(), Some("sb_uniform"));
    }
}
