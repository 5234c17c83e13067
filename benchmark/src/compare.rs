//! `--compare A B`: applies the bounds of `BENCHMARK.json` to two result
//! sets (directories of `<workload>.json` files written by this program).

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::metrics::{Better, SETUP_ABS_SLACK_S};
use crate::report::values_of;
use crate::stats;

/// One end-to-end metric's regression rule, as `BENCHMARK.json` states it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen.
    pub share: f64,
}

impl Bound {
    /// How far the metric may worsen from `baseline_median`, in its own
    /// unit. `setup_s` gets the larger of its share and a fixed slack.
    pub fn allowed(&self, baseline_median: f64) -> f64 {
        let relative = self.share * baseline_median.abs();
        if self.name == "setup_s" {
            relative.max(SETUP_ABS_SLACK_S)
        } else {
            relative
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The spread of either side's own runs is wider than the bound: the
    /// metric is neither unchanged nor worse.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares candidate runs `b` with baseline runs `a` under `bound`.
pub fn verdict(bound: &Bound, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let allowed = bound.allowed(ma);
    let worse_by = match bound.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    // A metric that could not be computed on either side is not "ok".
    if !worse_by.is_finite() {
        return Verdict::Unresolved;
    }
    if worse_by > allowed {
        return Verdict::Worse;
    }
    let iqr = |v: &[f64]| {
        let (q1, q3) = stats::quartiles(v);
        q3 - q1
    };
    if iqr(a) > allowed || iqr(b) > allowed {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

/// Reads the end-to-end bounds out of a parsed `BENCHMARK.json`.
pub fn bounds_from(manifest: &Json) -> Result<Vec<Bound>, String> {
    let list = manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|entry| {
            let field = |k: &str| {
                entry
                    .get(k)
                    .ok_or(format!("end_to_end entry without {k:?}"))
            };
            let better = match field("better")?.as_str() {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                other => return Err(format!("bad direction {other:?}")),
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_owned(),
                better,
                share: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// The values one metric took over the runs of a result file.
fn metric_values(result: &Json, metric: &str) -> Vec<f64> {
    values_of(
        result
            .get("runs")
            .and_then(Json::as_arr)
            .unwrap_or_default(),
        metric,
    )
}

fn load_set(dir: &Path) -> Result<BTreeMap<String, Json>, String> {
    let mut set = BTreeMap::new();
    for w in crate::workloads::ALL {
        let path = dir.join(format!("{}.json", w.name));
        if let Ok(text) = std::fs::read_to_string(&path) {
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            set.insert(w.name.to_owned(), doc);
        }
    }
    if set.is_empty() {
        return Err(format!(
            "{}: no <workload>.json result files",
            dir.display()
        ));
    }
    Ok(set)
}

/// Prints one row per (workload, metric); returns whether any is `worse`.
pub fn run(manifest_path: &Path, a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let manifest_text = std::fs::read_to_string(manifest_path)
        .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let bounds = bounds_from(&Json::parse(&manifest_text)?)?;
    let (a, b) = (load_set(a_dir)?, load_set(b_dir)?);
    println!(
        "{:<16} {:<14} {:>12} {:>25} {:>12} {:>25} {:>8}  verdict",
        "workload", "metric", "A median", "A [q1 .. q3]", "B median", "B [q1 .. q3]", "bound"
    );
    let mut any_worse = false;
    for (workload, doc_a) in &a {
        let Some(doc_b) = b.get(workload) else {
            println!("{workload:<16} only in A");
            continue;
        };
        for bound in &bounds {
            let (va, vb) = (
                metric_values(doc_a, &bound.name),
                metric_values(doc_b, &bound.name),
            );
            let v = verdict(bound, &va, &vb);
            any_worse |= v == Verdict::Worse;
            let side = |v: &[f64]| {
                let (q1, q3) = stats::quartiles(v);
                (
                    format!("{:.4}", stats::median(v)),
                    format!("[{q1:.4} .. {q3:.4}]"),
                )
            };
            let ((ma, qa), (mb, qb)) = (side(&va), side(&vb));
            let spread = stats::spread_share(&va).max(stats::spread_share(&vb));
            let note = if v == Verdict::Unresolved {
                format!("  (spread {:.1} %)", spread * 100.0)
            } else {
                String::new()
            };
            println!(
                "{workload:<16} {:<14} {ma:>12} {qa:>25} {mb:>12} {qb:>25} {:>7.0}%  {}{note}",
                bound.name,
                bound.share * 100.0,
                v.as_str()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(name: &str, better: Better, share: f64) -> Bound {
        Bound {
            name: name.to_owned(),
            better,
            share,
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let tps = bound("goodput_tps", Better::Higher, 0.10);
        assert_eq!(
            verdict(&tps, &[100.0, 101.0, 99.0], &[95.0, 96.0, 94.0]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&tps, &[100.0, 101.0, 99.0], &[85.0, 86.0, 84.0]),
            Verdict::Worse
        );
        // Better than the baseline is never worse.
        assert_eq!(
            verdict(&tps, &[100.0, 101.0, 99.0], &[150.0, 151.0, 149.0]),
            Verdict::Ok
        );

        let p99 = bound("commit_p99_ms", Better::Lower, 0.10);
        assert_eq!(
            verdict(&p99, &[200.0, 201.0, 199.0], &[215.0, 216.0, 214.0]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&p99, &[200.0, 201.0, 199.0], &[225.0, 226.0, 224.0]),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_ok() {
        let tps = bound("goodput_tps", Better::Higher, 0.10);
        // Medians agree, but the baseline's own runs spread over 30 %.
        assert_eq!(
            verdict(&tps, &[85.0, 100.0, 115.0], &[100.0, 100.0, 100.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&tps, &[100.0, 100.0, 100.0], &[85.0, 100.0, 115.0]),
            Verdict::Unresolved
        );
        // A clear regression stays a regression whatever the spread.
        assert_eq!(
            verdict(&tps, &[85.0, 100.0, 115.0], &[50.0, 50.0, 50.0]),
            Verdict::Worse
        );
        // A metric that was not computed cannot be called unchanged.
        assert_eq!(verdict(&tps, &[], &[100.0]), Verdict::Unresolved);
    }

    #[test]
    fn setup_takes_the_larger_of_share_and_slack() {
        let setup = bound("setup_s", Better::Lower, 0.20);
        // 10 ms set-up: +0.2 s is inside the 0.25 s slack although it is +2000 %.
        assert_eq!(setup.allowed(0.01), SETUP_ABS_SLACK_S);
        assert_eq!(
            verdict(&setup, &[0.01, 0.011, 0.009], &[0.21, 0.21, 0.21]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&setup, &[0.01, 0.011, 0.009], &[0.30, 0.30, 0.30]),
            Verdict::Worse
        );
        // 3 s set-up: the 20 % share (0.6 s) is the larger one.
        assert!((setup.allowed(3.0) - 0.6).abs() < 1e-12);
        assert_eq!(
            verdict(&setup, &[3.0, 3.0, 3.0], &[3.5, 3.5, 3.5]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&setup, &[3.0, 3.0, 3.0], &[3.7, 3.7, 3.7]),
            Verdict::Worse
        );
        // Other metrics get no slack.
        assert_eq!(
            bound("abort_share", Better::Lower, 0.2).allowed(0.01),
            0.002
        );
    }

    #[test]
    fn bounds_come_from_the_manifest() {
        let manifest = Json::parse(
            r#"{"end_to_end":[{"name":"goodput_tps","unit":"tx/s","better":"higher","bound":0.2},
                {"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#,
        )
        .unwrap();
        assert_eq!(
            bounds_from(&manifest).unwrap(),
            vec![
                bound("goodput_tps", Better::Higher, 0.2),
                bound("setup_s", Better::Lower, 0.25)
            ]
        );
        assert!(bounds_from(&Json::parse("{}").unwrap()).is_err());
    }
}
