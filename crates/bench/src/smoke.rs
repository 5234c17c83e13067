//! Machine-readable smoke-gate summaries.
//!
//! Every `--smoke` experiment binary is a CI gate: it asserts a
//! differential or invariant property and exits non-zero on violation.
//! Those gates run as separate CI steps, so their outcomes are scattered
//! across the job log. This module gives each gate one line of structured
//! output: when the `SMOKE_SUMMARY` environment variable names a file,
//! [`record`] appends a JSON object per gate, and the `smoke_summary`
//! binary folds the accumulated lines into a single machine-readable
//! summary document for the whole CI run.
//!
//! The format is deliberately tiny — flat objects, string/bool fields —
//! so it needs no serde and any log-scraping tool can consume it.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::PathBuf;

/// The environment variable naming the shared summary file.
pub const SUMMARY_ENV: &str = "SMOKE_SUMMARY";

/// Outcome of one smoke gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateResult {
    /// Experiment binary the gate belongs to (e.g. `validation_scaling`).
    pub bin: String,
    /// Gate name (e.g. `threaded-vscc-vs-sequential`).
    pub gate: String,
    /// Whether the gate held.
    pub passed: bool,
    /// One-line human context (counts, sweep parameters).
    pub detail: String,
}

/// Where gate records accumulate, if `SMOKE_SUMMARY` is set.
pub fn summary_path() -> Option<PathBuf> {
    std::env::var_os(SUMMARY_ENV).map(PathBuf::from)
}

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

fn to_json(r: &GateResult) -> String {
    format!(
        r#"{{"bin":"{}","gate":"{}","passed":{},"detail":"{}"}}"#,
        escape(&r.bin),
        escape(&r.gate),
        r.passed,
        escape(&r.detail)
    )
}

/// Records one gate outcome: always echoed to stdout (prefixed `# gate:`
/// so CSV consumers skip it), and appended as a JSON line to the
/// `SMOKE_SUMMARY` file when that variable is set. Failures of the file
/// write are deliberately ignored — a gate must never fail because its
/// bookkeeping did.
pub fn record(bin: &str, gate: &str, passed: bool, detail: &str) {
    let r = GateResult {
        bin: bin.to_owned(),
        gate: gate.to_owned(),
        passed,
        detail: detail.to_owned(),
    };
    println!(
        "# gate: {} / {} -> {} ({})",
        r.bin,
        r.gate,
        if passed { "pass" } else { "FAIL" },
        r.detail
    );
    if let Some(path) = summary_path() {
        if let Ok(mut f) = OpenOptions::new().create(true).append(true).open(path) {
            let _ = writeln!(f, "{}", to_json(&r));
        }
    }
}

/// Extracts the string value of `"field":"..."` from one flat JSON line
/// (the only shape [`record`] writes).
fn string_field(line: &str, field: &str) -> Option<String> {
    let tag = format!("\"{field}\":\"");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let v = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(v)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// Parses one JSON line produced by [`record`].
pub fn parse_line(line: &str) -> Option<GateResult> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    Some(GateResult {
        bin: string_field(line, "bin")?,
        gate: string_field(line, "gate")?,
        passed: line.contains("\"passed\":true"),
        detail: string_field(line, "detail")?,
    })
}

/// Collapses duplicate `(bin, gate)` records, keeping the **last** record
/// for each pair at the position of its first occurrence. Returns the
/// deduplicated list plus the number of records dropped.
///
/// The summary file is append-only across CI steps, so a re-run step (e.g.
/// a flaky-runner retry) appends a second record for the same gate. Only
/// the latest run's verdict speaks for a gate: a stale FAIL line from a
/// previous attempt must not fail a fresh green run, and a stale PASS must
/// not mask a fresh failure.
pub fn dedupe_latest(records: &[GateResult]) -> (Vec<GateResult>, usize) {
    let mut out: Vec<GateResult> = Vec::with_capacity(records.len());
    let mut duplicates = 0usize;
    for r in records {
        match out.iter().position(|o| o.bin == r.bin && o.gate == r.gate) {
            Some(i) => {
                out[i] = r.clone();
                duplicates += 1;
            }
            None => out.push(r.clone()),
        }
    }
    (out, duplicates)
}

/// Folds accumulated gate records into the single summary document the
/// CI run publishes: counts plus the full result list. Duplicate
/// `(bin, gate)` records are collapsed via [`dedupe_latest`] — each gate is
/// counted once, judged by its most recent record — and the number of
/// collapsed records is reported as `"duplicates"`.
pub fn aggregate(records: &[GateResult]) -> String {
    let (records, duplicates) = dedupe_latest(records);
    let passed = records.iter().filter(|r| r.passed).count();
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"gates\": {},\n  \"passed\": {},\n  \"failed\": {},\n  \"duplicates\": {},\n  \"results\": [\n",
        records.len(),
        passed,
        records.len() - passed,
        duplicates
    ));
    for (i, r) in records.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&to_json(r));
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_json_lines() {
        let r = GateResult {
            bin: "commit_scaling".into(),
            gate: "batched-vs-oracle".into(),
            passed: true,
            detail: "workers [1, 2, 4] over 12 blocks, \"quoted\"\nline".into(),
        };
        let parsed = parse_line(&to_json(&r)).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn aggregate_counts_and_embeds_results() {
        let rs = vec![
            GateResult { bin: "a".into(), gate: "g1".into(), passed: true, detail: String::new() },
            GateResult { bin: "b".into(), gate: "g2".into(), passed: false, detail: "boom".into() },
        ];
        let doc = aggregate(&rs);
        assert!(doc.contains("\"gates\": 2"));
        assert!(doc.contains("\"passed\": 1"));
        assert!(doc.contains("\"failed\": 1"));
        assert!(doc.contains("\"duplicates\": 0"));
        assert!(doc.contains("\"gate\":\"g2\""));
        // Every embedded line parses back.
        let parsed: Vec<_> = doc
            .lines()
            .filter(|l| l.trim_start().starts_with('{') && l.contains("\"bin\""))
            .filter_map(parse_line)
            .collect();
        assert_eq!(parsed, rs);
    }

    fn gr(bin: &str, gate: &str, passed: bool, detail: &str) -> GateResult {
        GateResult {
            bin: bin.into(),
            gate: gate.into(),
            passed,
            detail: detail.into(),
        }
    }

    #[test]
    fn dedupe_keeps_last_record_per_gate() {
        let rs = vec![
            gr("a", "g1", true, "first"),
            gr("b", "g2", true, "other bin"),
            gr("a", "g1", true, "second"),
            gr("a", "g1", true, "third"),
        ];
        let (deduped, dups) = dedupe_latest(&rs);
        assert_eq!(dups, 2);
        assert_eq!(deduped.len(), 2);
        // Position of first occurrence, value of last.
        assert_eq!(deduped[0].detail, "third");
        assert_eq!(deduped[1].detail, "other bin");
        // Same gate name under a different bin is NOT a duplicate.
        let (d2, dups2) = dedupe_latest(&[gr("a", "g", true, ""), gr("b", "g", true, "")]);
        assert_eq!((d2.len(), dups2), (2, 0));
    }

    #[test]
    fn stale_fail_superseded_by_fresh_pass() {
        // A failed first attempt followed by a re-run's pass: the fresh
        // record wins, so the aggregate reports zero failures (and vice
        // versa, a stale pass must not mask a fresh failure).
        let rs = vec![gr("a", "g1", false, "stale attempt"), gr("a", "g1", true, "re-run")];
        let doc = aggregate(&rs);
        assert!(doc.contains("\"gates\": 1"), "{doc}");
        assert!(doc.contains("\"failed\": 0"), "stale FAIL must not fail the run: {doc}");
        assert!(doc.contains("\"duplicates\": 1"), "{doc}");
        assert!(doc.contains("\"detail\":\"re-run\""));
        assert!(!doc.contains("stale attempt"));

        let rs = vec![gr("a", "g1", true, "stale pass"), gr("a", "g1", false, "fresh fail")];
        let (deduped, _) = dedupe_latest(&rs);
        assert_eq!(deduped.iter().filter(|r| !r.passed).count(), 1);
        assert!(aggregate(&rs).contains("\"failed\": 1"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_line("").is_none());
        assert!(parse_line("not json").is_none());
        assert!(parse_line("{\"bin\":\"x\"}").is_none(), "missing fields");
    }
}
