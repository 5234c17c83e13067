//! Prometheus text-format (0.0.4) export of a [`TelemetrySeries`].
//!
//! Mirrors the conventions of `fabric-trace`'s exporter: `# HELP` /
//! `# TYPE` headers per family, `fabric_` metric prefix, one sample per
//! window keyed by a `window="N"` label. Windows are logical time
//! (block/tx counts), so the series is reproducible run-to-run — there
//! are no wall-clock timestamps on the samples.

use std::fmt::Write as _;

use fabric_common::prom::{escape_label_value, family_header};

use crate::{TelemetrySeries, WindowRecord};

/// Picks one window's sample for a family.
type Pick = fn(&WindowRecord) -> u64;

/// Writes each `(name, help, pick)` gauge family: its header, then one
/// sample per window.
fn gauges(out: &mut String, series: &TelemetrySeries, families: &[(&str, &str, Pick)]) {
    for (name, help, pick) in families {
        family_header(out, name, "gauge", help);
        for w in &series.windows {
            let _ = writeln!(out, "{name}{{window=\"{}\"}} {}", w.index, pick(w));
        }
    }
}

/// Renders the whole series as Prometheus text.
pub fn render(series: &TelemetrySeries) -> String {
    let mut out = String::with_capacity(series.windows.len() * 1024 + 512);

    family_header(
        &mut out,
        "fabric_telemetry_dropped_windows",
        "counter",
        "Windows discarded because the ring was full",
    );
    let _ = writeln!(out, "fabric_telemetry_dropped_windows {}", series.dropped_windows);

    gauges(
        &mut out,
        series,
        &[
            (
                "fabric_window_end_block",
                "Logical-time watermark (total committed blocks) at window close",
                |w| w.end_logical_block,
            ),
            ("fabric_window_blocks", "Blocks committed in the window", |w| w.blocks),
            (
                "fabric_window_submitted",
                "Transactions submitted in the window",
                |w| w.stats.submitted,
            ),
            (
                "fabric_window_valid",
                "Transactions committed VALID in the window",
                |w| w.stats.valid,
            ),
        ],
    );

    family_header(
        &mut out,
        "fabric_window_aborted",
        "gauge",
        "Aborted transactions in the window by reason",
    );
    for rec in &series.windows {
        // Every field after `submitted` and `valid` is an abort reason.
        for &(reason, n) in &rec.stats.fields()[2..] {
            let _ = writeln!(
                out,
                "fabric_window_aborted{{window=\"{}\",reason=\"{}\"}} {}",
                rec.index,
                escape_label_value(reason),
                n
            );
        }
    }

    gauges(
        &mut out,
        series,
        &[
            (
                "fabric_window_latency_p50_us",
                "p50 commit latency (us) over the window",
                |w| w.latency.p50_us,
            ),
            (
                "fabric_window_latency_p90_us",
                "p90 commit latency (us) over the window",
                |w| w.latency.p90_us,
            ),
            (
                "fabric_window_latency_p99_us",
                "p99 commit latency (us) over the window",
                |w| w.latency.p99_us,
            ),
            (
                "fabric_window_cutter_queue_txs",
                "Cutter queue depth at window close",
                |w| w.gauges.cutter_queue_txs,
            ),
            ("fabric_window_wal_fsyncs", "WAL fsyncs in the window", |w| w.store.wal_fsyncs),
            (
                "fabric_window_memtable_bytes",
                "Memtable bytes at window close",
                |w| w.memtable_bytes,
            ),
            (
                "fabric_window_gc_floor_lag",
                "Blocks between chain tip and snapshot GC floor at window close",
                |w| w.gc_floor_lag,
            ),
            ("fabric_window_live_pins", "Live snapshot pins at window close", |w| w.live_pins),
        ],
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_common::TxStats;

    #[test]
    fn escaping_follows_the_exposition_format() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
    }

    #[test]
    fn render_emits_one_sample_per_window() {
        // Every outcome field distinct, so a reordered, renamed or dropped
        // field shows in the exact bytes below.
        let stats = |base: u64| TxStats {
            submitted: base + 1,
            valid: base + 2,
            mvcc_conflict: base + 3,
            endorsement_failure: base + 4,
            early_abort_simulation: base + 5,
            early_abort_cycle: base + 6,
            early_abort_version_mismatch: base + 7,
        };
        let series = TelemetrySeries {
            windows: vec![
                WindowRecord { index: 0, stats: stats(100), ..Default::default() },
                WindowRecord { index: 1, stats: stats(110), ..Default::default() },
            ],
            dropped_windows: 0,
            total: TxStats::default(),
        };
        let text = render(&series);
        assert!(text.contains("fabric_telemetry_dropped_windows 0"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "bad sample line: {line}");
        }

        // Exact bytes of the outcome families.
        let start = text.find("# HELP fabric_window_submitted").unwrap();
        let end = text.find("# HELP fabric_window_latency_p50_us").unwrap();
        assert_eq!(
            &text[start..end],
            r#"# HELP fabric_window_submitted Transactions submitted in the window
# TYPE fabric_window_submitted gauge
fabric_window_submitted{window="0"} 101
fabric_window_submitted{window="1"} 111
# HELP fabric_window_valid Transactions committed VALID in the window
# TYPE fabric_window_valid gauge
fabric_window_valid{window="0"} 102
fabric_window_valid{window="1"} 112
# HELP fabric_window_aborted Aborted transactions in the window by reason
# TYPE fabric_window_aborted gauge
fabric_window_aborted{window="0",reason="mvcc_conflict"} 103
fabric_window_aborted{window="0",reason="endorsement_failure"} 104
fabric_window_aborted{window="0",reason="early_abort_simulation"} 105
fabric_window_aborted{window="0",reason="early_abort_cycle"} 106
fabric_window_aborted{window="0",reason="early_abort_version_mismatch"} 107
fabric_window_aborted{window="1",reason="mvcc_conflict"} 113
fabric_window_aborted{window="1",reason="endorsement_failure"} 114
fabric_window_aborted{window="1",reason="early_abort_simulation"} 115
fabric_window_aborted{window="1",reason="early_abort_cycle"} 116
fabric_window_aborted{window="1",reason="early_abort_version_mismatch"} 117
"#
        );
    }
}
