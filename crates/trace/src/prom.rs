//! Prometheus-style text exposition (version 0.0.4) of the run's
//! aggregate metrics: transaction outcomes, state-store access counters,
//! per-phase latency summaries, and the flight recorder's own accounting.
//!
//! This is a *snapshot* renderer — hand the end-of-run `TxStats`,
//! `StoreStats`, and `PhaseSummary` (all already part of `RunReport`) to
//! [`render`] and write the result wherever a scraper or a human expects
//! it. No server, no background thread: the reproduction's runs are
//! finite, so exposition-at-exit is the honest equivalent of a scrape.

use std::fmt::Write as _;

use fabric_common::metrics::{LatencySummary, PhaseSummary, StoreStats, TxStats};
use fabric_common::prom::{escape_label_value, family_header};

use crate::TraceSink;

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    family_header(out, name, "counter", help);
    let _ = writeln!(out, "{name} {value}");
}

fn labeled_counter(out: &mut String, name: &str, help: &str, rows: &[(&str, u64)]) {
    family_header(out, name, "counter", help);
    for (label, value) in rows {
        let _ =
            writeln!(out, "{name}{{outcome=\"{}\"}} {value}", escape_label_value(label));
    }
}

fn phase_rows(out: &mut String, phase: &str, s: &LatencySummary) {
    let rows: [(&str, u64); 6] = [
        ("min", s.min.as_micros() as u64),
        ("max", s.max.as_micros() as u64),
        ("avg", s.avg.as_micros() as u64),
        ("p50", s.p50.as_micros() as u64),
        ("p95", s.p95.as_micros() as u64),
        ("p99", s.p99.as_micros() as u64),
    ];
    let phase = escape_label_value(phase);
    let _ = writeln!(out, "fabric_phase_samples_total{{phase=\"{phase}\"}} {}", s.count);
    for (stat, v) in rows {
        let _ = writeln!(
            out,
            "fabric_phase_latency_microseconds{{phase=\"{phase}\",stat=\"{stat}\"}} {v}"
        );
    }
}

/// Renders one text exposition from the end-of-run snapshots. `sink` may
/// be disabled; its emitted/dropped/capacity gauges then read zero.
pub fn render(
    tx: &TxStats,
    store: &StoreStats,
    phases: &PhaseSummary,
    sink: &TraceSink,
) -> String {
    let mut out = String::with_capacity(4096);

    counter(&mut out, "fabric_tx_submitted_total", "Proposals fired by clients", tx.submitted);
    labeled_counter(
        &mut out,
        "fabric_tx_outcomes_total",
        "Transactions by final outcome",
        // Every field after `submitted` is an outcome.
        &tx.fields()[1..],
    );

    // The first seven store counters, in declaration order.
    let store_help = [
        "Batched version prefetches",
        "Keys probed across batched prefetches",
        "Single-key point lookups",
        "Blocks installed via the batched commit path",
        "Shard write-lock acquisitions across committed blocks",
        "Group-commit WAL records written",
        "WAL records fsynced",
    ];
    for ((name, value), help) in store.fields().into_iter().zip(store_help) {
        counter(&mut out, &format!("fabric_store_{name}_total"), help, value);
    }

    family_header(
        &mut out,
        "fabric_phase_samples_total",
        "counter",
        "Samples recorded per pipeline phase",
    );
    family_header(
        &mut out,
        "fabric_phase_latency_microseconds",
        "gauge",
        "Per-phase latency summary statistics",
    );
    for (label, summary) in phases.rows() {
        phase_rows(&mut out, label, &summary);
    }

    counter(
        &mut out,
        "fabric_trace_events_emitted_total",
        "Flight-recorder events emitted (including dropped)",
        sink.emitted(),
    );
    counter(
        &mut out,
        "fabric_trace_events_dropped_total",
        "Flight-recorder events lost to drop-oldest",
        sink.dropped(),
    );
    counter(
        &mut out,
        "fabric_trace_spans_dropped_total",
        "Per-block span events among the dropped (holes in block phase timelines)",
        sink.dropped_spans(),
    );
    family_header(&mut out, "fabric_trace_ring_capacity", "gauge", "Flight-recorder ring capacity");
    let _ = writeln!(out, "fabric_trace_ring_capacity {}", sink.capacity());
    family_header(
        &mut out,
        "fabric_trace_events_retained",
        "gauge",
        "Events currently held in the ring",
    );
    let _ = writeln!(out, "fabric_trace_events_retained {}", sink.retained());

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;
    use fabric_common::TxId;

    #[test]
    fn renders_all_metric_families() {
        // Every counter field distinct, so a reordered, renamed or dropped
        // field shows in the exact bytes below.
        let tx = TxStats {
            submitted: 101,
            valid: 102,
            mvcc_conflict: 103,
            endorsement_failure: 104,
            early_abort_simulation: 105,
            early_abort_cycle: 106,
            early_abort_version_mismatch: 107,
        };
        let store = StoreStats {
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
        };
        let phases = PhaseSummary::default();
        let sink = TraceSink::bounded(8);
        sink.emit(EventKind::TxCommitted { block: 1, tx: TxId(1) });
        let text = render(&tx, &store, &phases, &sink);

        assert!(text.contains("fabric_phase_latency_microseconds{phase=\"endorse\",stat=\"p99\"} 0"));
        assert!(text.contains("fabric_trace_events_emitted_total 1"));
        assert!(text.contains("fabric_trace_events_dropped_total 0"));
        assert!(text.contains("fabric_trace_spans_dropped_total 0"));
        assert!(text.contains("fabric_trace_ring_capacity 8"));
        assert!(text.contains("fabric_trace_events_retained 1"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<u64>().is_ok(), "bad exposition line: {line}");
            assert!(parts.next().is_some());
        }

        // Exact bytes of the counter families.
        let counters = &text[..text.find("# HELP fabric_phase_samples_total").unwrap()];
        assert_eq!(
            counters,
            r#"# HELP fabric_tx_submitted_total Proposals fired by clients
# TYPE fabric_tx_submitted_total counter
fabric_tx_submitted_total 101
# HELP fabric_tx_outcomes_total Transactions by final outcome
# TYPE fabric_tx_outcomes_total counter
fabric_tx_outcomes_total{outcome="valid"} 102
fabric_tx_outcomes_total{outcome="mvcc_conflict"} 103
fabric_tx_outcomes_total{outcome="endorsement_failure"} 104
fabric_tx_outcomes_total{outcome="early_abort_simulation"} 105
fabric_tx_outcomes_total{outcome="early_abort_cycle"} 106
fabric_tx_outcomes_total{outcome="early_abort_version_mismatch"} 107
# HELP fabric_store_multi_get_batches_total Batched version prefetches
# TYPE fabric_store_multi_get_batches_total counter
fabric_store_multi_get_batches_total 201
# HELP fabric_store_multi_get_keys_total Keys probed across batched prefetches
# TYPE fabric_store_multi_get_keys_total counter
fabric_store_multi_get_keys_total 202
# HELP fabric_store_point_gets_total Single-key point lookups
# TYPE fabric_store_point_gets_total counter
fabric_store_point_gets_total 203
# HELP fabric_store_blocks_applied_total Blocks installed via the batched commit path
# TYPE fabric_store_blocks_applied_total counter
fabric_store_blocks_applied_total 204
# HELP fabric_store_shard_lock_acquisitions_total Shard write-lock acquisitions across committed blocks
# TYPE fabric_store_shard_lock_acquisitions_total counter
fabric_store_shard_lock_acquisitions_total 205
# HELP fabric_store_wal_records_total Group-commit WAL records written
# TYPE fabric_store_wal_records_total counter
fabric_store_wal_records_total 206
# HELP fabric_store_wal_fsyncs_total WAL records fsynced
# TYPE fabric_store_wal_fsyncs_total counter
fabric_store_wal_fsyncs_total 207
"#
        );
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        // An adversarial label stays on one line and inside its quotes.
        let mut out = String::new();
        labeled_counter(&mut out, "m", "h", &[("ke\"y\\na\nme", 7)]);
        let data_line = out.lines().find(|l| !l.starts_with('#')).unwrap();
        assert_eq!(data_line, "m{outcome=\"ke\\\"y\\\\na\\nme\"} 7");
        // Phase labels go through the same escaping.
        let mut out = String::new();
        phase_rows(&mut out, "pha\"se", &LatencySummary::default());
        assert!(out.contains("phase=\"pha\\\"se\""), "{out}");
        assert!(out.lines().all(|l| l.find('\n').is_none()));
    }

    #[test]
    fn span_drops_are_counted_separately() {
        let sink = TraceSink::bounded(2);
        // Fill the ring with spans, then push tx instants over them:
        // every eviction is a span. Then push more instants: evictions
        // are instants, so the span counter stays put.
        sink.emit(EventKind::BlockCut { reason: crate::CutKind::TxCount, txs: 1 });
        sink.emit(EventKind::BlockCut { reason: crate::CutKind::TxCount, txs: 1 });
        sink.emit(EventKind::TxCommitted { block: 1, tx: TxId(1) });
        sink.emit(EventKind::TxCommitted { block: 1, tx: TxId(2) });
        assert_eq!(sink.dropped(), 2);
        assert_eq!(sink.dropped_spans(), 2);
        sink.emit(EventKind::TxCommitted { block: 1, tx: TxId(3) });
        assert_eq!(sink.dropped(), 3);
        assert_eq!(sink.dropped_spans(), 2);
        assert_eq!(sink.retained(), 2);
        let text = render(
            &TxStats::default(),
            &StoreStats::default(),
            &PhaseSummary::default(),
            &sink,
        );
        assert!(text.contains("fabric_trace_events_dropped_total 3"));
        assert!(text.contains("fabric_trace_spans_dropped_total 2"));
    }

    #[test]
    fn disabled_sink_reads_zero() {
        let text = render(
            &TxStats::default(),
            &StoreStats::default(),
            &PhaseSummary::default(),
            &TraceSink::disabled(),
        );
        assert!(text.contains("fabric_trace_ring_capacity 0"));
        assert!(text.contains("fabric_trace_events_emitted_total 0"));
    }
}
