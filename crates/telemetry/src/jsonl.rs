//! JSONL export of a [`TelemetrySeries`]: one flat JSON object per
//! window, one window per line — the same newline-delimited convention
//! as `fabric-trace`'s event dump, so the soak bench's
//! `results/soak_timeseries.jsonl` is greppable and streamable with the
//! same tooling.
//!
//! All values are integers (counts, microseconds, bytes, heights); field
//! names are stable and flat so downstream plots can `jq` them directly.

use std::fmt::Write as _;

use crate::{TelemetrySeries, WindowRecord};

/// Serializes one window as a single JSON line (no trailing newline).
pub fn window_to_line(w: &WindowRecord) -> String {
    let mut s = String::with_capacity(512);
    let _ = write!(
        s,
        "{{\"window\":{},\"end_logical_block\":{},\"end_height\":{},\"blocks\":{}",
        w.index, w.end_logical_block, w.end_height, w.blocks
    );
    let _ = write!(
        s,
        ",\"submitted\":{},\"valid\":{},\"mvcc_conflict\":{},\"endorsement_failure\":{}\
         ,\"early_abort_simulation\":{},\"early_abort_cycle\":{}\
         ,\"early_abort_version_mismatch\":{}",
        w.stats.submitted,
        w.stats.valid,
        w.stats.mvcc_conflict,
        w.stats.endorsement_failure,
        w.stats.early_abort_simulation,
        w.stats.early_abort_cycle,
        w.stats.early_abort_version_mismatch,
    );
    let _ = write!(
        s,
        ",\"lat_count\":{},\"lat_p50_us\":{},\"lat_p90_us\":{},\"lat_p99_us\":{},\"lat_avg_us\":{}",
        w.latency.count,
        w.latency.p50_us,
        w.latency.p90_us,
        w.latency.p99_us,
        w.latency.avg_us(),
    );
    let _ = write!(
        s,
        ",\"wal_records\":{},\"wal_fsyncs\":{},\"snapshot_pins\":{},\"gc_trimmed\":{}",
        w.store.wal_records,
        w.store.wal_fsyncs,
        w.store.snapshot_pins,
        w.store.gc_trimmed_versions,
    );
    let _ = write!(
        s,
        ",\"cutter_queue_txs\":{},\"endorsements\":{},\"vscc_batches\":{},\"vscc_inflight\":{}\
         ,\"consensus_msgs\":{},\"consensus_view_changes\":{},\"consensus_heights\":{}",
        w.gauges.cutter_queue_txs,
        w.gauges.endorsements,
        w.gauges.vscc_batches_started,
        w.gauges.vscc_inflight(),
        w.gauges.consensus_msgs,
        w.gauges.consensus_view_changes,
        w.gauges.consensus_heights,
    );
    let _ = write!(
        s,
        ",\"memtable_bytes\":{},\"gc_floor\":{},\"gc_floor_lag\":{},\"live_pins\":{}}}",
        w.memtable_bytes, w.gc_floor, w.gc_floor_lag, w.live_pins
    );
    s
}

/// Serializes the whole series, one window per line, trailing newline
/// after each.
pub fn to_string(series: &TelemetrySeries) -> String {
    let mut out = String::with_capacity(series.windows.len() * 512 + 16);
    for w in &series.windows {
        out.push_str(&window_to_line(w));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_common::TxStats;

    #[test]
    fn lines_are_flat_json_objects() {
        let series = TelemetrySeries {
            windows: vec![
                WindowRecord {
                    index: 0,
                    end_logical_block: 4,
                    end_height: 4,
                    blocks: 4,
                    stats: TxStats { submitted: 10, valid: 8, mvcc_conflict: 2, ..Default::default() },
                    ..Default::default()
                },
                WindowRecord { index: 1, end_logical_block: 8, ..Default::default() },
            ],
            dropped_windows: 0,
            total: TxStats::default(),
        };
        let text = to_string(&series);
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with("{\"window\":"));
            assert!(line.ends_with('}'));
            // Flat integer fields only: no nested objects or strings.
            assert!(!line[1..line.len() - 1].contains('{'));
            assert!(line.contains("\"valid\":"));
            assert!(line.contains("\"lat_p99_us\":"));
            assert!(line.contains("\"cutter_queue_txs\":"));
        }
        assert!(text.contains("\"submitted\":10"));
        assert!(text.contains("\"valid\":8"));
    }
}
