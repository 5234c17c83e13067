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
    for (name, value) in w.stats.fields() {
        let _ = write!(s, ",\"{name}\":{value}");
    }
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
        ",\"cutter_queue_txs\":{},\"endorsements\":{},\"vscc_batches\":{},\"vscc_inflight\":{}",
        w.gauges.cutter_queue_txs,
        w.gauges.endorsements,
        w.gauges.vscc_batches_started,
        w.gauges.vscc_inflight(),
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
    use fabric_common::{GaugeStats, StoreStats, TxStats, WindowLatency};

    #[test]
    fn lines_are_flat_json_objects() {
        let series = TelemetrySeries {
            windows: vec![
                // Every counter field distinct, so a reordered, renamed or
                // dropped field shows in the exact bytes below.
                WindowRecord {
                    index: 5,
                    end_logical_block: 6,
                    end_height: 7,
                    blocks: 8,
                    stats: TxStats {
                        submitted: 101,
                        valid: 102,
                        mvcc_conflict: 103,
                        endorsement_failure: 104,
                        early_abort_simulation: 105,
                        early_abort_cycle: 106,
                        early_abort_version_mismatch: 107,
                    },
                    latency: WindowLatency { count: 10, sum_micros: 250, p50_us: 30, p90_us: 40, p99_us: 50 },
                    store: StoreStats {
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
                    gauges: GaugeStats {
                        cutter_queue_txs: 301,
                        endorsements: 302,
                        vscc_batches_started: 310,
                        vscc_batches_done: 303,
                        validation_workers: 305,
                    },
                    memtable_bytes: 401,
                    gc_floor: 402,
                    gc_floor_lag: 403,
                    live_pins: 404,
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

        // Exact bytes of the first line.
        assert_eq!(
            text.lines().next().unwrap(),
            concat!(
                r#"{"window":5,"end_logical_block":6,"end_height":7,"blocks":8,"#,
                r#""submitted":101,"valid":102,"mvcc_conflict":103,"endorsement_failure":104,"#,
                r#""early_abort_simulation":105,"early_abort_cycle":106,"#,
                r#""early_abort_version_mismatch":107,"#,
                r#""lat_count":10,"lat_p50_us":30,"lat_p90_us":40,"lat_p99_us":50,"lat_avg_us":25,"#,
                r#""wal_records":206,"wal_fsyncs":207,"snapshot_pins":209,"gc_trimmed":212,"#,
                r#""cutter_queue_txs":301,"endorsements":302,"vscc_batches":310,"vscc_inflight":7,"#,
                r#""memtable_bytes":401,"gc_floor":402,"gc_floor_lag":403,"live_pins":404}"#,
            )
        );
    }
}
