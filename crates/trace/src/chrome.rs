//! Chrome trace-event exporter (`chrome://tracing`, <https://ui.perfetto.dev>).
//!
//! Renders the flight-recorder stream as a trace-event JSON object:
//!
//! * Per-block pipeline spans (`order`, `vscc`, `mvcc`, `commit`) and
//!   per-transaction endorsement spans become `"X"` *complete* events on
//!   named tracks, so the pipeline's phase overlap is visible on a shared
//!   timeline.
//! * Aborts (with their provenance in `args`), block cuts, WAL records,
//!   and chaos faults become `"i"` *instant* events.
//!
//! Timestamps are the sink-relative microsecond clock; span events were
//! emitted at completion, so their `ts` is `at_us - dur`.

use std::fmt::Write as _;
use std::io::{self, Write};

use crate::jsonl::push_json_string;
use crate::{EventKind, TraceEvent};

/// Virtual process id for the pipeline tracks.
const PID: u32 = 1;

/// Track (tid, name) layout, one lane per pipeline stage plus one for
/// instants that have no duration.
const TRACKS: [(u32, &str); 7] = [
    (1, "endorse"),
    (2, "order"),
    (3, "validate-vscc"),
    (4, "validate-mvcc"),
    (5, "commit"),
    (6, "lifecycle-events"),
    (7, "faults"),
];

const TID_ENDORSE: u32 = 1;
const TID_ORDER: u32 = 2;
const TID_VSCC: u32 = 3;
const TID_MVCC: u32 = 4;
const TID_COMMIT: u32 = 5;
const TID_EVENTS: u32 = 6;
const TID_FAULTS: u32 = 7;

fn span(out: &mut String, name: &str, end_us: u64, dur_us: u64, tid: u32, args: &[(&str, String)]) {
    let ts = end_us.saturating_sub(dur_us);
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"cat\":\"pipeline\",\"ph\":\"X\",\"ts\":{ts},\
         \"dur\":{dur_us},\"pid\":{PID},\"tid\":{tid},\"args\":{{"
    );
    push_args(out, args);
    out.push_str("}}");
}

fn instant(out: &mut String, name: &str, ts: u64, tid: u32, args: &[(&str, String)]) {
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{ts},\
         \"pid\":{PID},\"tid\":{tid},\"args\":{{"
    );
    push_args(out, args);
    out.push_str("}}");
}

fn push_args(out: &mut String, args: &[(&str, String)]) {
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":");
        push_json_string(out, v);
    }
}

fn event_json(ev: &TraceEvent) -> Option<String> {
    let mut s = String::with_capacity(160);
    let ts = ev.at_us;
    match &ev.kind {
        EventKind::TxSubmitted { tx, channel, client } => instant(
            &mut s,
            "tx_submitted",
            ts,
            TID_EVENTS,
            &[
                ("tx", tx.to_string()),
                ("channel", channel.to_string()),
                ("client", client.to_string()),
            ],
        ),
        EventKind::TxEndorsed { tx, peer, dur_us } => span(
            &mut s,
            "endorse",
            ts,
            *dur_us,
            TID_ENDORSE,
            &[("tx", tx.to_string()), ("peer", peer.to_string())],
        ),
        EventKind::TxEarlyAbortSimulation { tx, key, snapshot_block, observed } => instant(
            &mut s,
            "early_abort_simulation",
            ts,
            TID_EVENTS,
            &[
                ("tx", tx.to_string()),
                ("key", key.to_string()),
                ("snapshot_block", snapshot_block.to_string()),
                ("observed", observed.to_string()),
            ],
        ),
        EventKind::BlockCut { reason, txs } => instant(
            &mut s,
            "block_cut",
            ts,
            TID_ORDER,
            &[("reason", reason.label().to_string()), ("txs", txs.to_string())],
        ),
        EventKind::TxEarlyAbortVersion { tx, key, expected, observed, conflicting } => instant(
            &mut s,
            "early_abort_version",
            ts,
            TID_EVENTS,
            &[
                ("tx", tx.to_string()),
                ("key", key.to_string()),
                ("expected", expected.to_string()),
                ("observed", opt_str(observed)),
                ("conflicting", conflicting.to_string()),
            ],
        ),
        EventKind::TxEarlyAbortCycle { tx, scc, scc_size } => instant(
            &mut s,
            "early_abort_cycle",
            ts,
            TID_EVENTS,
            &[
                ("tx", tx.to_string()),
                ("scc", scc.to_string()),
                ("scc_size", scc_size.to_string()),
            ],
        ),
        EventKind::BlockSealed { block, txs, early_aborted, sccs, reorder_us } => {
            span(
                &mut s,
                "order",
                ts,
                *reorder_us,
                TID_ORDER,
                &[
                    ("block", block.to_string()),
                    ("txs", txs.to_string()),
                    ("early_aborted", early_aborted.to_string()),
                    ("sccs", sccs.to_string()),
                ],
            )
        }
        EventKind::TxEndorsementFailed { block, tx } => instant(
            &mut s,
            "endorsement_failed",
            ts,
            TID_EVENTS,
            &[("block", block.to_string()), ("tx", tx.to_string())],
        ),
        EventKind::BlockVscc { block, txs, failures, dur_us } => span(
            &mut s,
            "vscc",
            ts,
            *dur_us,
            TID_VSCC,
            &[
                ("block", block.to_string()),
                ("txs", txs.to_string()),
                ("failures", failures.to_string()),
            ],
        ),
        EventKind::TxMvccConflict { block, tx, key, expected, observed, writer } => instant(
            &mut s,
            "mvcc_conflict",
            ts,
            TID_EVENTS,
            &[
                ("block", block.to_string()),
                ("tx", tx.to_string()),
                ("key", key.to_string()),
                ("expected", opt_str(expected)),
                ("observed", opt_str(observed)),
                ("writer", opt_str(writer)),
            ],
        ),
        EventKind::BlockMvcc { block, valid, invalid, dur_us } => span(
            &mut s,
            "mvcc",
            ts,
            *dur_us,
            TID_MVCC,
            &[
                ("block", block.to_string()),
                ("valid", valid.to_string()),
                ("invalid", invalid.to_string()),
            ],
        ),
        // Per-tx commit confirmations would bury the timeline; the JSONL
        // stream keeps them, the visual trace shows the block-level span.
        EventKind::TxCommitted { .. } => return None,
        EventKind::BlockCommitted { block, valid, invalid, writes, dur_us } => span(
            &mut s,
            "commit",
            ts,
            *dur_us,
            TID_COMMIT,
            &[
                ("block", block.to_string()),
                ("valid", valid.to_string()),
                ("invalid", invalid.to_string()),
                ("writes", writes.to_string()),
            ],
        ),
        EventKind::WalRecord { block, fsync } => instant(
            &mut s,
            "wal_record",
            ts,
            TID_COMMIT,
            &[("block", block.to_string()), ("fsync", fsync.to_string())],
        ),
        EventKind::FaultNet { fault_seq, from, to, nth, verdict, partition } => instant(
            &mut s,
            "fault_net",
            ts,
            TID_FAULTS,
            &[
                ("fault_seq", fault_seq.to_string()),
                ("link", format!("{from}->{to}")),
                ("nth", nth.to_string()),
                ("verdict", verdict.label().to_string()),
                ("partition", partition.to_string()),
            ],
        ),
        EventKind::FaultWal { fault_seq, block, keep } => instant(
            &mut s,
            "fault_wal",
            ts,
            TID_FAULTS,
            &[
                ("fault_seq", fault_seq.to_string()),
                ("block", block.to_string()),
                ("keep", keep.to_string()),
            ],
        ),
    }
    Some(s)
}

fn opt_str<T: std::fmt::Display>(v: &Option<T>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "none".to_string(),
    }
}

/// Renders the stream as one Chrome trace-event JSON document.
pub fn to_string(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for (tid, name) in TRACKS {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for ev in events {
        if let Some(json) = event_json(ev) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&json);
        }
    }
    out.push_str("]}");
    out
}

/// Writes the trace-event document to `w`.
pub fn write_trace<W: Write>(mut w: W, events: &[TraceEvent]) -> io::Result<()> {
    w.write_all(to_string(events).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_common::{Key, TxId, Version};

    #[test]
    fn renders_spans_and_instants() {
        let events = vec![
            TraceEvent {
                seq: 0,
                at_us: 120,
                kind: EventKind::TxEndorsed { tx: TxId(1), peer: 2u64.into(), dur_us: 100 },
            },
            TraceEvent {
                seq: 1,
                at_us: 200,
                kind: EventKind::TxMvccConflict {
                    block: 3,
                    tx: TxId(4),
                    key: Key::from("k:1"),
                    expected: Some(Version::new(1, 0)),
                    observed: None,
                    writer: Some(TxId(2)),
                },
            },
            TraceEvent { seq: 2, at_us: 300, kind: EventKind::TxCommitted { block: 3, tx: TxId(4) } },
        ];
        let doc = to_string(&events);
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"ph\":\"X\""), "endorse span present");
        assert!(doc.contains("\"ts\":20"), "span ts = at_us - dur");
        assert!(doc.contains("\"ph\":\"i\""), "conflict instant present");
        assert!(doc.contains("mvcc_conflict"));
        assert!(doc.contains("\"thread_name\""));
        assert!(!doc.contains("tx_committed"), "per-tx commits stay out of the visual trace");
    }

    #[test]
    fn span_ts_saturates_at_zero() {
        let events = vec![TraceEvent {
            seq: 0,
            at_us: 10,
            kind: EventKind::TxEndorsed { tx: TxId(1), peer: 2u64.into(), dur_us: 50 },
        }];
        assert!(to_string(&events).contains("\"ts\":0"));
    }

    #[test]
    fn empty_stream_is_still_valid_json_shape() {
        let doc = to_string(&[]);
        assert!(doc.contains("\"traceEvents\":["));
        assert!(doc.ends_with("]}"));
    }
}
