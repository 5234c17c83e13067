//! JSONL (newline-delimited JSON) event dump and parser.
//!
//! One flat JSON object per event, one event per line — greppable,
//! streamable, and the interchange format the CI smoke gate round-trips.
//! Every line carries `seq` (causal order), `us` (microseconds since the
//! sink epoch), and `ev` (the [`EventKind::label`]); the remaining fields
//! are event-specific. Versions render as `"v<block>.<tx>"`, matching the
//! `Display` of [`Version`]; absent optionals render as `null`.
//!
//! Keys are serialized via their `Display` form (UTF-8 keys verbatim,
//! non-UTF-8 as `0x…` hex). All bundled workloads use ASCII composite keys,
//! for which the round-trip is exact.

use std::fmt::Write as _;
use std::io::{self, Write};

use fabric_common::{Key, TxId, Version};

use crate::{CutKind, EventKind, FaultKind, TraceEvent};

/// A malformed JSONL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong, with the offending fragment.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace jsonl parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { message: message.into() })
}

/// Serializes one event as a single JSON line (no trailing newline).
pub fn event_to_line(ev: &TraceEvent) -> String {
    let mut s = String::with_capacity(128);
    let _ = write!(s, "{{\"seq\":{},\"us\":{},\"ev\":\"{}\"", ev.seq, ev.at_us, ev.kind.label());
    match &ev.kind {
        EventKind::TxSubmitted { tx, channel, client } => {
            let _ = write!(s, ",\"tx\":{},\"chan\":{},\"client\":{}", tx.0, channel.0, client.0);
        }
        EventKind::TxEndorsed { tx, peer, dur_us } => {
            let _ = write!(s, ",\"tx\":{},\"peer\":{},\"dur_us\":{}", tx.0, peer.0, dur_us);
        }
        EventKind::TxEarlyAbortSimulation { tx, key, snapshot_block, observed } => {
            let _ = write!(s, ",\"tx\":{},\"key\":", tx.0);
            push_json_string(&mut s, &key.to_string());
            let _ = write!(
                s,
                ",\"snapshot_block\":{snapshot_block},\"observed\":\"{observed}\""
            );
        }
        EventKind::BlockCut { reason, txs } => {
            let _ = write!(s, ",\"reason\":\"{}\",\"txs\":{}", reason.label(), txs);
        }
        EventKind::TxEarlyAbortVersion { tx, key, expected, observed, conflicting } => {
            let _ = write!(s, ",\"tx\":{},\"key\":", tx.0);
            push_json_string(&mut s, &key.to_string());
            let _ = write!(s, ",\"expected\":\"{expected}\",\"observed\":");
            push_opt_version(&mut s, observed);
            let _ = write!(s, ",\"conflicting\":{}", conflicting.0);
        }
        EventKind::TxEarlyAbortCycle { tx, scc, scc_size } => {
            let _ = write!(s, ",\"tx\":{},\"scc\":{scc},\"scc_size\":{scc_size}", tx.0);
        }
        EventKind::BlockSealed { block, txs, early_aborted, sccs, reorder_us } => {
            let _ = write!(
                s,
                ",\"block\":{block},\"txs\":{txs},\"early_aborted\":{early_aborted},\
                 \"sccs\":{sccs},\"reorder_us\":{reorder_us}"
            );
        }
        EventKind::TxEndorsementFailed { block, tx } => {
            let _ = write!(s, ",\"block\":{block},\"tx\":{}", tx.0);
        }
        EventKind::BlockVscc { block, txs, failures, dur_us } => {
            let _ = write!(
                s,
                ",\"block\":{block},\"txs\":{txs},\"failures\":{failures},\"dur_us\":{dur_us}"
            );
        }
        EventKind::TxMvccConflict { block, tx, key, expected, observed, writer } => {
            let _ = write!(s, ",\"block\":{block},\"tx\":{},\"key\":", tx.0);
            push_json_string(&mut s, &key.to_string());
            s.push_str(",\"expected\":");
            push_opt_version(&mut s, expected);
            s.push_str(",\"observed\":");
            push_opt_version(&mut s, observed);
            s.push_str(",\"writer\":");
            match writer {
                Some(w) => {
                    let _ = write!(s, "{}", w.0);
                }
                None => s.push_str("null"),
            }
        }
        EventKind::BlockMvcc { block, valid, invalid, dur_us } => {
            let _ = write!(
                s,
                ",\"block\":{block},\"valid\":{valid},\"invalid\":{invalid},\"dur_us\":{dur_us}"
            );
        }
        EventKind::TxCommitted { block, tx } => {
            let _ = write!(s, ",\"block\":{block},\"tx\":{}", tx.0);
        }
        EventKind::BlockCommitted { block, valid, invalid, writes, dur_us } => {
            let _ = write!(
                s,
                ",\"block\":{block},\"valid\":{valid},\"invalid\":{invalid},\
                 \"writes\":{writes},\"dur_us\":{dur_us}"
            );
        }
        EventKind::WalRecord { block, fsync } => {
            let _ = write!(s, ",\"block\":{block},\"fsync\":{fsync}");
        }
        EventKind::FaultNet { fault_seq, from, to, nth, verdict, partition } => {
            let _ = write!(
                s,
                ",\"fault_seq\":{fault_seq},\"from\":{from},\"to\":{to},\"nth\":{nth},\
                 \"verdict\":\"{}\",\"partition\":{partition}",
                verdict.label()
            );
        }
        EventKind::FaultWal { fault_seq, block, keep } => {
            let _ = write!(s, ",\"fault_seq\":{fault_seq},\"block\":{block},\"keep\":{keep}");
        }
    }
    s.push('}');
    s
}

/// Writes every event as one JSONL line.
pub fn write_events<W: Write>(mut w: W, events: &[TraceEvent]) -> io::Result<()> {
    for ev in events {
        writeln!(w, "{}", event_to_line(ev))?;
    }
    Ok(())
}

/// Renders the full stream as one JSONL string.
pub fn to_string(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_to_line(ev));
        out.push('\n');
    }
    out
}

fn push_opt_version(s: &mut String, v: &Option<Version>) {
    match v {
        Some(v) => {
            let _ = write!(s, "\"{v}\"");
        }
        None => s.push_str("null"),
    }
}

pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed flat JSON value.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Str(String),
    Num(u64),
    Bool(bool),
    Null,
}

struct Fields(Vec<(String, Val)>);

impl Fields {
    fn get(&self, name: &str) -> Option<&Val> {
        self.0.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    fn num(&self, name: &str) -> Result<u64, ParseError> {
        match self.get(name) {
            Some(Val::Num(n)) => Ok(*n),
            other => err(format!("field {name:?}: expected number, got {other:?}")),
        }
    }

    fn string(&self, name: &str) -> Result<&str, ParseError> {
        match self.get(name) {
            Some(Val::Str(s)) => Ok(s),
            other => err(format!("field {name:?}: expected string, got {other:?}")),
        }
    }

    fn boolean(&self, name: &str) -> Result<bool, ParseError> {
        match self.get(name) {
            Some(Val::Bool(b)) => Ok(*b),
            other => err(format!("field {name:?}: expected bool, got {other:?}")),
        }
    }

    fn version(&self, name: &str) -> Result<Version, ParseError> {
        parse_version(self.string(name)?)
    }

    fn opt_version(&self, name: &str) -> Result<Option<Version>, ParseError> {
        match self.get(name) {
            Some(Val::Null) | None => Ok(None),
            Some(Val::Str(s)) => Ok(Some(parse_version(s)?)),
            other => err(format!("field {name:?}: expected version or null, got {other:?}")),
        }
    }

    fn opt_num(&self, name: &str) -> Result<Option<u64>, ParseError> {
        match self.get(name) {
            Some(Val::Null) | None => Ok(None),
            Some(Val::Num(n)) => Ok(Some(*n)),
            other => err(format!("field {name:?}: expected number or null, got {other:?}")),
        }
    }

    fn key(&self, name: &str) -> Result<Key, ParseError> {
        Ok(Key::from(self.string(name)?.to_owned()))
    }
}

fn parse_version(s: &str) -> Result<Version, ParseError> {
    let body = match s.strip_prefix('v') {
        Some(b) => b,
        None => return err(format!("malformed version {s:?}")),
    };
    let (block, tx) = match body.split_once('.') {
        Some(p) => p,
        None => return err(format!("malformed version {s:?}")),
    };
    match (block.parse::<u64>(), tx.parse::<u32>()) {
        (Ok(b), Ok(t)) => Ok(Version::new(b, t)),
        _ => err(format!("malformed version {s:?}")),
    }
}

/// Minimal flat-JSON-object scanner for the fixed shape this module emits:
/// string keys mapping to strings, unsigned integers, booleans, or null.
fn parse_object(line: &str) -> Result<Fields, ParseError> {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    let mut fields = Vec::new();

    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && (bytes[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    };

    skip_ws(&mut i);
    if i >= bytes.len() || bytes[i] != b'{' {
        return err("expected '{'");
    }
    i += 1;
    skip_ws(&mut i);
    if i < bytes.len() && bytes[i] == b'}' {
        return Ok(Fields(fields));
    }
    loop {
        skip_ws(&mut i);
        let (name, next) = parse_string(line, i)?;
        i = next;
        skip_ws(&mut i);
        if i >= bytes.len() || bytes[i] != b':' {
            return err(format!("expected ':' after key {name:?}"));
        }
        i += 1;
        skip_ws(&mut i);
        let (value, next) = parse_value(line, i)?;
        i = next;
        fields.push((name, value));
        skip_ws(&mut i);
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {
                i += 1;
                skip_ws(&mut i);
                if i != bytes.len() {
                    return err("trailing content after '}'");
                }
                return Ok(Fields(fields));
            }
            other => return err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

fn parse_string(line: &str, start: usize) -> Result<(String, usize), ParseError> {
    let bytes = line.as_bytes();
    if start >= bytes.len() || bytes[start] != b'"' {
        return err("expected '\"'");
    }
    let mut out = String::new();
    let mut chars = line[start + 1..].char_indices();
    while let Some((off, c)) = chars.next() {
        match c {
            '"' => return Ok((out, start + 1 + off + 1)),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let (_, h) = match chars.next() {
                            Some(p) => p,
                            None => return err("truncated \\u escape"),
                        };
                        code = code * 16
                            + match h.to_digit(16) {
                                Some(d) => d,
                                None => return err("bad \\u escape digit"),
                            };
                    }
                    match char::from_u32(code) {
                        Some(c) => out.push(c),
                        None => return err("invalid \\u code point"),
                    }
                }
                other => return err(format!("bad escape {other:?}")),
            },
            c => out.push(c),
        }
    }
    err("unterminated string")
}

fn parse_value(line: &str, start: usize) -> Result<(Val, usize), ParseError> {
    let bytes = line.as_bytes();
    match bytes.get(start) {
        Some(b'"') => {
            let (s, next) = parse_string(line, start)?;
            Ok((Val::Str(s), next))
        }
        Some(b't') if line[start..].starts_with("true") => Ok((Val::Bool(true), start + 4)),
        Some(b'f') if line[start..].starts_with("false") => Ok((Val::Bool(false), start + 5)),
        Some(b'n') if line[start..].starts_with("null") => Ok((Val::Null, start + 4)),
        Some(c) if c.is_ascii_digit() => {
            let mut end = start;
            while end < bytes.len() && bytes[end].is_ascii_digit() {
                end += 1;
            }
            match line[start..end].parse::<u64>() {
                Ok(n) => Ok((Val::Num(n), end)),
                Err(_) => err(format!("bad number {:?}", &line[start..end])),
            }
        }
        other => err(format!("unexpected value start {other:?}")),
    }
}

/// Parses one JSONL line back into a [`TraceEvent`].
pub fn parse_line(line: &str) -> Result<TraceEvent, ParseError> {
    let f = parse_object(line)?;
    let seq = f.num("seq")?;
    let at_us = f.num("us")?;
    let label = f.string("ev")?;
    let kind = match label {
        "tx_submitted" => EventKind::TxSubmitted {
            tx: TxId(f.num("tx")?),
            channel: f.num("chan")?.into(),
            client: f.num("client")?.into(),
        },
        "tx_endorsed" => EventKind::TxEndorsed {
            tx: TxId(f.num("tx")?),
            peer: f.num("peer")?.into(),
            dur_us: f.num("dur_us")?,
        },
        "early_abort_simulation" => EventKind::TxEarlyAbortSimulation {
            tx: TxId(f.num("tx")?),
            key: f.key("key")?,
            snapshot_block: f.num("snapshot_block")?,
            observed: f.version("observed")?,
        },
        "block_cut" => EventKind::BlockCut {
            reason: match CutKind::from_label(f.string("reason")?) {
                Some(r) => r,
                None => return err(format!("unknown cut reason {:?}", f.string("reason")?)),
            },
            txs: f.num("txs")? as u32,
        },
        "early_abort_version" => EventKind::TxEarlyAbortVersion {
            tx: TxId(f.num("tx")?),
            key: f.key("key")?,
            expected: f.version("expected")?,
            observed: f.opt_version("observed")?,
            conflicting: TxId(f.num("conflicting")?),
        },
        "early_abort_cycle" => EventKind::TxEarlyAbortCycle {
            tx: TxId(f.num("tx")?),
            scc: f.num("scc")? as u32,
            scc_size: f.num("scc_size")? as u32,
        },
        "block_sealed" => EventKind::BlockSealed {
            block: f.num("block")?,
            txs: f.num("txs")? as u32,
            early_aborted: f.num("early_aborted")? as u32,
            sccs: f.num("sccs")? as u32,
            reorder_us: f.num("reorder_us")?,
        },
        "endorsement_failed" => EventKind::TxEndorsementFailed {
            block: f.num("block")?,
            tx: TxId(f.num("tx")?),
        },
        "block_vscc" => EventKind::BlockVscc {
            block: f.num("block")?,
            txs: f.num("txs")? as u32,
            failures: f.num("failures")? as u32,
            dur_us: f.num("dur_us")?,
        },
        "mvcc_conflict" => EventKind::TxMvccConflict {
            block: f.num("block")?,
            tx: TxId(f.num("tx")?),
            key: f.key("key")?,
            expected: f.opt_version("expected")?,
            observed: f.opt_version("observed")?,
            writer: f.opt_num("writer")?.map(TxId),
        },
        "block_mvcc" => EventKind::BlockMvcc {
            block: f.num("block")?,
            valid: f.num("valid")? as u32,
            invalid: f.num("invalid")? as u32,
            dur_us: f.num("dur_us")?,
        },
        "tx_committed" => EventKind::TxCommitted {
            block: f.num("block")?,
            tx: TxId(f.num("tx")?),
        },
        "block_committed" => EventKind::BlockCommitted {
            block: f.num("block")?,
            valid: f.num("valid")? as u32,
            invalid: f.num("invalid")? as u32,
            writes: f.num("writes")? as u32,
            dur_us: f.num("dur_us")?,
        },
        "wal_record" => EventKind::WalRecord {
            block: f.num("block")?,
            fsync: f.boolean("fsync")?,
        },
        "fault_net" => EventKind::FaultNet {
            fault_seq: f.num("fault_seq")?,
            from: f.num("from")? as u32,
            to: f.num("to")? as u32,
            nth: f.num("nth")?,
            verdict: match FaultKind::from_label(f.string("verdict")?) {
                Some(v) => v,
                None => return err(format!("unknown verdict {:?}", f.string("verdict")?)),
            },
            partition: f.boolean("partition")?,
        },
        "fault_wal" => EventKind::FaultWal {
            fault_seq: f.num("fault_seq")?,
            block: f.num("block")?,
            keep: f.num("keep")?,
        },
        other => return err(format!("unknown event label {other:?}")),
    };
    Ok(TraceEvent { seq, at_us, kind })
}

/// Parses a full JSONL dump (blank lines skipped).
pub fn parse_str(s: &str) -> Result<Vec<TraceEvent>, ParseError> {
    s.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(parse_line)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, TraceEvent};
    use fabric_common::{ChannelId, ClientId, PeerId};

    fn all_kinds() -> Vec<EventKind> {
        vec![
            EventKind::TxSubmitted { tx: TxId(1), channel: ChannelId(0), client: ClientId(3) },
            EventKind::TxEndorsed { tx: TxId(1), peer: PeerId(2), dur_us: 512 },
            EventKind::TxEarlyAbortSimulation {
                tx: TxId(4),
                key: Key::from("checking:7"),
                snapshot_block: 3,
                observed: Version::new(4, 1),
            },
            EventKind::BlockCut { reason: CutKind::UniqueKeys, txs: 12 },
            EventKind::TxEarlyAbortVersion {
                tx: TxId(5),
                key: Key::from("savings:1"),
                expected: Version::new(2, 0),
                observed: Some(Version::new(1, 3)),
                conflicting: TxId(9),
            },
            EventKind::TxEarlyAbortCycle { tx: TxId(6), scc: 1, scc_size: 3 },
            EventKind::BlockSealed {
                block: 7,
                txs: 10,
                early_aborted: 2,
                sccs: 1,
                reorder_us: 133,
            },
            EventKind::TxEndorsementFailed { block: 7, tx: TxId(8) },
            EventKind::BlockVscc { block: 7, txs: 10, failures: 1, dur_us: 99 },
            EventKind::TxMvccConflict {
                block: 7,
                tx: TxId(11),
                key: Key::from("checking:42"),
                expected: Some(Version::new(1, 0)),
                observed: Some(Version::new(6, 2)),
                writer: None,
            },
            EventKind::TxMvccConflict {
                block: 7,
                tx: TxId(12),
                key: Key::from("a\"b\\c"),
                expected: None,
                observed: None,
                writer: Some(TxId(10)),
            },
            EventKind::BlockMvcc { block: 7, valid: 8, invalid: 2, dur_us: 5 },
            EventKind::TxCommitted { block: 7, tx: TxId(13) },
            EventKind::BlockCommitted { block: 7, valid: 8, invalid: 2, writes: 16, dur_us: 40 },
            EventKind::WalRecord { block: 7, fsync: true },
            EventKind::FaultNet {
                fault_seq: 0,
                from: u32::MAX,
                to: 3,
                nth: 17,
                verdict: FaultKind::Duplicate,
                partition: false,
            },
            EventKind::FaultWal { fault_seq: 1, block: 9, keep: 5 },
        ]
    }

    #[test]
    fn every_event_kind_round_trips() {
        for (i, kind) in all_kinds().into_iter().enumerate() {
            let ev = TraceEvent { seq: i as u64, at_us: 1000 + i as u64, kind };
            let line = event_to_line(&ev);
            let back = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev, "line: {line}");
        }
    }

    #[test]
    fn full_stream_round_trips() {
        let events: Vec<TraceEvent> = all_kinds()
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent { seq: i as u64, at_us: i as u64 * 7, kind })
            .collect();
        let text = to_string(&events);
        assert_eq!(text.lines().count(), events.len());
        let back = parse_str(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn write_events_matches_to_string() {
        let events = vec![TraceEvent {
            seq: 0,
            at_us: 1,
            kind: EventKind::TxCommitted { block: 2, tx: TxId(3) },
        }];
        let mut buf = Vec::new();
        write_events(&mut buf, &events).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), to_string(&events));
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd\te\u{1}");
        let (back, _) = parse_string(&s, 0).unwrap();
        assert_eq!(back, "a\"b\\c\nd\te\u{1}");
    }

    #[test]
    fn malformed_lines_error() {
        assert!(parse_line("").is_err());
        assert!(parse_line("{}").is_err(), "missing required fields");
        assert!(parse_line("{\"seq\":1,\"us\":2,\"ev\":\"no_such_event\"}").is_err());
        assert!(parse_line("{\"seq\":1,\"us\":2,\"ev\":\"tx_committed\"}").is_err());
        assert!(parse_line("{\"seq\":1").is_err());
        assert!(parse_line("{\"seq\":1,\"us\":2,\"ev\":\"tx_committed\",\"block\":1,\"tx\":2}x")
            .is_err());
        assert!(parse_version("v1").is_err());
        assert!(parse_version("1.2").is_err());
        assert_eq!(parse_version("v3.4").unwrap(), Version::new(3, 4));
    }

    #[test]
    fn blank_lines_skipped() {
        let text = "\n{\"seq\":0,\"us\":0,\"ev\":\"block_cut\",\"reason\":\"flush\",\"txs\":1}\n\n";
        let events = parse_str(text).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::BlockCut { reason: CutKind::Flush, txs: 1 });
    }
}
