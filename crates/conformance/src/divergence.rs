//! Byte-level comparison of replica artifacts with divergence
//! localization: which artifact, which block, which byte, what the two
//! replicas hold there, and a root-cause hint for the classes of
//! determinism bug the stack has actually had to defend against.

use std::fmt;

use fabric_common::codec::{Decode, Decoder};
use fabric_ledger::CommittedBlock;

use crate::artifacts::{Artifact, ReplicaArtifacts, BLOCK_STREAM};

/// Aligned values above this threshold smell like microsecond/nanosecond
/// wall-clock readings rather than counters, lengths, or ids (2^40 µs is
/// ~13 days; every timestamp a leak would serialize is far above it,
/// every id/length in these artifacts far below).
const TIME_LIKE_FLOOR: u64 = 1 << 40;

/// Most likely cause of a divergence, inferred from its shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootCauseHint {
    /// One replica's artifact is a strict prefix of the other's:
    /// truncated stream, missing blocks, or records dropped on one side.
    LengthMismatch,
    /// The diverging block holds the same transactions in a different
    /// order at identical validation-worker settings — the classic
    /// symptom of hash-map iteration order leaking into block assembly.
    HashMapIterationOrder,
    /// The diverging block holds the same transactions in a different
    /// order and the replicas differ in validation-worker counts — ordering
    /// that depends on how work was scheduled across workers.
    WorkerOrdering,
    /// Both replicas hold a large, nearly-equal aligned 64-bit value at
    /// the divergence — a wall-clock timestamp serialized into
    /// replicated bytes.
    TimestampLeakage,
    /// None of the known shapes matched.
    Unknown,
}

impl fmt::Display for RootCauseHint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RootCauseHint::LengthMismatch => {
                "length mismatch: one artifact is a strict prefix of the other \
                 (truncated stream or records missing on one side)"
            }
            RootCauseHint::HashMapIterationOrder => {
                "same transactions, different order, at equal worker counts: \
                 hash-map iteration order is leaking into block assembly"
            }
            RootCauseHint::WorkerOrdering => {
                "same transactions, different order, across different worker \
                 counts: ordering depends on worker scheduling"
            }
            RootCauseHint::TimestampLeakage => {
                "near-equal wall-clock-like values at the divergence: a \
                 timestamp is serialized into replicated bytes"
            }
            RootCauseHint::Unknown => "content mismatch (no known bug shape matched)",
        };
        f.write_str(s)
    }
}

/// A localized byte-level disagreement between two replicas.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which artifact diverged first (artifacts compare in fixed order).
    pub artifact: &'static str,
    /// Label of the baseline replica.
    pub replica_a: String,
    /// Label of the diverging replica.
    pub replica_b: String,
    /// First byte offset at which the artifacts disagree (equal to the
    /// shorter length when one is a strict prefix of the other).
    pub byte_offset: usize,
    /// Artifact length on each side.
    pub len_a: usize,
    /// Artifact length on the diverging side.
    pub len_b: usize,
    /// For block streams: the block whose encoding contains the offset.
    pub block_number: Option<u64>,
    /// Up to 16 bytes of hex context starting at the offset, baseline side.
    pub context_a: String,
    /// Up to 16 bytes of hex context starting at the offset, diverging side.
    pub context_b: String,
    /// Most likely root cause.
    pub hint: RootCauseHint,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replicas {} and {} diverge in `{}` at byte {}",
            self.replica_a, self.replica_b, self.artifact, self.byte_offset
        )?;
        if let Some(b) = self.block_number {
            write!(f, " (inside block {b})")?;
        }
        write!(
            f,
            ": {} vs {} (lengths {} vs {}); hint: {}",
            self.context_a, self.context_b, self.len_a, self.len_b, self.hint
        )
    }
}

fn hex_window(bytes: &[u8], offset: usize) -> String {
    if offset >= bytes.len() {
        return "<end>".to_owned();
    }
    let end = (offset + 16).min(bytes.len());
    bytes[offset..end].iter().map(|b| format!("{b:02x}")).collect()
}

fn read_u64(bytes: &[u8], offset: usize) -> Option<u64> {
    let end = offset.checked_add(8)?;
    let chunk: [u8; 8] = bytes.get(offset..end)?.try_into().ok()?;
    Some(u64::from_le_bytes(chunk))
}

/// Decodes the single block whose encoding starts at `artifact`'s index
/// entry for block `num`.
fn decode_block_at(artifact: &Artifact, num: u64) -> Option<CommittedBlock> {
    let start = artifact.offset_of_block(num)?;
    let mut dec = Decoder::new(&artifact.bytes[start..]);
    CommittedBlock::decode(&mut dec).ok()
}

fn classify(
    a: &ReplicaArtifacts,
    b: &ReplicaArtifacts,
    art_a: &Artifact,
    art_b: &Artifact,
    offset: usize,
) -> RootCauseHint {
    let min_len = art_a.bytes.len().min(art_b.bytes.len());
    if offset == min_len {
        // Equal up to the end of the shorter artifact.
        return RootCauseHint::LengthMismatch;
    }
    // Same-multiset / different-order check on the diverging block.
    if art_a.name == BLOCK_STREAM {
        if let Some(num) = art_a.block_of_offset(offset) {
            if let (Some(ba), Some(bb)) =
                (decode_block_at(art_a, num), decode_block_at(art_b, num))
            {
                let ids_a: Vec<u64> = ba.block.txs.iter().map(|t| t.id.raw()).collect();
                let ids_b: Vec<u64> = bb.block.txs.iter().map(|t| t.id.raw()).collect();
                let mut sorted_a = ids_a.clone();
                let mut sorted_b = ids_b.clone();
                sorted_a.sort_unstable();
                sorted_b.sort_unstable();
                if ids_a != ids_b && sorted_a == sorted_b {
                    return if a.validation_workers != b.validation_workers {
                        RootCauseHint::WorkerOrdering
                    } else {
                        RootCauseHint::HashMapIterationOrder
                    };
                }
            }
        }
    }
    // Timestamp heuristic on the aligned word containing the divergence.
    let aligned = offset & !7;
    if let (Some(x), Some(y)) = (read_u64(&art_a.bytes, aligned), read_u64(&art_b.bytes, aligned))
    {
        if x != y && x > TIME_LIKE_FLOOR && y > TIME_LIKE_FLOOR {
            let (lo, hi) = if x < y { (x, y) } else { (y, x) };
            if (hi - lo) as f64 <= hi as f64 * 0.01 {
                return RootCauseHint::TimestampLeakage;
            }
        }
    }
    RootCauseHint::Unknown
}

fn localize(
    a: &ReplicaArtifacts,
    b: &ReplicaArtifacts,
    art_a: &Artifact,
    art_b: &Artifact,
) -> Divergence {
    let min_len = art_a.bytes.len().min(art_b.bytes.len());
    let offset = (0..min_len)
        .find(|&i| art_a.bytes[i] != art_b.bytes[i])
        .unwrap_or(min_len);
    let block_number = art_a.block_of_offset(offset).or_else(|| art_b.block_of_offset(offset));
    Divergence {
        artifact: art_a.name,
        replica_a: a.label.clone(),
        replica_b: b.label.clone(),
        byte_offset: offset,
        len_a: art_a.bytes.len(),
        len_b: art_b.bytes.len(),
        block_number,
        context_a: hex_window(&art_a.bytes, offset),
        context_b: hex_window(&art_b.bytes, offset),
        hint: classify(a, b, art_a, art_b, offset),
    }
}

/// Compares every artifact of `a` against `b` in fixed order and returns
/// the first divergence, fully localized — or `None` when the replicas
/// are byte-identical.
pub fn compare_artifacts(a: &ReplicaArtifacts, b: &ReplicaArtifacts) -> Option<Divergence> {
    for art_a in &a.artifacts {
        let Some(art_b) = b.artifact(art_a.name) else {
            return Some(Divergence {
                artifact: art_a.name,
                replica_a: a.label.clone(),
                replica_b: b.label.clone(),
                byte_offset: 0,
                len_a: art_a.bytes.len(),
                len_b: 0,
                block_number: None,
                context_a: hex_window(&art_a.bytes, 0),
                context_b: "<missing>".to_owned(),
                hint: RootCauseHint::LengthMismatch,
            });
        };
        if art_a.bytes != art_b.bytes {
            return Some(localize(a, b, art_a, art_b));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::CHAIN_FINGERPRINT;

    fn replica(label: &str, arts: Vec<Artifact>) -> ReplicaArtifacts {
        ReplicaArtifacts {
            label: label.to_owned(),
            validation_workers: 1,
            artifacts: arts,
        }
    }

    #[test]
    fn identical_replicas_produce_no_divergence() {
        let a = replica("a", vec![Artifact::flat(CHAIN_FINGERPRINT, vec![1, 2, 3])]);
        let b = replica("b", vec![Artifact::flat(CHAIN_FINGERPRINT, vec![1, 2, 3])]);
        assert!(compare_artifacts(&a, &b).is_none());
    }

    #[test]
    fn first_differing_byte_is_localized_with_context() {
        let mut bytes_b = vec![0u8; 64];
        bytes_b[37] = 0xff;
        let a = replica("a", vec![Artifact::flat(CHAIN_FINGERPRINT, vec![0u8; 64])]);
        let b = replica("b", vec![Artifact::flat(CHAIN_FINGERPRINT, bytes_b)]);
        let d = compare_artifacts(&a, &b).expect("must diverge");
        assert_eq!(d.byte_offset, 37);
        assert_eq!(d.artifact, CHAIN_FINGERPRINT);
        assert!(d.context_a.starts_with("00"));
        assert!(d.context_b.starts_with("ff"));
        // 16-byte window, two hex chars per byte.
        assert_eq!(d.context_a.len(), 32);
    }

    #[test]
    fn prefix_truncation_hints_length_mismatch() {
        let a = replica("a", vec![Artifact::flat(CHAIN_FINGERPRINT, vec![7u8; 40])]);
        let b = replica("b", vec![Artifact::flat(CHAIN_FINGERPRINT, vec![7u8; 25])]);
        let d = compare_artifacts(&a, &b).expect("must diverge");
        assert_eq!(d.hint, RootCauseHint::LengthMismatch);
        assert_eq!(d.byte_offset, 25);
        assert_eq!(d.context_b, "<end>");
    }

    #[test]
    fn near_equal_time_like_words_hint_timestamp_leakage() {
        let t = 1_722_000_000_000_000u64; // µs since epoch scale
        let mut bytes_a = vec![0u8; 32];
        let mut bytes_b = vec![0u8; 32];
        bytes_a[8..16].copy_from_slice(&t.to_le_bytes());
        bytes_b[8..16].copy_from_slice(&(t + 1_234).to_le_bytes());
        let a = replica("a", vec![Artifact::flat(CHAIN_FINGERPRINT, bytes_a)]);
        let b = replica("b", vec![Artifact::flat(CHAIN_FINGERPRINT, bytes_b)]);
        let d = compare_artifacts(&a, &b).expect("must diverge");
        assert_eq!(d.hint, RootCauseHint::TimestampLeakage);
    }

    #[test]
    fn small_value_differences_do_not_hint_timestamps() {
        let mut bytes_a = vec![0u8; 32];
        let mut bytes_b = vec![0u8; 32];
        bytes_a[8..16].copy_from_slice(&41u64.to_le_bytes());
        bytes_b[8..16].copy_from_slice(&42u64.to_le_bytes());
        let a = replica("a", vec![Artifact::flat(CHAIN_FINGERPRINT, bytes_a)]);
        let b = replica("b", vec![Artifact::flat(CHAIN_FINGERPRINT, bytes_b)]);
        let d = compare_artifacts(&a, &b).expect("must diverge");
        assert_eq!(d.hint, RootCauseHint::Unknown);
    }

    #[test]
    fn missing_artifact_is_reported() {
        let a = replica("a", vec![Artifact::flat(CHAIN_FINGERPRINT, vec![1])]);
        let b = replica("b", vec![]);
        let d = compare_artifacts(&a, &b).expect("must diverge");
        assert_eq!(d.hint, RootCauseHint::LengthMismatch);
        assert_eq!(d.context_b, "<missing>");
    }
}
