//! Read and write sets captured during chaincode simulation.
//!
//! During the simulation phase "each endorser builds up a read set and a
//! write set during simulation to capture the effects" (paper §2.2.1).
//! The read set records, per key, the *version* observed; the write set
//! records, per key, the value to install. These sets travel inside the
//! transaction through ordering and validation and are the sole input of
//! both the serializability conflict check and the reordering mechanism.
//!
//! Semantics mirror Fabric v1.2:
//! * the read set keeps the **first** version observed per key (reads are
//!   repeatable within one simulation — later reads see the pending write
//!   via read-your-own-writes, which does not touch the read set);
//! * the write set keeps the **last** value written per key;
//! * a read of an absent key records a `None` version so that a
//!   concurrent create still conflicts.

use crate::codec::{Decode, Decoder, Encode, Encoder};
use crate::error::{Error, Result};
use crate::ids::{Key, Value, Version};

/// A single recorded read: the key and the version observed at simulation
/// time (`None` if the key did not exist).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadEntry {
    /// The key that was read.
    pub key: Key,
    /// The version observed, or `None` when the key was absent.
    pub version: Option<Version>,
}

/// A single recorded write: the key and the new value (`None` = delete).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteEntry {
    /// The key being written.
    pub key: Key,
    /// The new value, or `None` to delete the key.
    pub value: Option<Value>,
}

/// The read set of one simulated transaction, ordered by key.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReadSet {
    entries: Vec<ReadEntry>,
}

/// The write set of one simulated transaction, ordered by key.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WriteSet {
    entries: Vec<WriteEntry>,
}

impl ReadSet {
    /// Recorded entries, sorted by key.
    pub fn entries(&self) -> &[ReadEntry] {
        &self.entries
    }

    /// Number of keys read.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was read.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The version recorded for `key`, if it was read.
    /// Returns `Some(None)` for a recorded read of an absent key.
    pub fn version_of(&self, key: &Key) -> Option<Option<Version>> {
        self.entries
            .binary_search_by(|e| e.key.cmp(key))
            .ok()
            .map(|i| self.entries[i].version)
    }

    /// Whether `key` appears in the read set.
    pub fn reads(&self, key: &Key) -> bool {
        self.entries.binary_search_by(|e| e.key.cmp(key)).is_ok()
    }

    /// Iterates over the keys read.
    pub fn keys(&self) -> impl Iterator<Item = &Key> {
        self.entries.iter().map(|e| &e.key)
    }
}

impl WriteSet {
    /// Builds a write set from `(key, value)` pairs in one sort: a key
    /// written more than once keeps its *last* value, exactly as recording
    /// the same writes one by one with [`RwSetBuilder::record_write`]
    /// would. For bulk installs such as genesis, where the builder's
    /// per-key scan would be quadratic.
    pub fn from_writes(writes: impl IntoIterator<Item = (Key, Option<Value>)>) -> Self {
        let mut entries: Vec<WriteEntry> =
            writes.into_iter().map(|(key, value)| WriteEntry { key, value }).collect();
        // Stable: equal keys stay in write order. `dedup_by` keeps the first
        // entry of each run, so carry the run's last value into it.
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        entries.dedup_by(|later, kept| {
            let same = later.key == kept.key;
            if same {
                std::mem::swap(&mut kept.value, &mut later.value);
            }
            same
        });
        WriteSet { entries }
    }

    /// Recorded entries, sorted by key.
    pub fn entries(&self) -> &[WriteEntry] {
        &self.entries
    }

    /// Number of keys written.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was written.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The pending value for `key`, if it was written.
    /// Returns `Some(None)` for a delete.
    pub fn value_of(&self, key: &Key) -> Option<Option<&Value>> {
        self.entries
            .binary_search_by(|e| e.key.cmp(key))
            .ok()
            .map(|i| self.entries[i].value.as_ref())
    }

    /// Whether `key` appears in the write set.
    pub fn writes(&self, key: &Key) -> bool {
        self.entries.binary_search_by(|e| e.key.cmp(key)).is_ok()
    }

    /// Iterates over the keys written.
    pub fn keys(&self) -> impl Iterator<Item = &Key> {
        self.entries.iter().map(|e| &e.key)
    }
}

/// The combined effect of one simulation: read set plus write set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReadWriteSet {
    /// Keys read with observed versions.
    pub reads: ReadSet,
    /// Keys written with new values.
    pub writes: WriteSet,
}

impl ReadWriteSet {
    /// Total number of *unique* keys touched (read ∪ write). This is the
    /// quantity bounded by the Fabric++ batch-cutting condition (d)
    /// (paper §5.1.2).
    pub fn unique_keys(&self) -> usize {
        // Both sides are sorted; merge-count the union.
        let r = self.reads.entries();
        let w = self.writes.entries();
        let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
        while i < r.len() && j < w.len() {
            n += 1;
            match r[i].key.cmp(&w[j].key) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        n + (r.len() - i) + (w.len() - j)
    }

    /// Approximate wire size of the set in bytes (used by batch cutting
    /// condition (b) and by the network byte accounting).
    pub fn byte_size(&self) -> usize {
        let mut n = 8;
        for e in self.reads.entries() {
            n += e.key.len() + 12;
        }
        for e in self.writes.entries() {
            n += e.key.len() + e.value.as_ref().map_or(0, Value::len) + 4;
        }
        n
    }

    /// Whether this transaction's writes conflict with `later`'s reads:
    /// the paper's `Ti ⇝ Tj` edge ("Ti writes to a key that is read by Tj",
    /// §5.1). If true, a serializable schedule must order `later` *before*
    /// `self`.
    pub fn writes_conflict_with_reads_of(&self, later: &ReadWriteSet) -> bool {
        // Merge-scan both sorted sides.
        let w = self.writes.entries();
        let r = later.reads.entries();
        let (mut i, mut j) = (0usize, 0usize);
        while i < w.len() && j < r.len() {
            match w[i].key.cmp(&r[j].key) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

/// Incrementally records reads and writes during a simulation, then freezes
/// into a [`ReadWriteSet`].
///
/// Implements Fabric's read-your-own-writes: a read of a key this
/// transaction already wrote returns the pending value and records nothing
/// in the read set.
#[derive(Debug, Default)]
pub struct RwSetBuilder {
    reads: Vec<ReadEntry>,
    writes: Vec<WriteEntry>,
}

impl RwSetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `key` was read at `version` (`None` = key absent).
    /// Only the first read of each key is recorded.
    pub fn record_read(&mut self, key: Key, version: Option<Version>) {
        if !self.reads.iter().any(|e| e.key == key) {
            self.reads.push(ReadEntry { key, version });
        }
    }

    /// Records a write of `value` to `key`; a later write to the same key
    /// replaces the earlier one.
    pub fn record_write(&mut self, key: Key, value: Option<Value>) {
        if let Some(e) = self.writes.iter_mut().find(|e| e.key == key) {
            e.value = value;
        } else {
            self.writes.push(WriteEntry { key, value });
        }
    }

    /// The pending write for `key`, if any (read-your-own-writes lookup).
    pub fn pending_write(&self, key: &Key) -> Option<Option<&Value>> {
        self.writes
            .iter()
            .find(|e| &e.key == key)
            .map(|e| e.value.as_ref())
    }

    /// All pending writes with keys in `[start, end)` (range-scan
    /// read-your-own-writes). Deletes appear with `None`.
    pub fn pending_writes_in_range(
        &self,
        start: &Key,
        end: &Key,
    ) -> Vec<(Key, Option<Value>)> {
        self.writes
            .iter()
            .filter(|e| &e.key >= start && &e.key < end)
            .map(|e| (e.key.clone(), e.value.clone()))
            .collect()
    }

    /// Freezes the builder into a canonical (key-sorted) [`ReadWriteSet`].
    ///
    /// The frozen set rides in the transaction into every ledger that
    /// commits it, so each side is held in an exact-size buffer rather than
    /// the builder's `push`-grown one.
    pub fn build(mut self) -> ReadWriteSet {
        self.reads.sort_by(|a, b| a.key.cmp(&b.key));
        self.writes.sort_by(|a, b| a.key.cmp(&b.key));
        ReadWriteSet {
            reads: ReadSet { entries: exact_size(self.reads) },
            writes: WriteSet { entries: exact_size(self.writes) },
        }
    }
}

/// `v` in a buffer of exactly `v.len()` slots. Moves the entries into a
/// fresh allocation instead of shrinking in place: a shrunk buffer leaves
/// its freed tail as a hole between long-lived neighbours, which a
/// ledger's worth of transactions turns into heap the process cannot
/// return.
fn exact_size<T>(mut v: Vec<T>) -> Vec<T> {
    if v.capacity() == v.len() {
        return v;
    }
    let mut exact = Vec::with_capacity(v.len());
    exact.append(&mut v);
    exact
}

/// Convenience constructor used pervasively by tests and micro-benchmarks:
/// builds a [`ReadWriteSet`] from plain key lists, reading every key at
/// `read_version` and writing `value` to every write key.
pub fn rwset_from_keys(
    read_keys: &[Key],
    read_version: Version,
    write_keys: &[Key],
    value: &Value,
) -> ReadWriteSet {
    let mut b = RwSetBuilder::new();
    for k in read_keys {
        b.record_read(k.clone(), Some(read_version));
    }
    for k in write_keys {
        b.record_write(k.clone(), Some(value.clone()));
    }
    b.build()
}

// ---------------------------------------------------------------------------
// Canonical encoding (input to endorsement signatures and block hashes)
// ---------------------------------------------------------------------------

impl Encode for ReadWriteSet {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.reads.entries.len() as u32);
        for e in &self.reads.entries {
            enc.put_bytes(e.key.as_bytes());
            match e.version {
                Some(v) => {
                    enc.put_u8(1);
                    enc.put_u64(v.block);
                    enc.put_u32(v.tx);
                }
                None => {
                    enc.put_u8(0);
                }
            }
        }
        enc.put_u32(self.writes.entries.len() as u32);
        for e in &self.writes.entries {
            enc.put_bytes(e.key.as_bytes());
            match &e.value {
                Some(v) => {
                    enc.put_u8(1);
                    enc.put_bytes(v.as_bytes());
                }
                None => {
                    enc.put_u8(0);
                }
            }
        }
    }
}

impl Decode for ReadWriteSet {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let nr = dec.get_u32()? as usize;
        if nr > 1 << 24 {
            return Err(Error::Codec(format!("implausible read-set size {nr}")));
        }
        let mut reads = Vec::with_capacity(nr);
        for _ in 0..nr {
            let key = Key::from_slice(dec.get_bytes()?);
            let version = match dec.get_u8()? {
                0 => None,
                1 => {
                    let block = dec.get_u64()?;
                    let tx = dec.get_u32()?;
                    Some(Version::new(block, tx))
                }
                t => return Err(Error::Codec(format!("bad version tag {t}"))),
            };
            reads.push(ReadEntry { key, version });
        }
        let nw = dec.get_u32()? as usize;
        if nw > 1 << 24 {
            return Err(Error::Codec(format!("implausible write-set size {nw}")));
        }
        let mut writes = Vec::with_capacity(nw);
        for _ in 0..nw {
            let key = Key::from_slice(dec.get_bytes()?);
            let value = match dec.get_u8()? {
                0 => None,
                1 => Some(Value::from_slice(dec.get_bytes()?)),
                t => return Err(Error::Codec(format!("bad value tag {t}"))),
            };
            writes.push(WriteEntry { key, value });
        }
        Ok(ReadWriteSet {
            reads: ReadSet { entries: reads },
            writes: WriteSet { entries: writes },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }
    fn v(s: &str) -> Value {
        Value::from(s)
    }

    #[test]
    fn builder_records_first_read_last_write() {
        let mut b = RwSetBuilder::new();
        b.record_read(k("a"), Some(Version::new(1, 0)));
        b.record_read(k("a"), Some(Version::new(2, 0))); // ignored
        b.record_write(k("a"), Some(v("x")));
        b.record_write(k("a"), Some(v("y"))); // replaces
        let rw = b.build();
        assert_eq!(rw.reads.version_of(&k("a")), Some(Some(Version::new(1, 0))));
        assert_eq!(rw.writes.value_of(&k("a")), Some(Some(&v("y"))));
        assert_eq!(rw.reads.len(), 1);
        assert_eq!(rw.writes.len(), 1);
    }

    #[test]
    fn builder_sorts_by_key() {
        let mut b = RwSetBuilder::new();
        for key in ["z", "a", "m"] {
            b.record_read(k(key), None);
            b.record_write(k(key), Some(v("1")));
        }
        let rw = b.build();
        let read_keys: Vec<_> = rw.reads.keys().map(|k| k.to_string()).collect();
        assert_eq!(read_keys, ["a", "m", "z"]);
        let write_keys: Vec<_> = rw.writes.keys().map(|k| k.to_string()).collect();
        assert_eq!(write_keys, ["a", "m", "z"]);
    }

    #[test]
    fn build_holds_each_side_at_exact_size() {
        for n in [1usize, 2, 3, 5, 9] {
            let mut b = RwSetBuilder::new();
            for i in (0..n).rev() {
                let key = Key::composite("k", i as u64);
                // Repeated reads and writes of one key collapse to one entry.
                b.record_read(key.clone(), Some(Version::new(1, i as u32)));
                b.record_read(key.clone(), Some(Version::new(2, 0)));
                b.record_write(key.clone(), Some(v("x")));
                b.record_write(key, Some(v("y")));
            }
            let rw = b.build();
            assert_eq!((rw.reads.len(), rw.reads.entries.capacity()), (n, n));
            assert_eq!((rw.writes.len(), rw.writes.entries.capacity()), (n, n));
        }
    }

    #[test]
    fn read_of_absent_key_is_recorded() {
        let mut b = RwSetBuilder::new();
        b.record_read(k("ghost"), None);
        let rw = b.build();
        assert_eq!(rw.reads.version_of(&k("ghost")), Some(None));
        assert!(rw.reads.reads(&k("ghost")));
        assert!(!rw.reads.reads(&k("other")));
    }

    #[test]
    fn pending_write_supports_read_your_own_writes() {
        let mut b = RwSetBuilder::new();
        assert_eq!(b.pending_write(&k("a")), None);
        b.record_write(k("a"), Some(v("new")));
        assert_eq!(b.pending_write(&k("a")), Some(Some(&v("new"))));
        b.record_write(k("a"), None); // delete
        assert_eq!(b.pending_write(&k("a")), Some(None));
    }

    #[test]
    fn unique_keys_counts_union() {
        let rw = rwset_from_keys(
            &[k("a"), k("b"), k("c")],
            Version::GENESIS,
            &[k("b"), k("c"), k("d")],
            &v("1"),
        );
        assert_eq!(rw.unique_keys(), 4);
        assert_eq!(ReadWriteSet::default().unique_keys(), 0);
    }

    #[test]
    fn conflict_detection_is_write_into_read() {
        // Paper §5.1: Ti ⇝ Tj iff Ti writes a key read by Tj.
        let t_writer = rwset_from_keys(&[], Version::GENESIS, &[k("k1")], &v("2"));
        let t_reader = rwset_from_keys(&[k("k1")], Version::GENESIS, &[k("k2")], &v("2"));
        assert!(t_writer.writes_conflict_with_reads_of(&t_reader));
        assert!(!t_reader.writes_conflict_with_reads_of(&t_writer));
        // No self-conflict key overlap.
        let t_other = rwset_from_keys(&[k("k9")], Version::GENESIS, &[k("k8")], &v("2"));
        assert!(!t_writer.writes_conflict_with_reads_of(&t_other));
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut b = RwSetBuilder::new();
        b.record_read(k("bal:A"), Some(Version::new(3, 7)));
        b.record_read(k("missing"), None);
        b.record_write(k("bal:A"), Some(v("70")));
        b.record_write(k("dead"), None);
        let rw = b.build();
        let bytes = rw.encode_to_vec();
        let back = ReadWriteSet::decode_exact(&bytes).unwrap();
        assert_eq!(rw, back);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(ReadWriteSet::decode_exact(&[0xff; 3]).is_err());
        // Valid-looking header but truncated body.
        let mut enc = Encoder::new();
        enc.put_u32(1).put_bytes(b"key");
        assert!(ReadWriteSet::decode_exact(enc.as_slice()).is_err());
    }

    #[test]
    fn canonical_encoding_is_deterministic() {
        // Same logical content recorded in different orders encodes equally.
        let mut b1 = RwSetBuilder::new();
        b1.record_read(k("a"), Some(Version::new(1, 0)));
        b1.record_read(k("b"), Some(Version::new(1, 1)));
        let mut b2 = RwSetBuilder::new();
        b2.record_read(k("b"), Some(Version::new(1, 1)));
        b2.record_read(k("a"), Some(Version::new(1, 0)));
        assert_eq!(b1.build().encode_to_vec(), b2.build().encode_to_vec());
    }

    #[test]
    fn byte_size_is_plausible() {
        let rw = rwset_from_keys(&[k("abc")], Version::GENESIS, &[k("de")], &v("xyz"));
        assert!(rw.byte_size() >= 3 + 2 + 3);
    }
}
