//! Identifier and vocabulary types shared across the Fabric++ pipeline.
//!
//! Fabric attaches a *version number* to every value in the current state,
//! "composed of the ID of the transaction, that performed the update, as well
//! as the ID of the block that contains the transaction" (paper §5.2.1).
//! [`Version`] models exactly that pair; its ordering is the block-major,
//! tx-minor order in which updates become visible, which is what both the
//! validation-phase conflict check and the Fabric++ early-abort check compare.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;

/// Block sequence number within a channel's ledger. Block `0` is the genesis
/// block holding the initial state, matching Fabric's numbering.
pub type BlockNum = u64;

/// Position of a transaction inside its block.
pub type TxNum = u32;

macro_rules! u64_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// Returns the raw numeric id.
            #[inline]
            pub fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self(v)
            }
        }
    };
}

u64_id!(
    /// Globally unique transaction identifier. In real Fabric this is a hash
    /// of the proposal; in the simulator it is drawn from a process-wide
    /// monotonic counter (see [`TxId::next`]) so ids stay unique across
    /// channels and clients while remaining cheap to compare.
    TxId,
    "tx-"
);
u64_id!(
    /// Identifier of a peer node.
    PeerId,
    "peer-"
);
u64_id!(
    /// Identifier of an organization. Peers belong to exactly one org; the
    /// default endorsement policy requires one endorsement per involved org.
    OrgId,
    "org-"
);
u64_id!(
    /// Identifier of a client application firing transaction proposals.
    ClientId,
    "client-"
);
u64_id!(
    /// Identifier of a channel. Each channel has its own ordering service
    /// instance, ledger, and state (paper §6.6 scales the channel count).
    ChannelId,
    "channel-"
);

static NEXT_TX_ID: AtomicU64 = AtomicU64::new(1);

impl TxId {
    /// Draws the next process-wide unique transaction id.
    pub fn next() -> Self {
        TxId(NEXT_TX_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// A key in the current state (Fabric: a chaincode namespace key).
///
/// Keys are immutable byte strings; cloning is cheap ([`Bytes`] holds up to
/// 22 bytes inline and shares longer strings behind a reference count).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(Bytes);

impl Key {
    /// Creates a key from anything byte-like.
    pub fn new(bytes: impl Into<Bytes>) -> Self {
        Key(bytes.into())
    }

    /// Copies `bytes` into a new key without an intermediate `Vec`: inline
    /// when it fits, else one shared allocation.
    pub fn from_slice(bytes: &[u8]) -> Self {
        Key(Bytes::copy_from_slice(bytes))
    }

    /// Builds the conventional `"<table>:<id>"` composite key used by the
    /// bundled workloads (e.g. `checking:42`).
    pub fn composite(table: &str, id: u64) -> Self {
        let mut s = String::with_capacity(table.len() + 21);
        s.push_str(table);
        s.push(':');
        s.push_str(itoa_u64(id).as_str());
        Key(Bytes::from(s))
    }

    /// The raw bytes of the key.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length of the key in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the key is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(&self.0) {
            Ok(s) => write!(f, "Key({s:?})"),
            Err(_) => write!(f, "Key(0x{})", hex(&self.0)),
        }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(&self.0) {
            Ok(s) => f.write_str(s),
            Err(_) => write!(f, "0x{}", hex(&self.0)),
        }
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl From<String> for Key {
    fn from(s: String) -> Self {
        Key(Bytes::from(s))
    }
}

impl From<Vec<u8>> for Key {
    fn from(v: Vec<u8>) -> Self {
        Key(Bytes::from(v))
    }
}

/// A value in the current state. Like [`Key`], an immutable byte string
/// with cheap clones.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Value(Bytes);

impl Value {
    /// Creates a value from anything byte-like.
    pub fn new(bytes: impl Into<Bytes>) -> Self {
        Value(bytes.into())
    }

    /// Copies `bytes` into a new value, like [`Key::from_slice`].
    pub fn from_slice(bytes: &[u8]) -> Self {
        Value(Bytes::copy_from_slice(bytes))
    }

    /// Encodes a signed 64-bit integer value (used by the account-balance
    /// workloads).
    pub fn from_i64(v: i64) -> Self {
        Value(Bytes::copy_from_slice(&v.to_le_bytes()))
    }

    /// Decodes a value previously produced by [`Value::from_i64`].
    ///
    /// Returns `None` if the payload is not exactly 8 bytes.
    pub fn as_i64(&self) -> Option<i64> {
        let arr: [u8; 8] = self.0.as_ref().try_into().ok()?;
        Some(i64::from_le_bytes(arr))
    }

    /// The raw bytes of the value.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length of the value in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the value is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(i) = self.as_i64() {
            write!(f, "Value(i64:{i})")
        } else {
            match std::str::from_utf8(&self.0) {
                Ok(s) => write!(f, "Value({s:?})"),
                Err(_) => write!(f, "Value(0x{})", hex(&self.0)),
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value(Bytes::from(v))
    }
}

/// Fabric-style version number attached to every committed value:
/// the block that committed the writing transaction plus the transaction's
/// position inside that block.
///
/// The ordering is block-major: a version from a later block is newer than
/// any version from an earlier block; within a block the transaction number
/// decides. This is exactly the comparison the validation phase performs and
/// the one the Fabric++ simulation-phase early abort exploits
/// (`version.block > snapshot.last_block_num ⇒ stale read`, paper Figure 6).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct Version {
    /// Block that committed the write.
    pub block: BlockNum,
    /// Position of the writing transaction within that block.
    pub tx: TxNum,
}

impl Version {
    /// Creates a version.
    pub const fn new(block: BlockNum, tx: TxNum) -> Self {
        Version { block, tx }
    }

    /// The version carried by values written at genesis (initial state).
    pub const GENESIS: Version = Version { block: 0, tx: 0 };
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}.{}", self.block, self.tx)
    }
}

/// Lower-cased hex encoding of a byte slice (no allocation tricks; used only
/// on debug paths).
pub(crate) fn hex(bytes: &[u8]) -> String {
    const TABLE: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(TABLE[(b >> 4) as usize] as char);
        out.push(TABLE[(b & 0xf) as usize] as char);
    }
    out
}

/// Integer-to-decimal-string without pulling in the `itoa` crate.
fn itoa_u64(mut v: u64) -> String {
    if v == 0 {
        return "0".to_owned();
    }
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v > 0 {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    // Digits are ASCII by construction.
    std::str::from_utf8(&buf[i..]).expect("ascii digits").to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn tx_ids_are_unique_and_monotonic() {
        let a = TxId::next();
        let b = TxId::next();
        assert!(b.raw() > a.raw());
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(TxId::next()));
        }
    }

    #[test]
    fn tx_ids_unique_across_threads() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| (0..1000).map(|_| TxId::next()).collect::<Vec<_>>()))
            .collect();
        let mut all = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(all.insert(id), "duplicate TxId across threads");
            }
        }
    }

    #[test]
    fn version_ordering_is_block_major() {
        let v10 = Version::new(1, 0);
        let v15 = Version::new(1, 5);
        let v20 = Version::new(2, 0);
        assert!(v10 < v15);
        assert!(v15 < v20);
        assert!(Version::GENESIS < v10);
        assert_eq!(v10, Version::new(1, 0));
    }

    #[test]
    fn composite_keys_round_trip_display() {
        let k = Key::composite("checking", 42);
        assert_eq!(k.as_bytes(), b"checking:42");
        assert_eq!(k.to_string(), "checking:42");
        assert_eq!(Key::composite("savings", 0).as_bytes(), b"savings:0");
        let big = Key::composite("t", u64::MAX);
        assert_eq!(big.as_bytes(), format!("t:{}", u64::MAX).as_bytes());
    }

    #[test]
    fn value_i64_round_trip() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 123_456_789] {
            assert_eq!(Value::from_i64(v).as_i64(), Some(v));
        }
        assert_eq!(Value::new(vec![1, 2, 3]).as_i64(), None);
    }

    #[test]
    fn key_orders_lexicographically() {
        let a = Key::from("a");
        let b = Key::from("b");
        let ab = Key::from("ab");
        assert!(a < ab);
        assert!(ab < b);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TxId(7).to_string(), "tx-7");
        assert_eq!(PeerId(3).to_string(), "peer-3");
        assert_eq!(Version::new(4, 2).to_string(), "v4.2");
        assert_eq!(format!("{:?}", Key::from("abc")), "Key(\"abc\")");
    }

    #[test]
    fn hex_encodes() {
        assert_eq!(hex(&[0x00, 0xff, 0x1a]), "00ff1a");
        assert_eq!(hex(&[]), "");
    }
}
