//! Shared on-disk entry encoding for the WAL and SSTables.
//!
//! One entry is a key plus either a tombstone or a value, always carrying
//! the writing transaction's `(block, tx)` version — the state database must
//! serve `(value, version)` pairs, so versions are durable.

use fabric_common::codec::{Decode, Decoder, Encode, Encoder};
use fabric_common::{Error, Key, Result, Value, Version};

/// One durable state entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskEntry {
    /// The key.
    pub key: Key,
    /// The value, or `None` for a tombstone (delete marker).
    pub value: Option<Value>,
    /// Version of the writing transaction.
    pub version: Version,
}

const TAG_TOMBSTONE: u8 = 0;
const TAG_PUT: u8 = 1;

impl Encode for DiskEntry {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self.key.as_bytes());
        match &self.value {
            Some(v) => {
                enc.put_u8(TAG_PUT);
                enc.put_bytes(v.as_bytes());
            }
            None => {
                enc.put_u8(TAG_TOMBSTONE);
            }
        }
        enc.put_u64(self.version.block);
        enc.put_u32(self.version.tx);
    }
}

impl Decode for DiskEntry {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let key = Key::from_slice(dec.get_bytes()?);
        let value = match dec.get_u8()? {
            TAG_TOMBSTONE => None,
            TAG_PUT => Some(Value::from_slice(dec.get_bytes()?)),
            t => return Err(Error::Codec(format!("bad entry tag {t}"))),
        };
        let block = dec.get_u64()?;
        let tx = dec.get_u32()?;
        Ok(DiskEntry { key, value, version: Version::new(block, tx) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_put() {
        let e = DiskEntry {
            key: Key::from("acct:7"),
            value: Some(Value::from_i64(42)),
            version: Version::new(9, 3),
        };
        let bytes = e.encode_to_vec();
        assert_eq!(DiskEntry::decode_exact(&bytes).unwrap(), e);
    }

    #[test]
    fn round_trip_tombstone() {
        let e = DiskEntry { key: Key::from("dead"), value: None, version: Version::new(1, 0) };
        let bytes = e.encode_to_vec();
        let back = DiskEntry::decode_exact(&bytes).unwrap();
        assert_eq!(back.value, None);
        assert_eq!(back, e);
    }

    #[test]
    fn rejects_bad_tag() {
        let mut enc = Encoder::new();
        enc.put_bytes(b"k").put_u8(9).put_u64(0).put_u32(0);
        assert!(DiskEntry::decode_exact(enc.as_slice()).is_err());
    }

    #[test]
    fn multiple_entries_stream() {
        let entries: Vec<DiskEntry> = (0..10)
            .map(|i| DiskEntry {
                key: Key::composite("k", i),
                value: if i % 3 == 0 { None } else { Some(Value::from_i64(i as i64)) },
                version: Version::new(i, (i * 2) as u32),
            })
            .collect();
        let mut enc = Encoder::new();
        for e in &entries {
            e.encode(&mut enc);
        }
        let buf = enc.into_bytes();
        let mut dec = Decoder::new(&buf);
        for e in &entries {
            assert_eq!(&DiskEntry::decode(&mut dec).unwrap(), e);
        }
        assert!(dec.finish().is_ok());
    }
}
