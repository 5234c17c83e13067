//! Property-based tests over the substrate: canonical codec, read/write
//! sets, SHA-256 streaming, bitsets, and HMAC signatures.

use std::collections::BTreeSet;

use fabric_common::codec::{Decode, Decoder, Encode, Encoder};
use fabric_common::hash::{sha256, Sha256};
use fabric_common::rwset::{ReadWriteSet, RwSetBuilder, WriteSet};
use fabric_common::{BitSet, Key, SigningKey, Value, Version};
use proptest::prelude::*;

proptest! {
    /// Arbitrary scalar sequences survive an encode/decode round trip.
    #[test]
    fn codec_scalars_round_trip(items in proptest::collection::vec(
        prop_oneof![
            any::<u8>().prop_map(|v| (0u8, v as u64)),
            any::<u32>().prop_map(|v| (1u8, v as u64)),
            any::<u64>().prop_map(|v| (2u8, v)),
        ],
        0..50,
    )) {
        let mut enc = Encoder::new();
        for (tag, v) in &items {
            match tag {
                0 => { enc.put_u8(*v as u8); }
                1 => { enc.put_u32(*v as u32); }
                _ => { enc.put_u64(*v); }
            }
        }
        let buf = enc.into_bytes();
        let mut dec = Decoder::new(&buf);
        for (tag, v) in &items {
            let got = match tag {
                0 => dec.get_u8().unwrap() as u64,
                1 => dec.get_u32().unwrap() as u64,
                _ => dec.get_u64().unwrap(),
            };
            prop_assert_eq!(got, *v);
        }
        prop_assert!(dec.finish().is_ok());
    }

    /// Byte strings of arbitrary content and length round trip.
    #[test]
    fn codec_bytes_round_trip(chunks in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..200),
        0..20,
    )) {
        let mut enc = Encoder::new();
        for c in &chunks {
            enc.put_bytes(c);
        }
        let buf = enc.into_bytes();
        let mut dec = Decoder::new(&buf);
        for c in &chunks {
            prop_assert_eq!(dec.get_bytes().unwrap(), c.as_slice());
        }
        prop_assert!(dec.finish().is_ok());
    }

    /// Truncating an encoding at any point never panics, only errors
    /// (or legitimately decodes a prefix).
    #[test]
    fn codec_truncation_never_panics(
        payload in proptest::collection::vec(any::<u8>(), 0..100),
        cut in 0usize..100,
    ) {
        let mut enc = Encoder::new();
        enc.put_bytes(&payload).put_u64(42);
        let buf = enc.into_bytes();
        let cut = cut.min(buf.len());
        let mut dec = Decoder::new(&buf[..cut]);
        let _ = dec.get_bytes().and_then(|_| dec.get_u64());
    }

    /// The rwset builder produces sorted, deduplicated sets whose encoding
    /// round trips, for any interleaving of reads and writes.
    #[test]
    fn rwset_builder_invariants(ops in proptest::collection::vec(
        (any::<bool>(), 0u64..20, proptest::option::of(0u64..1000)),
        0..60,
    )) {
        let mut b = RwSetBuilder::new();
        for (is_read, key_id, payload) in &ops {
            let key = Key::composite("k", *key_id);
            if *is_read {
                b.record_read(key, payload.map(|p| Version::new(p, 0)));
            } else {
                b.record_write(key, payload.map(|p| Value::from_i64(p as i64)));
            }
        }
        let rw = b.build();

        // Sorted + unique keys on both sides.
        for entries in [
            rw.reads.keys().cloned().collect::<Vec<_>>(),
            rw.writes.keys().cloned().collect::<Vec<_>>(),
        ] {
            let mut sorted = entries.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(&entries, &sorted, "sorted and deduplicated");
        }

        // unique_keys equals the true union size.
        let union: BTreeSet<&Key> = rw.reads.keys().chain(rw.writes.keys()).collect();
        prop_assert_eq!(rw.unique_keys(), union.len());

        // Canonical encoding round trips.
        let bytes = rw.encode_to_vec();
        prop_assert_eq!(ReadWriteSet::decode_exact(&bytes).unwrap(), rw);
    }

    /// The one-sort bulk write set encodes byte-for-byte like the same
    /// writes recorded one by one, duplicate keys (last write wins) and
    /// deletes included.
    #[test]
    fn bulk_write_set_matches_repeated_record_write(writes in proptest::collection::vec(
        (0u64..16, proptest::option::of(0i64..1000)),
        0..80,
    )) {
        let pairs: Vec<(Key, Option<Value>)> = writes
            .iter()
            .map(|(key_id, v)| (Key::composite("k", *key_id), v.map(Value::from_i64)))
            .collect();
        let mut b = RwSetBuilder::new();
        for (key, value) in &pairs {
            b.record_write(key.clone(), value.clone());
        }
        let bulk = ReadWriteSet { reads: Default::default(), writes: WriteSet::from_writes(pairs) };
        prop_assert_eq!(bulk.encode_to_vec(), b.build().encode_to_vec());
    }

    /// Streaming SHA-256 equals one-shot for any chunking of any message.
    #[test]
    fn sha256_streaming_equals_oneshot(
        msg in proptest::collection::vec(any::<u8>(), 0..2048),
        splits in proptest::collection::vec(1usize..128, 1..8),
    ) {
        let expect = sha256(&msg);
        let mut h = Sha256::new();
        let mut rest = msg.as_slice();
        let mut i = 0;
        while !rest.is_empty() {
            let n = splits[i % splits.len()].min(rest.len());
            let (a, b) = rest.split_at(n);
            h.update(a);
            rest = b;
            i += 1;
        }
        prop_assert_eq!(h.finalize(), expect);
    }

    /// Bitset intersection agrees with the brute-force definition.
    #[test]
    fn bitset_intersects_matches_bruteforce(
        a in proptest::collection::btree_set(0usize..256, 0..40),
        b in proptest::collection::btree_set(0usize..256, 0..40),
    ) {
        let mut ba = BitSet::new(256);
        for &i in &a {
            ba.set(i);
        }
        let mut bb = BitSet::new(256);
        for &i in &b {
            bb.set(i);
        }
        prop_assert_eq!(ba.intersects(&bb), !a.is_disjoint(&b));
        prop_assert_eq!(ba.count_ones(), a.len());
        prop_assert_eq!(ba.iter_ones().collect::<Vec<_>>(), a.into_iter().collect::<Vec<_>>());
    }

    /// Signatures verify for the signing key and fail for any other key or
    /// any modified message.
    #[test]
    fn signatures_bind_key_and_message(
        seed_a in proptest::collection::vec(any::<u8>(), 1..64),
        seed_b in proptest::collection::vec(any::<u8>(), 1..64),
        msg in proptest::collection::vec(any::<u8>(), 0..256),
        flip in 0usize..256,
    ) {
        let ka = SigningKey::from_seed(&seed_a);
        let sig = ka.sign(&msg);
        prop_assert!(ka.verify(&msg, &sig));
        if seed_a != seed_b {
            let kb = SigningKey::from_seed(&seed_b);
            prop_assert!(!kb.verify(&msg, &sig));
        }
        if !msg.is_empty() {
            let mut tampered = msg.clone();
            let idx = flip % tampered.len();
            tampered[idx] ^= 0x01;
            prop_assert!(!ka.verify(&tampered, &sig));
        }
    }

    /// Version ordering is exactly lexicographic on (block, tx).
    #[test]
    fn version_ordering_lexicographic(
        a in (any::<u32>(), any::<u16>()),
        b in (any::<u32>(), any::<u16>()),
    ) {
        let va = Version::new(a.0 as u64, a.1 as u32);
        let vb = Version::new(b.0 as u64, b.1 as u32);
        prop_assert_eq!(va.cmp(&vb), (a.0, a.1).cmp(&(b.0, b.1)));
    }
}
