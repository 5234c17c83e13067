//! The determinism conformance matrix: every fixture must produce
//! byte-identical artifacts across the whole non-semantic knob matrix,
//! and the harness must catch each injected nondeterminism-bug class
//! with correct localization and root-cause hint.

use fabric_conformance::{
    compare_artifacts, corruption_is_caught, run_fixture, run_replica, Corruption, Fixture,
    ReplicaSpec, RootCauseHint, BLOCK_STREAM, CHAIN_FINGERPRINT,
};

#[test]
fn all_fixtures_are_byte_identical_across_the_knob_matrix() {
    for fixture in Fixture::all() {
        let report = run_fixture(&fixture).unwrap();
        assert!(
            report.passed(),
            "fixture {}: {}",
            fixture.name,
            report.divergence.as_ref().unwrap()
        );
        assert!(
            report.total_artifact_bytes() > 0,
            "fixture {} replicated zero artifact bytes — the harness compared nothing",
            fixture.name
        );
        // Every replica in the matrix actually ran and produced the full
        // artifact set.
        assert_eq!(report.replicas.len(), fixture.specs().len());
        for r in &report.replicas {
            assert_eq!(r.artifacts.len(), 5, "replica {} artifact set", r.label);
        }
    }
}

#[test]
fn independent_baseline_runs_are_byte_identical() {
    let fixture = Fixture::medium();
    let a = run_replica(&fixture, &ReplicaSpec::baseline()).unwrap();
    let b = run_replica(&fixture, &ReplicaSpec::baseline()).unwrap();
    assert!(compare_artifacts(&a, &b).is_none(), "{}", compare_artifacts(&a, &b).unwrap());
}

#[test]
fn injected_tx_shuffle_is_caught_with_offset_and_hashmap_hint() {
    let fixture = Fixture::small();
    let d = corruption_is_caught(&fixture, &Corruption::ShuffleTxOrder)
        .unwrap()
        .expect("shuffled transaction order must not escape detection");
    assert_eq!(d.artifact, BLOCK_STREAM);
    assert_eq!(d.hint, RootCauseHint::HashMapIterationOrder, "divergence: {d}");
    let block = d.block_number.expect("divergence must be localized to a block");
    assert!(block > 0, "genesis has one tx and cannot be the shuffled block");

    // Independently verify the reported offset: re-run the two sides the
    // same way the self-test does and scan the raw bytes.
    let spec = ReplicaSpec::baseline();
    let a = run_replica(&fixture, &spec).unwrap();
    let mut b = run_replica(&fixture, &spec).unwrap();
    fabric_conformance::corrupt::apply(&mut b, &Corruption::ShuffleTxOrder).unwrap();
    let bytes_a = &a.artifact(BLOCK_STREAM).unwrap().bytes;
    let bytes_b = &b.artifact(BLOCK_STREAM).unwrap().bytes;
    let expected = bytes_a
        .iter()
        .zip(bytes_b.iter())
        .position(|(x, y)| x != y)
        .expect("corruption must change some byte");
    assert_eq!(d.byte_offset, expected, "reported offset must match a raw byte scan");
    // And the 16-byte hex context windows reflect the actual bytes.
    let end = (expected + 16).min(bytes_a.len());
    let hex: String = bytes_a[expected..end].iter().map(|x| format!("{x:02x}")).collect();
    assert_eq!(d.context_a, hex);
}

#[test]
fn injected_timestamp_leak_is_caught_with_timestamp_hint() {
    let fixture = Fixture::small();
    // Microseconds-since-epoch scale, well above the time-like floor.
    let d = corruption_is_caught(&fixture, &Corruption::TimestampLeak(1_722_000_000_000_000))
        .unwrap()
        .expect("timestamp leak must not escape detection");
    assert_eq!(d.artifact, CHAIN_FINGERPRINT);
    assert_eq!(d.hint, RootCauseHint::TimestampLeakage, "divergence: {d}");
    assert!(d.byte_offset >= 16 && d.byte_offset < 24, "leak was planted at bytes 16..24");
}

#[test]
fn injected_truncation_is_caught_with_length_hint() {
    let fixture = Fixture::small();
    let d = corruption_is_caught(&fixture, &Corruption::TruncateTail(9))
        .unwrap()
        .expect("truncated stream must not escape detection");
    assert_eq!(d.artifact, BLOCK_STREAM);
    assert_eq!(d.hint, RootCauseHint::LengthMismatch, "divergence: {d}");
    assert_eq!(d.len_a, d.len_b + 9);
    assert_eq!(d.byte_offset, d.len_b, "divergence sits at the end of the common prefix");
}

#[test]
fn oracle_catches_a_flipped_validation_code_and_names_the_tx() {
    use fabric_common::codec::{Decode, Decoder};
    use fabric_common::ValidationCode::{MvccConflict, Valid};
    use fabric_conformance::oracle;
    use fabric_ledger::CommittedBlock;

    // The chaos-faulted fixture commits both valid txs and MVCC aborts.
    // `run_replica` has already run the oracle on this replica; decode its
    // block stream and check that the untouched blocks pass here too.
    let replica = run_replica(&Fixture::chaos_faulted(), &ReplicaSpec::baseline()).unwrap();
    let bytes = &replica.artifact(BLOCK_STREAM).unwrap().bytes;
    let mut dec = Decoder::new(bytes);
    let mut blocks = Vec::new();
    while dec.remaining() > 0 {
        blocks.push(CommittedBlock::decode(&mut dec).unwrap());
    }
    oracle::check_blocks(&blocks).unwrap();

    // A committed tx marked as an MVCC abort has no stale read; an MVCC
    // abort marked valid has one. Either flip must name its block and tx.
    for (from, to) in [(Valid, MvccConflict), (MvccConflict, Valid)] {
        let (bi, pos) = blocks
            .iter()
            .enumerate()
            .skip(1)
            .find_map(|(bi, cb)| cb.validity.iter().position(|&c| c == from).map(|p| (bi, p)))
            .unwrap_or_else(|| panic!("fixture must commit a {from:?} tx after genesis"));
        let mut tampered = blocks.clone();
        tampered[bi].validity[pos] = to;
        let v = oracle::check_blocks(&tampered).expect_err("a flipped code must not pass");
        assert_eq!(v.block, blocks[bi].block.header.number, "{v}");
        assert_eq!(v.position as usize, pos, "{v}");
        assert_eq!(v.tx, blocks[bi].block.txs[pos].id, "{v}");
    }
}

/// Golden digests: SHA-256 of each of the `baseline` replica's five
/// artifacts (block stream, state digest, chain fingerprint, schedule
/// digest, tx stats), per fixture in `Fixture::all()` order. The matrix
/// test above only compares replicas of one build against each other;
/// this pins the bytes across commits, so a refactor that claims an
/// unchanged conformance matrix has to reproduce them. A change that
/// alters replicated bytes on purpose re-records them and says why.
const GOLDEN: [(&str, [&str; 5]); 4] = [
    (
        "small",
        [
            "8de3998dfd6664125f07d4e94818cc2ae2134c561007b98607686d2df2b2aaf6",
            "1c6edd13dc307f3ac8c4e8eeddb81cf1a1ed1b88aadf21a829f665ab3ba398c2",
            "7bb6de4091767d01acfaca1929d372f04128b214e34d87652e4812bbefc9b2c9",
            "5df6e0e2761359d30a8275058e299fcc0381534545f55cf43e41983f5d4c9456",
            "5e98a7317ff55a33dc252e3943b617d257cc54b7c894a3b473258f60350e4421",
        ],
    ),
    (
        "medium",
        [
            "e25c8a530604e3646a1d5a9096f7d9230cf7fb74e1191946f959ec6c78d40f06",
            "0ca4f8585bc2011ccf72e886568e6e9a0706884c2e9022ddba0c15ca42407942",
            "f39689699a197e39ca282742f232d35fed65ea7863befc91e2e76e95a80d72bc",
            "5df6e0e2761359d30a8275058e299fcc0381534545f55cf43e41983f5d4c9456",
            "711c3fd750dbf973a11f99616338c9f64de63efc2a31bb524597057f206e242f",
        ],
    ),
    (
        "adversarial-conflict",
        [
            "58e2de4456e38091559fbb91fdea4263b4975fd4c04753fb21fbdfecd3de2e01",
            "021581b2d536e2bd929631f57dbd8fc488fe1776611902b5cad102eae041b514",
            "ad30e9745ee04a89128d48125d5d23923a222dcccac7b871c985ac14de12b590",
            "5df6e0e2761359d30a8275058e299fcc0381534545f55cf43e41983f5d4c9456",
            "23ef6956e85bb414396727f7b5e24e4691a6754f7b803172a9be676dfe356471",
        ],
    ),
    (
        "chaos-faulted",
        [
            "77d0eccd0460f3a074b8de6d49c9592976fe75f0dec8c1916f3448660d2f1bae",
            "8db5ab7b60b3fec24addb73b8b9cd4495266c8e39b32f808e9633f91007d2ee8",
            "d24cd1be854a1a263e7f536b006dc2811c15a94b26a00cbec552a99a02c48862",
            "0297d3fa6ef104059e3e468eff18ca771dd573ba1d97aad93b9926e4f570641b",
            "eef26977ce3369474a4a3fb7242512c03c9f27a72f9ccf688fa9d1fd21783785",
        ],
    ),
];

#[test]
fn baseline_artifacts_match_golden_digests() {
    let fixtures = Fixture::all();
    assert_eq!(fixtures.len(), GOLDEN.len());
    for (fixture, (name, want)) in fixtures.iter().zip(GOLDEN) {
        assert_eq!(fixture.name, name);
        let got = run_replica(fixture, &ReplicaSpec::baseline()).unwrap();
        assert_eq!(got.artifacts.len(), want.len());
        for (artifact, want_hex) in got.artifacts.iter().zip(want) {
            assert_eq!(
                fabric_common::hash::sha256(&artifact.bytes).to_hex(),
                want_hex,
                "fixture {name}: artifact {} ({} bytes) changed",
                artifact.name,
                artifact.bytes.len()
            );
        }
    }
}
