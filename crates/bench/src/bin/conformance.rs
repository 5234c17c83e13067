//! **Conformance** — the multi-replica determinism gate.
//!
//! Runs every conformance fixture across its non-semantic knob matrix
//! (validation workers 1/2/4, trace sink on/off, memory vs LSM state
//! engine, telemetry) and requires every replica's
//! artifacts — serialized block stream, state digest, chain fingerprint,
//! fault-schedule digest, outcome counters — to match the baseline
//! **byte for byte**. Then proves the harness
//! itself has teeth: each known nondeterminism-bug class is injected
//! into collected artifacts and must be caught with the right artifact,
//! localization, and root-cause hint.
//!
//! `--smoke` (used by CI) records each gate into `$SMOKE_SUMMARY`; the
//! run fails loudly (exit 1) on any divergence, any harness error, or a
//! run that replicated zero artifact bytes.

use fabric_conformance::{
    corruption_is_caught, run_fixture, Corruption, Fixture, RootCauseHint, BLOCK_STREAM,
    CHAIN_FINGERPRINT,
};

fn record(gate: &str, passed: bool, detail: &str) -> bool {
    fabric_bench::smoke::record("conformance", gate, passed, detail);
    let tag = if passed { "PASS" } else { "FAIL" };
    println!("{tag} {gate}: {detail}");
    passed
}

fn main() {
    // The gate set is identical with and without --smoke; the flag only
    // signals CI context (gate records land in $SMOKE_SUMMARY when set).
    let _smoke = std::env::args().any(|a| a == "--smoke");
    let mut all_ok = true;
    let mut total_bytes = 0usize;

    for fixture in Fixture::all() {
        let gate = format!("matrix-{}", fixture.name);
        match run_fixture(&fixture) {
            Ok(report) => {
                let bytes = report.total_artifact_bytes();
                total_bytes += bytes;
                let passed = report.passed() && bytes > 0;
                let detail = match &report.divergence {
                    Some(d) => format!("{d}"),
                    None => format!(
                        "{} replicas byte-identical, {} artifact bytes compared",
                        report.replicas.len(),
                        bytes
                    ),
                };
                all_ok &= record(&gate, passed, &detail);
            }
            Err(e) => {
                all_ok &= record(&gate, false, &format!("harness error: {e}"));
            }
        }
    }

    all_ok &= record(
        "nonzero-artifacts",
        total_bytes > 0,
        &format!("{total_bytes} artifact bytes replicated across the fixture matrix"),
    );

    // Divergence-localization self-test: every injected bug class must be
    // caught, in the right artifact, with the right hint.
    let expectations: [(&str, Corruption, &str, RootCauseHint); 3] = [
        (
            "selftest-shuffle",
            Corruption::ShuffleTxOrder,
            BLOCK_STREAM,
            RootCauseHint::HashMapIterationOrder,
        ),
        (
            "selftest-timestamp",
            Corruption::TimestampLeak(1_722_000_000_000_000),
            CHAIN_FINGERPRINT,
            RootCauseHint::TimestampLeakage,
        ),
        (
            "selftest-truncate",
            Corruption::TruncateTail(9),
            BLOCK_STREAM,
            RootCauseHint::LengthMismatch,
        ),
    ];
    let fixture = Fixture::small();
    for (gate, corruption, want_artifact, want_hint) in &expectations {
        let (passed, detail) = match corruption_is_caught(&fixture, corruption) {
            Ok(Some(d)) if d.artifact == *want_artifact && d.hint == *want_hint => {
                (true, format!("caught: {d}"))
            }
            Ok(Some(d)) => (false, format!("caught but misattributed: {d}")),
            Ok(None) => (false, "injected nondeterminism escaped detection".to_owned()),
            Err(e) => (false, format!("self-test error: {e}")),
        };
        all_ok &= record(gate, passed, &detail);
    }

    if !all_ok {
        eprintln!("conformance: FAILED (see gates above)");
        std::process::exit(1);
    }
    println!("conformance: all gates passed");
}
