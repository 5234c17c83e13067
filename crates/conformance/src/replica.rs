//! One conformance replica: a full [`ChaosNet`] pipeline run under one
//! setting of the non-semantic knobs, reduced to its replicated
//! [`ReplicaArtifacts`].

use std::path::PathBuf;

use fabric_chaos::{ChaosNet, ChaosOptions};
use fabric_common::codec::{Encode, Encoder};
use fabric_common::{Error, Result};
use fabric_telemetry::TelemetryConfig;
use fabric_trace::{EventKind, TraceSink};
use fabricpp::StateEngine;

use crate::artifacts::{
    Artifact, ReplicaArtifacts, BLOCK_STREAM, CHAIN_FINGERPRINT, SCHEDULE_DIGEST, STATE_DIGEST,
    TX_STATS,
};
use crate::fixtures::Fixture;
use crate::oracle;

/// Which storage engine backs the replica's peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The sharded in-memory store.
    Memory,
    /// The LSM engine, in a per-replica temporary directory the runner
    /// creates and removes.
    Lsm,
}

/// One point in the non-semantic knob matrix.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    /// Stable label (used in divergence reports and gate names).
    pub label: &'static str,
    /// Validation-pool workers (`PipelineConfig::validation_workers`).
    pub validation_workers: usize,
    /// Whether a flight-recorder sink is attached.
    pub traced: bool,
    /// Storage engine.
    pub engine: EngineKind,
    /// `Some(n)`: replicated consensus group of `n`; `None`: single
    /// orderer.
    pub consensus_replicas: Option<usize>,
    /// `Some(n)`: every peer store retains up to `n` committed versions
    /// per key (multi-version snapshot depth); `None`: engine default.
    /// Retention is non-semantic, so any two settings must replicate.
    pub retained_versions: Option<usize>,
    /// Whether the windowed time-series telemetry hub is attached.
    /// Telemetry is observation only, so a telemetry-on cell must
    /// replicate the baseline byte-for-byte — this is the proof obligation
    /// for the "always-on" claim.
    pub telemetry: bool,
}

impl ReplicaSpec {
    /// The comparison baseline: sequential everything, memory engine,
    /// untraced, single orderer.
    pub fn baseline() -> Self {
        ReplicaSpec {
            label: "baseline",
            validation_workers: 1,
            traced: false,
            engine: EngineKind::Memory,
            consensus_replicas: None,
            retained_versions: None,
            telemetry: false,
        }
    }

    /// Baseline with the validation-pool worker count raised.
    pub fn workers(label: &'static str, validation: usize) -> Self {
        ReplicaSpec { label, validation_workers: validation, ..Self::baseline() }
    }

    /// Baseline with the flight recorder on.
    pub fn traced() -> Self {
        ReplicaSpec { label: "traced", traced: true, ..Self::baseline() }
    }

    /// Baseline on the LSM engine.
    pub fn lsm() -> Self {
        ReplicaSpec { label: "lsm", engine: EngineKind::Lsm, ..Self::baseline() }
    }

    /// Baseline with an `n`-replica consensus group ordering.
    pub fn consensus(n: usize) -> Self {
        ReplicaSpec { label: "consensus3", consensus_replicas: Some(n), ..Self::baseline() }
    }

    /// Baseline with a fixed per-key version-retention depth.
    pub fn retained(label: &'static str, n: usize) -> Self {
        ReplicaSpec { label, retained_versions: Some(n), ..Self::baseline() }
    }

    /// Baseline with the windowed telemetry hub attached: proves telemetry
    /// is observation only (byte-identical artifacts to the baseline).
    pub fn telemetry() -> Self {
        ReplicaSpec { label: "telemetry", telemetry: true, ..Self::baseline() }
    }
}

fn lsm_dir(fixture: &Fixture, spec: &ReplicaSpec) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fabric-conformance-{}-{}-{}",
        fixture.name,
        spec.label,
        std::process::id()
    ))
}

/// Runs `fixture` once under `spec` and collects the replicated
/// artifacts. Also enforces per-replica sanity gates: the invariant sweep
/// must pass, the committed blocks must satisfy the serializability
/// [`oracle`], and on traced replicas the flight recorder's
/// commit events must reconcile with the outcome counters.
pub fn run_replica(fixture: &Fixture, spec: &ReplicaSpec) -> Result<ReplicaArtifacts> {
    let mut config = fixture.config();
    config.validation_workers = spec.validation_workers;

    let sink = if spec.traced { TraceSink::bounded(1 << 16) } else { TraceSink::disabled() };
    let tmp = match spec.engine {
        EngineKind::Memory => None,
        EngineKind::Lsm => {
            let dir = lsm_dir(fixture, spec);
            let _ = std::fs::remove_dir_all(&dir);
            Some(dir)
        }
    };
    let engine = match &tmp {
        None => StateEngine::Memory,
        Some(dir) => StateEngine::Lsm(dir.clone()),
    };
    let opts = ChaosOptions {
        replicas: spec.consensus_replicas,
        sink: sink.clone(),
        engine,
        retained_versions: spec.retained_versions,
        telemetry: spec
            .telemetry
            .then(|| TelemetryConfig { window_blocks: 2, ..TelemetryConfig::default() }),
        block_dir: None,
    };

    let result = run_inner(fixture, spec, &config, opts, &sink);
    if let Some(dir) = tmp {
        let _ = std::fs::remove_dir_all(&dir);
    }
    result
}

fn run_inner(
    fixture: &Fixture,
    spec: &ReplicaSpec,
    config: &fabric_common::PipelineConfig,
    opts: ChaosOptions,
    sink: &TraceSink,
) -> Result<ReplicaArtifacts> {
    let mut net = ChaosNet::with_options(
        config,
        fixture.orgs,
        fixture.peers_per_org,
        fixture.chaincodes(),
        &fixture.genesis(),
        fixture.plan(),
        opts,
    )?;
    fixture.drive(&mut net)?;
    let report = net.check()?;
    if !report.ok() {
        return Err(Error::InvalidState(format!(
            "fixture {} replica {}: invariant violations: {:?}",
            fixture.name, spec.label, report.violations
        )));
    }

    let stats = net.stats();
    if spec.telemetry {
        // Per-replica sanity gate: the hub's windows must partition the
        // run exactly (counts telescope to the final totals, watermarks
        // monotone, no dropped windows).
        let series = net.telemetry_series().ok_or_else(|| {
            Error::InvalidState(format!(
                "fixture {} replica {}: telemetry enabled but no series came back",
                fixture.name, spec.label
            ))
        })?;
        series.check_invariants(&stats).map_err(|e| {
            Error::InvalidState(format!(
                "fixture {} replica {}: telemetry window invariants violated: {e}",
                fixture.name, spec.label
            ))
        })?;
    }
    if spec.traced {
        if sink.dropped() != 0 {
            return Err(Error::InvalidState(format!(
                "fixture {} replica {}: trace ring dropped {} events; raise the capacity",
                fixture.name,
                spec.label,
                sink.dropped()
            )));
        }
        let committed = sink
            .report()
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TxCommitted { .. }))
            .count() as u64;
        if committed != stats.valid {
            return Err(Error::InvalidState(format!(
                "fixture {} replica {}: trace-derived commit count {} != counter {}",
                fixture.name, spec.label, committed, stats.valid
            )));
        }
    }

    // All artifacts come off the reporting peer (slot 0), which the
    // settle() above has caught fully up.
    let peer = &net.peers()[0];

    let mut stream = Vec::new();
    let mut offsets = Vec::new();
    let mut blocks = Vec::new();
    peer.ledger().for_each(|cb| blocks.push(cb.clone()));
    oracle::check_blocks(&blocks).map_err(|v| {
        Error::InvalidState(format!(
            "fixture {} replica {}: serializability oracle: {v}",
            fixture.name, spec.label
        ))
    })?;
    for cb in &blocks {
        offsets.push((cb.block.header.number, stream.len()));
        stream.extend_from_slice(&cb.encode_to_vec());
    }

    let state_digest = peer.store().state_digest()?;

    let mut fp = Encoder::with_capacity(48);
    fp.put_u64(peer.ledger().height());
    fp.put_bytes(peer.ledger().tip_hash().as_bytes());

    let mut st = Encoder::with_capacity(56);
    for (_, count) in stats.fields() {
        st.put_u64(count);
    }

    Ok(ReplicaArtifacts {
        label: spec.label.to_owned(),
        validation_workers: spec.validation_workers,
        artifacts: vec![
            Artifact { name: BLOCK_STREAM, bytes: stream, block_offsets: offsets },
            Artifact::flat(STATE_DIGEST, state_digest.as_bytes().to_vec()),
            Artifact::flat(CHAIN_FINGERPRINT, fp.into_bytes()),
            Artifact::flat(
                SCHEDULE_DIGEST,
                net.injector().schedule_digest().as_bytes().to_vec(),
            ),
            Artifact::flat(TX_STATS, st.into_bytes()),
        ],
    })
}
