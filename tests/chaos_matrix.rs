//! The chaos matrix: fault plans × pipeline modes over the deterministic
//! chaos harness, driven by the Smallbank workload.
//!
//! Each cell runs a seeded Smallbank stream through a `ChaosNet` under one
//! fault plan and then sweeps the invariants: live-peer convergence
//! (height, tip hash, state digest), per-peer hash-chain verification, and
//! no-committed-transaction-loss across crash/restart, and the reporting
//! peer's ledger must pass the serializability oracle. A final case
//! asserts the determinism contract itself — same seed, same plan ⇒
//! byte-identical fault schedules.

use fabric_chaos::{ChaosNet, ChaosOptions, FaultEvent, FaultPlan, InvariantReport};
use fabric_common::hash::Digest;
use fabric_common::{PipelineConfig, TxStats};
use fabric_workloads::smallbank::SmallbankChaincode;
use fabric_workloads::{SmallbankConfig, SmallbankWorkload, WorkloadGen};
use fabricpp_suite::telemetry::TelemetryConfig;
use fabricpp_suite::trace::TraceSink;

const ORGS: usize = 2;
const PEERS_PER_ORG: usize = 2;
const BLOCKS: u64 = 10;
const TXS_PER_BLOCK: u64 = 4;

struct CaseResult {
    report: InvariantReport,
    schedule: Digest,
    events: Vec<FaultEvent>,
    faults: u64,
    stats: TxStats,
    blocks_cut: u64,
}

/// Runs one matrix cell: a fresh network, a seeded Smallbank stream, and
/// the end-of-run invariant sweep. `persist` makes every peer's ledger a
/// block file under a fresh directory (required for torn-crash plans).
fn run_case(config: &PipelineConfig, plan: FaultPlan, persist: Option<&str>) -> CaseResult {
    run_case_traced(config, plan, persist, TraceSink::disabled())
}

fn run_case_traced(
    config: &PipelineConfig,
    plan: FaultPlan,
    persist: Option<&str>,
    sink: TraceSink,
) -> CaseResult {
    let mut wl = SmallbankWorkload::new(SmallbankConfig {
        users: 40,
        p_write: 0.9,
        s_value: 0.4,
        seed: 11,
    });
    let genesis = wl.genesis();
    let dir = persist.map(|tag| {
        std::env::temp_dir().join(format!("chaos-matrix-{tag}-{}", std::process::id()))
    });
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut net = ChaosNet::with_options(
        config,
        ORGS,
        PEERS_PER_ORG,
        vec![SmallbankChaincode::deployable()],
        &genesis,
        plan,
        ChaosOptions { sink, block_dir: dir.clone(), ..ChaosOptions::default() },
    )
    .unwrap();
    let mut client = 0u64;
    for _ in 0..BLOCKS {
        for _ in 0..TXS_PER_BLOCK {
            net.propose_and_submit(client, "smallbank", wl.next_args());
            client += 1;
        }
        net.cut_block().unwrap();
    }
    let report = net.check().unwrap();
    assert_oracle_green(&net);
    if let Some(dir) = &dir {
        std::fs::remove_dir_all(dir).unwrap();
    }
    CaseResult {
        report,
        schedule: net.injector().schedule_digest(),
        events: net.injector().events(),
        faults: net.injector().fault_count(),
        stats: net.stats(),
        blocks_cut: net.blocks_cut(),
    }
}

/// The reporting peer's committed history replays cleanly against the
/// serializability oracle.
fn assert_oracle_green(net: &ChaosNet) {
    fabric_conformance::oracle::check_ledger(net.reporting_peer().ledger())
        .unwrap_or_else(|v| panic!("serializability oracle: {v}"));
}

struct ReplicatedResult {
    case: CaseResult,
    /// Live-replica block-stream fingerprints at shutdown: (replica,
    /// next block number, rolling chain hash).
    fingerprints: Vec<(u32, u64, Digest)>,
    replicas_up: usize,
    heights_decided: u64,
}

/// Runs one matrix cell with the ordering service replaced by a
/// `replicas`-strong consensus group whose messages run through the same
/// fault injector as block delivery.
fn run_replicated_case(
    config: &PipelineConfig,
    plan: FaultPlan,
    replicas: usize,
) -> ReplicatedResult {
    let mut wl = SmallbankWorkload::new(SmallbankConfig {
        users: 40,
        p_write: 0.9,
        s_value: 0.4,
        seed: 11,
    });
    let genesis = wl.genesis();
    let mut net = ChaosNet::with_options(
        config,
        ORGS,
        PEERS_PER_ORG,
        vec![SmallbankChaincode::deployable()],
        &genesis,
        plan,
        ChaosOptions { replicas: Some(replicas), ..ChaosOptions::default() },
    )
    .unwrap();
    let mut client = 0u64;
    for _ in 0..BLOCKS {
        for _ in 0..TXS_PER_BLOCK {
            net.propose_and_submit(client, "smallbank", wl.next_args());
            client += 1;
        }
        net.cut_block().unwrap();
    }
    let report = net.check().unwrap();
    assert_oracle_green(&net);
    let group = net.orderer_group().unwrap();
    ReplicatedResult {
        fingerprints: group.fingerprints(),
        replicas_up: (0..group.replicas()).filter(|&r| !group.is_down(r)).count(),
        heights_decided: group.heights_decided(),
        case: CaseResult {
            report,
            schedule: net.injector().schedule_digest(),
            events: net.injector().events(),
            faults: net.injector().fault_count(),
            stats: net.stats(),
            blocks_cut: net.blocks_cut(),
        },
    }
}

/// Orderer-replica convergence: every live replica sealed the identical
/// block stream (same next block number, same rolling chain hash).
fn assert_replicas_converged(r: &ReplicatedResult) {
    assert!(!r.fingerprints.is_empty());
    let (_, n0, h0) = r.fingerprints[0];
    assert!(
        r.fingerprints.iter().all(|(_, n, h)| (*n, *h) == (n0, h0)),
        "replica block streams diverged: {:?}",
        r.fingerprints
    );
    assert_eq!(n0, r.case.blocks_cut + 1, "replica chains must match delivered blocks");
}

fn modes() -> [(&'static str, PipelineConfig); 2] {
    [
        ("fabric", PipelineConfig::vanilla()),
        ("fabric++", PipelineConfig::fabric_pp()),
    ]
}

#[test]
fn quiescent_control_arm_is_clean() {
    for (label, config) in modes() {
        let r = run_case(&config, FaultPlan::quiescent(1), None);
        r.report.assert_ok();
        assert_eq!(r.faults, 0, "{label}: control arm must inject nothing");
        assert_eq!(r.report.peers_checked, ORGS * PEERS_PER_ORG);
        assert!(r.stats.valid > 0, "{label}: workload must commit transactions");
        assert_eq!(r.report.height, BLOCKS + 1, "{label}: genesis + every cut block");
    }
}

#[test]
fn lossy_network_converges_in_both_modes() {
    for (label, config) in modes() {
        let r = run_case(&config, FaultPlan::lossy(22), None);
        r.report.assert_ok();
        assert!(r.stats.valid > 0, "{label}: workload must survive loss");
    }
}

#[test]
fn chaotic_network_converges_in_both_modes() {
    for (label, config) in modes() {
        let r = run_case(&config, FaultPlan::chaotic(33), None);
        r.report.assert_ok();
        assert!(r.faults > 0, "{label}: chaotic plan must inject faults");
    }
}

#[test]
fn partition_heals_in_both_modes() {
    // Org 2 (peers 3 and 4) cut off for blocks 2..7, healed afterwards.
    for (label, config) in modes() {
        let plan = FaultPlan::lossy(44).with_partition(vec![3, 4], 1, 6);
        let r = run_case(&config, plan, None);
        r.report.assert_ok();
        assert!(
            r.events
                .iter()
                .any(|e| matches!(e, FaultEvent::Net { partition: true, .. })),
            "{label}: partition drops must appear in the schedule"
        );
    }
}

#[test]
fn crash_and_recovery_preserve_committed_txs() {
    // Peer 2 dies at block 3 and is restarted three blocks later; peer 4
    // dies at block 6 with a torn block file and restarts after two. The
    // invariant sweep (convergence + find_tx on every committed id) is the
    // no-tx-loss check.
    for (label, config) in modes() {
        let plan = FaultPlan::quiescent(55)
            .with_crash(2, 3, 3)
            .with_torn_crash(4, 6, 2, 9);
        let tag = format!("crash-{}", label.replace("++", "pp"));
        let r = run_case(&config, plan, Some(&tag));
        r.report.assert_ok();
        assert!(r.stats.valid > 0, "{label}: workload must commit through crashes");
        assert_eq!(r.report.peers_checked, ORGS * PEERS_PER_ORG, "{label}: all peers restarted");
    }
}

#[test]
fn crash_with_live_snapshot_pins_recovers_version_chains() {
    // A peer dies while endorsements still hold live snapshot pins on its
    // store. Pins are process state, not ledger state: the crash drops
    // them with the store, recovery replays the ledger into a fresh
    // multi-version store (version chains rebuild from the committed
    // blocks), and the old pinned snapshot keeps resolving its pre-crash
    // height from the orphaned store without perturbing anything — the
    // fault schedule stays byte-identical to a pin-free run and no
    // committed transaction is lost.
    use std::sync::Arc;

    for (label, config) in modes() {
        // Baseline: the same plan with no pins anywhere.
        let baseline = run_case(&config, FaultPlan::quiescent(55).with_crash(2, 3, 3), None);
        baseline.report.assert_ok();

        let mut wl = SmallbankWorkload::new(SmallbankConfig {
            users: 40,
            p_write: 0.9,
            s_value: 0.4,
            seed: 11,
        });
        let genesis = wl.genesis();
        let keys: Vec<_> = genesis.iter().map(|(k, _)| k.clone()).take(16).collect();
        let mut net = ChaosNet::new(
            &config,
            ORGS,
            PEERS_PER_ORG,
            vec![SmallbankChaincode::deployable()],
            &genesis,
            FaultPlan::quiescent(55).with_crash(2, 3, 3),
        )
        .unwrap();

        let mut pinned = None;
        let mut client = 0u64;
        for b in 0..BLOCKS {
            if b == 2 {
                // Two endorsement-style snapshots go live on the doomed
                // peer's store right before the crash block and stay held
                // across crash, recovery, and catch-up.
                let store = Arc::clone(net.peers()[2].store());
                let h = store.last_committed_block();
                pinned = Some((Arc::clone(&store), store.pin_snapshot(), store.pin_snapshot()));
                assert_eq!(pinned.as_ref().unwrap().1.height(), h);
            }
            for _ in 0..TXS_PER_BLOCK {
                net.propose_and_submit(client, "smallbank", wl.next_args());
                client += 1;
            }
            net.cut_block().unwrap();
        }
        let report = net.check().unwrap();
        report.assert_ok();
        assert_oracle_green(&net);
        assert!(net.stats().valid > 0, "{label}: workload must commit through the crash");
        assert_eq!(report.peers_checked, ORGS * PEERS_PER_ORG, "{label}: crashed peer restarted");

        // Pinning is observation-only: the fault schedule and outcomes are
        // byte-identical to the pin-free baseline.
        assert_eq!(
            net.injector().schedule_digest(),
            baseline.schedule,
            "{label}: live pins perturbed the fault schedule"
        );
        assert_eq!(net.stats().valid, baseline.stats.valid, "{label}: live pins changed outcomes");

        // The orphaned store still serves its pinned pre-crash height: the
        // pins outlived the peer, not the other way around.
        let (old_store, pin_a, pin_b) = pinned.unwrap();
        assert_eq!(pin_a.height(), pin_b.height());
        for key in &keys {
            let got = old_store.get_at(key, pin_a.height()).unwrap();
            let vv = got.at_height.expect("pre-crash key resolves at the pinned height");
            assert!(vv.version.block <= pin_a.height());
        }

        // Recovery rebuilt the version chains from the ledger: the
        // restarted peer's fresh store answers versioned reads at the tip
        // *and* one block back, byte-identically to a peer that never
        // crashed.
        let peers = net.peers();
        let restarted = peers[2].store();
        let healthy = peers[0].store();
        let tip = restarted.last_committed_block();
        assert_eq!(tip, healthy.last_committed_block(), "{label}: catch-up reached the tip");
        let snap = restarted.pin_snapshot();
        assert_eq!(snap.height(), tip);
        for h in [tip, tip - 1] {
            for key in &keys {
                let a = restarted.get_at(key, h).unwrap();
                let b = healthy.get_at(key, h).unwrap();
                assert_eq!(
                    a.at_height, b.at_height,
                    "{label}: rebuilt chain diverges for {key:?} at height {h}"
                );
            }
        }
    }
}

#[test]
fn same_seed_produces_identical_fault_schedules() {
    for (label, config) in modes() {
        let a = run_case(&config, FaultPlan::chaotic(77), None);
        let b = run_case(&config, FaultPlan::chaotic(77), None);
        assert!(a.faults > 0, "{label}: schedule must be non-trivial");
        assert_eq!(a.events, b.events, "{label}: event logs diverged");
        assert_eq!(a.schedule, b.schedule, "{label}: schedule digests diverged");
        assert_eq!(a.stats.valid, b.stats.valid, "{label}: outcomes diverged");
        assert_eq!(
            a.report.state_digest, b.report.state_digest,
            "{label}: final states diverged"
        );
        // A different seed must (overwhelmingly) produce a different
        // schedule — the digest is not a constant.
        let c = run_case(&config, FaultPlan::chaotic(78), None);
        assert_ne!(a.schedule, c.schedule, "{label}: seeds 77 and 78 collided");
    }
}

#[test]
fn tracing_does_not_perturb_the_fault_schedule() {
    // The flight recorder is observation-only: a traced run must produce
    // the byte-identical fault schedule, event log, outcome counts, and
    // final state of an untraced run — and the trace must mirror every
    // fault verdict the injector logged.
    for (label, config) in modes() {
        let plain = run_case(&config, FaultPlan::chaotic(77), None);
        let sink = TraceSink::bounded(1 << 16);
        let traced = run_case_traced(&config, FaultPlan::chaotic(77), None, sink.clone());

        assert!(plain.faults > 0, "{label}: schedule must be non-trivial");
        assert_eq!(plain.schedule, traced.schedule, "{label}: tracing changed the schedule");
        assert_eq!(plain.events, traced.events, "{label}: tracing changed the event log");
        assert_eq!(plain.stats.valid, traced.stats.valid, "{label}: tracing changed outcomes");
        assert_eq!(
            plain.report.state_digest, traced.report.state_digest,
            "{label}: tracing changed the final state"
        );

        let events = sink.drain();
        assert_eq!(sink.dropped(), 0, "{label}: ring must retain the whole run");
        let fault_events =
            events.iter().filter(|e| e.kind.label().starts_with("fault_")).count() as u64;
        assert_eq!(
            fault_events, traced.faults,
            "{label}: every injector verdict must mirror into the trace"
        );
        assert!(
            events.iter().any(|e| e.kind.label() == "tx_committed"),
            "{label}: the reporting peer's pipeline must trace too"
        );

        // Proposals and the orderer trace too: every counted submission
        // and order-phase abort has its event, and every cut block its
        // seal.
        let count = |l: &str| events.iter().filter(|e| e.kind.label() == l).count() as u64;
        let stats = &traced.stats;
        assert_eq!(count("tx_submitted"), stats.submitted, "{label}: submissions");
        assert_eq!(count("early_abort_cycle"), stats.early_abort_cycle, "{label}: cycle aborts");
        assert_eq!(
            count("early_abort_version"),
            stats.early_abort_version_mismatch,
            "{label}: version-mismatch aborts"
        );
        assert_eq!(count("block_sealed"), traced.blocks_cut, "{label}: sealed blocks");
    }
}

#[test]
fn telemetry_does_not_perturb_the_fault_schedule() {
    // Same proof obligation as the tracing case: the windowed time-series
    // hub is observation-only, so a telemetry-on run must produce the
    // byte-identical fault schedule, event log, outcome counts, and final
    // state of a telemetry-off run — while its windows still partition the
    // run's counters exactly.
    for (label, config) in modes() {
        let plain = run_case(&config, FaultPlan::chaotic(77), None);

        let mut wl = SmallbankWorkload::new(SmallbankConfig {
            users: 40,
            p_write: 0.9,
            s_value: 0.4,
            seed: 11,
        });
        let genesis = wl.genesis();
        let opts = ChaosOptions {
            telemetry: Some(TelemetryConfig { window_blocks: 3, ..TelemetryConfig::default() }),
            ..ChaosOptions::default()
        };
        let mut net = ChaosNet::with_options(
            &config,
            ORGS,
            PEERS_PER_ORG,
            vec![SmallbankChaincode::deployable()],
            &genesis,
            FaultPlan::chaotic(77),
            opts,
        )
        .unwrap();
        let mut client = 0u64;
        for _ in 0..BLOCKS {
            for _ in 0..TXS_PER_BLOCK {
                net.propose_and_submit(client, "smallbank", wl.next_args());
                client += 1;
            }
            net.cut_block().unwrap();
        }
        let report = net.check().unwrap();
        report.assert_ok();
        assert_oracle_green(&net);

        assert_eq!(
            plain.schedule,
            net.injector().schedule_digest(),
            "{label}: telemetry changed the fault schedule"
        );
        assert_eq!(
            plain.events,
            net.injector().events(),
            "{label}: telemetry changed the event log"
        );
        assert_eq!(plain.stats.valid, net.stats().valid, "{label}: telemetry changed outcomes");
        assert_eq!(
            plain.report.state_digest, report.state_digest,
            "{label}: telemetry changed the final state"
        );

        let series = net.telemetry_series().expect("telemetry enabled");
        series.check_invariants(&net.stats()).unwrap_or_else(|e| {
            panic!("{label}: telemetry window invariants violated: {e}")
        });
        assert!(!series.is_empty(), "{label}: blocks were cut, so windows must exist");
    }
}

#[test]
fn replicated_leader_crash_mid_height_converges() {
    // Three orderer replicas; height 3's view-0 leader (replica (3+0)%3 =
    // 0) dies right after its proposal hits the wire and restarts two
    // heights later. The survivors decide (the proposal already escaped),
    // the restarted replica catches up from the decided-batch archive,
    // and both the peer network and the replica chains converge with no
    // committed transaction lost.
    for (label, config) in modes() {
        let plan = FaultPlan::quiescent(101).with_orderer_crash(0, 3, 2, true);
        let r = run_replicated_case(&config, plan, 3);
        r.case.report.assert_ok();
        assert!(r.case.stats.valid > 0, "{label}: workload must commit through the crash");
        assert_eq!(r.heights_decided, BLOCKS, "{label}: every cut batch decided");
        assert_eq!(r.replicas_up, 3, "{label}: the crashed replica restarted");
        assert_replicas_converged(&r);
    }
}

#[test]
fn replicated_partition_during_view_change_heals() {
    // Replica 2 is cut off (symmetrically) for the first few messages on
    // each of its links — covering height 2, whose view-0 leader it is.
    // Its proposal never escapes, the survivors time out into view 1 and
    // decide under leader 0; once the window passes, replica 2 rejoins
    // and seals the heights it missed from its own recomputed plans.
    for (label, config) in modes() {
        let plan = FaultPlan::quiescent(102).with_orderer_partition(vec![2], 0, 4);
        let r = run_replicated_case(&config, plan, 3);
        r.case.report.assert_ok();
        assert!(
            r.case
                .events
                .iter()
                .any(|e| matches!(e, FaultEvent::Net { partition: true, .. })),
            "{label}: consensus partition drops must appear in the schedule"
        );
        assert_eq!(r.replicas_up, 3, "{label}: nobody crashed, only partitioned");
        assert_replicas_converged(&r);
    }
}

#[test]
fn replicated_equivocation_cannot_fork_the_chain() {
    // Height 2's view-0 leader (replica 2) equivocates toward both
    // followers: forged digests can never gather honest prevotes, so the
    // view fails, view 1's honest leader re-proposes, and every replica
    // seals the identical chain — equivocation costs a view change, not
    // safety.
    for (label, config) in modes() {
        let plan = FaultPlan::quiescent(103).with_equivocation(2, 2, vec![0, 1]);
        let r = run_replicated_case(&config, plan, 3);
        r.case.report.assert_ok();
        assert!(r.case.stats.valid > 0, "{label}: workload must commit despite equivocation");
        assert_eq!(r.heights_decided, BLOCKS, "{label}: every height still decides");
        assert_replicas_converged(&r);
    }
}

#[test]
fn replicated_lossy_network_converges_and_replays_from_seed() {
    // Random drops/duplicates/delays/reorders now also hit consensus
    // traffic. The run must converge (peers and replicas), and the same
    // seed must replay the byte-identical fault schedule — the
    // determinism contract extended over consensus links.
    for (label, config) in modes() {
        let a = run_replicated_case(&config, FaultPlan::lossy(104), 3);
        a.case.report.assert_ok();
        assert!(a.case.faults > 0, "{label}: faults must hit consensus traffic");
        assert_replicas_converged(&a);

        let b = run_replicated_case(&config, FaultPlan::lossy(104), 3);
        assert_eq!(a.case.events, b.case.events, "{label}: event logs diverged");
        assert_eq!(a.case.schedule, b.case.schedule, "{label}: schedule digests diverged");
        assert_eq!(a.case.stats.valid, b.case.stats.valid, "{label}: outcomes diverged");
        assert_eq!(
            a.case.report.state_digest, b.case.report.state_digest,
            "{label}: final states diverged"
        );
        // Tx ids come from a process-global counter, so raw chain hashes
        // differ between in-process runs; the cross-run contract is the
        // structure (same replicas at the same block number).
        let structure =
            |r: &ReplicatedResult| r.fingerprints.iter().map(|(id, n, _)| (*id, *n)).collect::<Vec<_>>();
        assert_eq!(structure(&a), structure(&b), "{label}: replica chain structure diverged");

        let c = run_replicated_case(&config, FaultPlan::lossy(105), 3);
        assert_ne!(a.case.schedule, c.case.schedule, "{label}: seeds 104 and 105 collided");
    }
}

#[test]
fn replicated_five_replicas_survive_two_crashes() {
    // Five replicas, majority quorum 3: two distinct replicas die at
    // different heights (one mid-propose, one before) and both restart.
    // Liveness holds throughout and all five chains end identical.
    let plan = FaultPlan::quiescent(106)
        .with_orderer_crash(1, 2, 2, true)
        .with_orderer_crash(3, 5, 3, false);
    let r = run_replicated_case(&PipelineConfig::fabric_pp(), plan, 5);
    r.case.report.assert_ok();
    assert_eq!(r.heights_decided, BLOCKS);
    assert_eq!(r.replicas_up, 5, "both crashed replicas restarted");
    assert_replicas_converged(&r);
}
