//! One run of one workload: set-up, the closed- and open-loop phases on one
//! network driven from outside through `ClientHandle::submit`, the
//! correctness checks, and the metrics derived from what was observed.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fabric_common::{CostModel, TxId, TxStats};
use fabric_net::LatencyModel;
use fabric_peer::peer::Peer;
use fabricpp::{FabricNetwork, NetworkBuilder, RunReport, StateEngine};

use crate::check::{self, Check};
use crate::host;
use crate::load::{self, Client, ClosedPhase, OpenPhase, OutcomeCounts, Outcomes};
use crate::span::{Span, SpanLog};
use crate::staged;
use crate::stats;
use crate::workloads::Workload;

/// The open-loop rate: 2x the paper's Table 5 aggregate (4 clients x 512/s).
pub const OPEN_RATE: f64 = 4096.0;
/// Closed-loop cap on proposals handed to the orderer and not yet terminal.
pub const INFLIGHT_CAP: u64 = 4096;
/// An open phase that achieved less than this share of [`OPEN_RATE`], or
/// whose generator ran later than [`MAX_LATE_P99_MS`] at p99, is invalid:
/// re-run it, do not read it as a regression.
pub const MIN_ACHIEVED_SHARE: f64 = 0.99;
pub const MAX_LATE_P99_MS: f64 = 50.0;
const OPEN_TAIL_S: f64 = 0.75;

/// How much work one run does. Fixed work rather than fixed time, so peak
/// memory is comparable between commits; `--seconds` scales it.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Proposals fired before anything is measured.
    pub warmup: u64,
    /// Proposals of the closed phase.
    pub closed_proposals: u64,
    /// Length of the sampled open phase at [`OPEN_RATE`], and of the
    /// unsampled tail that keeps the same load on while its last proposals
    /// commit (three block-fill times).
    pub open_seconds: f64,
    pub open_tail_seconds: f64,
    /// Networks built (and timed) per run, at least; the last one is
    /// driven. Set-ups that take milliseconds are repeated further (see
    /// [`set_up`]), so their median is as steady as the expensive ones'.
    pub setups: usize,
    /// Proposals of each of the [`TRACED_SEGMENTS`] segments of a traced
    /// run's second closed phase.
    pub traced_segment_proposals: u64,
    /// Blocks of 1024 proposals in the staged driver, and in its shorter
    /// second invocation that checks the counts repeat.
    pub staged_blocks: usize,
    pub staged_repeat_blocks: usize,
}

impl Plan {
    /// `seconds` is the nominal measured time: a quarter of it open loop,
    /// the rest closed loop at a nominal 8000 proposals/s (every workload
    /// is client-bound at 10-11 thousand proposals/s on the 2-core
    /// reference host, so the closed phase takes about 0.6 x `seconds`).
    /// A traced run reports no set-up time and sets up once.
    pub fn new(seconds: u64, quick: bool, traced: bool) -> Plan {
        if quick {
            return Plan {
                warmup: 500,
                closed_proposals: 2_000,
                open_seconds: 2_000.0 / OPEN_RATE,
                open_tail_seconds: OPEN_TAIL_S,
                setups: 1,
                traced_segment_proposals: 2_000,
                staged_blocks: 2,
                staged_repeat_blocks: 1,
            };
        }
        Plan {
            warmup: 5_000,
            closed_proposals: 6_000 * seconds,
            open_seconds: seconds as f64 / 4.0,
            open_tail_seconds: OPEN_TAIL_S,
            setups: if traced { 1 } else { 3 },
            traced_segment_proposals: 6_000 * seconds / TRACED_SEGMENTS,
            staged_blocks: 32,
            staged_repeat_blocks: 8,
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Every metric this run could compute, end-to-end and per-layer.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted (proposals fired) and failed (proposals without
    /// a terminal outcome plus failed correctness checks).
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Host calibration before and after the run.
    pub calib_ms: (f64, f64),
    /// Whether the open phase met its validity conditions.
    pub open_valid: bool,
    /// Valid samples behind the open-loop percentiles.
    pub latency_samples: usize,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// Where a run may write: `<out>/trace_<workload>.jsonl`, and a scratch
/// directory of its own under `<out>/tmp` for LSM stores, removed when the
/// run ends.
pub struct RunDirs {
    pub out: PathBuf,
}

impl RunDirs {
    fn scratch(&self) -> PathBuf {
        self.out
            .join("tmp")
            .join(format!("run-{}", std::process::id()))
    }
}

/// Block numbers stamped with the time the watcher first saw them, ns
/// since the run's epoch.
type BlockStamps = Vec<(u64, u64)>;

/// Observes commits from outside: polls the reporting peer's ledger height
/// and stamps each new block.
struct Watcher {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<BlockStamps>,
}

impl Watcher {
    fn spawn(peer: Arc<Peer>, epoch: Instant) -> Watcher {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut stamps = BlockStamps::new();
            let mut next = peer.ledger().height();
            loop {
                let stopping = stop_flag.load(Ordering::Acquire);
                let height = peer.ledger().height();
                let now = epoch.elapsed().as_nanos() as u64;
                while next < height {
                    stamps.push((next, now));
                    next += 1;
                }
                if stopping {
                    return stamps;
                }
                std::thread::sleep(Duration::from_micros(250));
            }
        });
        Watcher { stop, thread }
    }

    fn finish(self) -> BlockStamps {
        self.stop.store(true, Ordering::Release);
        self.thread.join().expect("watcher thread panicked")
    }
}

/// The network of `workload` exactly as every run uses it, ready to build:
/// 2 orgs x 1 peer, 1 channel, the shipped preset, raw cost model, zero
/// message delay, in-program trace and telemetry off.
fn network_builder(workload: Workload, seed: u64, lsm_dir: &Path) -> NetworkBuilder {
    let mut builder = NetworkBuilder::new()
        .orgs(2)
        .peers_per_org(1)
        .channels(1)
        .pipeline(workload.pipeline())
        .cost(CostModel::raw())
        .latency(LatencyModel::zero())
        .seed(seed)
        .deploy(workload.chaincode())
        .genesis(workload.genesis(seed));
    if workload.lsm {
        builder = builder.engine(StateEngine::Lsm(lsm_dir.to_path_buf()));
    }
    builder
}

/// Builds the network `plan.setups` times — and, while all set-ups so far
/// took under a second together, up to nine times — timing `build()`
/// including genesis install; returns the last network and every set-up
/// time.
fn set_up(workload: Workload, seed: u64, plan: &Plan, dirs: &RunDirs) -> (FabricNetwork, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    for i in 0..9 {
        if i >= plan.setups && (plan.setups <= 1 || times.iter().sum::<f64>() >= 1.0) {
            break;
        }
        // Tear the previous network down first, so at most one is alive.
        drop(last.take());
        // Generating the genesis key/values is the benchmark's work, not
        // the program's: only `build()` is on the clock.
        let builder = network_builder(workload, seed, &dirs.scratch().join(format!("net{i}")));
        let t0 = Instant::now();
        let net = builder.build().expect("network build failed");
        times.push(t0.elapsed().as_secs_f64());
        last = Some(net);
    }
    (last.expect("at least one set-up"), times)
}

/// One network under load: what the phases of a run share.
struct Session<'a> {
    net: &'a FabricNetwork,
    clients: Vec<Client>,
    outcomes: Outcomes,
    epoch: Instant,
    /// Whether every drain so far ended in time.
    drained: bool,
}

impl Session<'_> {
    fn closed(&mut self, proposals: u64, traced: bool) -> ClosedPhase {
        load::run_closed(
            self.net,
            &mut self.clients,
            &self.outcomes,
            self.epoch,
            proposals,
            INFLIGHT_CAP,
            traced,
        )
    }

    fn open(&mut self, plan: &Plan) -> OpenPhase {
        load::run_open(
            &mut self.clients,
            &self.outcomes,
            self.epoch,
            OPEN_RATE,
            plan.open_seconds,
            plan.open_tail_seconds,
        )
    }

    fn drain(&mut self) {
        self.drained &= load::drain(self.net, &self.outcomes, Duration::from_secs(30));
    }

    fn counters(&self) -> (TxStats, OutcomeCounts) {
        (self.net.stats(), self.outcomes.snapshot())
    }
}

/// How many segments the traced closed phase is cut into. They run back to
/// back on the same network, traced or untraced in Thue-Morse order
/// (T U U T U T T U), so both sides see the network age (ledger, LSM runs)
/// alike and their difference is the tracing overhead alone.
const TRACED_SEGMENTS: u64 = 8;

/// Runs `workload` once. With `traced`, the closed phase is repeated in
/// segments with a span around every other segment's `submit` calls, the
/// staged driver runs, and the spans are written to
/// `trace_<workload>.jsonl`.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    plan: &Plan,
    traced: bool,
    dirs: &RunDirs,
) -> RunOutput {
    let calib_before = host::calib_ms();
    let epoch = Instant::now();
    let _ = std::fs::remove_dir_all(dirs.scratch());

    let (net, setup_times) = set_up(workload, seed, plan, dirs);
    let peers = net.channel_peers(0);
    let watcher = Watcher::spawn(Arc::clone(&peers[0]), epoch);
    let base = net.client(0);
    let clients = (0..host::client_threads() as u64)
        .map(|i| Client {
            handle: base.with_client_id(i),
            gen: workload.generator(seed, i + 1),
        })
        .collect();
    drop(base);
    let mut session = Session {
        net: &net,
        clients,
        outcomes: Outcomes::default(),
        epoch,
        drained: true,
    };

    // Warm-up, then the closed phase without a pause: the pipeline is full
    // at both ends of the measured window.
    session.closed(plan.warmup, false);
    let closed_from = session.counters();
    let closed = session.closed(plan.closed_proposals, false);
    session.drain();
    let closed_to = session.counters();

    let open = session.open(plan);
    session.drain();

    let mut segments = Vec::new();
    if traced {
        session.closed(plan.warmup, false);
        for i in 0..TRACED_SEGMENTS {
            segments.push(session.closed(plan.traced_segment_proposals, i.count_ones() % 2 == 0));
        }
        session.drain();
    }

    let stamps = watcher.finish();
    let peak_rss_mb = host::peak_rss_mb();
    let Session {
        clients,
        outcomes,
        drained,
        ..
    } = session;
    drop(clients);
    let report = net.finish();
    let totals = outcomes.snapshot();

    let mut out = RunOutput {
        attempted: totals.fired,
        ..Default::default()
    };
    out.checks = check::after_finish(&peers, &report, &totals);
    out.checks.push(Check::new(
        "pipeline drained within 30 s after every phase",
        drained,
        "",
    ));
    // A proposal without a terminal outcome is a failed operation.
    let terminal = report.stats.finished() + totals.rejected();
    out.failed = totals.fired.abs_diff(terminal);

    let m = &mut out.metrics;
    let valid_per_block = valid_counts(&peers[0]);
    let goodput =
        |phase: &ClosedPhase| goodput_tps(&stamps, &valid_per_block, phase.start_ns, phase.end_ns);
    m.insert("setup_s", stats::median(&setup_times));
    m.insert("peak_rss_mb", peak_rss_mb);
    m.insert("goodput_tps", goodput(&closed));
    closed_shares(m, &closed_from, &closed_to);
    m.insert(
        "core.inflight_avg",
        closed.inflight_sum as f64 / closed.inflight_samples.max(1) as f64,
    );
    out.latency_samples = open_latency(m, &peers[0], &stamps, &open);
    out.open_valid = open_validity(m, &open);
    report_metrics(m, &report, &peers[0]);

    let mut spans = SpanLog::new(epoch);
    if traced {
        let mean_tps = |with_spans: bool| {
            let side: Vec<f64> = segments
                .iter()
                .filter(|s| s.submit_spans.is_empty() != with_spans)
                .map(goodput)
                .collect();
            side.iter().sum::<f64>() / side.len() as f64
        };
        m.insert(
            "trace.overhead_share",
            1.0 - mean_tps(true) / mean_tps(false),
        );
        submit_metrics(m, &mut spans, &segments);
    }
    drop(peers);

    if traced {
        let staged = staged::run_checked(
            workload,
            seed,
            plan,
            &dirs.scratch().join("staged"),
            &mut spans,
        );
        out.attempted += staged.attempted;
        out.checks.extend(staged.checks);
        out.metrics.extend(staged.metrics);
        let path = dirs.out.join(format!("trace_{}.jsonl", workload.name));
        let written = spans.write_jsonl(&path);
        out.checks.push(Check::new(
            "trace spans written",
            written.is_ok(),
            &format!("{} spans -> {}", spans.spans().len(), path.display()),
        ));
    }
    let _ = std::fs::remove_dir_all(dirs.scratch());

    let calib_after = host::calib_ms();
    out.calib_ms = (calib_before, calib_after);
    out.metrics
        .insert("host.calib_ms", (calib_before + calib_after) / 2.0);
    out.failed += out.checks.iter().filter(|c| !c.ok).count() as u64;
    out
}

/// Valid transactions of every block of `peer`'s ledger, by block number.
fn valid_counts(peer: &Peer) -> Vec<u64> {
    let mut counts = Vec::new();
    peer.ledger()
        .for_each(|cb| counts.push(cb.valid_count() as u64));
    counts
}

/// Transactions committed `Valid` per second between the first and the
/// last block observed inside `[from_ns, to_ns]`. Measuring from block
/// stamp to block stamp keeps block granularity out of the number: the
/// window holds whole inter-block intervals and the blocks that ended them.
pub fn goodput_tps(
    stamps: &[(u64, u64)],
    valid_per_block: &[u64],
    from_ns: u64,
    to_ns: u64,
) -> f64 {
    let inside: Vec<&(u64, u64)> = stamps
        .iter()
        .filter(|(_, at)| (from_ns..=to_ns).contains(at))
        .collect();
    let valid = |blocks: &[&(u64, u64)]| -> u64 {
        blocks
            .iter()
            .map(|(n, _)| valid_per_block[*n as usize])
            .sum()
    };
    match (inside.first(), inside.last()) {
        (Some(first), Some(last)) if last.1 > first.1 => {
            valid(&inside[1..]) as f64 / ((last.1 - first.1) as f64 / 1e9)
        }
        // Too short a phase for two block stamps (`--quick`): fall back to
        // the coarse count over the whole window.
        _ if to_ns > from_ns => valid(&inside) as f64 / ((to_ns - from_ns) as f64 / 1e9),
        _ => f64::NAN,
    }
}

/// `abort_share` of the closed phase and the slice of it each layer owns.
/// Denominator: proposals that reached a terminal outcome between the
/// start of the phase and the drain after it.
fn closed_shares(
    m: &mut BTreeMap<&'static str, f64>,
    from: &(TxStats, OutcomeCounts),
    to: &(TxStats, OutcomeCounts),
) {
    let s = to.0.since(&from.0);
    let o = to.1.since(&from.1);
    let terminal = (s.finished() + o.rejected()).max(1) as f64;
    m.insert(
        "abort_share",
        (s.aborted() + o.rejected()) as f64 / terminal,
    );
    m.insert(
        "core.endorse_mismatch_share",
        o.rejected_mismatch as f64 / terminal,
    );
    m.insert(
        "peer.early_abort_sim_share",
        s.early_abort_simulation as f64 / terminal,
    );
    m.insert(
        "ordering.early_abort_cycle_share",
        s.early_abort_cycle as f64 / terminal,
    );
    m.insert(
        "ordering.early_abort_mismatch_share",
        s.early_abort_version_mismatch as f64 / terminal,
    );
    m.insert(
        "peer.mvcc_conflict_share",
        s.mvcc_conflict as f64 / terminal,
    );
}

/// Reports the median and the 99th percentile of `sorted` under `names`,
/// noting when the sample-count rule lowered a percentile.
fn insert_p50_p99(m: &mut BTreeMap<&'static str, f64>, names: [&'static str; 2], sorted: &[f64]) {
    for (name, p) in names.into_iter().zip([0.50, 0.99]) {
        let (value, used) = stats::percentile_sorted(sorted, p).unwrap_or((f64::NAN, p));
        if used < p {
            eprintln!(
                "# note: {name} reports p{:.1}: {} samples leave fewer than {} beyond p{:.0}",
                used * 100.0,
                sorted.len(),
                stats::MIN_SAMPLES_BEYOND,
                p * 100.0
            );
        }
        m.insert(name, value);
    }
}

/// Open-loop commit latency, due time -> block observed, `Valid` only.
/// Returns the sample count.
fn open_latency(
    m: &mut BTreeMap<&'static str, f64>,
    peer: &Peer,
    stamps: &[(u64, u64)],
    open: &OpenPhase,
) -> usize {
    let due: HashMap<TxId, u64> = open.due_log.iter().copied().collect();
    let mut latencies_ms = Vec::with_capacity(due.len());
    for &(number, seen_ns) in stamps.iter().filter(|(_, at)| *at >= open.start_ns) {
        let Some(block) = peer.ledger().get(number) else {
            continue;
        };
        for (tx, code) in block.iter() {
            if let (true, Some(due_ns)) = (code.is_valid(), due.get(&tx.id)) {
                latencies_ms.push(seen_ns.saturating_sub(*due_ns) as f64 / 1e6);
            }
        }
    }
    let sorted = stats::sorted(latencies_ms);
    insert_p50_p99(m, ["commit_p50_ms", "commit_p99_ms"], &sorted);
    sorted.len()
}

/// Generator-side validity of the open phase.
fn open_validity(m: &mut BTreeMap<&'static str, f64>, open: &OpenPhase) -> bool {
    let span_s = (open.last_send_ns.saturating_sub(open.start_ns)) as f64 / 1e9;
    // `sent - 1` intervals separate the first send from the last.
    let achieved = if span_s > 0.0 {
        (open.sent.saturating_sub(1)) as f64 / span_s
    } else {
        0.0
    };
    let late = stats::sorted(open.late_ns.iter().map(|&ns| ns as f64 / 1e6).collect());
    let late_p99 = stats::percentile_sorted(&late, 0.99).map_or(f64::NAN, |(v, _)| v);
    m.insert("gen.achieved_rate", achieved);
    m.insert("gen.late_p99_ms", late_p99);
    achieved >= MIN_ACHIEVED_SHARE * OPEN_RATE && late_p99 <= MAX_LATE_P99_MS
}

/// Per-layer metrics read off the public `RunReport` (whole run).
fn report_metrics(m: &mut BTreeMap<&'static str, f64>, report: &RunReport, peer: &Peer) {
    let ord = &report.orderer;
    let blocks = ord.blocks.max(1) as f64;
    m.insert("ordering.fallback_share", ord.fallbacks as f64 / blocks);
    m.insert("ordering.reorder_s", ord.reorder_time.as_secs_f64());
    m.insert("ordering.block_fill_avg", ord.avg_block_fill());
    m.insert(
        "ordering.cut_timeout_share",
        ord.cut_timeout as f64 / blocks,
    );
    m.insert(
        "ordering.cut_unique_keys_share",
        ord.cut_unique_keys as f64 / blocks,
    );
    let commits = report.stats.valid.max(1) as f64;
    m.insert("net.msgs_per_commit", report.net_messages as f64 / commits);
    m.insert("net.bytes_per_commit", report.net_bytes as f64 / commits);
    let applied = report.store.blocks_applied.max(1) as f64;
    m.insert(
        "statedb.wal_fsyncs_per_block",
        report.store.wal_fsyncs as f64 / applied,
    );
    m.insert(
        "statedb.multi_get_keys_per_block",
        report.store.multi_get_keys as f64 / applied,
    );
    m.insert(
        "statedb.retained_versions",
        peer.store().retained_versions() as f64,
    );
}

/// `submit` durations of the traced segments; their spans join the log.
fn submit_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    spans: &mut SpanLog,
    segments: &[ClosedPhase],
) {
    let submits = || segments.iter().flat_map(|s| s.submit_spans.iter().copied());
    let durations_us = stats::sorted(submits().map(|(s, e)| (e - s) as f64 / 1e3).collect());
    insert_p50_p99(
        m,
        ["core.submit_us_p50", "core.submit_us_p99"],
        &durations_us,
    );
    for (start_ns, end_ns) in submits() {
        spans.push(Span {
            name: "core.submit",
            start_ns,
            end_ns,
            parent: None,
            block: None,
            units: 1,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_counts_whole_intervals_inside_the_window() {
        // Blocks 1..=5 seen at 1 s, 2 s, 3 s, 4 s, 5 s; 100 valid each.
        let stamps: Vec<(u64, u64)> = (1..=5).map(|n| (n, n * 1_000_000_000)).collect();
        let valid = vec![1, 100, 100, 100, 100, 100];
        // Window [1.5 s, 4.5 s] holds blocks 2, 3, 4: two intervals, the
        // blocks that ended them are 3 and 4.
        let tps = goodput_tps(&stamps, &valid, 1_500_000_000, 4_500_000_000);
        assert_eq!(tps, 100.0);
        // A window with a single block falls back to the coarse count.
        assert_eq!(
            goodput_tps(&stamps, &valid, 1_500_000_000, 2_500_000_000),
            100.0
        );
        assert_eq!(goodput_tps(&[], &valid, 0, 1_000_000_000), 0.0);
        assert!(goodput_tps(&stamps, &valid, 5, 5).is_nan());
    }

    #[test]
    fn closed_shares_sum_to_the_abort_share() {
        let from = (TxStats::default(), OutcomeCounts::default());
        let stats = TxStats {
            submitted: 100,
            valid: 50,
            mvcc_conflict: 10,
            endorsement_failure: 0,
            early_abort_simulation: 5,
            early_abort_cycle: 20,
            early_abort_version_mismatch: 5,
        };
        let counts = OutcomeCounts {
            fired: 100,
            handed: 85,
            early_aborted: 5,
            rejected_mismatch: 10,
            rejected_other: 0,
        };
        let mut m = BTreeMap::new();
        closed_shares(&mut m, &from, &(stats, counts));
        assert_eq!(m["abort_share"], 0.5);
        let slices: f64 = [
            "core.endorse_mismatch_share",
            "peer.early_abort_sim_share",
            "ordering.early_abort_cycle_share",
            "ordering.early_abort_mismatch_share",
            "peer.mvcc_conflict_share",
        ]
        .iter()
        .map(|k| m[k])
        .sum();
        assert!((slices - m["abort_share"]).abs() < 1e-12);
    }

    #[test]
    fn open_phase_validity_rule() {
        let mut m = BTreeMap::new();
        let ok = OpenPhase {
            start_ns: 0,
            last_send_ns: 1_000_000_000,
            sent: 4097,
            late_ns: vec![100_000; 2000],
            due_log: vec![],
        };
        assert!(open_validity(&mut m, &ok));
        assert_eq!(m["gen.achieved_rate"], 4096.0);
        assert_eq!(m["gen.late_p99_ms"], 0.1);
        // Too slow: 4000/s is under 99 % of 4096/s.
        assert!(!open_validity(
            &mut m,
            &OpenPhase {
                sent: 4001,
                late_ns: vec![0; 2000],
                ..ok.clone()
            }
        ));
        // Too late: p99 lateness of 60 ms.
        assert!(!open_validity(
            &mut m,
            &OpenPhase {
                late_ns: vec![60_000_000; 2000],
                ..ok.clone()
            }
        ));
    }

    #[test]
    fn plan_scales_with_seconds_and_quick_is_small() {
        let p = Plan::new(20, false, false);
        assert_eq!(p.closed_proposals, 120_000);
        assert_eq!(p.open_seconds, 5.0);
        assert_eq!(Plan::new(20, false, true).setups, 1);
        let q = Plan::new(20, true, false);
        assert_eq!(q.closed_proposals, 2_000);
        assert!((q.open_seconds * OPEN_RATE - 2_000.0).abs() < 1e-9);
    }
}
