//! Sustained Zipfian soak with live windowed telemetry — the over-time
//! measurement ROADMAP item 3 asks for: goodput + p99 under skewed load,
//! reported per logical-time window, not as one end-of-run aggregate.
//!
//! Clients fire Smallbank transactions (Zipfian account selection,
//! skew `--skew`) continuously — no pacing — until the reporting peer's
//! chain reaches `--blocks` committed blocks. The run's telemetry series
//! (window = `--window` blocks) lands in `results/soak_timeseries.jsonl`
//! (plus a Prometheus text rendering next to it), and the run's
//! trajectory record — goodput, p99, per-window counts — in
//! `results/BENCH_soak.json`. Performance regressions are gated by the
//! `benchmark/` package (`--compare`), not here.
//!
//! Usage: `soak_zipfian [flags]`
//!   --blocks N       committed blocks to soak for (default 200)
//!   --window W       telemetry window in blocks (default 8)
//!   --users U        Smallbank accounts (default 1000)
//!   --skew S         Zipfian s-value (default 0.9)
//!   --out PATH       timeseries JSONL path (default results/soak_timeseries.jsonl)
//!   --smoke          small run; assert the window invariants and record the
//!                    gate to $SMOKE_SUMMARY

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fabric_bench::json::run_to_json;
use fabric_bench::{arg_value, smoke};
use fabric_common::PipelineConfig;
use fabric_net::LatencyModel;
use fabric_telemetry::{jsonl, prom, TelemetryConfig, TelemetrySeries};
use fabric_workloads::smallbank::SmallbankChaincode;
use fabric_workloads::{SmallbankConfig, SmallbankWorkload, WorkloadGen};
use fabricpp::{NetworkBuilder, RunReport};

const BIN: &str = "soak_zipfian";
const CLIENTS: usize = 4;

struct SoakArgs {
    blocks: u64,
    window: u64,
    users: u64,
    skew: f64,
    out: PathBuf,
    record: PathBuf,
    smoke: bool,
}

impl SoakArgs {
    fn parse() -> Self {
        let smoke = std::env::args().any(|a| a == "--smoke");
        SoakArgs {
            blocks: arg_value("--blocks")
                .map(|s| s.parse().expect("--blocks"))
                .unwrap_or(if smoke { 24 } else { 200 }),
            window: arg_value("--window")
                .map(|s| s.parse().expect("--window"))
                .unwrap_or(if smoke { 4 } else { 8 }),
            users: arg_value("--users")
                .map(|s| s.parse().expect("--users"))
                .unwrap_or(if smoke { 200 } else { 1000 }),
            skew: arg_value("--skew").map(|s| s.parse().expect("--skew")).unwrap_or(0.9),
            out: arg_value("--out")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("results/soak_timeseries.jsonl")),
            record: PathBuf::from("results/BENCH_soak.json"),
            smoke,
        }
    }
}

/// Fires Smallbank proposals from `CLIENTS` free-running client threads
/// until the reporting peer commits `blocks` blocks (or a generous
/// wall-clock cap trips). Returns the report plus the firing duration.
fn soak(args: &SoakArgs) -> (RunReport, Duration) {
    let wl_cfg = SmallbankConfig {
        users: args.users,
        p_write: 0.9,
        s_value: args.skew,
        seed: 42,
    };
    let genesis = SmallbankWorkload::new(wl_cfg.clone()).genesis();
    let net = NetworkBuilder::new()
        .orgs(2)
        .peers_per_org(2)
        .channels(1)
        .pipeline(PipelineConfig::fabric_pp())
        .latency(LatencyModel::zero())
        .cost(fabric_common::CostModel::raw())
        .genesis(genesis)
        .deploy(SmallbankChaincode::deployable())
        .telemetry(TelemetryConfig {
            window_blocks: args.window,
            ..TelemetryConfig::default()
        })
        .build()
        .expect("network build failed");

    // Free-running load: each client thread endorses + submits as fast as
    // the pipeline accepts (the soak measures sustained capacity, so no
    // pacer). The run ends on logical progress, not wall-clock.
    let stop = Arc::new(AtomicBool::new(false));
    let fire_start = Instant::now();
    let mut threads = Vec::new();
    for cl in 0..CLIENTS {
        let client = net.client(0);
        let stop = stop.clone();
        let mut gen = SmallbankWorkload::new(SmallbankConfig {
            seed: wl_cfg.seed.wrapping_add((cl as u64 + 1).wrapping_mul(0x9E37)),
            ..wl_cfg.clone()
        });
        let chaincode = gen.chaincode();
        threads.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _ = client.submit(chaincode, gen.next_args());
            }
        }));
    }

    // Watch logical progress on the reporting peer; the cap only guards
    // against a wedged pipeline (it is not a measurement boundary).
    let reporting = net.channel_peers(0)[0].clone();
    let target_height = args.blocks + 1; // genesis included
    let cap = Duration::from_secs(600);
    while reporting.ledger().height() < target_height && fire_start.elapsed() < cap {
        std::thread::sleep(Duration::from_millis(2));
    }
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        t.join().expect("client thread panicked");
    }
    let fire_duration = fire_start.elapsed();
    (net.finish(), fire_duration)
}

/// Writes the `BENCH_soak.json` trajectory record: the headline numbers
/// and the full embedded run report.
fn write_record(
    args: &SoakArgs,
    report: &RunReport,
    fire_duration: Duration,
    goodput: f64,
) -> std::io::Result<()> {
    let series = report.timeseries.as_ref().expect("soak always records telemetry");
    let doc = format!(
        "{{\n  \"bin\": \"{BIN}\",\n  \"blocks\": {},\n  \"window\": {},\n  \"users\": {},\n  \
         \"skew\": {},\n  \"fire_duration_s\": {:.3},\n  \"goodput_tps\": {goodput:.2},\n  \
         \"p99_us\": {},\n  \"windows\": {},\n  \"dropped_windows\": {},\n  \
         \"run\": {}\n}}\n",
        args.blocks,
        args.window,
        args.users,
        args.skew,
        fire_duration.as_secs_f64(),
        report.latency.p99.as_micros(),
        series.len(),
        series.dropped_windows,
        run_to_json("soak", report, fire_duration),
    );
    if let Some(dir) = args.record.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&args.record, doc)
}

/// Prints the per-window trajectory so the soak's over-time shape is
/// visible in the job log, not only in the JSONL.
fn print_windows(series: &TelemetrySeries) {
    println!("window,end_block,blocks,submitted,valid,aborted,p50_us,p99_us,cutter_q,pins");
    for w in &series.windows {
        println!(
            "{},{},{},{},{},{},{},{},{},{}",
            w.index,
            w.end_logical_block,
            w.blocks,
            w.stats.submitted,
            w.stats.valid,
            w.stats.aborted(),
            w.latency.p50_us,
            w.latency.p99_us,
            w.gauges.cutter_queue_txs,
            w.live_pins,
        );
    }
}

fn main() {
    let args = SoakArgs::parse();
    println!(
        "# soak_zipfian: blocks={} window={} users={} skew={} smoke={}",
        args.blocks, args.window, args.users, args.skew, args.smoke
    );
    let (report, fire_duration) = soak(&args);
    let goodput = report.stats.valid as f64 / fire_duration.as_secs_f64().max(1e-9);
    let series = report.timeseries.clone().expect("telemetry was enabled");

    // Exports: JSONL + Prometheus text next to it.
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&args.out, jsonl::to_string(&series)).expect("write timeseries jsonl");
    let prom_path = args.out.with_extension("prom");
    std::fs::write(&prom_path, prom::render(&series)).expect("write timeseries prom");

    print_windows(&series);
    println!(
        "# soak: {} blocks in {:.2}s, goodput {:.1} tps, p99 {}us, {} windows -> {} + {}",
        report.block_heights[0].saturating_sub(1),
        fire_duration.as_secs_f64(),
        goodput,
        report.latency.p99.as_micros(),
        series.len(),
        args.out.display(),
        prom_path.display(),
    );

    // Window invariants: the series must partition the run exactly.
    let invariants = series.check_invariants(&report.stats);
    let mut failed = false;
    if args.smoke {
        smoke::record(
            BIN,
            "window-invariants",
            invariants.is_ok(),
            &match &invariants {
                Ok(()) => format!(
                    "{} windows over {} blocks sum to TxStats, watermarks monotone, 0 dropped",
                    series.len(),
                    args.blocks
                ),
                Err(e) => e.clone(),
            },
        );
        failed |= invariants.is_err();
    } else if let Err(e) = invariants {
        eprintln!("soak_zipfian FAILED: window invariants violated: {e}");
        failed = true;
    }

    write_record(&args, &report, fire_duration, goodput).expect("write BENCH_soak.json");
    println!("# trajectory record -> {}", args.record.display());

    if failed {
        std::process::exit(1);
    }
}
