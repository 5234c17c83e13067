//! Rate-controlled multi-client experiment runner.
//!
//! Reproduces the paper's measurement methodology (§6.2.1, Table 5):
//! clients fire transaction proposals *uniformly* at a fixed rate for a
//! fixed duration into their channel; the run reports successful and
//! aborted transactions per second plus latency statistics.

use std::time::{Duration, Instant};

use fabric_common::{CostModel, PipelineConfig};
use fabric_net::LatencyModel;
use fabric_telemetry::TelemetryConfig;
use fabricpp::{FabricNetwork, NetworkBuilder, RunReport};

use crate::workload::WorkloadKind;

/// One experiment run's shape.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Label printed in result rows (e.g. "fabric", "fabric++").
    pub label: String,
    /// Pipeline mode under test.
    pub pipeline: PipelineConfig,
    /// Workload to fire.
    pub workload: WorkloadKind,
    /// Number of channels (paper §6.6a).
    pub channels: usize,
    /// Clients per channel (paper §6.6b; Table 5 default 4).
    pub clients_per_channel: usize,
    /// Proposals per second per client (Table 5 default 512).
    pub rate_per_client: f64,
    /// Firing duration (paper: 90 s; scaled default 5 s).
    pub duration: Duration,
    /// Network latency model.
    pub latency: LatencyModel,
    /// Crypto cost model.
    pub cost: CostModel,
    /// Organizations in the network (paper: 2, with 2 peers each).
    pub orgs: usize,
    /// Peers per organization.
    pub peers_per_org: usize,
    /// When set, enables the transaction flight recorder with a ring of
    /// this many events; the stream comes back as `RunReport::trace`.
    pub trace_capacity: Option<usize>,
    /// When set, enables windowed time-series telemetry; the series comes
    /// back as `RunReport::timeseries`.
    pub telemetry: Option<TelemetryConfig>,
}

impl RunSpec {
    /// The paper's default setup for a given mode and workload: 2 orgs ×
    /// 2 peers, 1 channel, 4 clients firing 512 proposals/s each.
    pub fn paper_default(
        label: impl Into<String>,
        pipeline: PipelineConfig,
        workload: WorkloadKind,
        duration: Duration,
    ) -> Self {
        RunSpec {
            label: label.into(),
            pipeline,
            workload,
            channels: 1,
            clients_per_channel: 4,
            rate_per_client: crate::firing_rate(),
            duration,
            latency: LatencyModel::lan(),
            cost: crate::cost_model(),
            orgs: 2,
            peers_per_org: 2,
            trace_capacity: None,
            telemetry: None,
        }
    }

    /// Enables the flight recorder with a ring of `capacity` events.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Enables windowed time-series telemetry for the run.
    pub fn with_telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }
}

/// Outcome of one run, with derived per-second rates.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Label copied from the spec.
    pub label: String,
    /// Raw report from the network.
    pub report: RunReport,
    /// Duration proposals were actually fired for.
    pub fire_duration: Duration,
}

impl ExperimentResult {
    /// Successful transactions per second (over the firing duration, the
    /// paper's metric).
    pub fn valid_tps(&self) -> f64 {
        self.report.stats.valid as f64 / self.fire_duration.as_secs_f64()
    }

    /// Failed/aborted transactions per second.
    pub fn aborted_tps(&self) -> f64 {
        self.report.stats.aborted() as f64 / self.fire_duration.as_secs_f64()
    }

    /// Proposals fired per second.
    pub fn submitted_tps(&self) -> f64 {
        self.report.stats.submitted as f64 / self.fire_duration.as_secs_f64()
    }
}

/// Runs one experiment: builds the network, spawns
/// `channels × clients_per_channel` firing threads, waits out the
/// duration, drains the pipeline, and returns the final report.
pub fn run_experiment(spec: &RunSpec) -> ExperimentResult {
    let mut builder = NetworkBuilder::new()
        .orgs(spec.orgs)
        .peers_per_org(spec.peers_per_org)
        .channels(spec.channels)
        .pipeline(spec.pipeline.clone())
        .latency(spec.latency.clone())
        .cost(spec.cost)
        .genesis(spec.workload.genesis());
    if let Some(capacity) = spec.trace_capacity {
        builder = builder.trace(capacity);
    }
    if let Some(cfg) = spec.telemetry {
        builder = builder.telemetry(cfg);
    }
    for cc in spec.workload.chaincodes() {
        builder = builder.deploy(cc);
    }
    let net: FabricNetwork = builder.build().expect("network build failed");

    // Each client is a *pacer* thread enqueuing proposals at exactly the
    // target rate plus a small worker pool performing the (blocking)
    // endorsement round and submission. Decoupling the two keeps the fired
    // rate independent of the pipeline mode — vanilla's coarse lock slows
    // its endorsements down, not the firing, exactly as in the paper's
    // fixed-rate methodology (Table 5).
    const WORKERS_PER_CLIENT: usize = 3;
    let fire_start = Instant::now();
    let mut threads = Vec::new();
    for ch in 0..spec.channels {
        for cl in 0..spec.clients_per_channel {
            let client = net.client(ch);
            let mut gen = spec.workload.generator((ch * 1000 + cl) as u64 + 1);
            let rate = spec.rate_per_client;
            let duration = spec.duration;
            // Bounded queue: short pipeline stalls (a block validation
            // holding the coarse lock) are buffered, sustained overload
            // back-pressures the pacer instead of growing an unbounded
            // drain tail.
            let (work_tx, work_rx) = crossbeam::channel::bounded::<Vec<u8>>(512);
            let chaincode = gen.chaincode();

            for _ in 0..WORKERS_PER_CLIENT {
                let client = client.clone();
                let work_rx = work_rx.clone();
                threads.push(std::thread::spawn(move || {
                    while let Ok(args) = work_rx.recv() {
                        let _ = client.submit(chaincode, args);
                    }
                    // Worker's client clone (orderer sender) dropped here.
                }));
            }
            drop(client);
            drop(work_rx);

            threads.push(std::thread::spawn(move || {
                let start = Instant::now();
                let mut fired = 0u64;
                loop {
                    let elapsed = start.elapsed();
                    if elapsed >= duration {
                        break;
                    }
                    // Catch-up pacing: enqueue everything due by now.
                    let due = (elapsed.as_secs_f64() * rate) as u64;
                    while fired < due {
                        if work_tx.send(gen.next_args()).is_err() {
                            return;
                        }
                        fired += 1;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                // Dropping work_tx lets the workers drain and exit.
            }));
        }
    }
    for t in threads {
        t.join().expect("client thread panicked");
    }
    let fire_duration = fire_start.elapsed();
    let report = net.finish();
    let result = ExperimentResult { label: spec.label.clone(), report, fire_duration };
    // The uniform `--json` flag: every runner-based binary contributes its
    // reports to the BENCH_*.json trajectory (no-op without the flag).
    crate::json::record_run(&result);
    result
}

/// Prints a per-phase latency table (endorse / order / validate-vscc /
/// validate-mvcc / commit) for one run, prefixed with its label. The bench
/// binaries append this after their CSV rows so the stage timings from
/// `PhaseTimers` land next to the throughput numbers they explain.
pub fn print_phase_table(label: &str, phases: &fabric_common::PhaseSummary) {
    println!("# phases[{label}]: phase,count,avg_us,p50_us,p95_us,p99_us,max_us");
    for (name, s) in phases.rows() {
        println!(
            "# phases[{label}]: {name},{},{:.1},{:.1},{:.1},{:.1},{:.1}",
            s.count,
            s.avg.as_secs_f64() * 1e6,
            s.p50.as_secs_f64() * 1e6,
            s.p95.as_secs_f64() * 1e6,
            s.p99.as_secs_f64() * 1e6,
            s.max.as_secs_f64() * 1e6,
        );
    }
}

/// Prints the reporting peers' batched state-access counters for one run:
/// the per-block prefetch/lock/WAL contract made visible next to the
/// throughput rows it explains.
pub fn print_store_stats(label: &str, s: &fabric_common::StoreStats) {
    let blocks = s.blocks_applied.max(1) as f64;
    println!(
        "# store[{label}]: blocks={} multi_get_batches={} multi_get_keys={} point_gets={} \
         shard_locks={} wal_records={} wal_fsyncs={} avg_probed_keys_per_block={:.1}",
        s.blocks_applied,
        s.multi_get_batches,
        s.multi_get_keys,
        s.point_gets,
        s.shard_lock_acquisitions,
        s.wal_records,
        s.wal_fsyncs,
        s.multi_get_keys as f64 / blocks,
    );
}

/// Handles the experiment binaries' `--trace <prefix>` flag for one run:
/// writes the flight-recorder stream as `<prefix>.jsonl` plus a Chrome
/// trace-event document at `<prefix>.chrome.json` (load it in Perfetto or
/// `chrome://tracing`), and prints a one-line summary. A run without a
/// trace (the spec never enabled it) just notes that and succeeds.
pub fn export_trace(
    label: &str,
    report: &RunReport,
    prefix: &std::path::Path,
) -> std::io::Result<()> {
    let Some(trace) = &report.trace else {
        eprintln!("# trace[{label}]: tracing was not enabled for this run");
        return Ok(());
    };
    // Append (never replace) so a prefix like `out/trace.fabric` keeps its
    // mode key: `out/trace.fabric.jsonl` + `out/trace.fabric.chrome.json`.
    let with_suffix = |suffix: &str| {
        let mut os = prefix.as_os_str().to_owned();
        os.push(suffix);
        std::path::PathBuf::from(os)
    };
    let jsonl_path = with_suffix(".jsonl");
    let chrome_path = with_suffix(".chrome.json");
    std::fs::write(&jsonl_path, fabric_trace::jsonl::to_string(&trace.events))?;
    std::fs::write(&chrome_path, fabric_trace::chrome::to_string(&trace.events))?;
    println!(
        "# trace[{label}]: {} events retained ({} emitted, {} dropped) -> {} + {}",
        trace.len(),
        trace.emitted,
        trace.dropped,
        jsonl_path.display(),
        chrome_path.display(),
    );
    Ok(())
}

/// Prints the standard result row used by the experiment binaries.
pub fn print_row(header_printed: &mut bool, cols: &[(&str, String)]) {
    if !*header_printed {
        let names: Vec<&str> = cols.iter().map(|(n, _)| *n).collect();
        println!("{}", names.join(","));
        *header_printed = true;
    }
    let vals: Vec<&str> = cols.iter().map(|(_, v)| v.as_str()).collect();
    println!("{}", vals.join(","));
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_workloads::CustomConfig;

    /// A short end-to-end smoke run through the threaded pipeline.
    #[test]
    fn smoke_run_custom_workload() {
        let spec = RunSpec {
            label: "smoke".into(),
            pipeline: PipelineConfig::fabric_pp(),
            workload: WorkloadKind::Custom(CustomConfig {
                accounts: 1000,
                ..Default::default()
            }),
            channels: 1,
            clients_per_channel: 2,
            rate_per_client: 100.0,
            duration: Duration::from_millis(800),
            latency: LatencyModel::zero(),
            cost: CostModel::raw(),
            orgs: 2,
            peers_per_org: 1,
            trace_capacity: None,
            telemetry: None,
        };
        let result = run_experiment(&spec);
        let s = result.report.stats;
        assert!(s.submitted > 50, "submitted {}", s.submitted);
        assert_eq!(s.finished(), s.submitted, "every proposal reaches an outcome");
        assert!(s.valid > 0);
        assert!(result.valid_tps() > 0.0);
        assert!(result.report.block_heights[0] >= 2, "at least genesis + one block");
        // Orderer telemetry is wired through.
        let ord = result.report.orderer;
        assert!(ord.blocks > 0);
        assert_eq!(
            ord.blocks,
            ord.cut_tx_count + ord.cut_bytes + ord.cut_timeout + ord.cut_unique_keys
                + ord.cut_flush,
            "every block has exactly one cut reason"
        );
        assert!(ord.avg_block_fill() > 0.0);
    }

    #[test]
    fn smoke_run_vanilla_blank() {
        let spec = RunSpec {
            label: "blank".into(),
            pipeline: PipelineConfig::vanilla(),
            workload: WorkloadKind::Blank,
            channels: 1,
            clients_per_channel: 1,
            rate_per_client: 200.0,
            duration: Duration::from_millis(500),
            latency: LatencyModel::zero(),
            cost: CostModel::raw(),
            orgs: 2,
            peers_per_org: 1,
            trace_capacity: None,
            telemetry: None,
        };
        let result = run_experiment(&spec);
        let s = result.report.stats;
        assert_eq!(s.finished(), s.submitted);
        // Blank transactions never conflict: all valid.
        assert_eq!(s.aborted(), 0);
        assert!(s.valid > 30);
    }
}
