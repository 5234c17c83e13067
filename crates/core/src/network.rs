//! Building and running a whole Fabric/Fabric++ network.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fabric_common::{
    ChannelId, ClientId, CostModel, Error, Key, LatencySummary, PhaseSummary, PipelineConfig,
    Result, StoreStats, TxStats, Value,
};
use fabric_net::{LatencyModel, NetStats};
use fabric_ordering::OrdererStatsSnapshot;
use fabric_peer::chaincode::Chaincode;
use fabric_peer::peer::Peer;
use fabric_peer::validation_pool::ValidationPool;
use fabric_telemetry::{TelemetryConfig, TelemetrySeries};
use fabric_trace::{TraceReport, TraceSink};

use crate::channel::{self, ChannelRuntime, PeerContext};
use crate::client::ClientHandle;

/// Which state-database engine each peer uses.
#[derive(Debug, Clone)]
pub enum StateEngine {
    /// Sharded in-memory store (default; benchmarks).
    Memory,
    /// From-scratch LSM engine rooted under the given directory (one
    /// subdirectory per peer, `peer-<id>`).
    Lsm(PathBuf),
}

/// Builder for a [`FabricNetwork`].
pub struct NetworkBuilder {
    orgs: usize,
    peers_per_org: usize,
    channels: usize,
    pipeline: PipelineConfig,
    latency: LatencyModel,
    cost: CostModel,
    chaincodes: Vec<Arc<dyn Chaincode>>,
    genesis: Vec<(Key, Value)>,
    engine: StateEngine,
    seed: u64,
    trace_capacity: Option<usize>,
    telemetry: Option<TelemetryConfig>,
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkBuilder {
    /// Starts from the paper's topology: 2 organizations × 2 peers, one
    /// channel, LAN latency, default crypto cost model.
    pub fn new() -> Self {
        NetworkBuilder {
            orgs: 2,
            peers_per_org: 2,
            channels: 1,
            pipeline: PipelineConfig::fabric_pp(),
            latency: LatencyModel::lan(),
            cost: CostModel::default(),
            chaincodes: Vec::new(),
            genesis: Vec::new(),
            engine: StateEngine::Memory,
            seed: 42,
            trace_capacity: None,
            telemetry: None,
        }
    }

    /// Number of organizations (each endorses per the default policy).
    pub fn orgs(mut self, n: usize) -> Self {
        self.orgs = n;
        self
    }

    /// Peers hosted by each organization.
    pub fn peers_per_org(mut self, n: usize) -> Self {
        self.peers_per_org = n;
        self
    }

    /// Number of channels (each with its own orderer, peers, state, chain).
    pub fn channels(mut self, n: usize) -> Self {
        self.channels = n;
        self
    }

    /// Pipeline configuration (vanilla Fabric, full Fabric++, or one of the
    /// single-optimization modes).
    pub fn pipeline(mut self, cfg: PipelineConfig) -> Self {
        self.pipeline = cfg;
        self
    }

    /// Network latency model.
    pub fn latency(mut self, model: LatencyModel) -> Self {
        self.latency = model;
        self
    }

    /// Cryptographic cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Deploys a chaincode under its [`Chaincode::name`].
    pub fn deploy(mut self, cc: Arc<dyn Chaincode>) -> Self {
        self.chaincodes.push(cc);
        self
    }

    /// Adds key/value pairs to the genesis state (cumulative).
    pub fn genesis(mut self, kvs: impl IntoIterator<Item = (Key, Value)>) -> Self {
        self.genesis.extend(kvs);
        self
    }

    /// Selects the state-database engine.
    pub fn engine(mut self, engine: StateEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Seed for the deterministic per-peer signing keys.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the transaction flight recorder: a shared ring of
    /// `capacity` events fed by every client, the orderers, and each
    /// channel's reporting peer. When full, the *oldest* events are
    /// dropped (and counted). The retained stream comes back as
    /// [`RunReport::trace`].
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Enables windowed time-series telemetry: the run's counters are
    /// aggregated into fixed logical-time windows (every
    /// [`TelemetryConfig::window_blocks`] committed blocks and/or
    /// [`TelemetryConfig::window_txs`] submitted transactions — never
    /// wall-clock), with subsystem gauges sampled at each window close.
    /// The series comes back as [`RunReport::timeseries`]. Observation
    /// only: block streams, state digests, and schedules are byte-for-byte
    /// identical with telemetry on or off.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Builds and starts the network.
    pub fn build(self) -> Result<FabricNetwork> {
        self.pipeline.validate()?;
        if self.orgs == 0 || self.peers_per_org == 0 || self.channels == 0 {
            return Err(Error::Config(
                "orgs, peers_per_org, and channels must all be at least 1".into(),
            ));
        }

        let sink = match self.trace_capacity {
            Some(capacity) => TraceSink::bounded(capacity),
            None => TraceSink::disabled(),
        };
        // One network-wide pool: endorsement-signature checking is
        // stateless, so every peer of every channel shares the workers.
        let pool = ValidationPool::threaded(self.pipeline.validation_workers);
        let ctx = PeerContext::new(
            &self.pipeline,
            self.orgs,
            &self.chaincodes,
            self.cost,
            self.seed,
            pool,
            sink,
            self.telemetry,
        );
        let net_stats = NetStats::new();

        let mut channels = Vec::with_capacity(self.channels);
        let mut reporting_stores = Vec::with_capacity(self.channels);
        for ch in 0..self.channels {
            // Peer ids run on across channels: 1, 2, … network-wide.
            let first_id = (ch * self.orgs * self.peers_per_org) as u64 + 1;
            let (peers, orderer) = channel::assemble(
                &ctx,
                &self.pipeline,
                self.peers_per_org,
                first_id,
                &self.engine,
                &self.genesis,
                |_| Ok(Arc::default()),
            )?;
            reporting_stores.push(peers[0].store().counters());
            channels.push(ChannelRuntime::spawn(
                ChannelId(ch as u64),
                peers,
                orderer,
                self.latency.clone(),
                net_stats.clone(),
            ));
        }
        ctx.connect_telemetry(reporting_stores);

        Ok(FabricNetwork {
            channels,
            ctx,
            net_stats,
            latency_model: self.latency,
            started: Instant::now(),
            next_client: AtomicU64::new(0),
        })
    }
}

/// A running network: channels, peers, and shared metric sinks.
pub struct FabricNetwork {
    channels: Vec<ChannelRuntime>,
    /// The run's counters, recorders (the orderers' cut counters among
    /// them), sink and telemetry hub.
    ctx: PeerContext,
    net_stats: NetStats,
    latency_model: LatencyModel,
    started: Instant,
    next_client: AtomicU64,
}

impl FabricNetwork {
    /// Creates a client bound to channel `channel_idx`, endorsing at the
    /// first peer of each organization (the default policy's minimum).
    pub fn client(&self, channel_idx: usize) -> ClientHandle {
        let channel = &self.channels[channel_idx];
        let peers = channel.peers();
        let per_org = peers.len() / self.ctx.policy.required_orgs().len();
        let endorsers: Vec<Arc<Peer>> = peers.iter().step_by(per_org).cloned().collect();
        let id = ClientId(self.next_client.fetch_add(1, Ordering::Relaxed));
        ClientHandle::new(
            channel.id(),
            id.raw().into(),
            endorsers,
            channel.orderer_sender(),
            self.latency_model.clone(),
            self.ctx.counters.clone(),
            self.ctx.sink.clone(),
        )
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The peers of channel `channel_idx`, in slot order (slot 0 is the
    /// reporting peer). They live for the whole run, so handles taken
    /// before [`FabricNetwork::finish`] read every peer's final ledger and
    /// state afterwards.
    pub fn channel_peers(&self, channel_idx: usize) -> Vec<Arc<Peer>> {
        self.channels[channel_idx].peers().to_vec()
    }

    /// Live snapshot of the outcome counters.
    pub fn stats(&self) -> TxStats {
        self.ctx.counters.snapshot()
    }

    /// Live latency summary (valid transactions, end-to-end).
    pub fn latency(&self) -> LatencySummary {
        self.ctx.latency.summary()
    }

    /// Shuts everything down, drains the pipeline, audits every ledger,
    /// and returns the run report.
    ///
    /// All [`ClientHandle`]s must be dropped before calling this, or the
    /// orderer threads will never see the end of their input streams.
    pub fn finish(mut self) -> RunReport {
        for ch in &mut self.channels {
            ch.shutdown();
        }
        let elapsed = self.started.elapsed();
        let mut block_heights = Vec::with_capacity(self.channels.len());
        let mut store = StoreStats::default();
        for ch in &self.channels {
            for peer in ch.peers() {
                peer.ledger().verify_chain().expect("ledger audit failed");
            }
            block_heights.push(ch.peers()[0].ledger().height());
            store = store.merge(&ch.peers()[0].store().counters().snapshot());
        }
        RunReport {
            elapsed,
            stats: self.ctx.counters.snapshot(),
            latency: self.ctx.latency.summary(),
            net_messages: self.net_stats.messages(),
            net_bytes: self.net_stats.bytes(),
            orderer: self.ctx.orderer_stats.snapshot(),
            phases: self.ctx.phase_timers.summary(),
            block_heights,
            store,
            trace: self.ctx.sink.is_enabled().then(|| self.ctx.sink.report()),
            timeseries: self.ctx.telemetry.finish(),
        }
    }
}

impl std::fmt::Debug for FabricNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FabricNetwork({} channels)", self.channels.len())
    }
}

/// Final metrics of one network run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock duration from build to finish.
    pub elapsed: Duration,
    /// Final outcome counters.
    pub stats: TxStats,
    /// End-to-end latency of valid transactions.
    pub latency: LatencySummary,
    /// Simulated-network messages sent.
    pub net_messages: u64,
    /// Simulated-network bytes sent.
    pub net_bytes: u64,
    /// Ordering-service telemetry (cut reasons, block fill, reorder cost),
    /// aggregated over all channels.
    pub orderer: OrdererStatsSnapshot,
    /// Per-phase latency summaries (endorse / order / validate-vscc /
    /// validate-mvcc / commit) from the reporting peer and the orderers.
    pub phases: PhaseSummary,
    /// Final chain height per channel (including the genesis block).
    pub block_heights: Vec<u64>,
    /// Batched state-access counters from the reporting peer of every
    /// channel (multi-get batches, shard-lock acquisitions, WAL records):
    /// the observable side of the one-prefetch-per-block / one-lock-per-
    /// shard-per-block / one-WAL-record-per-block contract.
    pub store: StoreStats,
    /// Flight-recorder stream (`Some` only when [`NetworkBuilder::trace`]
    /// enabled tracing): per-transaction lifecycle events with abort
    /// provenance plus per-block span events, ready for the `fabric-trace`
    /// exporters (JSONL, Chrome trace, Prometheus).
    pub trace: Option<TraceReport>,
    /// Windowed time-series telemetry (`Some` only when
    /// [`NetworkBuilder::telemetry`] enabled it): per-window goodput,
    /// abort breakdown, latency quantiles, and subsystem gauges over
    /// logical-time windows, ready for the `fabric-telemetry` exporters.
    pub timeseries: Option<TelemetrySeries>,
}

impl RunReport {
    /// Successful transactions per second over the run.
    pub fn valid_tps(&self) -> f64 {
        self.stats.valid_tps(self.elapsed)
    }

    /// Aborted transactions per second over the run.
    pub fn aborted_tps(&self) -> f64 {
        self.stats.aborted_tps(self.elapsed)
    }
}
