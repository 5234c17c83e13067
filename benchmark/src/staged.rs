//! The staged driver: one thread walks batches of 1024 proposals through
//! the pipeline stage by stage, every stage invoked through its layer's
//! public function and timed from here.
//!
//! Batch k+1 is endorsed half before and half after batch k commits, so
//! cross-block MVCC conflicts and version-mismatch early aborts fire as
//! they do under load.
//! Where a stage's inside is not visible from outside, a *shadow* span
//! feeds the same real input to the inner layer in isolation (on shadow
//! stores and a shadow ledger that mirror the primary peer block by block).
//!
//! The counts are a pure function of workload and seed; a second, shorter
//! invocation checks that they repeat exactly.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fabric_common::{
    ChannelId, ClientId, CostModel, Key, OrgId, PeerId, SignerRegistry, SigningKey, Transaction,
    TransactionProposal, TxId, ValidationCode,
};
use fabric_ledger::{Block, CommittedBlock, Ledger};
use fabric_ordering::early_abort::split_version_mismatches;
use fabric_ordering::{BatchCutter, BatchPrep, OrderingService};
use fabric_peer::chaincode::ChaincodeRegistry;
use fabric_peer::committer::commit_block;
use fabric_peer::peer::Peer;
use fabric_peer::validator::{check_endorsements, mvcc_validate, EndorsementPolicy};
use fabric_reorder::ReorderConfig;
use fabric_statedb::{CommitWrite, LsmConfig, LsmStateDb, MemStateDb, StateStore};
use fabric_workloads::WorkloadGen;
use fabricpp::client::assemble_transaction;

use crate::check::{valid_writes, Check};
use crate::run::Plan;
use crate::span::{SpanId, SpanLog};
use crate::stats;
use crate::workloads::Workload;

/// Proposals per staged batch: the shipped block size.
pub const BATCH: usize = 1024;

/// Exact counts of one block; equal across invocations with the same seed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockCounts {
    pub batch_len: u64,
    pub graph_edges: u64,
    pub nontrivial_sccs: u64,
    pub cycles: u64,
    pub fallback: bool,
    pub cycle_aborts: u64,
    pub mismatch_aborts: u64,
    pub mvcc_aborts: u64,
    pub endorsement_failures: u64,
    pub valid: u64,
    pub block_bytes: u64,
    pub keys_written: u64,
    pub wal_bytes: u64,
}

/// What [`run_checked`] hands back to the run.
#[derive(Debug, Default)]
pub struct StagedOutput {
    pub metrics: BTreeMap<&'static str, f64>,
    pub checks: Vec<Check>,
    /// Proposals the staged driver fired.
    pub attempted: u64,
}

/// Stages of the primary path, whose durations add up to the pipeline's
/// single-threaded cost of a transaction.
const PRIMARY_STAGES: [&str; 9] = [
    "workloads.gen",
    "peer.endorse",
    "core.assemble",
    "ordering.cut",
    "ordering.prepare",
    "ordering.seal",
    "peer.vscc",
    "peer.mvcc",
    "peer.commit",
];
const ROOT: &str = "staged.iteration";

/// Stage spans and the metric each one's self time is reported under.
const STAGE_METRICS: [(&str, &str); 17] = [
    ("workloads.gen", "workloads.gen_us_per_tx"),
    ("peer.endorse", "peer.endorse_us_per_tx"),
    ("core.assemble", "core.assemble_us_per_tx"),
    ("ordering.cut", "ordering.cut_us_per_tx"),
    ("peer.vscc", "peer.vscc_us_per_tx"),
    ("ordering.prepare", "ordering.prepare_us_per_block"),
    ("ordering.seal", "ordering.seal_us_per_block"),
    ("peer.mvcc", "peer.mvcc_us_per_block"),
    ("peer.commit", "peer.commit_us_per_block"),
    ("peer.process_block", "peer.process_block_us_per_block"),
    ("ordering.early_abort", "ordering.early_abort_us_per_block"),
    ("reorder.reorder", "reorder.reorder_us_per_block"),
    ("statedb.mem.apply", "statedb.mem.apply_us_per_block"),
    ("statedb.lsm.apply", "statedb.lsm.apply_us_per_block"),
    (
        "statedb.mem.multi_get",
        "statedb.mem.multi_get_us_per_block",
    ),
    (
        "statedb.lsm.multi_get",
        "statedb.lsm.multi_get_us_per_block",
    ),
    ("ledger.append", "ledger.append_us_per_block"),
];

/// The shadow side: one store of each engine and a ledger, fed the primary
/// peer's real inputs block by block.
struct Shadows {
    mem: MemStateDb,
    lsm: LsmStateDb,
    lsm_wal: std::path::PathBuf,
    ledger: Ledger,
    reorder_cfg: ReorderConfig,
}

struct Staged<'a> {
    workload: Workload,
    /// `peers[0]` is driven stage by stage; `peers[1]` runs
    /// `Peer::process_block` on the same blocks as a cross-check.
    peers: [Peer; 2],
    registry: SignerRegistry,
    policy: EndorsementPolicy,
    gen: Box<dyn WorkloadGen>,
    cutter: BatchCutter,
    prep: BatchPrep,
    service: OrderingService,
    /// Injected cutter clock: never advances, so only the count, byte and
    /// unique-key conditions (all functions of the input) cut blocks.
    cut_clock: Instant,
    next_tx: u64,
    shadows: Option<Shadows>,
    log: &'a mut SpanLog,
    counts: Vec<BlockCounts>,
    covered: bool,
    peers_agree: bool,
}

impl<'a> Staged<'a> {
    fn new(workload: Workload, seed: u64, dir: &Path, shadows: bool, log: &'a mut SpanLog) -> Self {
        let _ = std::fs::remove_dir_all(dir);
        let cfg = workload.pipeline();
        let genesis = workload.genesis(seed);
        let registry = SignerRegistry::new();
        let policy = EndorsementPolicy::require_orgs(vec![OrgId(1), OrgId(2)]);
        let cc = workload.chaincode();
        let mut chaincodes = ChaincodeRegistry::new();
        chaincodes.deploy(cc.name().to_owned(), cc);
        let open_lsm = |name: &str| {
            LsmStateDb::open(dir.join(name), LsmConfig::default()).expect("LSM open failed")
        };
        // One peer per org; peer and org share the id.
        let peers = [1u64, 2].map(|id| {
            let store: Arc<dyn StateStore> = if workload.lsm {
                Arc::new(open_lsm(&format!("peer{id}")))
            } else {
                Arc::new(MemStateDb::new())
            };
            let key = SigningKey::for_peer(PeerId(id), seed);
            registry.register(PeerId(id), key.clone());
            let peer = Peer::new(
                PeerId(id),
                OrgId(id),
                key,
                store,
                chaincodes.clone(),
                registry.clone(),
                policy.clone(),
                cfg.concurrency,
                cfg.early_abort_simulation,
                CostModel::raw(),
            );
            peer.install_genesis(&genesis)
                .expect("genesis install failed");
            peer
        });

        let shadows = shadows.then(|| {
            let writes: Vec<CommitWrite> = genesis
                .iter()
                .map(|(k, v)| CommitWrite::put(k.clone(), v.clone(), 0))
                .collect();
            let mem = MemStateDb::new();
            mem.apply_block(0, &writes).expect("shadow genesis");
            let lsm = open_lsm("shadow-lsm");
            lsm.apply_block(0, &writes).expect("shadow genesis");
            let ledger = Ledger::new();
            let block0 = peers[0].ledger().get(0).expect("genesis block");
            ledger
                .append((*block0).clone())
                .expect("shadow genesis block");
            Shadows {
                mem,
                lsm,
                lsm_wal: dir.join("shadow-lsm").join("wal.log"),
                ledger,
                reorder_cfg: BatchPrep::new(&cfg).reorder_config().clone(),
            }
        });

        let service = OrderingService::new(&cfg).resume_at(1, peers[0].ledger().tip_hash());
        Staged {
            workload,
            gen: workload.generator(seed, 1),
            cutter: BatchCutter::new(cfg.cutting.clone()),
            prep: service.batch_prep(),
            service,
            cut_clock: Instant::now(),
            next_tx: 1,
            peers,
            registry,
            policy,
            shadows,
            log,
            counts: Vec::new(),
            covered: true,
            peers_agree: true,
        }
    }

    /// gen -> endorse (one peer per org) -> assemble, for `count` proposals
    /// of batch `batch_no`.
    fn endorse(&mut self, root: SpanId, batch_no: u64, count: usize) -> Vec<Transaction> {
        let block = Some(batch_no);
        let n = count as u64;
        let gen = &mut self.gen;
        let (id, args) = self.log.time("workloads.gen", Some(root), block, || {
            (0..count).map(|_| gen.next_args()).collect::<Vec<_>>()
        });
        self.log.set_units(id, n);

        let chaincode = self.gen.chaincode();
        let proposals: Vec<TransactionProposal> = args
            .into_iter()
            .map(|a| {
                let id = TxId(self.next_tx);
                self.next_tx += 1;
                TransactionProposal::with_id(id, ChannelId(0), ClientId(0), chaincode, a)
            })
            .collect();
        let peers = &self.peers;
        let (id, responses) = self.log.time("peer.endorse", Some(root), block, || {
            proposals
                .iter()
                .map(|p| {
                    peers
                        .iter()
                        .map(|peer| peer.endorse(p).expect("endorsement failed"))
                        .collect()
                })
                .collect::<Vec<Vec<_>>>()
        });
        self.log.set_units(id, n);

        let (id, txs) = self.log.time("core.assemble", Some(root), block, || {
            proposals
                .iter()
                .zip(responses)
                .map(|(p, r)| assemble_transaction(p, r).expect("endorsers disagreed"))
                .collect::<Vec<_>>()
        });
        self.log.set_units(id, n);
        txs
    }

    /// cut -> (prepare -> seal -> vscc -> mvcc -> commit) per cut batch.
    fn order_and_commit(&mut self, root: SpanId, batch_no: u64, txs: Vec<Transaction>) {
        let n = txs.len() as u64;
        let (cutter, clock) = (&mut self.cutter, self.cut_clock);
        let (id, cuts) = self
            .log
            .time("ordering.cut", Some(root), Some(batch_no), || {
                let mut cuts = Vec::new();
                for tx in txs {
                    cuts.extend(cutter.push(tx, clock));
                }
                cuts.extend(cutter.flush());
                cuts
            });
        self.log.set_units(id, n);
        for (batch, _reason) in cuts {
            self.commit_one(root, batch);
        }
    }

    fn commit_one(&mut self, root: SpanId, batch: Vec<Transaction>) {
        let number = self.service.next_block_num();
        let block_id = Some(number);
        let mut counts = BlockCounts {
            batch_len: batch.len() as u64,
            ..Default::default()
        };
        let ids_in: Vec<TxId> = batch.iter().map(|t| t.id).collect();
        let shadow_batch =
            (self.shadows.is_some() && !self.workload.vanilla).then(|| batch.clone());

        let prep = &self.prep;
        let (prepare_id, plan) = self.log.time("ordering.prepare", Some(root), block_id, || {
            prep.prepare(batch)
        });
        counts.graph_edges = plan.stats.edges as u64;
        counts.nontrivial_sccs = plan.stats.nontrivial_sccs as u64;
        counts.cycles = plan.stats.cycles as u64;
        counts.fallback = plan.stats.fallback_used;
        for (_, code) in &plan.early_aborted {
            match code {
                ValidationCode::EarlyAbortCycle => counts.cycle_aborts += 1,
                _ => counts.mismatch_aborts += 1,
            }
        }
        // The plan holds every input transaction exactly once.
        let mut ids_out: Vec<TxId> = plan
            .ordered
            .iter()
            .chain(plan.early_aborted.iter().map(|(t, _)| t))
            .map(|t| t.id)
            .collect();
        ids_out.sort_unstable();
        let mut sorted_in = ids_in;
        sorted_in.sort_unstable();
        self.covered &= ids_out == sorted_in;

        if let (Some(sh), Some(batch)) = (&self.shadows, shadow_batch) {
            let (_, (survivors, _)) =
                self.log
                    .time("ordering.early_abort", Some(prepare_id), block_id, || {
                        split_version_mismatches(batch)
                    });
            let sets: Vec<_> = survivors.iter().map(|t| &t.rwset).collect();
            let (_, result) = self
                .log
                .time("reorder.reorder", Some(prepare_id), block_id, || {
                    fabric_reorder::reorder(&sets, &sh.reorder_cfg)
                });
            let mut seen: Vec<usize> = result
                .schedule
                .iter()
                .chain(result.aborted.iter())
                .copied()
                .collect();
            seen.sort_unstable();
            self.covered &= seen.iter().copied().eq(0..sets.len());
        }

        let service = &mut self.service;
        let (_, sealed) = self
            .log
            .time("ordering.seal", Some(root), block_id, || service.seal(plan));
        let Some(ordered) = sealed else {
            // Every transaction of the batch was aborted at order time.
            self.counts.push(counts);
            return;
        };
        let block: Block = ordered.block;
        let block_txs = block.txs.len() as u64;
        counts.block_bytes = block.byte_size() as u64;
        let block_for_second_peer = block.clone();

        let (registry, policy) = (&self.registry, &self.policy);
        let (id, ok) = self.log.time("peer.vscc", Some(root), block_id, || {
            check_endorsements(&block, registry, policy, CostModel::raw())
        });
        self.log.set_units(id, block_txs);

        let primary = &self.peers[0];
        let (mvcc_id, codes) = self.log.time("peer.mvcc", Some(root), block_id, || {
            mvcc_validate(&block, primary.store().as_ref(), &ok).expect("MVCC validation failed")
        });
        for code in &codes {
            match code {
                ValidationCode::Valid => counts.valid += 1,
                ValidationCode::MvccConflict => counts.mvcc_aborts += 1,
                _ => counts.endorsement_failures += 1,
            }
        }

        // Inputs of the shadow spans, taken before the block moves into the
        // ledger: its distinct read keys and the writes of its valid txs.
        let mut read_keys: Vec<Key> = block
            .txs
            .iter()
            .flat_map(|t| t.rwset.reads.keys().cloned())
            .collect();
        read_keys.sort_unstable();
        read_keys.dedup();
        let writes = valid_writes(&block.txs, &codes);
        counts.keys_written = writes.len() as u64;
        let shadow_committed = self
            .shadows
            .is_some()
            .then(|| CommittedBlock::new(block.clone(), codes.clone()).expect("flags line up"));

        // A shadow store's span is a child of the stage it shadows only when
        // the primary peer runs that engine; the other engine's span is there
        // for comparison and hangs off nothing.
        let on_lsm = self.workload.lsm;
        let child_of = |stage: SpanId, lsm_shadow: bool| (on_lsm == lsm_shadow).then_some(stage);

        if let Some(sh) = &self.shadows {
            self.log.time(
                "statedb.mem.multi_get",
                child_of(mvcc_id, false),
                block_id,
                || {
                    sh.mem
                        .multi_get_versions(&read_keys)
                        .expect("shadow multi-get")
                },
            );
            self.log.time(
                "statedb.lsm.multi_get",
                child_of(mvcc_id, true),
                block_id,
                || {
                    sh.lsm
                        .multi_get_versions(&read_keys)
                        .expect("shadow multi-get")
                },
            );
        }

        let (commit_id, committed) = self.log.time("peer.commit", Some(root), block_id, || {
            commit_block(block, codes, primary.store().as_ref(), primary.ledger())
                .expect("commit failed")
        });

        if let (Some(sh), Some(cb)) = (&self.shadows, shadow_committed) {
            self.log.time(
                "statedb.mem.apply",
                child_of(commit_id, false),
                block_id,
                || sh.mem.apply_block(number, &writes).expect("shadow apply"),
            );
            let wal_before = wal_len(&sh.lsm_wal);
            self.log.time(
                "statedb.lsm.apply",
                child_of(commit_id, true),
                block_id,
                || sh.lsm.apply_block(number, &writes).expect("shadow apply"),
            );
            // A memtable flush truncates the WAL; such a block has no delta.
            counts.wal_bytes = wal_len(&sh.lsm_wal).saturating_sub(wal_before);
            self.log
                .time("ledger.append", Some(commit_id), block_id, || {
                    sh.ledger.append(cb).expect("shadow append")
                });
        }

        let second = &self.peers[1];
        let (_, second_committed) =
            self.log
                .time("peer.process_block", Some(root), block_id, || {
                    second
                        .process_block(block_for_second_peer)
                        .expect("process_block failed")
                });
        self.peers_agree &= second_committed.validity == committed.validity;
        self.counts.push(counts);
    }

    /// Iteration k endorses the first half of batch k+1, orders and
    /// commits batch k, then endorses the second half of batch k+1. Batch
    /// k+1 was thus simulated partly before and partly after block k: its
    /// first half can fail MVCC against block k's writes, and its halves
    /// disagree on the versions of the keys block k wrote, which is what
    /// the order-time version-mismatch abort looks for.
    fn run(&mut self, blocks: usize) {
        let root = self.log.open(ROOT, None, None);
        let mut batch = self.endorse(root, 0, BATCH);
        self.log.close(root);
        for k in 0..blocks as u64 {
            let root = self.log.open(ROOT, None, Some(k));
            let more = k + 1 < blocks as u64;
            let mut next = if more {
                self.endorse(root, k + 1, BATCH / 2)
            } else {
                Vec::new()
            };
            self.order_and_commit(root, k, batch);
            if more {
                next.extend(self.endorse(root, k + 1, BATCH - BATCH / 2));
            }
            batch = next;
            self.log.close(root);
        }
    }
}

fn wal_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// One staged invocation: `blocks` batches of [`BATCH`] proposals.
struct Invocation {
    counts: Vec<BlockCounts>,
    checks: Vec<Check>,
}

fn invoke(
    workload: Workload,
    seed: u64,
    blocks: usize,
    dir: &Path,
    shadows: bool,
    log: &mut SpanLog,
) -> Invocation {
    let mut staged = Staged::new(workload, seed, dir, shadows, log);
    staged.run(blocks);
    let mut checks = vec![
        Check::new(
            "staged: schedule + aborted cover every input exactly once",
            staged.covered,
            "",
        ),
        Check::new(
            "staged: process_block on the second peer agrees",
            staged.peers_agree,
            "",
        ),
    ];
    let digest = |store: &dyn StateStore| store.state_digest().ok();
    let primary = digest(staged.peers[0].store().as_ref());
    let mut same = primary.is_some() && digest(staged.peers[1].store().as_ref()) == primary;
    if let Some(sh) = &staged.shadows {
        same &= digest(&sh.mem) == primary && digest(&sh.lsm) == primary;
        same &= sh.ledger.tip_hash() == staged.peers[0].ledger().tip_hash();
    }
    checks.push(Check::new(
        "staged: peers and shadow stores end in the same state",
        same,
        "",
    ));
    let counts = std::mem::take(&mut staged.counts);
    drop(staged);
    let _ = std::fs::remove_dir_all(dir);
    Invocation { counts, checks }
}

/// Runs the staged driver with spans and shadows, then a shorter second
/// invocation with the same seed whose counts must equal the first's.
pub fn run_checked(
    workload: Workload,
    seed: u64,
    plan: &Plan,
    dir: &Path,
    log: &mut SpanLog,
) -> StagedOutput {
    let first_span = log.spans().len();
    let first = invoke(workload, seed, plan.staged_blocks, dir, true, log);
    let mut out = StagedOutput {
        metrics: stage_metrics(log, first_span, plan.staged_blocks as u64 * BATCH as u64),
        checks: first.checks,
        attempted: ((plan.staged_blocks + plan.staged_repeat_blocks) * BATCH) as u64,
    };
    count_metrics(
        &mut out.metrics,
        &first.counts,
        plan.staged_blocks as u64 * BATCH as u64,
    );

    let mut scratch = SpanLog::new(Instant::now());
    let repeat = invoke(
        workload,
        seed,
        plan.staged_repeat_blocks,
        dir,
        false,
        &mut scratch,
    );
    out.checks.extend(repeat.checks);
    // The repeat runs without shadows, so it has no WAL delta to compare.
    let comparable = |c: &BlockCounts| BlockCounts {
        wal_bytes: 0,
        ..c.clone()
    };
    let identical = repeat.counts.len() <= first.counts.len()
        && repeat
            .counts
            .iter()
            .zip(&first.counts)
            .all(|(a, b)| comparable(a) == comparable(b))
        && !repeat.counts.is_empty();
    out.checks.push(Check::new(
        "staged: counts of two same-seed invocations are identical",
        identical,
        &format!("{} blocks compared", repeat.counts.len()),
    ));
    out
}

/// Self time per stage: per-tx stages divided by the transactions they
/// processed, everything reported as the median over blocks.
fn stage_metrics(log: &SpanLog, first_span: usize, proposals: u64) -> BTreeMap<&'static str, f64> {
    let own = log.self_ns();
    let spans = &log.spans()[first_span..];
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut total = BTreeMap::<&'static str, u64>::new();
    for (s, own_ns) in spans.iter().zip(&own[first_span..]) {
        *total.entry(s.name).or_default() += s.dur_ns();
        samples
            .entry(s.name)
            .or_default()
            .push(*own_ns as f64 / 1e3 / s.units.max(1) as f64);
    }
    let mut m = BTreeMap::new();
    for (span, metric) in STAGE_METRICS {
        // A stage the preset never runs (reorder on vanilla Fabric) costs 0.
        m.insert(
            metric,
            samples
                .get(span)
                .map_or(0.0, |values| stats::median(values)),
        );
    }
    let sum = |names: &[&str]| {
        names
            .iter()
            .map(|n| total.get(n).copied().unwrap_or(0))
            .sum::<u64>()
    };
    let root_ns = sum(&[ROOT]);
    let covered_ns: u64 = total
        .iter()
        .filter(|(n, _)| **n != ROOT)
        .map(|(_, v)| v)
        .sum();
    m.insert(
        "staged.unattributed_share",
        1.0 - covered_ns as f64 / root_ns.max(1) as f64,
    );
    m.insert(
        "staged.process_block_ratio",
        sum(&["peer.process_block"]) as f64
            / sum(&["peer.vscc", "peer.mvcc", "peer.commit"]).max(1) as f64,
    );
    m.insert(
        "staged.us_per_tx_total",
        sum(&PRIMARY_STAGES) as f64 / 1e3 / proposals.max(1) as f64,
    );
    m
}

fn count_metrics(m: &mut BTreeMap<&'static str, f64>, counts: &[BlockCounts], proposals: u64) {
    let total = |f: fn(&BlockCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let blocks: Vec<&BlockCounts> = counts.iter().filter(|c| c.block_bytes > 0).collect();
    let per_block = |f: fn(&BlockCounts) -> u64| {
        blocks.iter().map(|c| f(c)).sum::<u64>() as f64 / blocks.len().max(1) as f64
    };
    m.insert("reorder.graph_edges", total(|c| c.graph_edges));
    m.insert("reorder.nontrivial_sccs", total(|c| c.nontrivial_sccs));
    m.insert("reorder.cycles", total(|c| c.cycles));
    m.insert("reorder.fallbacks", total(|c| u64::from(c.fallback)));
    m.insert("reorder.cycle_aborts", total(|c| c.cycle_aborts));
    m.insert("ordering.mismatch_aborts", total(|c| c.mismatch_aborts));
    m.insert("peer.mvcc_aborts", total(|c| c.mvcc_aborts));
    m.insert(
        "staged.valid_share",
        total(|c| c.valid) / proposals.max(1) as f64,
    );
    m.insert("staged.blocks", blocks.len() as f64);
    m.insert("common.block_bytes_avg", per_block(|c| c.block_bytes));
    m.insert(
        "statedb.keys_written_per_block",
        per_block(|c| c.keys_written),
    );
    let wal: Vec<f64> = blocks
        .iter()
        .filter(|c| c.wal_bytes > 0)
        .map(|c| c.wal_bytes as f64)
        .collect();
    m.insert(
        "statedb.lsm.wal_bytes_per_block",
        if wal.is_empty() {
            0.0
        } else {
            stats::median(&wal)
        },
    );
}
