//! The fault injector: turns a [`FaultPlan`] plus a seed into concrete,
//! reproducible per-message and per-WAL-append fault verdicts.
//!
//! The chaos harness consults [`FaultInjector::on_send`] for every block
//! delivery on a [`LinkId`] and applies the [`SendFault`] verdict; via
//! [`FaultInjector::wal_policy`] the injector is also the
//! [`fabric_statedb::WalFaultPolicy`] for the LSM write-ahead log.
//!
//! Every injected fault is recorded in an event log with a monotonically
//! increasing sequence number. Two runs with the same plan and seed must
//! produce byte-identical event logs — `schedule_digest` condenses the log
//! into one hash for cheap equality asserts in tests.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use fabric_common::hash::{Digest, Sha256};
use fabric_common::BlockNum;
use fabric_statedb::{WalFaultPolicy, WalIoFault};
use fabric_trace::{EventKind, FaultKind, TraceSink};

use crate::plan::FaultPlan;
use crate::rng::ChaosRng;

/// One directed link, identified by simulated endpoint ids. `u32::MAX`
/// denotes the ordering service as a source. Its `Debug` form is part of
/// every schedule digest, so its name and fields are fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkId {
    /// Sending endpoint.
    pub from: u32,
    /// Receiving endpoint.
    pub to: u32,
}

impl LinkId {
    /// Id of the ordering service endpoint.
    pub const ORDERER: u32 = u32::MAX;

    /// Link from the ordering service to peer `to`.
    pub fn from_orderer(to: u32) -> Self {
        LinkId { from: Self::ORDERER, to }
    }
}

/// Verdict for one message, produced by [`FaultInjector::on_send`]. Its
/// `Debug` form is part of every schedule digest, like [`LinkId`]'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFault {
    /// Deliver normally.
    Deliver,
    /// Silently discard the message (the sender still observes success,
    /// as with a lossy wire).
    Drop,
    /// Deliver the message plus `extra` additional copies.
    Duplicate {
        /// Number of extra copies beyond the original.
        extra: u32,
    },
    /// Deliver after an additional latency spike.
    Delay {
        /// Extra delay added on top of the latency model.
        extra: Duration,
    },
    /// Hold this message and the next `len - 1` on the same link, then
    /// release all of them in reverse order.
    ReorderBurst {
        /// Total number of messages in the burst (≥ 2 to reorder).
        len: u32,
    },
}

/// One recorded fault decision. `Deliver` verdicts are not logged — the
/// schedule is the (typically sparse) set of injected faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// A network-level fault on `link`'s `nth` message (0-based).
    Net {
        /// Global injection sequence number.
        seq: u64,
        /// The affected link.
        link: LinkId,
        /// 0-based index of the message on that link.
        nth: u64,
        /// The verdict (never `SendFault::Deliver`).
        verdict: SendFault,
        /// True when the verdict came from a scheduled partition rather
        /// than a random dice roll.
        partition: bool,
    },
    /// A WAL append fault on `block`.
    Wal {
        /// Global injection sequence number.
        seq: u64,
        /// The WAL block the fault fired on.
        block: BlockNum,
        /// Bytes of the frame kept on disk (torn write).
        keep: usize,
    },
}

struct Inner {
    rng: ChaosRng,
    seq: u64,
    /// Per-link message counters, keyed by link. A `Vec` keeps iteration
    /// order (and thus the event log) deterministic.
    link_counts: Vec<(LinkId, u64)>,
    events: Vec<FaultEvent>,
    /// WAL faults already fired (index into `plan.wal_faults`), so each
    /// scheduled fault fires exactly once.
    wal_fired: Vec<bool>,
}

/// Deterministic fault oracle shared by the network and storage layers.
///
/// Interior mutability (one mutex around all decision state) lets the
/// network and the WAL share one injector behind `&self`; in the
/// single-threaded chaos harness the lock is uncontended and the verdict
/// order — hence the event log — is fully determined by the seed.
pub struct FaultInjector {
    plan: FaultPlan,
    inner: Mutex<Inner>,
    /// Flight-recorder mirror of the event log. Observation-only: the sink
    /// is consulted strictly after a verdict (and its event-log entry) is
    /// decided, so attaching a trace can never perturb the schedule.
    sink: TraceSink,
}

impl FaultInjector {
    /// Builds an injector for `plan`, validating it first.
    pub fn new(plan: FaultPlan) -> fabric_common::Result<Arc<Self>> {
        Self::new_traced(plan, TraceSink::disabled())
    }

    /// [`FaultInjector::new`] with a flight-recorder sink: every injected
    /// fault is mirrored as an [`EventKind::FaultNet`] / [`EventKind::FaultWal`]
    /// event carrying the injector's own sequence number.
    pub fn new_traced(plan: FaultPlan, sink: TraceSink) -> fabric_common::Result<Arc<Self>> {
        plan.validate()?;
        let rng = ChaosRng::new(plan.seed);
        let wal_fired = vec![false; plan.wal_faults.len()];
        Ok(Arc::new(FaultInjector {
            plan,
            inner: Mutex::new(Inner {
                rng,
                seq: 0,
                link_counts: Vec::new(),
                events: Vec::new(),
                wal_fired,
            }),
            sink,
        }))
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot of the injected-fault log, in decision order.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.inner.lock().unwrap().events.clone()
    }

    /// Number of faults injected so far.
    pub fn fault_count(&self) -> u64 {
        self.inner.lock().unwrap().seq
    }

    /// Hash of the full event log. Equal digests ⇔ identical schedules,
    /// which is the determinism contract: same plan + same seed + same
    /// call sequence ⇒ same digest.
    pub fn schedule_digest(&self) -> Digest {
        let inner = self.inner.lock().unwrap();
        let mut h = Sha256::new();
        for ev in &inner.events {
            h.update(format!("{ev:?}").as_bytes());
        }
        h.finalize()
    }

    /// A [`WalFaultPolicy`] view of this injector, to hang on
    /// `LsmConfig::wal_faults`.
    pub fn wal_policy(self: &Arc<Self>) -> Arc<dyn WalFaultPolicy> {
        Arc::new(WalAdapter { injector: Arc::clone(self) })
    }

    /// Verdict for the next message on `link`: a deterministic function
    /// of the plan, the seed and the sequence of earlier calls.
    pub fn on_send(&self, link: LinkId) -> SendFault {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;

        let nth = {
            match inner.link_counts.iter_mut().find(|(l, _)| *l == link) {
                Some((_, n)) => {
                    let nth = *n;
                    *n += 1;
                    nth
                }
                None => {
                    inner.link_counts.push((link, 1));
                    0
                }
            }
        };

        // Scheduled partitions outrank random faults and consume no
        // randomness, so healing a partition never shifts the dice
        // stream of unrelated links.
        if self.plan.partitions.iter().any(|p| p.covers(link.to as u64, nth)) {
            let seq = inner.seq;
            inner.seq += 1;
            inner.events.push(FaultEvent::Net {
                seq,
                link,
                nth,
                verdict: SendFault::Drop,
                partition: true,
            });
            if self.sink.is_enabled() {
                self.sink.emit(EventKind::FaultNet {
                    fault_seq: seq,
                    from: link.from,
                    to: link.to,
                    nth,
                    verdict: FaultKind::Drop,
                    partition: true,
                });
            }
            return SendFault::Drop;
        }

        // One dice roll per message; the fault kinds partition the
        // [0, 1000) range so at most one fires.
        let roll = inner.rng.next_range(1000) as u32;
        let p = &self.plan;
        let mut bound = p.drop_per_mille;
        let verdict = if roll < bound {
            SendFault::Drop
        } else if roll < {
            bound += p.duplicate_per_mille;
            bound
        } {
            SendFault::Duplicate { extra: 1 + inner.rng.next_range(2) as u32 }
        } else if roll < {
            bound += p.delay_per_mille;
            bound
        } {
            SendFault::Delay { extra: p.delay_spike }
        } else if roll < {
            bound += p.reorder_per_mille;
            bound
        } {
            SendFault::ReorderBurst { len: p.reorder_burst_len }
        } else {
            SendFault::Deliver
        };

        if verdict != SendFault::Deliver {
            let seq = inner.seq;
            inner.seq += 1;
            inner.events.push(FaultEvent::Net { seq, link, nth, verdict, partition: false });
            if self.sink.is_enabled() {
                let kind = match verdict {
                    SendFault::Drop => FaultKind::Drop,
                    SendFault::Duplicate { .. } => FaultKind::Duplicate,
                    SendFault::Delay { .. } => FaultKind::Delay,
                    SendFault::ReorderBurst { .. } => FaultKind::Reorder,
                    SendFault::Deliver => unreachable!("deliver verdicts are not logged"),
                };
                self.sink.emit(EventKind::FaultNet {
                    fault_seq: seq,
                    from: link.from,
                    to: link.to,
                    nth,
                    verdict: kind,
                    partition: false,
                });
            }
        }
        verdict
    }

    fn decide_wal(&self, block: BlockNum) -> WalIoFault {
        let mut inner = self.inner.lock().unwrap();
        for (i, f) in self.plan.wal_faults.iter().enumerate() {
            if f.at_block == block && !inner.wal_fired[i] {
                inner.wal_fired[i] = true;
                let seq = inner.seq;
                inner.seq += 1;
                inner.events.push(FaultEvent::Wal { seq, block, keep: f.keep });
                if self.sink.is_enabled() {
                    self.sink.emit(EventKind::FaultWal {
                        fault_seq: seq,
                        block,
                        keep: f.keep as u64,
                    });
                }
                return WalIoFault::TornWrite { keep: f.keep };
            }
        }
        WalIoFault::None
    }
}

struct WalAdapter {
    injector: Arc<FaultInjector>,
}

impl WalFaultPolicy for WalAdapter {
    fn on_append(&self, block: BlockNum) -> WalIoFault {
        self.injector.decide_wal(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(inj: &FaultInjector, links: u32, msgs: u64) -> Vec<SendFault> {
        let mut out = Vec::new();
        for n in 0..msgs {
            for to in 0..links {
                let _ = n;
                out.push(inj.on_send(LinkId::from_orderer(to)));
            }
        }
        out
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultInjector::new(FaultPlan::chaotic(99)).unwrap();
        let b = FaultInjector::new(FaultPlan::chaotic(99)).unwrap();
        let va = drain(&a, 4, 200);
        let vb = drain(&b, 4, 200);
        assert_eq!(va, vb);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.schedule_digest(), b.schedule_digest());
        assert!(a.fault_count() > 0, "chaotic plan must inject something");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultInjector::new(FaultPlan::chaotic(1)).unwrap();
        let b = FaultInjector::new(FaultPlan::chaotic(2)).unwrap();
        drain(&a, 4, 200);
        drain(&b, 4, 200);
        assert_ne!(a.schedule_digest(), b.schedule_digest());
    }

    #[test]
    fn quiescent_plan_never_injects() {
        let inj = FaultInjector::new(FaultPlan::quiescent(7)).unwrap();
        let verdicts = drain(&inj, 4, 500);
        assert!(verdicts.iter().all(|v| *v == SendFault::Deliver));
        assert_eq!(inj.fault_count(), 0);
        assert!(inj.events().is_empty());
    }

    #[test]
    fn partitions_drop_exactly_their_window() {
        // Peer 2 partitioned for its messages 3..6; other peers untouched.
        let plan = FaultPlan::quiescent(5).with_partition(vec![2], 3, 6);
        let inj = FaultInjector::new(plan).unwrap();
        for _ in 0..10 {
            for to in 0..4u32 {
                let v = inj.on_send(LinkId::from_orderer(to));
                if to == 2 {
                    continue;
                }
                assert_eq!(v, SendFault::Deliver);
            }
        }
        let events = inj.events();
        assert_eq!(events.len(), 3, "three messages fall inside the window");
        for (i, ev) in events.iter().enumerate() {
            match ev {
                FaultEvent::Net { link, nth, verdict, partition, .. } => {
                    assert_eq!(link.to, 2);
                    assert_eq!(*nth, 3 + i as u64);
                    assert_eq!(*verdict, SendFault::Drop);
                    assert!(*partition);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn wal_faults_fire_once_per_schedule_entry() {
        let plan = FaultPlan::quiescent(3).with_torn_crash(0, 1, 1, 0).with_wal_fault(2, 5);
        let inj = FaultInjector::new(plan).unwrap();
        let policy = inj.wal_policy();
        assert_eq!(policy.on_append(1), WalIoFault::None);
        assert_eq!(policy.on_append(2), WalIoFault::TornWrite { keep: 5 });
        // Replay of the same block after recovery is not faulted again.
        assert_eq!(policy.on_append(2), WalIoFault::None);
        assert_eq!(inj.events(), vec![FaultEvent::Wal { seq: 0, block: 2, keep: 5 }]);
    }

    #[test]
    fn traced_injector_mirrors_schedule_without_perturbing_it() {
        let sink = TraceSink::bounded(4096);
        let traced = FaultInjector::new_traced(FaultPlan::chaotic(99), sink.clone()).unwrap();
        let plain = FaultInjector::new(FaultPlan::chaotic(99)).unwrap();
        drain(&traced, 4, 200);
        drain(&plain, 4, 200);
        // Observation-only: the trace mirror never shifts the schedule.
        assert_eq!(traced.schedule_digest(), plain.schedule_digest());

        // The mirror carries the same faults, in the same order, with the
        // injector's own sequence numbers.
        let mirrored: Vec<_> = sink
            .drain()
            .into_iter()
            .filter_map(|ev| match ev.kind {
                EventKind::FaultNet { fault_seq, from, to, nth, partition, .. } => {
                    Some((fault_seq, from, to, nth, partition))
                }
                _ => None,
            })
            .collect();
        let logged: Vec<_> = traced
            .events()
            .into_iter()
            .map(|ev| match ev {
                FaultEvent::Net { seq, link, nth, partition, .. } => {
                    (seq, link.from, link.to, nth, partition)
                }
                FaultEvent::Wal { .. } => unreachable!("no WAL faults in this plan"),
            })
            .collect();
        assert_eq!(mirrored, logged);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn traced_wal_fault_mirrors_keep_and_seq() {
        let sink = TraceSink::bounded(64);
        let plan = FaultPlan::quiescent(3).with_torn_crash(0, 1, 1, 0).with_wal_fault(2, 5);
        let inj = FaultInjector::new_traced(plan, sink.clone()).unwrap();
        let policy = inj.wal_policy();
        assert_eq!(policy.on_append(2), WalIoFault::TornWrite { keep: 5 });
        let evs = sink.drain();
        assert_eq!(evs.len(), 1);
        match &evs[0].kind {
            EventKind::FaultWal { fault_seq, block, keep } => {
                assert_eq!((*fault_seq, *block, *keep), (0, 2, 5));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fault_mix_matches_plan_probabilities() {
        let inj = FaultInjector::new(FaultPlan::chaotic(11)).unwrap();
        let verdicts = drain(&inj, 8, 500); // 4000 messages
        let drops = verdicts.iter().filter(|v| **v == SendFault::Drop).count();
        let dups =
            verdicts.iter().filter(|v| matches!(v, SendFault::Duplicate { .. })).count();
        // chaotic: 250‰ drop, 150‰ duplicate — allow generous slack.
        assert!((800..1200).contains(&drops), "drops = {drops}");
        assert!((450..750).contains(&dups), "dups = {dups}");
    }
}
