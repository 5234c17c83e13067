//! The two load models and the driver-side accounting they share.
//!
//! * closed loop — client threads submit back-to-back, never letting the
//!   number of proposals handed to the orderer and not yet terminal exceed
//!   a cap, until a fixed number of proposals has been fired;
//! * open loop — each client thread fires its k-th proposal when it is due
//!   (`t0 + k / rate`) whatever the system does, and latency is timed from
//!   the due time, never from the send.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fabric_common::{TxId, TxStats};
use fabric_workloads::WorkloadGen;
use fabricpp::{ClientHandle, FabricNetwork, SubmitOutcome};

/// What the driver saw come back from `ClientHandle::submit`, summed over
/// all client threads. `TxStats` knows nothing of client-side rejections,
/// so the driver keeps its own ledger.
#[derive(Debug, Default)]
pub struct Outcomes {
    fired: AtomicU64,
    handed: AtomicU64,
    early_aborted: AtomicU64,
    rejected_mismatch: AtomicU64,
    rejected_other: AtomicU64,
}

/// Point-in-time copy of [`Outcomes`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// `submit` calls made.
    pub fired: u64,
    /// `Submitted`: endorsed and handed to the ordering service.
    pub handed: u64,
    /// `EarlyAborted`: simulation-phase abort, reported to the client.
    pub early_aborted: u64,
    /// `Rejected` because the endorsers returned mismatching sets.
    pub rejected_mismatch: u64,
    /// `Rejected` for any other reason.
    pub rejected_other: u64,
}

impl OutcomeCounts {
    pub fn rejected(&self) -> u64 {
        self.rejected_mismatch + self.rejected_other
    }

    pub fn since(&self, earlier: &OutcomeCounts) -> OutcomeCounts {
        OutcomeCounts {
            fired: self.fired - earlier.fired,
            handed: self.handed - earlier.handed,
            early_aborted: self.early_aborted - earlier.early_aborted,
            rejected_mismatch: self.rejected_mismatch - earlier.rejected_mismatch,
            rejected_other: self.rejected_other - earlier.rejected_other,
        }
    }
}

impl Outcomes {
    /// Books one `submit` result; returns the id of a handed-over
    /// transaction.
    pub fn record(&self, outcome: &SubmitOutcome) -> Option<TxId> {
        self.fired.fetch_add(1, Ordering::Relaxed);
        match outcome {
            SubmitOutcome::Submitted(id) => {
                self.handed.fetch_add(1, Ordering::Relaxed);
                return Some(*id);
            }
            SubmitOutcome::EarlyAborted(_) => self.early_aborted.fetch_add(1, Ordering::Relaxed),
            SubmitOutcome::Rejected(why) if why.contains("mismatching read/write sets") => {
                self.rejected_mismatch.fetch_add(1, Ordering::Relaxed)
            }
            SubmitOutcome::Rejected(_) => self.rejected_other.fetch_add(1, Ordering::Relaxed),
        };
        None
    }

    pub fn handed(&self) -> u64 {
        self.handed.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> OutcomeCounts {
        OutcomeCounts {
            fired: self.fired.load(Ordering::Relaxed),
            handed: self.handed.load(Ordering::Relaxed),
            early_aborted: self.early_aborted.load(Ordering::Relaxed),
            rejected_mismatch: self.rejected_mismatch.load(Ordering::Relaxed),
            rejected_other: self.rejected_other.load(Ordering::Relaxed),
        }
    }
}

/// Outcomes decided downstream of the client: everything `TxStats` counts
/// except simulation-phase early aborts, which the client is told directly.
pub fn downstream_terminal(stats: &TxStats) -> u64 {
    stats.finished() - stats.early_abort_simulation
}

/// Proposals handed to the orderer and not yet terminal. Counted from the
/// driver's own `handed`: `submitted - finished` would leak one unit per
/// client-side rejection, which `TxStats` never sees finish.
pub fn in_flight(handed: u64, stats: &TxStats) -> u64 {
    handed.saturating_sub(downstream_terminal(stats))
}

/// One client thread's state, kept across the phases of a run so every
/// phase continues the same input stream.
pub struct Client {
    pub handle: ClientHandle,
    pub gen: Box<dyn WorkloadGen>,
}

/// What one closed-loop phase measured.
#[derive(Debug, Default)]
pub struct ClosedPhase {
    /// First and last `submit` of the phase, ns since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// In-flight sampled before every `submit`.
    pub inflight_sum: u64,
    pub inflight_samples: u64,
    /// `(start, end)` of every `submit` call; empty unless traced.
    pub submit_spans: Vec<(u64, u64)>,
}

/// Fires `total` proposals back-to-back from all `clients`, holding
/// in-flight at or below `cap`.
pub fn run_closed(
    net: &FabricNetwork,
    clients: &mut [Client],
    outcomes: &Outcomes,
    epoch: Instant,
    total: u64,
    cap: u64,
    traced: bool,
) -> ClosedPhase {
    let tickets = AtomicU64::new(0);
    let start_ns = epoch.elapsed().as_nanos() as u64;
    let mut phase = ClosedPhase {
        start_ns,
        ..Default::default()
    };
    let parts: Vec<ClosedPhase> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let tickets = &tickets;
                scope.spawn(move || {
                    let mut part = ClosedPhase::default();
                    let chaincode = client.gen.chaincode();
                    while tickets.fetch_add(1, Ordering::Relaxed) < total {
                        let mut waiting = in_flight(outcomes.handed(), &net.stats());
                        while waiting >= cap {
                            std::thread::sleep(Duration::from_micros(100));
                            waiting = in_flight(outcomes.handed(), &net.stats());
                        }
                        part.inflight_sum += waiting;
                        part.inflight_samples += 1;
                        let args = client.gen.next_args();
                        let t0 = epoch.elapsed().as_nanos() as u64;
                        let outcome = client.handle.submit(chaincode, args);
                        if traced {
                            part.submit_spans
                                .push((t0, epoch.elapsed().as_nanos() as u64));
                        }
                        outcomes.record(&outcome);
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    phase.end_ns = epoch.elapsed().as_nanos() as u64;
    for part in parts {
        phase.inflight_sum += part.inflight_sum;
        phase.inflight_samples += part.inflight_samples;
        phase.submit_spans.extend(part.submit_spans);
    }
    phase
}

/// The fixed-rate schedule of one open-loop client thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenSchedule {
    /// Proposals per second of this thread.
    pub rate: f64,
    /// Proposals this thread fires.
    pub count: u64,
}

impl OpenSchedule {
    pub fn new(rate: f64, seconds: f64) -> Self {
        OpenSchedule {
            rate,
            count: (rate * seconds).floor() as u64,
        }
    }

    /// When the k-th proposal is due, as an offset from the phase start.
    pub fn due(&self, k: u64) -> Duration {
        Duration::from_secs_f64(k as f64 / self.rate)
    }

    /// What a thread at offset `now` does about proposal `k`: sleep until
    /// it is due, or — when behind — fire at once and report how late.
    pub fn pace(&self, k: u64, now: Duration) -> Pace {
        let due = self.due(k);
        match due.checked_sub(now) {
            Some(wait) if !wait.is_zero() => Pace::Wait(wait),
            _ => Pace::Fire { late: now - due },
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    Wait(Duration),
    Fire { late: Duration },
}

/// What one open-loop phase measured.
#[derive(Debug, Clone, Default)]
pub struct OpenPhase {
    /// Phase start (`t0`) and last send, ns since the run's epoch.
    pub start_ns: u64,
    pub last_send_ns: u64,
    pub sent: u64,
    /// How late each proposal was sent, ns.
    pub late_ns: Vec<u64>,
    /// Due time (ns since epoch) of every proposal handed to the orderer.
    pub due_log: Vec<(TxId, u64)>,
}

/// Fires `rate` proposals per second in total, split evenly over
/// `clients`, for `seconds` plus `tail_seconds`. Only proposals due within
/// `seconds` enter the due log: the tail keeps blocks filling at the same
/// pace while the last sampled proposals commit, so none of them waits for
/// the cutter's batch timeout as the end of a burst would.
pub fn run_open(
    clients: &mut [Client],
    outcomes: &Outcomes,
    epoch: Instant,
    rate: f64,
    seconds: f64,
    tail_seconds: f64,
) -> OpenPhase {
    let schedule = OpenSchedule::new(rate / clients.len() as f64, seconds + tail_seconds);
    let sampled = OpenSchedule::new(schedule.rate, seconds).count;
    let t0 = Instant::now();
    let start_ns = t0.duration_since(epoch).as_nanos() as u64;
    let mut phase = OpenPhase {
        start_ns,
        ..Default::default()
    };
    let parts: Vec<OpenPhase> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut part = OpenPhase::default();
                    let chaincode = client.gen.chaincode();
                    for k in 0..schedule.count {
                        let late = loop {
                            match schedule.pace(k, t0.elapsed()) {
                                Pace::Wait(d) => std::thread::sleep(d),
                                Pace::Fire { late } => break late,
                            }
                        };
                        part.late_ns.push(late.as_nanos() as u64);
                        let due_ns = start_ns + schedule.due(k).as_nanos() as u64;
                        let args = client.gen.next_args();
                        let outcome = client.handle.submit(chaincode, args);
                        if let (Some(id), true) = (outcomes.record(&outcome), k < sampled) {
                            part.due_log.push((id, due_ns));
                        }
                        part.sent += 1;
                        part.last_send_ns = due_ns + late.as_nanos() as u64;
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for part in parts {
        phase.sent += part.sent;
        phase.last_send_ns = phase.last_send_ns.max(part.last_send_ns);
        phase.late_ns.extend(part.late_ns);
        phase.due_log.extend(part.due_log);
    }
    phase
}

/// Waits until nothing handed to the orderer is still in flight. Returns
/// false if that takes longer than `timeout` (a lost proposal).
pub fn drain(net: &FabricNetwork, outcomes: &Outcomes, timeout: Duration) -> bool {
    let t0 = Instant::now();
    while in_flight(outcomes.handed(), &net.stats()) > 0 {
        if t0.elapsed() > timeout {
            return false;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_ignores_what_never_reached_the_orderer() {
        // 10 proposals: 7 handed over, 1 early-aborted in simulation, 2
        // rejected by the client. Downstream, 4 of the 7 are terminal.
        let outcomes = Outcomes::default();
        for i in 0..7 {
            assert_eq!(
                outcomes.record(&SubmitOutcome::Submitted(TxId(i))),
                Some(TxId(i))
            );
        }
        assert_eq!(outcomes.record(&SubmitOutcome::EarlyAborted(TxId(7))), None);
        outcomes.record(&SubmitOutcome::Rejected(
            "endorsers returned mismatching read/write sets".into(),
        ));
        outcomes.record(&SubmitOutcome::Rejected(
            "ordering service disconnected".into(),
        ));
        let counts = outcomes.snapshot();
        assert_eq!(
            counts,
            OutcomeCounts {
                fired: 10,
                handed: 7,
                early_aborted: 1,
                rejected_mismatch: 1,
                rejected_other: 1
            }
        );
        assert_eq!(counts.rejected(), 2);

        let stats = TxStats {
            submitted: 10,
            valid: 2,
            mvcc_conflict: 1,
            early_abort_cycle: 1,
            early_abort_simulation: 1,
            ..Default::default()
        };
        assert_eq!(downstream_terminal(&stats), 4);
        assert_eq!(in_flight(counts.handed, &stats), 3);
        // The naive formula counts the two rejections as in flight forever.
        assert_eq!(stats.submitted - stats.finished(), 5);

        // Once the remaining three finish, nothing is in flight.
        let done = TxStats { valid: 5, ..stats };
        assert_eq!(in_flight(counts.handed, &done), 0);
        assert_eq!(
            counts
                .since(&OutcomeCounts {
                    fired: 4,
                    handed: 4,
                    ..Default::default()
                })
                .handed,
            3
        );
    }

    #[test]
    fn open_schedule_due_times_and_catch_up() {
        let s = OpenSchedule::new(2048.0, 0.5);
        assert_eq!(s.count, 1024);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(2048), Duration::from_secs(1));
        let gap = s.due(11) - s.due(10);
        assert!((gap.as_secs_f64() - 1.0 / 2048.0).abs() < 1e-9);

        // Ahead of schedule: wait exactly until due.
        let early = s.due(10) - Duration::from_micros(300);
        assert_eq!(s.pace(10, early), Pace::Wait(Duration::from_micros(300)));
        // On time.
        assert_eq!(
            s.pace(10, s.due(10)),
            Pace::Fire {
                late: Duration::ZERO
            }
        );
        // After a 5 ms stall the thread fires the backlog back-to-back, and
        // every late proposal reports its own lateness against its own due
        // time, so a stall is charged to all the proposals it delayed.
        let stalled = s.due(10) + Duration::from_millis(5);
        assert_eq!(
            s.pace(10, stalled),
            Pace::Fire {
                late: Duration::from_millis(5)
            }
        );
        let Pace::Fire { late } = s.pace(11, stalled) else {
            panic!("11 is overdue too")
        };
        assert_eq!(late, Duration::from_millis(5) - gap);
        // Proposal 21 (5.37 ms after proposal 10) is not due yet.
        assert!(matches!(s.pace(21, stalled), Pace::Wait(_)));
    }
}
