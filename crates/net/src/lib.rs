//! # fabric-net
//!
//! Simulated network substrate. The paper runs on a six-server gigabit
//! cluster; here every component runs as a thread in one process and
//! messages travel over latency-modelled channels, preserving the pipeline
//! properties the paper's results depend on:
//!
//! * messages cost time proportional to a base latency plus their size
//!   (store-and-forward over a gigabit-class link),
//! * per-receiver delivery is FIFO — "the service assures that all peers
//!   receive the blocks in the same order" (paper Appendix A.2) — and
//! * different receivers may see the same broadcast at different times
//!   (direct delivery vs. the gossip second hop, paper step 8/9).
//!
//! [`LatencyModel`] computes delays; [`link`] builds a delayed FIFO channel;
//! [`Broadcaster`] fans a message out to many receivers with per-receiver
//! hop counts; [`NetStats`] accounts messages and bytes. These links are
//! fault-free: the threaded runtime never loses, repeats or reorders a
//! message. Fault injection lives in the deterministic driver,
//! `fabric_chaos::ChaosNet`, which applies its verdicts to orderer → peer
//! block delivery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

/// Latency model for one network hop.
///
/// `delay = base + size_bytes * per_byte` (+ deterministic jitter derived
/// from a message counter, so runs are reproducible).
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Fixed one-way latency per message.
    pub base: Duration,
    /// Serialization delay per byte (gigabit Ethernet ≈ 8 ns/byte).
    pub per_byte: Duration,
    /// Maximum deterministic jitter added per message.
    pub jitter: Duration,
}

impl LatencyModel {
    /// A LAN-like default: 200 µs base, 8 ns/byte, 50 µs jitter — the same
    /// order of magnitude as the paper's single-rack gigabit deployment.
    pub fn lan() -> Self {
        LatencyModel {
            base: Duration::from_micros(200),
            per_byte: Duration::from_nanos(8),
            jitter: Duration::from_micros(50),
        }
    }

    /// Zero latency: messages deliver immediately (deterministic tests).
    pub fn zero() -> Self {
        LatencyModel { base: Duration::ZERO, per_byte: Duration::ZERO, jitter: Duration::ZERO }
    }

    /// Delay of the `seq`-th message of `size` bytes over `hops` hops.
    pub fn delay(&self, size: usize, hops: u32, seq: u64) -> Duration {
        let base = self.base + self.per_byte * (size as u32);
        let jitter = if self.jitter.is_zero() {
            Duration::ZERO
        } else {
            // Cheap deterministic hash of the sequence number.
            let h = seq.wrapping_mul(0x9E3779B97F4A7C15) >> 40;
            self.jitter.mul_f64((h as f64) / ((1u64 << 24) as f64))
        };
        (base + jitter) * hops.max(1)
    }
}

/// Shared message/byte counters for one simulated network.
#[derive(Debug, Default, Clone)]
pub struct NetStats {
    inner: Arc<NetStatsInner>,
}

#[derive(Debug, Default)]
struct NetStatsInner {
    messages: AtomicU64,
    bytes: AtomicU64,
}

impl NetStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    fn record(&self, bytes: usize) {
        self.inner.messages.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Messages sent so far.
    pub fn messages(&self) -> u64 {
        self.inner.messages.load(Ordering::Relaxed)
    }

    /// Bytes sent so far.
    pub fn bytes(&self) -> u64 {
        self.inner.bytes.load(Ordering::Relaxed)
    }
}

/// Sending half of a delayed FIFO link.
pub struct DelayedSender<T> {
    tx: Sender<(Instant, T)>,
    model: LatencyModel,
    stats: NetStats,
    seq: Arc<AtomicU64>,
}

impl<T> Clone for DelayedSender<T> {
    fn clone(&self) -> Self {
        DelayedSender {
            tx: self.tx.clone(),
            model: self.model.clone(),
            stats: self.stats.clone(),
            seq: Arc::clone(&self.seq),
        }
    }
}

/// Receiving half of a delayed FIFO link.
pub struct DelayedReceiver<T> {
    rx: Receiver<(Instant, T)>,
    /// A message popped by [`DelayedReceiver::try_recv_ready`] before its
    /// simulated delivery time; the next receive call re-examines it first
    /// so FIFO order is preserved.
    stash: Mutex<Option<(Instant, T)>>,
}

/// Error returned when the sending side has disconnected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl<T> DelayedSender<T> {
    /// Sends `msg`, charging `size` bytes over `hops` hops.
    /// Returns `Err` if the receiver was dropped.
    pub fn send(&self, msg: T, size: usize, hops: u32) -> Result<(), Disconnected> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let deliver_at = Instant::now() + self.model.delay(size, hops, seq);
        self.stats.record(size);
        self.tx.send((deliver_at, msg)).map_err(|_| Disconnected)
    }
}

impl<T> DelayedReceiver<T> {
    /// Receives the next message, waiting out its simulated latency.
    /// Returns `Err` once the channel is empty and all senders are gone.
    pub fn recv(&self) -> Result<T, Disconnected> {
        let (deliver_at, msg) = match self.stash.lock().take() {
            Some(entry) => entry,
            None => self.rx.recv().map_err(|_| Disconnected)?,
        };
        wait_until(deliver_at);
        Ok(msg)
    }

    /// Like [`DelayedReceiver::recv`] but gives up after `timeout` if no
    /// message has arrived by then. The timeout bounds only that wait: a
    /// message that did arrive is always held until its simulated latency
    /// has passed.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let (deliver_at, msg) = match self.stash.lock().take() {
            Some(entry) => entry,
            None => self.rx.recv_timeout(timeout)?,
        };
        wait_until(deliver_at);
        Ok(msg)
    }

    /// Returns the next message only if its simulated delivery time has
    /// already passed — never sleeps, unlike [`DelayedReceiver::recv`]. A
    /// message popped early is stashed and handed out by the next receive
    /// call, so the FIFO contract holds. Used for opportunistic pipelining (start work on
    /// the next block only if it has actually arrived).
    pub fn try_recv_ready(&self) -> Option<T> {
        let mut stash = self.stash.lock();
        let (deliver_at, msg) = match stash.take() {
            Some(entry) => entry,
            None => self.rx.try_recv().ok()?,
        };
        if deliver_at <= Instant::now() {
            Some(msg)
        } else {
            *stash = Some((deliver_at, msg));
            None
        }
    }
}

fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Builds a delayed FIFO link with the given latency model, sharing `stats`.
pub fn link<T>(model: LatencyModel, stats: NetStats) -> (DelayedSender<T>, DelayedReceiver<T>) {
    let (tx, rx) = unbounded();
    (
        DelayedSender { tx, model, stats, seq: Arc::new(AtomicU64::new(0)) },
        DelayedReceiver { rx, stash: Mutex::new(None) },
    )
}

/// Fans a cloneable message out to many receivers.
///
/// Receivers marked as *gossip* targets get the message charged with two
/// hops (orderer → direct peer → gossip forward), modelling the paper's
/// partially-direct, partially-gossiped block distribution (steps 8 and 9
/// of the running example).
pub struct Broadcaster<T: Clone> {
    direct: Vec<DelayedSender<T>>,
    gossip: Vec<DelayedSender<T>>,
}

impl<T: Clone> Broadcaster<T> {
    /// Creates a broadcaster over direct and gossip-reached receivers.
    pub fn new(direct: Vec<DelayedSender<T>>, gossip: Vec<DelayedSender<T>>) -> Self {
        Broadcaster { direct, gossip }
    }

    /// Broadcasts `msg` of `size` bytes. Returns how many receivers are
    /// still connected.
    pub fn broadcast(&self, msg: &T, size: usize) -> usize {
        let mut alive = 0;
        for s in &self.direct {
            if s.send(msg.clone(), size, 1).is_ok() {
                alive += 1;
            }
        }
        for s in &self.gossip {
            if s.send(msg.clone(), size, 2).is_ok() {
                alive += 1;
            }
        }
        alive
    }

    /// Total number of receivers.
    pub fn len(&self) -> usize {
        self.direct.len() + self.gossip.len()
    }

    /// Whether there are no receivers.
    pub fn is_empty(&self) -> bool {
        self.direct.is_empty() && self.gossip.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_latency_delivers_immediately() {
        let (tx, rx) = link::<u32>(LatencyModel::zero(), NetStats::new());
        tx.send(7, 100, 1).unwrap();
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    fn try_recv_ready_never_sleeps_and_keeps_fifo() {
        let slow = LatencyModel {
            base: Duration::from_secs(60),
            per_byte: Duration::ZERO,
            jitter: Duration::ZERO,
        };
        let (tx, rx) = link::<u32>(slow, NetStats::new());
        assert_eq!(rx.try_recv_ready(), None, "empty link");
        // A message with a large delay is not ready; it must be stashed,
        // not lost, and recv() must still deliver it (in order).
        tx.send(1, 10, 1).unwrap();
        tx.send(2, 10, 1).unwrap();
        let t0 = Instant::now();
        assert_eq!(rx.try_recv_ready(), None, "not due yet");
        assert!(t0.elapsed() < Duration::from_secs(1), "must not sleep");
        drop(tx);
        // recv honors the stashed message's delay — use the due one via a
        // fresh zero-delay link to keep the test fast.
        let (tx2, rx2) = link::<u32>(LatencyModel::zero(), NetStats::new());
        tx2.send(5, 10, 1).unwrap();
        tx2.send(6, 10, 1).unwrap();
        assert_eq!(rx2.try_recv_ready(), Some(5));
        assert_eq!(rx2.try_recv_ready(), Some(6));
        assert_eq!(rx2.try_recv_ready(), None);
    }

    #[test]
    fn fifo_order_preserved() {
        let (tx, rx) = link::<u32>(LatencyModel::zero(), NetStats::new());
        for i in 0..100 {
            tx.send(i, 10, 1).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn latency_is_applied() {
        let model = LatencyModel {
            base: Duration::from_millis(20),
            per_byte: Duration::ZERO,
            jitter: Duration::ZERO,
        };
        let (tx, rx) = link::<u8>(model, NetStats::new());
        let start = Instant::now();
        tx.send(1, 0, 1).unwrap();
        rx.recv().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn per_byte_latency_scales() {
        let m = LatencyModel {
            base: Duration::ZERO,
            per_byte: Duration::from_nanos(8),
            jitter: Duration::ZERO,
        };
        assert_eq!(m.delay(1_000_000, 1, 0), Duration::from_millis(8));
        assert_eq!(m.delay(0, 1, 0), Duration::ZERO);
    }

    #[test]
    fn hops_multiply_delay() {
        let m = LatencyModel {
            base: Duration::from_micros(100),
            per_byte: Duration::ZERO,
            jitter: Duration::ZERO,
        };
        assert_eq!(m.delay(0, 2, 0), Duration::from_micros(200));
        // Zero hops clamp to one.
        assert_eq!(m.delay(0, 0, 0), Duration::from_micros(100));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let m = LatencyModel {
            base: Duration::from_micros(100),
            per_byte: Duration::ZERO,
            jitter: Duration::from_micros(50),
        };
        for seq in 0..1000u64 {
            let d = m.delay(0, 1, seq);
            assert_eq!(d, m.delay(0, 1, seq), "deterministic");
            assert!(d >= Duration::from_micros(100));
            assert!(d <= Duration::from_micros(151));
        }
        // Jitter actually varies.
        assert_ne!(m.delay(0, 1, 1), m.delay(0, 1, 2));
    }

    #[test]
    fn jitter_values_are_pinned() {
        // Chaos schedules depend on delivery timing being a pure function
        // of (model, size, hops, seq); pin exact outputs so any change to
        // the jitter formula is caught, not silently absorbed.
        let m = LatencyModel {
            base: Duration::from_micros(100),
            per_byte: Duration::ZERO,
            jitter: Duration::from_micros(50),
        };
        assert_eq!(m.delay(0, 1, 0), Duration::from_nanos(100_000));
        assert_eq!(m.delay(0, 1, 1), Duration::from_nanos(130_902));
        assert_eq!(m.delay(0, 1, 2), Duration::from_nanos(111_803));
        assert_eq!(m.delay(0, 1, 541), Duration::from_nanos(117_819));
        // Two independently constructed models agree for every sequence
        // number: jitter carries no hidden per-instance state.
        let m2 = LatencyModel {
            base: Duration::from_micros(100),
            per_byte: Duration::ZERO,
            jitter: Duration::from_micros(50),
        };
        for seq in 0..512 {
            assert_eq!(m.delay(64, 2, seq), m2.delay(64, 2, seq));
        }
    }

    #[test]
    fn disconnect_detected() {
        let (tx, rx) = link::<u8>(LatencyModel::zero(), NetStats::new());
        drop(rx);
        assert_eq!(tx.send(1, 0, 1), Err(Disconnected));

        let (tx, rx) = link::<u8>(LatencyModel::zero(), NetStats::new());
        drop(tx);
        assert_eq!(rx.recv(), Err(Disconnected));
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_tx, rx) = link::<u8>(LatencyModel::zero(), NetStats::new());
        let start = Instant::now();
        assert!(rx.recv_timeout(Duration::from_millis(30)).is_err());
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn stats_account_messages_and_bytes() {
        let stats = NetStats::new();
        let (tx, rx) = link::<u8>(LatencyModel::zero(), stats.clone());
        tx.send(1, 100, 1).unwrap();
        tx.send(2, 250, 1).unwrap();
        rx.recv().unwrap();
        rx.recv().unwrap();
        assert_eq!(stats.messages(), 2);
        assert_eq!(stats.bytes(), 350);
    }

    #[test]
    fn broadcaster_reaches_all_receivers() {
        let stats = NetStats::new();
        let mut senders = Vec::new();
        let mut receivers = Vec::new();
        for _ in 0..4 {
            let (tx, rx) = link::<String>(LatencyModel::zero(), stats.clone());
            senders.push(tx);
            receivers.push(rx);
        }
        let gossip = senders.split_off(2);
        let b = Broadcaster::new(senders, gossip);
        assert_eq!(b.len(), 4);
        assert_eq!(b.broadcast(&"block".to_string(), 64), 4);
        for rx in &receivers {
            assert_eq!(rx.recv().unwrap(), "block");
        }
        assert_eq!(stats.messages(), 4);
    }

    #[test]
    fn broadcaster_counts_disconnected() {
        let (tx1, rx1) = link::<u8>(LatencyModel::zero(), NetStats::new());
        let (tx2, rx2) = link::<u8>(LatencyModel::zero(), NetStats::new());
        drop(rx2);
        let b = Broadcaster::new(vec![tx1, tx2], vec![]);
        assert_eq!(b.broadcast(&9, 1), 1);
        assert_eq!(rx1.recv().unwrap(), 9);
    }

    #[test]
    fn gossip_hop_arrives_later_than_direct() {
        let model = LatencyModel {
            base: Duration::from_millis(10),
            per_byte: Duration::ZERO,
            jitter: Duration::ZERO,
        };
        let stats = NetStats::new();
        let (dtx, drx) = link::<u8>(model.clone(), stats.clone());
        let (gtx, grx) = link::<u8>(model, stats);
        let b = Broadcaster::new(vec![dtx], vec![gtx]);
        let start = Instant::now();
        b.broadcast(&1, 0);
        let h1 = std::thread::spawn(move || {
            drx.recv().unwrap();
            start.elapsed()
        });
        let h2 = std::thread::spawn(move || {
            grx.recv().unwrap();
            start.elapsed()
        });
        let direct_t = h1.join().unwrap();
        let gossip_t = h2.join().unwrap();
        assert!(gossip_t >= direct_t, "gossip {gossip_t:?} < direct {direct_t:?}");
        assert!(gossip_t >= Duration::from_millis(20));
    }

    #[test]
    fn many_senders_one_receiver() {
        let (tx, rx) = link::<u64>(LatencyModel::zero(), NetStats::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        tx.send(t * 1000 + i, 8, 1).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        for h in handles {
            h.join().unwrap();
        }
        let mut count = 0;
        while rx.recv().is_ok() {
            count += 1;
        }
        assert_eq!(count, 400);
    }
}
