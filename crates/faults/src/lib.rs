//! Deterministic chaos plane for the GRM/LRM federation.
//!
//! The paper's enforcement architecture (§3.2) is distributed — a
//! centralized GRM scheduling for many LRMs over a network — and a real
//! network drops, delays, duplicates, and reorders messages, while
//! processes crash and restart. This crate provides the machinery to
//! reproduce those conditions *deterministically*, so a failing fault
//! schedule is a seed, not a flake:
//!
//! - [`FaultPlane`] interposes on a link at the GRM↔LRM boundary: what
//!   is sent down the link passes a seeded per-link fault schedule
//!   (message drop, duplication, hold-back delay, which also reorders,
//!   and in-place delay) before a pump thread hands it to the link's
//!   delivery function — for a GRM, the function that executes it on the
//!   GRM core. Decisions depend only on the plane seed, the link name,
//!   and the message's sequence number on that link — never on
//!   wall-clock timing.
//! - [`ChaosClock`] is the logical clock the chaos harness uses to drive
//!   the GRM's lease-based liveness (`GrmHandle::tick`), so lease expiry
//!   in a fault schedule is as reproducible as the faults themselves.
//!
//! The plane is inert until wired in: production code paths deliver
//! directly and never pay for it. `FaultPlane::heal` flips a live plane
//! into a transparent pipe (flushing anything held), which is how chaos
//! tests model a network that has recovered.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use agreements_telemetry::{Telemetry, TelemetryEvent};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use rand::prelude::*;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub mod clock;

pub use clock::ChaosClock;

/// Per-message fault probabilities applied by a [`FaultPlane`] link.
///
/// Fates are evaluated in order drop → duplicate → hold → delay;
/// exactly one (or none) applies per message. A held message is
/// released only after `1..=max_hold` *subsequent* messages have passed
/// it on the same link, which both delays it and reorders it past its
/// successors. A delayed message keeps its place in line but waits a
/// seeded `1..=max_delay_us` microseconds of wall clock before being
/// forwarded — injected latency/jitter without reordering (head-of-line
/// delay, like a slow in-order transport).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMix {
    /// Probability a message is silently dropped.
    pub drop: f64,
    /// Probability a message is delivered twice.
    pub dup: f64,
    /// Probability a message is held back (delayed + reordered).
    pub hold: f64,
    /// Maximum hold distance, in later messages that overtake the held
    /// one (must be ≥ 1 for `hold` to have any effect).
    pub max_hold: u64,
    /// Probability a message is delayed in place (latency, no reorder).
    pub delay: f64,
    /// Maximum injected delay in microseconds (must be ≥ 1 for `delay`
    /// to have any effect).
    pub max_delay_us: u64,
}

impl FaultMix {
    /// A transparent mix: every message delivered exactly once, in order.
    pub fn none() -> Self {
        FaultMix { drop: 0.0, dup: 0.0, hold: 0.0, max_hold: 0, delay: 0.0, max_delay_us: 0 }
    }

    /// A drop-dominated lossy link.
    pub fn drop_heavy() -> Self {
        FaultMix { drop: 0.25, dup: 0.0, hold: 0.0, max_hold: 0, delay: 0.0, max_delay_us: 0 }
    }

    /// A duplication-dominated link (at-least-once transport).
    pub fn dup_heavy() -> Self {
        FaultMix { drop: 0.0, dup: 0.35, hold: 0.0, max_hold: 0, delay: 0.0, max_delay_us: 0 }
    }

    /// A delay/reorder-dominated link.
    pub fn delay_heavy() -> Self {
        FaultMix { drop: 0.0, dup: 0.0, hold: 0.35, max_hold: 4, delay: 0.0, max_delay_us: 0 }
    }

    /// Everything at once: the general mixed-failure network.
    pub fn mixed() -> Self {
        FaultMix { drop: 0.12, dup: 0.12, hold: 0.15, max_hold: 3, delay: 0.0, max_delay_us: 0 }
    }

    /// Pure injected latency: every message waits a seeded
    /// `1..=max_delay_us` microseconds, none are lost or reordered.
    pub fn latency(max_delay_us: u64) -> Self {
        FaultMix { drop: 0.0, dup: 0.0, hold: 0.0, max_hold: 0, delay: 1.0, max_delay_us }
    }

    /// Layer seeded latency/jitter onto this mix: `delay` probability of
    /// a `1..=max_delay_us` µs in-place stall per message. The delay
    /// threshold sits *after* drop/dup/hold, so adding latency to an
    /// existing mix never changes which messages those fates hit.
    pub fn with_latency(mut self, delay: f64, max_delay_us: u64) -> Self {
        self.delay = delay;
        self.max_delay_us = max_delay_us;
        self
    }
}

/// The fate the schedule assigns one message (or frame) on a link.
///
/// Exactly one fate applies per message; a fate never depends on the
/// fates of earlier messages, only on the (seed, link, index) triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Delivered exactly once, in order.
    Deliver,
    /// Silently dropped.
    Drop,
    /// Delivered twice, back to back.
    Duplicate,
    /// Held back until `distance` later messages have passed it.
    Hold {
        /// How many successors overtake the held message (≥ 1).
        distance: u64,
    },
    /// Delivered in order, but only after `micros` microseconds of wall
    /// clock — injected latency without reordering.
    Delay {
        /// How long the message stalls at the head of the line (≥ 1 µs).
        micros: u64,
    },
}

/// The seeded per-link fate stream shared by every fault injector in
/// the system: the in-process channel plane ([`FaultPlane`]) and the
/// socket-level frame proxy (`agreements-net`) draw from this one
/// implementation, so "mirroring ChaosPlane semantics" is a structural
/// fact, not a convention. A schedule is a pure function of the plane
/// seed, the link name, and the message index on that link: two draws
/// are burned per message so one message's fate never shifts the
/// schedule of its successors.
pub struct FaultSchedule {
    rng: StdRng,
    mix: FaultMix,
}

impl FaultSchedule {
    /// The deterministic schedule for `link` under `(seed, mix)`.
    pub fn new(seed: u64, link: &str, mix: FaultMix) -> Self {
        FaultSchedule { rng: StdRng::seed_from_u64(seed ^ fnv1a(link.as_bytes())), mix }
    }

    /// The fate of the next message on this link.
    pub fn next_fate(&mut self) -> Fate {
        // Burn a fixed number of draws per message so one message's
        // fate never shifts the schedule of its successors.
        let (u_fate, u_hold) = (self.rng.gen::<f64>(), self.rng.gen::<f64>());
        let mix = self.mix;
        if u_fate < mix.drop {
            Fate::Drop
        } else if u_fate < mix.drop + mix.dup {
            Fate::Duplicate
        } else if u_fate < mix.drop + mix.dup + mix.hold && mix.max_hold >= 1 {
            Fate::Hold { distance: 1 + (u_hold * mix.max_hold as f64) as u64 }
        } else if u_fate < mix.drop + mix.dup + mix.hold + mix.delay && mix.max_delay_us >= 1 {
            // Delay re-parameterizes the second draw (a delayed message
            // has no hold distance), so a mix with `delay: 0.0` is
            // bit-identical to the pre-delay schedule for the same seed.
            Fate::Delay { micros: 1 + (u_hold * mix.max_delay_us as f64) as u64 }
        } else {
            Fate::Deliver
        }
    }
}

/// Held-back messages awaiting their release index: a min-heap keyed by
/// `(release_at, arrival)` so ties release in arrival order. Shared by
/// the channel plane and the socket proxy so hold/reorder semantics are
/// identical in both.
pub struct HoldBuffer<T> {
    heap: BinaryHeap<Held<T>>,
}

impl<T> Default for HoldBuffer<T> {
    fn default() -> Self {
        HoldBuffer { heap: BinaryHeap::new() }
    }
}

impl<T> HoldBuffer<T> {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hold `msg`, arriving as message `arrival`, until `distance` later
    /// messages have passed it.
    pub fn hold(&mut self, arrival: u64, distance: u64, msg: T) {
        self.heap.push(Held { release_at: arrival + distance, arrival, msg });
    }

    /// Pop the next message whose hold distance has elapsed at sequence
    /// number `seq`, earliest `(release_at, arrival)` first.
    pub fn release_due(&mut self, seq: u64) -> Option<T> {
        if self.heap.peek().is_some_and(|h| h.release_at <= seq) {
            self.heap.pop().map(|h| h.msg)
        } else {
            None
        }
    }

    /// Drain everything in `(release_at, arrival)` order (heal/flush).
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.heap.pop().map(|h| h.msg))
    }

    /// Number of messages currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Counters of what a [`FaultPlane`] actually did, across all its links.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaneStats {
    /// Messages delivered (duplicates counted twice).
    pub delivered: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages held back past at least one successor.
    pub held: u64,
    /// Messages delayed in place (latency injected, order preserved).
    pub delayed: u64,
}

#[derive(Default)]
struct PlaneCounters {
    delivered: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    held: AtomicU64,
    delayed: AtomicU64,
}

/// A seeded, schedule-reproducible fault injector for channel links.
///
/// One plane can interpose on many links; each link draws an independent
/// deterministic stream derived from the plane seed and the link name.
/// Cloning shares the plane (its switches and counters), so a harness
/// can heal every link at once.
#[derive(Clone)]
pub struct FaultPlane {
    seed: u64,
    mix: FaultMix,
    enabled: Arc<AtomicBool>,
    counters: Arc<PlaneCounters>,
    telemetry: Telemetry,
}

/// How long an idle pump thread waits before re-checking for a heal
/// (held messages must not outlive a healed plane just because the link
/// went quiet).
const PUMP_IDLE: Duration = Duration::from_millis(2);

impl FaultPlane {
    /// A plane injecting the given mix, seeded for reproducibility.
    pub fn new(seed: u64, mix: FaultMix) -> Self {
        FaultPlane {
            seed,
            mix,
            enabled: Arc::new(AtomicBool::new(true)),
            counters: Arc::new(PlaneCounters::default()),
            telemetry: Telemetry::default(),
        }
    }

    /// Attach a telemetry plane: drop/dup/hold/heal land in the event
    /// trace (and `faults.*` counters). Attach *before* wrapping links —
    /// pump threads capture the plane at [`FaultPlane::wrap`] time.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// A transparent plane (useful as a control arm: same plumbing, no
    /// faults).
    pub fn inert(seed: u64) -> Self {
        FaultPlane::new(seed, FaultMix::none())
    }

    /// The network recovers: stop injecting faults on every link and
    /// flush anything still held back. Irreversible by design — a healed
    /// schedule stays healed, keeping post-heal invariants meaningful.
    pub fn heal(&self) {
        self.enabled.store(false, Ordering::SeqCst);
        self.telemetry.add("faults.heals", 1);
        self.telemetry.record_with(|| TelemetryEvent::ChaosHeal {});
    }

    /// Whether the plane is still injecting faults.
    pub fn is_active(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Snapshot of the plane's counters.
    pub fn stats(&self) -> PlaneStats {
        PlaneStats {
            delivered: self.counters.delivered.load(Ordering::SeqCst),
            dropped: self.counters.dropped.load(Ordering::SeqCst),
            duplicated: self.counters.duplicated.load(Ordering::SeqCst),
            held: self.counters.held.load(Ordering::SeqCst),
            delayed: self.counters.delayed.load(Ordering::SeqCst),
        }
    }

    /// Interpose on a link: returns a sender whose traffic passes through
    /// this plane's fault schedule on a pump thread, which hands what it
    /// lets through to `deliver`. `deliver` answers whether the far end
    /// is still there; once it is not, the pump stops.
    ///
    /// The returned sender is cloneable like any channel sender; all
    /// clones share one sequence-numbered stream, so the fault schedule
    /// is a deterministic function of (plane seed, link name, per-link
    /// message index). Requires `T: Clone` because duplication delivers
    /// the same message twice.
    pub fn wrap<T: Send + Clone + 'static>(
        &self,
        link: &str,
        deliver: impl FnMut(T) -> bool + Send + 'static,
    ) -> Sender<T> {
        let (tx, rx) = unbounded::<T>();
        let schedule = FaultSchedule::new(self.seed, link, self.mix);
        let plane = self.clone();
        let link = link.to_string();
        std::thread::Builder::new()
            .name(format!("fault-plane:{link}"))
            .spawn(move || plane.pump(&link, rx, deliver, schedule))
            .expect("spawn fault-plane pump");
        tx
    }

    fn pump<T: Clone>(
        &self,
        link: &str,
        rx: Receiver<T>,
        mut deliver: impl FnMut(T) -> bool,
        mut schedule: FaultSchedule,
    ) {
        let mut held: HoldBuffer<T> = HoldBuffer::new();
        let mut seq: u64 = 0;
        loop {
            let msg = match rx.recv_timeout(PUMP_IDLE) {
                Ok(m) => m,
                Err(RecvTimeoutError::Timeout) => {
                    // A healed plane must not keep messages hostage on a
                    // quiet link.
                    if !self.is_active() {
                        flush_all(&mut held, &mut deliver, &self.counters);
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    flush_all(&mut held, &mut deliver, &self.counters);
                    return;
                }
            };
            if !self.is_active() {
                flush_all(&mut held, &mut deliver, &self.counters);
                if !deliver(msg) {
                    return;
                }
                self.counters.delivered.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            match schedule.next_fate() {
                Fate::Drop => {
                    self.counters.dropped.fetch_add(1, Ordering::SeqCst);
                    self.telemetry.add("faults.dropped", 1);
                    self.telemetry
                        .record_with(|| TelemetryEvent::ChaosDrop { link: link.to_string() });
                }
                Fate::Duplicate => {
                    self.counters.duplicated.fetch_add(1, Ordering::SeqCst);
                    self.telemetry.add("faults.duplicated", 1);
                    self.telemetry
                        .record_with(|| TelemetryEvent::ChaosDup { link: link.to_string() });
                    for m in [msg.clone(), msg] {
                        if !deliver(m) {
                            return;
                        }
                        self.counters.delivered.fetch_add(1, Ordering::SeqCst);
                    }
                }
                Fate::Hold { distance } => {
                    self.counters.held.fetch_add(1, Ordering::SeqCst);
                    self.telemetry.add("faults.held", 1);
                    self.telemetry
                        .record_with(|| TelemetryEvent::ChaosHold { link: link.to_string() });
                    held.hold(seq, distance, msg);
                }
                Fate::Delay { micros } => {
                    self.counters.delayed.fetch_add(1, Ordering::SeqCst);
                    self.telemetry.add("faults.delayed", 1);
                    self.telemetry
                        .record_with(|| TelemetryEvent::ChaosDelay { link: link.to_string() });
                    // Head-of-line stall: successors wait behind the
                    // delayed message, so order (and determinism) hold.
                    std::thread::sleep(Duration::from_micros(micros));
                    if !deliver(msg) {
                        return;
                    }
                    self.counters.delivered.fetch_add(1, Ordering::SeqCst);
                }
                Fate::Deliver => {
                    if !deliver(msg) {
                        return;
                    }
                    self.counters.delivered.fetch_add(1, Ordering::SeqCst);
                }
            }
            seq += 1;
            // Release everything whose hold distance has elapsed.
            while let Some(msg) = held.release_due(seq) {
                if !deliver(msg) {
                    return;
                }
                self.counters.delivered.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

fn flush_all<T>(
    held: &mut HoldBuffer<T>,
    deliver: &mut impl FnMut(T) -> bool,
    counters: &PlaneCounters,
) {
    // Drain in (release_at, arrival) order for determinism.
    for msg in held.drain() {
        if deliver(msg) {
            counters.delivered.fetch_add(1, Ordering::SeqCst);
        }
    }
}

struct Held<T> {
    release_at: u64,
    arrival: u64,
    msg: T,
}

impl<T> PartialEq for Held<T> {
    fn eq(&self, other: &Self) -> bool {
        self.release_at == other.release_at && self.arrival == other.arrival
    }
}
impl<T> Eq for Held<T> {}
impl<T> PartialOrd for Held<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Held<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest release (then
        // earliest arrival) pops first.
        (other.release_at, other.arrival).cmp(&(self.release_at, self.arrival))
    }
}

/// FNV-1a over the link name: stable, platform-independent link salt.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deliver into `tx`, as long as its receiver is there.
    fn forward(tx: Sender<u32>) -> impl FnMut(u32) -> bool + Send + 'static {
        move |m| tx.send(m).is_ok()
    }

    fn collect_until_quiet(rx: &Receiver<u32>) -> Vec<u32> {
        let mut out = Vec::new();
        while let Ok(v) = rx.recv_timeout(Duration::from_millis(50)) {
            out.push(v);
            // Keep draining while messages keep arriving.
            while let Ok(v) = rx.try_recv() {
                out.push(v);
            }
        }
        out
    }

    fn run_schedule(seed: u64, mix: FaultMix, n: u32) -> Vec<u32> {
        let (up_tx, up_rx) = unbounded();
        let plane = FaultPlane::new(seed, mix);
        let tx = plane.wrap("test", forward(up_tx));
        for i in 0..n {
            tx.send(i).unwrap();
        }
        drop(tx);
        collect_until_quiet(&up_rx)
    }

    #[test]
    fn inert_plane_is_transparent() {
        let got = run_schedule(1, FaultMix::none(), 100);
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedules_are_reproducible_per_seed() {
        let mix = FaultMix::mixed();
        let a = run_schedule(42, mix, 200);
        let b = run_schedule(42, mix, 200);
        assert_eq!(a, b, "same seed, same schedule");
        let c = run_schedule(43, mix, 200);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn links_draw_independent_streams() {
        let mix = FaultMix::drop_heavy();
        let plane = FaultPlane::new(7, mix);
        let (atx, arx) = unbounded();
        let (btx, brx) = unbounded();
        let a = plane.wrap("alpha", forward(atx));
        let b = plane.wrap("beta", forward(btx));
        for i in 0..200 {
            a.send(i).unwrap();
            b.send(i).unwrap();
        }
        drop((a, b));
        let ga = collect_until_quiet(&arx);
        let gb = collect_until_quiet(&brx);
        assert_ne!(ga, gb, "independent per-link schedules");
    }

    #[test]
    fn drops_lose_messages_and_count_them() {
        let got = run_schedule(5, FaultMix::drop_heavy(), 400);
        assert!(got.len() < 400, "some messages dropped");
        // No invented messages, order preserved among survivors.
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(got, sorted);
    }

    #[test]
    fn dups_deliver_twice() {
        let got = run_schedule(5, FaultMix::dup_heavy(), 300);
        assert!(got.len() > 300, "some messages duplicated");
        for w in got.windows(2) {
            assert!(w[1] == w[0] || w[1] == w[0] + 1, "dups are adjacent: {w:?}");
        }
    }

    #[test]
    fn holds_reorder_but_lose_nothing() {
        let got = run_schedule(11, FaultMix::delay_heavy(), 300);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..300).collect::<Vec<_>>(), "permutation, no loss");
        assert_ne!(got, sorted, "actually reordered");
        let stats = {
            // Re-run on a fresh plane to read its counters.
            let (up_tx, up_rx) = unbounded();
            let plane = FaultPlane::new(11, FaultMix::delay_heavy());
            let tx = plane.wrap("test", forward(up_tx));
            for i in 0..300 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let _ = collect_until_quiet(&up_rx);
            plane.stats()
        };
        assert!(stats.held > 0);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn delays_preserve_order_and_lose_nothing() {
        let mix = FaultMix::none().with_latency(0.5, 300);
        let got = run_schedule(17, mix, 200);
        assert_eq!(got, (0..200).collect::<Vec<_>>(), "delay never drops or reorders");
        let (up_tx, up_rx) = unbounded();
        let plane = FaultPlane::new(17, mix);
        let tx = plane.wrap("test", forward(up_tx));
        for i in 0..200u32 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let _ = collect_until_quiet(&up_rx);
        let stats = plane.stats();
        assert!(stats.delayed > 0, "some messages delayed: {stats:?}");
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.delivered, 200);
    }

    #[test]
    fn adding_delay_never_shifts_other_fates() {
        // Same seed, same link: the set of dropped/dup'd/held messages
        // must be identical with and without a layered delay term,
        // because delay re-uses the two draws already burned per
        // message and its threshold sits after the existing fates.
        let base = FaultMix::mixed();
        let laced = FaultMix::mixed().with_latency(0.3, 50);
        let mut a = FaultSchedule::new(99, "link", base);
        let mut b = FaultSchedule::new(99, "link", laced);
        for _ in 0..500 {
            let (fa, fb) = (a.next_fate(), b.next_fate());
            match fa {
                Fate::Deliver => assert!(matches!(fb, Fate::Deliver | Fate::Delay { .. })),
                other => assert_eq!(other, fb, "non-deliver fates are unchanged"),
            }
        }
    }

    #[test]
    fn delay_schedule_is_deterministic() {
        let mix = FaultMix::mixed().with_latency(0.4, 700);
        let mut a = FaultSchedule::new(1234, "l", mix);
        let mut b = FaultSchedule::new(1234, "l", mix);
        let fa: Vec<Fate> = (0..400).map(|_| a.next_fate()).collect();
        let fb: Vec<Fate> = (0..400).map(|_| b.next_fate()).collect();
        assert_eq!(fa, fb, "same seed ⇒ same delays, to the microsecond");
        assert!(fa.iter().any(|f| matches!(f, Fate::Delay { .. })));
    }

    #[test]
    fn heal_flushes_and_stops_injecting() {
        let (up_tx, up_rx) = unbounded();
        let plane = FaultPlane::new(3, FaultMix { drop: 1.0, ..FaultMix::none() });
        let tx = plane.wrap("test", forward(up_tx));
        for i in 0..50u32 {
            tx.send(i).unwrap();
        }
        // Give the pump time to drop them all, then heal.
        std::thread::sleep(Duration::from_millis(20));
        plane.heal();
        assert!(!plane.is_active());
        for i in 50..60u32 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got = collect_until_quiet(&up_rx);
        assert_eq!(got, (50..60).collect::<Vec<_>>(), "post-heal traffic is clean");
    }

    #[test]
    fn heal_releases_held_messages_on_a_quiet_link() {
        let (up_tx, up_rx) = unbounded();
        // Hold every message far beyond the traffic we send.
        let plane = FaultPlane::new(9, FaultMix { hold: 1.0, max_hold: 1000, ..FaultMix::none() });
        let tx = plane.wrap("test", forward(up_tx));
        for i in 0..5u32 {
            tx.send(i).unwrap();
        }
        std::thread::sleep(Duration::from_millis(10));
        assert!(up_rx.try_recv().is_err(), "everything is held");
        plane.heal();
        let got = collect_until_quiet(&up_rx);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..5).collect::<Vec<_>>(), "heal released the hostages");
        drop(tx);
    }
}
