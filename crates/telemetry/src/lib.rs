//! Unified telemetry plane for the enforcement stack.
//!
//! Every instrumented crate (`agreements-sched`, `agreements-grm`,
//! `agreements-flow`, `agreements-faults`, `agreements-proxysim`) talks
//! to telemetry through one cheap, cloneable [`Telemetry`] handle:
//!
//! - **Counters** — monotonic `u64` totals keyed by a static name
//!   (`"grm.fast_rejects"`, `"sched.solves"`, …).
//! - **Histograms** — fixed-bucket log-scale distributions for the hot
//!   latencies (LP solve time, serve-loop drain time, end-to-end request
//!   latency) and for flow-repair dirty-row counts ([`HistKind`]).
//! - **Event trace** — a bounded ring buffer of structured
//!   [`TelemetryEvent`]s (admissions, fast rejects, grants with the
//!   solved `θ` and post-solve `V'` deltas, agreement mutations,
//!   chaos-plane actions, degraded-mode transitions) dumpable on demand
//!   for post-mortem audit.
//!
//! The default handle is **disabled**: every call is a branch on a
//! `None` and returns immediately — no clock reads, no allocation, no
//! locking — so threading a disabled handle through the hot path is
//! bit-identical to not having telemetry at all. All instrumentation
//! goes through the [`TelemetrySink`] trait, so tests can substitute a
//! deterministic sink and assert exact event sequences.
//!
//! The bundled [`Recorder`] sink aggregates into a serializable,
//! mergeable [`Snapshot`] (vendored `serde_json`), which the fig/bench
//! binaries and the CLI export behind `--telemetry-out`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default capacity of the [`Recorder`]'s event ring buffer.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// The fixed histogram set. Latency histograms are in seconds on a
/// log-scale grid from 100 ns; the dirty-row histogram uses power-of-two
/// buckets (a row count is an integer, not a duration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistKind {
    /// Wall-clock time of one LP solve in `AllocationSolver::place`.
    LpSolveSeconds,
    /// Wall-clock time of one drain of the GRM's former serve-thread
    /// mailbox. Nothing records it since the GRM executes on its callers;
    /// it stays until a benchmark revision retires it.
    ServeDrainSeconds,
    /// End-to-end latency of one GRM request decision (receipt to reply).
    RequestLatencySeconds,
    /// Dirty rows recomputed by one `IncrementalFlow::set` repair.
    FlowDirtyRows,
    /// Allocation requests decided per contiguous request run the GRM
    /// core executes (the batched-admission front door).
    BatchSize,
    /// Time an allocation request spent in the GRM's former serve-thread
    /// mailbox. Nothing records it since the GRM executes on its callers;
    /// it stays until a benchmark revision retires it.
    QueueWaitSeconds,
    /// Wall-clock time of one durable-journal fsync (the group-commit
    /// barrier a networked GRM daemon pays before releasing replies).
    JournalFsyncSeconds,
    /// Encoded size, in bytes, of one wire frame (payload + envelope)
    /// crossing a GRM socket in either direction.
    FrameBytes,
    /// Journal records covered by one group-commit fsync (the unsynced
    /// tail a power cut at that instant would have lost).
    GroupCommitRecords,
}

impl HistKind {
    /// All kinds, in snapshot order.
    pub const ALL: [HistKind; 9] = [
        HistKind::LpSolveSeconds,
        HistKind::ServeDrainSeconds,
        HistKind::RequestLatencySeconds,
        HistKind::FlowDirtyRows,
        HistKind::BatchSize,
        HistKind::QueueWaitSeconds,
        HistKind::JournalFsyncSeconds,
        HistKind::FrameBytes,
        HistKind::GroupCommitRecords,
    ];

    /// Stable snapshot name.
    pub fn name(self) -> &'static str {
        match self {
            HistKind::LpSolveSeconds => "lp_solve_seconds",
            HistKind::ServeDrainSeconds => "serve_drain_seconds",
            HistKind::RequestLatencySeconds => "request_latency_seconds",
            HistKind::FlowDirtyRows => "flow_dirty_rows",
            HistKind::BatchSize => "batch_size",
            HistKind::QueueWaitSeconds => "queue_wait_seconds",
            HistKind::JournalFsyncSeconds => "journal_fsync_seconds",
            HistKind::FrameBytes => "frame_bytes",
            HistKind::GroupCommitRecords => "group_commit_records",
        }
    }

    fn index(self) -> usize {
        match self {
            HistKind::LpSolveSeconds => 0,
            HistKind::ServeDrainSeconds => 1,
            HistKind::RequestLatencySeconds => 2,
            HistKind::FlowDirtyRows => 3,
            HistKind::BatchSize => 4,
            HistKind::QueueWaitSeconds => 5,
            HistKind::JournalFsyncSeconds => 6,
            HistKind::FrameBytes => 7,
            HistKind::GroupCommitRecords => 8,
        }
    }

    /// `(base, growth, buckets)` of this kind's log grid: bucket 0 holds
    /// values below `base`, bucket `k ≥ 1` covers
    /// `[base·growth^(k−1), base·growth^k)`, the last bucket is open.
    fn grid(self) -> (f64, f64, usize) {
        match self {
            // 100 ns … ≈ 700 s at ≤ 60% relative error: covers a
            // sub-microsecond cache-hit solve and a pathological stall.
            HistKind::LpSolveSeconds
            | HistKind::ServeDrainSeconds
            | HistKind::RequestLatencySeconds
            | HistKind::QueueWaitSeconds
            | HistKind::JournalFsyncSeconds => (1e-7, 1.6, 52),
            // 1 … 2^30 rows in power-of-two buckets.
            HistKind::FlowDirtyRows => (1.0, 2.0, 32),
            // Batch sizes are small integers; 1 … 2^22 is generous.
            // Group-commit windows are bounded by `max_pending`, which
            // shares the same range.
            HistKind::BatchSize | HistKind::GroupCommitRecords => (1.0, 2.0, 24),
            // Frames span a 6-byte ping to a ~1 MiB availability dump;
            // power-of-two buckets over 1 … 2^30 bytes.
            HistKind::FrameBytes => (1.0, 2.0, 32),
        }
    }
}

/// One structured event in the audit trace. Externally tagged, so the
/// exported JSON reads `{"FastReject": {...}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TelemetryEvent {
    /// A request passed the capacity fast-reject and went to the LP.
    Admitted {
        /// Requesting principal.
        requester: usize,
        /// Requested amount (resource units).
        requested: f64,
        /// Shared `admission_bound()` value at decision time.
        bound: f64,
    },
    /// A request exceeded the reachable-capacity bound. `clamped` is
    /// false for a hard reject and true for the best-effort path, which
    /// clamps the request to the bound instead of refusing it.
    FastReject {
        /// Requesting principal.
        requester: usize,
        /// Requested amount (resource units).
        requested: f64,
        /// Shared `admission_bound()` value the request was tested against.
        bound: f64,
        /// Whether the request was clamped (best-effort) or refused.
        clamped: bool,
    },
    /// An allocation was granted: the solved perturbation `θ` and the
    /// post-solve availability deltas `V' − V` (one per principal,
    /// negative = drawn down).
    Granted {
        /// Requesting principal.
        requester: usize,
        /// Granted amount (resource units).
        amount: f64,
        /// Solved worst-case capacity perturbation `θ` (§3.1).
        theta: f64,
        /// Per-principal availability draw (resource units).
        draws: Vec<f64>,
    },
    /// A direct agreement `S[from][to]` was mutated.
    AgreementSet {
        /// Granting principal.
        from: usize,
        /// Receiving principal.
        to: usize,
        /// New direct share.
        share: f64,
        /// Flow-table rows the incremental repair recomputed.
        dirty_rows: u64,
    },
    /// The chaos plane dropped a message on `link`.
    ChaosDrop {
        /// Fault-plane link name.
        link: String,
    },
    /// The chaos plane duplicated a message on `link`.
    ChaosDup {
        /// Fault-plane link name.
        link: String,
    },
    /// The chaos plane delayed a message on `link`.
    ChaosHold {
        /// Fault-plane link name.
        link: String,
    },
    /// The chaos plane injected in-place latency on `link`.
    ChaosDelay {
        /// Fault-plane link name.
        link: String,
    },
    /// The chaos plane healed: faults off, held messages flushed.
    ChaosHeal {},
    /// An LRM lost the GRM and granted from its local pool, journalling
    /// the grant for later reconciliation.
    DegradedGrant {
        /// Granted amount (resource units).
        amount: f64,
    },
    /// A journalled degraded-mode grant was replayed into the GRM's
    /// books during reconciliation.
    ReconcileReplay {
        /// Requesting principal the grant is settled against.
        requester: usize,
        /// Replayed amount (resource units).
        amount: f64,
    },
    /// One simulator scheduler consultation: the solved `θ` for this
    /// epoch's overflow placement.
    EpochTheta {
        /// Epoch start time, seconds into the measured day.
        time: f64,
        /// Consulting (overloaded) proxy.
        proxy: usize,
        /// Work it asked to shed (work-seconds).
        excess: f64,
        /// Solved perturbation `θ`.
        theta: f64,
        /// Total work actually moved (work-seconds).
        moved: f64,
    },
}

/// Where instrumentation lands. Implementations must be cheap and
/// non-blocking enough for hot paths; they must never influence the
/// decisions they observe.
pub trait TelemetrySink: Send + Sync {
    /// Add `delta` to the monotonic counter `name`.
    fn add(&self, name: &'static str, delta: u64);
    /// Record one observation into histogram `kind`.
    fn observe(&self, kind: HistKind, value: f64);
    /// Append one event to the trace.
    fn record(&self, event: TelemetryEvent);
}

/// The handle threaded through the stack. `Default` (and
/// [`Telemetry::disabled`]) is the no-op plane: every method returns
/// immediately without reading a clock or building an event.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<dyn TelemetrySink>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.enabled() { "Telemetry(enabled)" } else { "Telemetry(disabled)" })
    }
}

impl Telemetry {
    /// The no-op plane (same as `Default`).
    pub fn disabled() -> Self {
        Telemetry { sink: None }
    }

    /// A plane backed by the given sink.
    pub fn new(sink: Arc<dyn TelemetrySink>) -> Self {
        Telemetry { sink: Some(sink) }
    }

    /// A plane backed by a fresh [`Recorder`] with the given event-trace
    /// capacity; returns the recorder for snapshotting.
    pub fn recorder(event_capacity: usize) -> (Self, Arc<Recorder>) {
        let rec = Arc::new(Recorder::new(event_capacity));
        (Telemetry::new(Arc::clone(&rec) as Arc<dyn TelemetrySink>), rec)
    }

    /// Whether a sink is attached.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Add `delta` to counter `name`.
    #[inline]
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(sink) = &self.sink {
            sink.add(name, delta);
        }
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&self, kind: HistKind, value: f64) {
        if let Some(sink) = &self.sink {
            sink.observe(kind, value);
        }
    }

    /// Append the event built by `make` — the closure runs only when a
    /// sink is attached, so disabled planes never pay for event
    /// construction (strings, draw vectors).
    pub fn record_with(&self, make: impl FnOnce() -> TelemetryEvent) {
        if let Some(sink) = &self.sink {
            sink.record(make());
        }
    }

    /// Start a timing span: `None` when disabled (no clock read).
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finish a timing span started by [`Telemetry::start`].
    #[inline]
    pub fn stop(&self, kind: HistKind, started: Option<Instant>) {
        if let Some(t0) = started {
            self.observe(kind, t0.elapsed().as_secs_f64());
        }
    }
}

/// A log-scale histogram over one [`HistKind`] grid.
#[derive(Debug, Clone)]
struct Histogram {
    kind: HistKind,
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new(kind: HistKind) -> Self {
        let (_, _, n) = kind.grid();
        Histogram { kind, buckets: vec![0; n], count: 0, sum: 0.0, min: f64::INFINITY, max: 0.0 }
    }

    fn bucket_of(kind: HistKind, value: f64) -> usize {
        let (base, growth, n) = kind.grid();
        if value < base {
            return 0;
        }
        let k = ((value / base).ln() / growth.ln()).floor() as usize + 1;
        k.min(n - 1)
    }

    fn record(&mut self, value: f64) {
        let v = value.max(0.0);
        self.buckets[Self::bucket_of(self.kind, v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

struct RecorderInner {
    counters: Vec<(&'static str, u64)>,
    hists: Vec<Histogram>,
    events: VecDeque<TelemetryEvent>,
    events_dropped: u64,
    event_capacity: usize,
}

/// The bundled aggregating sink: counters, the fixed histogram set, and
/// a bounded ring-buffer event trace. One mutex around everything —
/// instrumented paths are single-threaded per component, and cross-
/// component contention is limited to the rare enabled-telemetry runs.
pub struct Recorder {
    inner: Mutex<RecorderInner>,
}

impl Recorder {
    /// A recorder whose event trace keeps the most recent
    /// `event_capacity` events (older ones are counted as dropped).
    pub fn new(event_capacity: usize) -> Self {
        Recorder {
            inner: Mutex::new(RecorderInner {
                counters: Vec::new(),
                hists: HistKind::ALL.iter().map(|&k| Histogram::new(k)).collect(),
                events: VecDeque::new(),
                events_dropped: 0,
                event_capacity,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Materialize the current state as a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|&(name, value)| CounterSnapshot { name: name.to_string(), value })
                .collect(),
            histograms: inner
                .hists
                .iter()
                .map(|h| {
                    let (base, growth, _) = h.kind.grid();
                    HistogramSnapshot {
                        name: h.kind.name().to_string(),
                        base,
                        growth,
                        count: h.count,
                        sum: h.sum,
                        min: if h.count == 0 { 0.0 } else { h.min },
                        max: h.max,
                        buckets: h.buckets.clone(),
                    }
                })
                .collect(),
            events: inner.events.iter().cloned().collect(),
            events_dropped: inner.events_dropped,
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(DEFAULT_EVENT_CAPACITY)
    }
}

impl TelemetrySink for Recorder {
    fn add(&self, name: &'static str, delta: u64) {
        let mut inner = self.lock();
        match inner.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += delta,
            None => inner.counters.push((name, delta)),
        }
    }

    fn observe(&self, kind: HistKind, value: f64) {
        self.lock().hists[kind.index()].record(value);
    }

    fn record(&self, event: TelemetryEvent) {
        let mut inner = self.lock();
        if inner.events.len() >= inner.event_capacity {
            inner.events.pop_front();
            inner.events_dropped += 1;
        }
        inner.events.push_back(event);
    }
}

/// One counter in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Counter name.
    pub name: String,
    /// Monotonic total.
    pub value: u64,
}

/// One histogram in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Histogram name ([`HistKind::name`]).
    pub name: String,
    /// Grid base: bucket 0 holds values below it.
    pub base: f64,
    /// Grid growth factor per bucket.
    pub growth: f64,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (0 when empty).
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Bucket counts; the last bucket is open-ended.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A serializable, mergeable view of one recorder — the unit the
/// fig/bench binaries and CLI export behind `--telemetry-out`, and the
/// unit parallel sweeps merge into one document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Monotonic counters, in first-touch order.
    pub counters: Vec<CounterSnapshot>,
    /// The fixed histogram set, in [`HistKind::ALL`] order.
    pub histograms: Vec<HistogramSnapshot>,
    /// The retained event trace, oldest first.
    pub events: Vec<TelemetryEvent>,
    /// Events evicted from the ring buffer.
    pub events_dropped: u64,
}

impl Snapshot {
    /// An empty snapshot (identity for [`Snapshot::merge`]).
    pub fn empty() -> Self {
        Snapshot {
            counters: Vec::new(),
            histograms: Vec::new(),
            events: Vec::new(),
            events_dropped: 0,
        }
    }

    /// Fold `other` into `self`: counters add by name, histograms add
    /// bucketwise by name (grids are fixed per kind), events concatenate
    /// (self's first), dropped counts add.
    pub fn merge(&mut self, other: &Snapshot) {
        for c in &other.counters {
            match self.counters.iter_mut().find(|mine| mine.name == c.name) {
                Some(mine) => mine.value += c.value,
                None => self.counters.push(c.clone()),
            }
        }
        for h in &other.histograms {
            match self.histograms.iter_mut().find(|mine| mine.name == h.name) {
                Some(mine) => {
                    debug_assert_eq!(mine.buckets.len(), h.buckets.len());
                    for (a, b) in mine.buckets.iter_mut().zip(&h.buckets) {
                        *a += b;
                    }
                    if h.count > 0 {
                        mine.min = if mine.count == 0 { h.min } else { mine.min.min(h.min) };
                        mine.max = mine.max.max(h.max);
                    }
                    mine.count += h.count;
                    mine.sum += h.sum;
                }
                None => self.histograms.push(h.clone()),
            }
        }
        self.events.extend(other.events.iter().cloned());
        self.events_dropped += other.events_dropped;
    }

    /// Find a counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
    }

    /// Find a histogram by [`HistKind`].
    pub fn histogram(&self, kind: HistKind) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == kind.name())
    }

    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Parse a snapshot back from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_is_inert() {
        let t = Telemetry::default();
        assert!(!t.enabled());
        assert!(t.start().is_none());
        t.add("anything", 3);
        t.observe(HistKind::LpSolveSeconds, 1.0);
        let mut built = false;
        t.record_with(|| {
            built = true;
            TelemetryEvent::ChaosHeal {}
        });
        assert!(!built, "disabled plane must not construct events");
    }

    #[test]
    fn recorder_aggregates_counters_and_histograms() {
        let (t, rec) = Telemetry::recorder(16);
        t.add("grm.requests", 2);
        t.add("grm.requests", 3);
        t.observe(HistKind::LpSolveSeconds, 1e-5);
        t.observe(HistKind::LpSolveSeconds, 2e-5);
        t.observe(HistKind::FlowDirtyRows, 7.0);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("grm.requests"), 5);
        let lp = snap.histogram(HistKind::LpSolveSeconds).unwrap();
        assert_eq!(lp.count, 2);
        assert!((lp.sum - 3e-5).abs() < 1e-12);
        assert!((lp.min - 1e-5).abs() < 1e-12 && (lp.max - 2e-5).abs() < 1e-12);
        assert_eq!(lp.buckets.iter().sum::<u64>(), 2);
        let rows = snap.histogram(HistKind::FlowDirtyRows).unwrap();
        // 7 rows lands in bucket ⌊log2 7⌋ + 1 = 3 of the power-of-two grid.
        assert_eq!(rows.buckets[3], 1);
    }

    #[test]
    fn histogram_bucket_edges_are_log_scale() {
        // Below base → bucket 0; exactly base → bucket 1.
        assert_eq!(Histogram::bucket_of(HistKind::LpSolveSeconds, 0.0), 0);
        assert_eq!(Histogram::bucket_of(HistKind::LpSolveSeconds, 9e-8), 0);
        assert_eq!(Histogram::bucket_of(HistKind::LpSolveSeconds, 1e-7), 1);
        // Huge values clamp into the open last bucket.
        let (_, _, n) = HistKind::LpSolveSeconds.grid();
        assert_eq!(Histogram::bucket_of(HistKind::LpSolveSeconds, 1e12), n - 1);
        // Monotone: larger values never land in earlier buckets.
        let mut last = 0;
        for k in 0..60 {
            let v = 1e-7 * 1.5f64.powi(k);
            let b = Histogram::bucket_of(HistKind::LpSolveSeconds, v);
            assert!(b >= last);
            last = b;
        }
    }

    #[test]
    fn batch_histograms_are_in_the_fixed_set() {
        let (t, rec) = Telemetry::recorder(4);
        t.observe(HistKind::BatchSize, 6.0);
        t.observe(HistKind::QueueWaitSeconds, 3e-6);
        let snap = rec.snapshot();
        assert_eq!(snap.histograms.len(), HistKind::ALL.len());
        let b = snap.histogram(HistKind::BatchSize).unwrap();
        assert_eq!(b.count, 1);
        // 6 requests land in bucket ⌊log2 6⌋ + 1 = 3 of the power-of-two grid.
        assert_eq!(b.buckets[3], 1);
        let q = snap.histogram(HistKind::QueueWaitSeconds).unwrap();
        assert_eq!(q.count, 1);
        assert!((q.sum - 3e-6).abs() < 1e-12);
    }

    #[test]
    fn event_ring_buffer_is_bounded() {
        let (t, rec) = Telemetry::recorder(4);
        for i in 0..10 {
            t.record_with(|| TelemetryEvent::Admitted {
                requester: i,
                requested: i as f64,
                bound: 100.0,
            });
        }
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.events_dropped, 6);
        // The survivors are the most recent four, oldest first.
        match &snap.events[0] {
            TelemetryEvent::Admitted { requester, .. } => assert_eq!(*requester, 6),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn snapshots_merge_by_name() {
        let (t1, r1) = Telemetry::recorder(8);
        let (t2, r2) = Telemetry::recorder(8);
        t1.add("a", 1);
        t2.add("a", 2);
        t2.add("b", 5);
        t1.observe(HistKind::RequestLatencySeconds, 1e-4);
        t2.observe(HistKind::RequestLatencySeconds, 1e-3);
        t1.record_with(|| TelemetryEvent::ChaosHeal {});
        let mut merged = r1.snapshot();
        merged.merge(&r2.snapshot());
        assert_eq!(merged.counter("a"), 3);
        assert_eq!(merged.counter("b"), 5);
        let h = merged.histogram(HistKind::RequestLatencySeconds).unwrap();
        assert_eq!(h.count, 2);
        assert!((h.min - 1e-4).abs() < 1e-15 && (h.max - 1e-3).abs() < 1e-15);
        assert_eq!(merged.events.len(), 1);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let (t, rec) = Telemetry::recorder(8);
        t.add("grm.granted", 7);
        t.observe(HistKind::ServeDrainSeconds, 2e-6);
        t.record_with(|| TelemetryEvent::FastReject {
            requester: 3,
            requested: 20.0,
            bound: 15.0,
            clamped: false,
        });
        t.record_with(|| TelemetryEvent::Granted {
            requester: 1,
            amount: 4.0,
            theta: 0.25,
            draws: vec![0.0, 4.0],
        });
        let snap = rec.snapshot();
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).expect("parse");
        assert_eq!(back, snap);
        assert!(json.contains("\"FastReject\""));
    }
}
