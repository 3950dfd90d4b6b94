//! Deterministic tracing/metrics layer for the AVFS workspace.
//!
//! The paper's daemon is an online *monitoring* loop; this crate gives
//! the reproduction first-class observability over that loop without
//! compromising the property every experiment leans on: **bit-identical
//! reruns**. Three rules make that hold:
//!
//! * **No wall clock.** Every trace event is stamped with [`SimTime`]
//!   propagated from the simulator via [`Telemetry::advance_to`]. Two
//!   identical seeded runs therefore produce byte-identical journals.
//! * **Static metric names.** Counters and histograms are keyed by
//!   `&'static str`. The hub keeps them in first-touch order and finds
//!   a name by its address; snapshots sort them by name, so they iterate
//!   in a stable order independent of insertion history.
//! * **Bounded memory.** The trace journal is a ring of fixed capacity;
//!   overflow drops the *oldest* events and counts the drops, so a long
//!   run can always keep tracing.
//!
//! The seam between the instrumented crates and this one is the
//! [`Telemetry`] handle: a cheap clonable façade over an optional shared
//! [`TelemetryHub`]. When constructed with [`Telemetry::null`] every
//! hook is a load and a branch in its caller, and the closure passed to
//! [`Telemetry::trace`] is never invoked — no event is built, nothing
//! allocates. The hook's `Option` test is `#[inline(always)]`: left to
//! itself, rustc keeps a hook that also holds the lock a real call in
//! large callers. Everything past the test (the lock, poison recovery,
//! the hub method, building the event's fields) sits in one
//! `#[inline(never)]` function, so each call site carries the test alone.
//! `crates/bench` checks that the null path allocates nothing;
//! perfbench's `characterize` workload, three null hooks per stress
//! probe, is where a real call per hook shows.

use avfs_sim::time::SimTime;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};

mod jsonout;

/// Default capacity of the hub's ring journal, in events.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 65_536;

/// Bucket upper bounds (inclusive) shared by every histogram. Decade
/// buckets cover everything the workspace observes — action counts per
/// dispatch through accounted backoff microseconds.
pub const HISTOGRAM_BOUNDS: [u64; 7] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000];

/// One field value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned counter-like quantity.
    U64(u64),
    /// Measured quantity (power, savings). Serialized via `Display`,
    /// which is deterministic for finite values; non-finite values
    /// serialize as JSON `null`.
    F64(f64),
    /// Flag.
    Bool(bool),
    /// Static label (state names, action kinds).
    Str(&'static str),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(v)
    }
}

/// What kind of decision point a trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceKind {
    /// A run or component initialized.
    Init,
    /// One closed monitor window's power/voltage/occupancy sample.
    MonitorSample,
    /// A process's frequency-vs-Vmin class flipped.
    Classification,
    /// The daemon produced a new plan.
    Replan,
    /// The scheduler dispatched a driver's action batch.
    ActionDispatch,
    /// A request entered the SLIMpro mailbox.
    MailboxCall,
    /// A mailbox request failed (injected or window-refused).
    MailboxFault,
    /// The recovery state machine changed state.
    RecoveryTransition,
    /// The droop guardband engaged or released.
    DroopGuard,
    /// The migration watchdog rescued a wedged migration.
    Watchdog,
    /// The fleet front door routed a job to a node.
    FleetRoute,
    /// The fleet front door shed a job (no node could admit it).
    FleetShed,
    /// A characterization campaign accepted one measured margin-map cell.
    CampaignCell,
}

impl TraceKind {
    /// Stable snake_case name used in the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Init => "init",
            TraceKind::MonitorSample => "monitor_sample",
            TraceKind::Classification => "classification",
            TraceKind::Replan => "replan",
            TraceKind::ActionDispatch => "action_dispatch",
            TraceKind::MailboxCall => "mailbox_call",
            TraceKind::MailboxFault => "mailbox_fault",
            TraceKind::RecoveryTransition => "recovery_transition",
            TraceKind::DroopGuard => "droop_guard",
            TraceKind::Watchdog => "watchdog",
            TraceKind::FleetRoute => "fleet_route",
            TraceKind::FleetShed => "fleet_shed",
            TraceKind::CampaignCell => "campaign_cell",
        }
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One span-style trace event in the ring journal.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotone sequence number, assigned by the hub.
    pub seq: u64,
    /// Simulated time the event was recorded at.
    pub at: SimTime,
    /// Decision point.
    pub kind: TraceKind,
    /// Event-specific fields, in recording order.
    pub fields: Vec<(&'static str, Value)>,
}

/// A fixed-bucket histogram: decade buckets plus count/sum/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts observations `<= HISTOGRAM_BOUNDS[i]`; the
    /// final slot counts overflows.
    pub buckets: [u64; HISTOGRAM_BOUNDS.len() + 1],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BOUNDS.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let slot = HISTOGRAM_BOUNDS
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(HISTOGRAM_BOUNDS.len());
        self.buckets[slot] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }
}

/// A point-in-time copy of the hub's metric registries, in stable
/// (sorted-by-name) order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotone counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsSnapshot {
    /// The named counter's value, 0 if never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if it ever observed anything.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }
}

/// The telemetry sink: metric registries plus a bounded ring journal of
/// trace events, exportable as JSONL. Every hook is a deterministic
/// function of the call sequence: no wall clock, no ambient randomness.
#[derive(Debug)]
pub struct TelemetryHub {
    now: SimTime,
    next_seq: u64,
    /// Counters in first-touch order, one entry per name.
    counters: Vec<(&'static str, u64)>,
    /// Histograms in first-touch order, one entry per name.
    histograms: Vec<(&'static str, Histogram)>,
    journal: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Default for TelemetryHub {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryHub {
    /// A hub with the default journal capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A hub whose ring journal holds at most `capacity` events; older
    /// events are dropped (and counted) past that.
    pub fn with_capacity(capacity: usize) -> Self {
        TelemetryHub {
            now: SimTime::ZERO,
            next_seq: 0,
            counters: Vec::new(),
            histograms: Vec::new(),
            journal: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Events dropped from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The journal's live events, oldest first.
    pub fn journal(&self) -> impl Iterator<Item = &TraceEvent> {
        self.journal.iter()
    }

    /// Copies the metric registries out.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().copied().collect(),
            histograms: self.histograms.iter().cloned().collect(),
        }
    }

    /// Renders the whole journal as JSONL (one event per line, trailing
    /// newline). Byte-identical across identical seeded runs.
    pub fn export_jsonl(&self) -> String {
        self.render_jsonl(None)
    }

    /// [`Self::export_jsonl`] with every line tagged by an extra integer
    /// field (e.g. `"node":3`) so journals from several hubs can be
    /// concatenated without losing provenance.
    pub fn export_jsonl_tagged(&self, name: &'static str, value: u64) -> String {
        self.render_jsonl(Some((name, value)))
    }

    fn render_jsonl(&self, tag: Option<(&'static str, u64)>) -> String {
        // Journal lines average 95-110 bytes, so one reservation
        // usually holds the whole export.
        let mut out = String::with_capacity(self.journal.len() * 128);
        for event in &self.journal {
            event.write_jsonl(&mut out, tag);
        }
        out
    }

    /// Propagates simulated time; subsequent events are stamped at `at`.
    /// Called by clock-owning layers (the scheduler, the daemon) on
    /// behalf of clock-less ones (the chip).
    pub(crate) fn advance_to(&mut self, at: SimTime) {
        // Monotone: a stale caller (e.g. a chip clone replayed out of
        // band) cannot rewind the stamp.
        if at > self.now {
            self.now = at;
        }
    }

    /// Adds `delta` to the named monotone counter.
    pub(crate) fn counter_add(&mut self, name: &'static str, delta: u64) {
        match entry(&self.counters, name) {
            Some(i) => self.counters[i].1 += delta,
            None => self.counters.push((name, delta)),
        }
    }

    /// Records one observation into the named histogram.
    pub(crate) fn histogram_observe(&mut self, name: &'static str, value: u64) {
        let i = entry(&self.histograms, name).unwrap_or_else(|| {
            self.histograms.push((name, Histogram::default()));
            self.histograms.len() - 1
        });
        self.histograms[i].1.observe(value);
    }

    /// Appends a trace event with the given fields, dropping the oldest
    /// event when the ring is full.
    pub(crate) fn record(&mut self, kind: TraceKind, fields: Vec<(&'static str, Value)>) {
        if self.journal.len() >= self.capacity {
            self.journal.pop_front();
            self.dropped += 1;
        }
        let event = TraceEvent {
            seq: self.next_seq,
            at: self.now,
            kind,
            fields,
        };
        self.next_seq += 1;
        self.journal.push_back(event);
    }
}

/// The index of `name`'s entry. A name is found by its address first and
/// by its content if that fails, so one name stored at two addresses is
/// still one entry.
fn entry<T>(entries: &[(&'static str, T)], name: &'static str) -> Option<usize> {
    entries
        .iter()
        .position(|(n, _)| std::ptr::eq(*n, name))
        .or_else(|| entries.iter().position(|(n, _)| *n == name))
}

/// Recovers the guarded value even if a panicking thread poisoned the
/// lock — telemetry must never take the control loop down with it.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The hub side of every hook: takes the lock, then runs `f`, which calls
/// the [`TelemetryHub`] method and builds a trace event's fields. Out of
/// line, so that the null test inlined at each call site stays a load and
/// a branch.
#[inline(never)]
fn with_locked_hub(hub: &Mutex<TelemetryHub>, f: impl FnOnce(&mut TelemetryHub)) {
    f(&mut lock_unpoisoned(hub));
}

/// The handle instrumented code holds: a cheap clonable façade over an
/// optional shared [`TelemetryHub`].
///
/// With [`Telemetry::null`] (the default) every hook is an inlined
/// `None` check in its caller, and the closure given to
/// [`trace`](Telemetry::trace) is never called. With [`Telemetry::hub`]
/// all clones feed one shared hub, one lock per hook.
#[derive(Clone, Default)]
pub struct Telemetry {
    hub: Option<Arc<Mutex<TelemetryHub>>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = if self.hub.is_some() { "hub" } else { "null" };
        f.debug_struct("Telemetry").field("sink", &label).finish()
    }
}

impl Telemetry {
    /// The disabled handle: no hub exists, and every hook is one branch
    /// inlined into its caller.
    pub fn null() -> Self {
        Telemetry { hub: None }
    }

    /// A handle over a fresh shared [`TelemetryHub`] with the default
    /// journal capacity.
    pub fn hub() -> Self {
        Self::hub_with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A handle over a fresh shared hub with the given journal capacity.
    pub fn hub_with_capacity(capacity: usize) -> Self {
        Telemetry {
            hub: Some(Arc::new(Mutex::new(TelemetryHub::with_capacity(capacity)))),
        }
    }

    /// True when a hub is attached. Instrumentation may use this to skip
    /// *computing* expensive inputs, mirroring what
    /// [`trace`](Telemetry::trace) does for event construction.
    pub fn is_enabled(&self) -> bool {
        self.hub.is_some()
    }

    /// The `Option` test every hook inlines into its caller (see the
    /// crate docs); a hub is reached through `with_locked_hub`.
    #[inline(always)]
    fn with_hub_mut(&self, f: impl FnOnce(&mut TelemetryHub)) {
        if let Some(hub) = &self.hub {
            with_locked_hub(hub, f);
        }
    }

    /// Propagates simulated time to the hub.
    #[inline]
    pub fn advance_to(&self, at: SimTime) {
        self.with_hub_mut(|hub| hub.advance_to(at));
    }

    /// Adds `delta` to the named monotone counter.
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        self.with_hub_mut(|hub| hub.counter_add(name, delta));
    }

    /// Adds 1 to the named monotone counter.
    #[inline]
    pub fn counter_inc(&self, name: &'static str) {
        self.counter_add(name, 1);
    }

    /// Records one histogram observation.
    #[inline]
    pub fn histogram_observe(&self, name: &'static str, value: u64) {
        self.with_hub_mut(|hub| hub.histogram_observe(name, value));
    }

    /// Appends a trace event. `fields` is only invoked when a hub is
    /// attached, so the null path never builds the event.
    #[inline(always)]
    pub fn trace(&self, kind: TraceKind, fields: impl FnOnce() -> Vec<(&'static str, Value)>) {
        self.with_hub_mut(|hub| hub.record(kind, fields()));
    }

    /// Runs `f` against the shared hub, if this handle wraps one.
    /// Returns `None` for null handles.
    pub fn with_hub<R>(&self, f: impl FnOnce(&TelemetryHub) -> R) -> Option<R> {
        self.hub.as_ref().map(|hub| f(&lock_unpoisoned(hub)))
    }

    /// The hub's metrics snapshot, if this handle wraps a hub.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.with_hub(TelemetryHub::snapshot)
    }

    /// The hub's JSONL journal export, if this handle wraps a hub.
    pub fn export_jsonl(&self) -> Option<String> {
        self.with_hub(TelemetryHub::export_jsonl)
    }
}

/// A fixed-slot counter registry for hot paths that cannot afford a map
/// lookup per increment: slots are indexed by a caller-defined enum and
/// named once at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRegistry {
    names: &'static [&'static str],
    values: Vec<u64>,
}

impl CounterRegistry {
    /// A registry with one zeroed slot per name.
    pub fn new(names: &'static [&'static str]) -> Self {
        CounterRegistry {
            names,
            values: vec![0; names.len()],
        }
    }

    /// Adds `delta` to slot `idx`. Out-of-range indices are ignored
    /// rather than panicking — telemetry must not crash the daemon.
    pub fn add(&mut self, idx: usize, delta: u64) {
        if let Some(slot) = self.values.get_mut(idx) {
            *slot += delta;
        }
    }

    /// The value in slot `idx` (0 when out of range).
    pub fn get(&self, idx: usize) -> u64 {
        self.values.get(idx).copied().unwrap_or(0)
    }

    /// `(name, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.names.iter().copied().zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_handle_is_disabled_and_never_calls_the_closure() {
        let t = Telemetry::null();
        assert!(!t.is_enabled());
        assert!(!Telemetry::default().is_enabled(), "the default is null");
        t.advance_to(SimTime::from_nanos(1));
        t.counter_add("x", 1);
        t.counter_inc("x");
        t.histogram_observe("h", 10);
        t.trace(TraceKind::Replan, || {
            panic!("closure must not run on the null path")
        });
        let read: Option<()> = t.with_hub(|_| panic!("closure must not run on the null path"));
        assert!(read.is_none());
        assert!(t.snapshot().is_none());
        assert!(t.export_jsonl().is_none());
    }

    #[test]
    fn hub_counters_gauges_histograms_roundtrip_through_snapshot() {
        let t = Telemetry::hub();
        t.counter_add("a.count", 2);
        t.counter_inc("a.count");
        t.histogram_observe("a.hist", 5);
        t.histogram_observe("a.hist", 50_000);
        let snap = t.snapshot().expect("hub handle snapshots");
        assert_eq!(snap.counter("a.count"), 3);
        assert_eq!(snap.counter("never.touched"), 0);
        let h = snap.histogram("a.hist").expect("observed");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 50_005);
        assert_eq!(h.max, 50_000);

        // One name at two addresses is one entry, and a zero delta still
        // creates its counter.
        let copy: &'static str = Box::leak(String::from("a.count").into_boxed_str());
        assert!(!std::ptr::eq(copy, "a.count"));
        t.counter_add(copy, 4);
        t.counter_add("b.zero", 0);
        t.histogram_observe(Box::leak(String::from("a.hist").into_boxed_str()), 1);
        let snap = t.snapshot().expect("hub handle snapshots");
        let counters: Vec<(&str, u64)> = snap.counters.into_iter().collect();
        assert_eq!(counters, [("a.count", 7), ("b.zero", 0)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms["a.hist"].count, 3);
    }

    #[test]
    fn clones_share_one_hub() {
        let t = Telemetry::hub();
        let u = t.clone();
        t.counter_add("shared", 1);
        u.counter_add("shared", 1);
        assert_eq!(t.snapshot().expect("hub").counter("shared"), 2);
    }

    #[test]
    fn events_are_stamped_with_advanced_sim_time_and_sequenced() {
        let t = Telemetry::hub();
        t.trace(TraceKind::Init, Vec::new);
        t.advance_to(SimTime::from_nanos(1_500));
        t.trace(TraceKind::Replan, || vec![("actions", Value::U64(4))]);
        // advance_to is monotone: a stale time cannot rewind the stamp.
        t.advance_to(SimTime::from_nanos(900));
        t.trace(TraceKind::Watchdog, Vec::new);
        let events: Vec<TraceEvent> = t
            .with_hub(|hub| hub.journal().cloned().collect())
            .expect("hub");
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].at, SimTime::ZERO);
        assert_eq!(events[1].at, SimTime::from_nanos(1_500));
        assert_eq!(events[2].seq, 2);
        assert_eq!(events[2].at, SimTime::from_nanos(1_500));
    }

    #[test]
    fn json_lines_are_wellformed_and_escaped() {
        let t = Telemetry::hub();
        t.advance_to(SimTime::from_nanos(42));
        t.trace(TraceKind::MailboxFault, || {
            vec![
                ("reason", Value::Str("refused: \"window\"\n")),
                ("mv", Value::U64(880)),
                ("power_w", Value::F64(12.5)),
                ("nan", Value::F64(f64::NAN)),
                ("ok", Value::Bool(false)),
            ]
        });
        t.trace(TraceKind::Init, || {
            vec![
                ("zero", Value::U64(0)),
                ("nine", Value::U64(9)),
                ("ten", Value::U64(10)),
                ("max", Value::U64(u64::MAX)),
            ]
        });
        t.trace(TraceKind::Init, || {
            vec![
                ("zero", Value::F64(0.0)),
                ("neg_zero", Value::F64(-0.0)),
                ("sum", Value::F64(0.1 + 0.2)),
                ("tiny", Value::F64(1e-7)),
                ("e16", Value::F64(1e16)),
                ("e21", Value::F64(1e21)),
                ("max", Value::F64(f64::MAX)),
                ("inf", Value::F64(f64::INFINITY)),
                ("neg_inf", Value::F64(f64::NEG_INFINITY)),
            ]
        });
        t.trace(TraceKind::Init, || {
            vec![("yes", Value::Bool(true)), ("no", Value::Bool(false))]
        });
        t.trace(TraceKind::Init, || {
            vec![
                ("quote", Value::Str("\"")),
                ("backslash", Value::Str("\\")),
                ("controls", Value::Str("\n\r\t\u{1}\u{1f}")),
                ("non_ascii", Value::Str("é€")),
                ("mixed", Value::Str("é\"€\\x")),
            ]
        });
        let f64_max = format!("17976931348623157{}", "0".repeat(292));
        // Lines with backslashes are plain literals: the source lint's
        // brace tracking misreads `\"` inside raw strings.
        let expected = [
            "{\"seq\":0,\"t_ns\":42,\"kind\":\"mailbox_fault\",\"reason\":\"refused: \\\"window\\\"\\n\",\"mv\":880,\"power_w\":12.5,\"nan\":null,\"ok\":false}".to_string(),
            r#"{"seq":1,"t_ns":42,"kind":"init","zero":0,"nine":9,"ten":10,"max":18446744073709551615}"#.to_string(),
            format!(
                r#"{{"seq":2,"t_ns":42,"kind":"init","zero":0,"neg_zero":-0,"sum":0.30000000000000004,"tiny":0.0000001,"e16":10000000000000000,"e21":1000000000000000000000,"max":{f64_max},"inf":null,"neg_inf":null}}"#
            ),
            r#"{"seq":3,"t_ns":42,"kind":"init","yes":true,"no":false}"#.to_string(),
            "{\"seq\":4,\"t_ns\":42,\"kind\":\"init\",\"quote\":\"\\\"\",\"backslash\":\"\\\\\",\"controls\":\"\\n\\r\\t\\u0001\\u001f\",\"non_ascii\":\"é€\",\"mixed\":\"é\\\"€\\\\x\"}".to_string(),
        ];
        assert_eq!(t.export_jsonl().expect("hub"), expected.join("\n") + "\n");

        // The tag goes right after `kind`, before the recorded fields.
        let t = Telemetry::hub();
        t.advance_to(SimTime::from_nanos(7));
        t.trace(TraceKind::FleetRoute, || vec![("job", Value::U64(1))]);
        assert_eq!(
            t.with_hub(|hub| hub.export_jsonl_tagged("node", 3)),
            Some(r#"{"seq":0,"t_ns":7,"kind":"fleet_route","node":3,"job":1}"#.to_string() + "\n")
        );
    }

    #[test]
    fn ring_journal_drops_oldest_and_counts() {
        let t = Telemetry::hub_with_capacity(2);
        for i in 0..5u64 {
            t.trace(TraceKind::Init, move || vec![("i", Value::U64(i))]);
        }
        t.with_hub(|hub| {
            assert_eq!(hub.dropped(), 3);
            let seqs: Vec<u64> = hub.journal().map(|e| e.seq).collect();
            assert_eq!(seqs, vec![3, 4]);
        })
        .expect("hub");
    }

    #[test]
    fn histogram_buckets_cover_bounds_and_overflow() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(1_000_000);
        h.observe(9_999_999);
        assert_eq!(h.buckets[0], 2, "0 and 1 land in the first bucket");
        assert_eq!(h.buckets[1], 1, "2 lands in <=10");
        assert_eq!(h.buckets[HISTOGRAM_BOUNDS.len() - 1], 1);
        assert_eq!(h.buckets[HISTOGRAM_BOUNDS.len()], 1, "overflow slot");
        assert_eq!(h.count, 5);
    }

    #[test]
    fn counter_registry_is_fixed_slot_and_forgiving() {
        static NAMES: [&str; 2] = ["one", "two"];
        let mut reg = CounterRegistry::new(&NAMES);
        reg.add(0, 2);
        reg.add(1, 1);
        reg.add(7, 100); // out of range: ignored
        assert_eq!(reg.get(0), 2);
        assert_eq!(reg.get(7), 0);
        let pairs: Vec<(&str, u64)> = reg.iter().collect();
        assert_eq!(pairs, vec![("one", 2), ("two", 1)]);
    }
}
