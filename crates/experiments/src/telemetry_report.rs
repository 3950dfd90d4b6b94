//! The `telemetry summary` report: renders a captured metrics snapshot
//! and trace journal as [`Table`]s — the action mix, the
//! per-interval monitor summary, and the fault/recovery timeline.
//!
//! The inputs come from a [`Telemetry::hub`]-backed run (`exp <id>
//! --trace out.jsonl`); everything here is a pure function of the
//! captured data, so the tables are as deterministic as the journal.
//!
//! [`Telemetry::hub`]: avfs_telemetry::Telemetry::hub

use crate::report::{Cell, Table};
use avfs_chip::voltage::Millivolts;
use avfs_telemetry::{MetricsSnapshot, TraceEvent, TraceKind, Value};
use std::collections::BTreeMap;

/// Counters shown by [`action_mix`], in display order: what the
/// scheduler dispatched, what the daemon decided, what the mailbox saw.
const ACTION_MIX_COUNTERS: [&str; 18] = [
    "sched.events",
    "sched.actions.applied",
    "sched.actions.rejected",
    "sched.fault_notices",
    "daemon.invocations",
    "daemon.plans",
    "daemon.pins",
    "daemon.deferred_pins",
    "daemon.voltage_raises",
    "daemon.voltage_lowers",
    "daemon.mailbox_faults",
    "daemon.retries",
    "daemon.safe_mode_entries",
    "daemon.safe_mode_exits",
    "daemon.watchdog_fires",
    "daemon.droop_emergencies",
    "chip.mailbox.requests",
    "chip.mailbox.voltage_sets",
]
// (injected_* counters are omitted: fault injection already has its own
// table in the resilience report.)
;

/// One `Value` rendered the way the JSONL export renders it (minus the
/// string quotes), for human-readable detail columns.
fn fmt_value(v: &Value) -> String {
    match v {
        Value::U64(n) => n.to_string(),
        Value::F64(x) if x.is_finite() => x.to_string(),
        Value::F64(_) => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Str(s) => (*s).to_string(),
    }
}

/// The named field of one trace event, if present.
fn field<'a>(event: &'a TraceEvent, name: &str) -> Option<&'a Value> {
    event
        .fields
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
}

/// A numeric field of one trace event (u64 or f64), if present.
fn numeric_field(event: &TraceEvent, name: &str) -> Option<f64> {
    match field(event, name)? {
        Value::U64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// The action mix: every dispatch/decision counter the run recorded,
/// one row per counter, in display order: what the scheduler dispatched,
/// what the daemon decided, what the mailbox saw.
pub fn action_mix(snapshot: &MetricsSnapshot) -> Table {
    let mut t = Table::new(
        "telemetry-action-mix",
        "Telemetry — action mix (dispatch and decision counters)",
        &["counter", "count"],
    );
    for name in ACTION_MIX_COUNTERS {
        t.push_row(vec![name.into(), snapshot.counter(name).into()]);
    }
    t
}

/// Per-interval monitor summary: mean power, mean rail voltage, and the
/// mean undervolt below `nominal`, bucketed from the journal's
/// `monitor_sample` events into `bucket_s`-second intervals.
pub fn interval_summary(journal: &[TraceEvent], nominal: Millivolts, bucket_s: u64) -> Table {
    let mut t = Table::new(
        "telemetry-intervals",
        &format!("Telemetry — per-interval monitor summary ({bucket_s} s buckets)"),
        &[
            "t (s)",
            "samples",
            "mean power (W)",
            "mean voltage (mV)",
            "mean undervolt (mV)",
        ],
    );
    let bucket_s = bucket_s.max(1);
    // bucket start (s) -> (samples, sum power, sum voltage)
    let mut buckets: BTreeMap<u64, (u64, f64, f64)> = BTreeMap::new();
    for event in journal {
        if event.kind != TraceKind::MonitorSample {
            continue;
        }
        let (Some(power), Some(voltage)) = (
            numeric_field(event, "power_w"),
            numeric_field(event, "voltage_mv"),
        ) else {
            continue;
        };
        let start = event.at.as_nanos() / 1_000_000_000 / bucket_s * bucket_s;
        let slot = buckets.entry(start).or_insert((0, 0.0, 0.0));
        slot.0 += 1;
        slot.1 += power;
        slot.2 += voltage;
    }
    for (start, (samples, power_sum, voltage_sum)) in buckets {
        let n = samples as f64;
        let mean_v = voltage_sum / n;
        t.push_row(vec![
            Cell::Int(start as i64),
            samples.into(),
            Cell::f(power_sum / n, 2),
            Cell::f(mean_v, 1),
            Cell::f(f64::from(nominal.as_mv()) - mean_v, 1),
        ]);
    }
    t
}

/// The fault/recovery timeline: every mailbox fault, recovery-machine
/// transition, droop-guard flip, and watchdog rescue in journal order.
pub fn fault_timeline(journal: &[TraceEvent]) -> Table {
    let mut t = Table::new(
        "telemetry-fault-timeline",
        "Telemetry — fault and recovery timeline",
        &["seq", "t (s)", "kind", "detail"],
    );
    for event in journal {
        let relevant = matches!(
            event.kind,
            TraceKind::Init
                | TraceKind::MailboxFault
                | TraceKind::RecoveryTransition
                | TraceKind::DroopGuard
                | TraceKind::Watchdog
        );
        if !relevant {
            continue;
        }
        let detail = event
            .fields
            .iter()
            .map(|(name, value)| format!("{name}={}", fmt_value(value)))
            .collect::<Vec<_>>()
            .join(" ");
        t.push_row(vec![
            event.seq.into(),
            Cell::f(event.at.as_nanos() as f64 / 1e9, 3),
            event.kind.as_str().into(),
            detail.as_str().into(),
        ]);
    }
    t
}

/// The full `telemetry summary`: action mix, per-interval monitor
/// summary (60 s buckets), and the fault/recovery timeline.
pub fn summary(
    snapshot: &MetricsSnapshot,
    journal: &[TraceEvent],
    nominal: Millivolts,
) -> Vec<Table> {
    vec![
        action_mix(snapshot),
        interval_summary(journal, nominal, 60),
        fault_timeline(journal),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience;
    use crate::{Machine, Scale};
    use avfs_telemetry::Telemetry;

    fn traced_smoke() -> (MetricsSnapshot, Vec<TraceEvent>) {
        let telemetry = Telemetry::hub();
        let results = resilience::sweep_with_observer(
            Machine::XGene2,
            Scale::Quick,
            7,
            &resilience::SMOKE_RATES,
            &telemetry,
        );
        results.validate().expect("smoke sweep validates");
        let snapshot = telemetry.snapshot().expect("hub snapshot");
        let journal = telemetry
            .with_hub(|h| h.journal().cloned().collect())
            .expect("hub journal");
        (snapshot, journal)
    }

    #[test]
    fn summary_tables_reflect_a_traced_run() {
        let (snapshot, journal) = traced_smoke();
        assert!(!journal.is_empty(), "traced run recorded nothing");

        let mix = action_mix(&snapshot);
        assert_eq!(mix.rows.len(), ACTION_MIX_COUNTERS.len());
        assert!(mix.value("daemon.invocations", "count").unwrap() > 0.0);
        assert!(mix.value("sched.events", "count").unwrap() > 0.0);

        let nominal = Millivolts::new(980);
        let intervals = interval_summary(&journal, nominal, 60);
        assert!(!intervals.rows.is_empty(), "no monitor samples bucketed");

        let timeline = fault_timeline(&journal);
        // The two Init markers (one per swept rate) are always present.
        assert!(timeline.rows.len() >= 2, "{timeline}");

        assert_eq!(summary(&snapshot, &journal, nominal).len(), 3);
    }
}
