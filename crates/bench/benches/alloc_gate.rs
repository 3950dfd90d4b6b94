//! Allocation gate for the control loop, in two phases.
//!
//! Installs a counting `#[global_allocator]` and drives the simulator
//! with the Optimal daemon through two measured windows.
//!
//! 1. **Steady state.** X-Gene 2 runs six long jobs that neither finish
//!    nor change class inside the window, twice. With a zero-rate fault
//!    plan armed, the simulator delivers every 50 ms monitor boundary,
//!    and every boundary, tick, replan and governor pass must run out of
//!    recycled buffers: the window counts **zero** allocations over more
//!    than 1,000 events. Without a plan, the inert boundaries are
//!    elided: still zero allocations, in fewer loop iterations.
//! 2. **Churn.** X-Gene 3 replays the short-job trace of perfbench's
//!    churn workload (`paper_default(32, 2024)` at `job_scale` 0.05).
//!    After a warm-up, at least ten simulated minutes of arrivals,
//!    exits, class flips and the replans they cause are measured. Every
//!    daemon call is counted on its own: it must allocate exactly once
//!    when it returns actions and never otherwise, because the `Driver`
//!    API hands the list to `System` by value. Every other allocation
//!    must be a growth of the run's completion records, which the gate
//!    derives from their capacity; anything left over fails the gate.
//!
//! In both phases the power-trace sampler fires beyond the window: its
//! series are unbounded run outputs, and amortized growth is inherent
//! to producing output, not to stepping the loop.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::iter::Peekable;
use std::slice;
use std::sync::atomic::{AtomicU64, Ordering};

use avfs_chip::fault::FaultPlan;
use avfs_chip::presets;
use avfs_core::daemon::Daemon;
use avfs_sched::driver::{Action, Driver, SysEvent, SystemView};
use avfs_sched::system::{RunState, System, SystemConfig};
use avfs_sim::time::{SimDuration, SimTime};
use avfs_workloads::{Arrival, Benchmark, GeneratorConfig, PerfModel, WorkloadTrace};

/// Number of heap allocations since process start (alloc + realloc +
/// alloc_zeroed; deallocations are free and uncounted).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter is a relaxed atomic with no effect on layout or aliasing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn main() {
    let armed = steady_state(true);
    let plain = steady_state(false);
    assert!(
        armed > 1_000,
        "window too small to be a meaningful gate ({armed} events)"
    );
    assert!(
        plain < armed,
        "eliding inert boundaries saved no iterations ({plain} vs {armed})"
    );
    churn();
}

/// Phase 1: a warmed six-job window in which nothing arrives, exits or
/// changes class must allocate nothing at all. With `armed`, a zero-rate
/// fault plan makes the simulator deliver every monitor boundary.
/// Returns the window's event count.
fn steady_state(armed: bool) -> u64 {
    // Long-running mixed workload: six jobs spanning both intensity
    // classes, scaled so none finishes inside the measured window.
    let jobs: [(Benchmark, usize); 6] = [
        (Benchmark::NpbEp, 2),
        (Benchmark::NpbCg, 1),
        (Benchmark::NpbLu, 2),
        (Benchmark::NpbMg, 1),
        (Benchmark::NpbIs, 1),
        (Benchmark::NpbFt, 1),
    ];

    let mut chip = presets::xgene2().build();
    let mut daemon = Daemon::optimal(&chip);
    if armed {
        chip.set_fault_plan(Some(FaultPlan::uniform(0x57EAD, 0.0)));
    }
    // A monitor window well below the paper's 400 ms densifies the
    // gated event stream: every tick is a full monitor-refresh +
    // replan + governor pass, the allocation-riskiest event kind.
    let config = SystemConfig {
        sample_interval: SimDuration::from_secs(3_600),
        monitor_interval: SimDuration::from_millis(50),
        ..SystemConfig::default()
    };
    let mut system = System::builder(chip, PerfModel::xgene2())
        .config(config)
        .build();

    let mut st = system.begin_run(&mut daemon);
    for (bench, threads) in jobs {
        system.inject_arrival(&mut st, &mut daemon, bench, threads, 500.0);
    }

    // Warm-up: settle admissions, classifications and every scratch
    // buffer's capacity.
    system.step_until(&mut st, &mut daemon, SimTime::from_secs(10));

    let events_before = st.iterations();
    let allocs_before = allocs();
    system.step_until(&mut st, &mut daemon, SimTime::from_secs(70));
    let allocs = allocs() - allocs_before;
    let events = st.iterations() - events_before;

    let plan = if armed { "armed" } else { "no plan" };
    println!("alloc gate, steady state ({plan}): {events} events, {allocs} allocations");
    assert_eq!(
        allocs, 0,
        "steady-state event loop ({plan}) allocated {allocs} times over {events} events"
    );
    events
}

/// The daemon, with every call's allocations counted on their own.
struct Attributed<'d> {
    daemon: &'d mut Daemon,
    /// Checks each call's count; off during warm-up.
    measuring: bool,
    calls: u64,
    allocs: u64,
    arrivals: u64,
    exits: u64,
    flips: u64,
}

impl Driver for Attributed<'_> {
    fn on_event(&mut self, view: &SystemView, event: &SysEvent) -> Vec<Action> {
        let before = allocs();
        let actions = self.daemon.on_event(view, event);
        let n = allocs() - before;
        if self.measuring {
            assert_eq!(
                n,
                u64::from(!actions.is_empty()),
                "a daemon call on {} allocated {n} times for {} actions",
                event.label(),
                actions.len()
            );
            self.calls += 1;
            self.allocs += n;
            match event {
                SysEvent::ProcessArrived(_) => self.arrivals += 1,
                SysEvent::ProcessFinished(_) => self.exits += 1,
                SysEvent::ClassChanged(..) => self.flips += 1,
                _ => {}
            }
        }
        actions
    }

    fn name(&self) -> &str {
        self.daemon.name()
    }
}

/// Steps to `end`, injecting every trace arrival due before it, in the
/// order [`System::run`] uses.
fn replay_until(
    system: &mut System,
    st: &mut RunState,
    driver: &mut dyn Driver,
    arrivals: &mut Peekable<slice::Iter<'_, Arrival>>,
    end: SimTime,
) {
    while let Some(a) = arrivals.next_if(|a| a.at < end) {
        system.step_until(st, driver, a.at.max(system.now()));
        system.inject_arrival(st, driver, a.bench, a.threads, a.scale);
    }
    system.step_until(st, driver, end);
}

/// Phase 2: real churn traffic, where every allocation must be a
/// returned action list or a growth of the completion records.
fn churn() {
    // A 20-minute window after a 10-minute warm-up.
    const WARM_UP: SimTime = SimTime::from_secs(600);
    const END: SimTime = SimTime::from_secs(1_800);

    let trace = WorkloadTrace::generate(&GeneratorConfig {
        job_scale: 0.05,
        ..GeneratorConfig::paper_default(32, 2024)
    });
    let chip = presets::xgene3().build();
    let mut daemon = Daemon::optimal(&chip);
    let config = SystemConfig {
        sample_interval: SimDuration::from_secs(7_200),
        ..SystemConfig::default()
    };
    let mut system = System::builder(chip, PerfModel::xgene3())
        .config(config)
        .build();
    let mut gate = Attributed {
        daemon: &mut daemon,
        measuring: false,
        calls: 0,
        allocs: 0,
        arrivals: 0,
        exits: 0,
        flips: 0,
    };
    let mut arrivals = trace.arrivals.iter().peekable();
    let mut st = system.begin_run(&mut gate);

    // Warm-up: bring the process table and every scratch buffer to the
    // traffic's working capacity.
    replay_until(&mut system, &mut st, &mut gate, &mut arrivals, WARM_UP);

    gate.measuring = true;
    let plans_before = gate.daemon.stats().plans;
    let capacity_before = st.metrics().completed.capacity();
    let events_before = st.iterations();
    let allocs_before = allocs();
    replay_until(&mut system, &mut st, &mut gate, &mut arrivals, END);
    let allocs = allocs() - allocs_before;
    let events = st.iterations() - events_before;
    let capacity_after = st.metrics().completed.capacity();
    let plans = gate.daemon.stats().plans - plans_before;

    // Completion records grow by doubling, one reallocation each.
    assert!(
        capacity_before > 0
            && capacity_after.is_multiple_of(capacity_before)
            && (capacity_after / capacity_before).is_power_of_two(),
        "completion records grew from {capacity_before} to {capacity_after}, not by doubling"
    );
    let record_growths = u64::from((capacity_after / capacity_before).trailing_zeros());

    println!(
        "alloc gate, churn: {events} events over {} s, {} daemon calls \
         ({} arrivals, {} exits, {} class flips, {plans} plans), \
         {allocs} allocations = {} action lists + {record_growths} completion-record growths; \
         {:.3} allocations per event",
        (END - WARM_UP).as_secs_f64(),
        gate.calls,
        gate.arrivals,
        gate.exits,
        gate.flips,
        gate.allocs,
        allocs as f64 / events as f64
    );
    assert!(
        gate.arrivals > 0 && gate.exits > 0 && gate.flips > 0 && plans > 0,
        "the churn window must contain arrivals, exits, class flips and plans"
    );
    let unexplained = allocs as i64 - (gate.allocs + record_growths) as i64;
    assert_eq!(
        unexplained, 0,
        "{unexplained} allocations outside returned action lists and completion-record growth"
    );
    println!("alloc gate passed: no allocation outside returned action lists and run outputs");
}
