//! Steady-state allocation gate.
//!
//! Installs a counting `#[global_allocator]`, drives a full system
//! (simulator + Optimal daemon) to steady state — all jobs admitted,
//! classifications settled, scratch buffers at their working
//! capacity — and then asserts that a multi-second window
//! of event-loop stepping performs **zero heap allocations**: every
//! slice boundary, monitor tick, replan (decision-cache hit), and
//! governor pass runs entirely out of recycled buffers.
//!
//! The power-trace sampler is set to a cadence beyond the window
//! because its output series is an unbounded accumulator (amortized
//! growth is inherent to producing output, not to stepping the loop).
//! Everything else runs at the default paper cadences.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

use avfs_chip::presets;
use avfs_core::daemon::Daemon;
use avfs_sched::system::{System, SystemConfig};
use avfs_sim::time::{SimDuration, SimTime};
use avfs_workloads::{Benchmark, PerfModel};

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

fn main() {
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

    let chip = presets::xgene2().build();
    let mut daemon = Daemon::optimal(&chip);
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

    // Warm-up: settle admissions, classifications, the decision cache,
    // and every scratch buffer's capacity.
    system.step_until(&mut st, &mut daemon, SimTime::from_secs(10));

    let events_before = st.iterations();
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    system.step_until(&mut st, &mut daemon, SimTime::from_secs(70));
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let events = st.iterations() - events_before;

    println!("alloc gate: {events} events, {allocs} allocations in steady state");
    assert!(
        events > 1_000,
        "window too small to be a meaningful gate ({events} events)"
    );
    assert_eq!(
        allocs, 0,
        "steady-state event loop allocated {allocs} times over {events} events"
    );
    println!("alloc gate passed: zero allocations per event in steady state");
}
