//! The steady-state trap path allocates nothing: once a nested machine
//! has warmed up, what a run allocates does not depend on how many traps
//! it takes. Every nested cpuid walks Algorithm 1 (exit, vmcs transforms,
//! L1 handler, resume) and counts each step in the metrics registry, so
//! an allocation anywhere on that path (a ring command, a metric key, a
//! span) would make the longer run allocate more.
//!
//! The test binary runs on the counting allocator, whose counters are
//! per thread, so tests running in parallel do not disturb each other.

use svt::arch::ArchId;
use svt::core::{nested_machine_on, SwitchMode};
use svt::hv::{GuestOp, Machine, OpLoop};
use svt::obs::hostprof::thread_alloc_totals;
use svt::obs::CountingAlloc;
use svt::sim::SimDuration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations and requested bytes of one run of `n` cpuid instructions.
fn run_allocs(m: &mut Machine, n: u64) -> (u64, u64) {
    let mut prog = OpLoop::new(GuestOp::Cpuid, n, 0, SimDuration::ZERO);
    let (allocs, bytes) = thread_alloc_totals();
    m.run(&mut prog).expect("cpuid never blocks");
    let (allocs_after, bytes_after) = thread_alloc_totals();
    (allocs_after - allocs, bytes_after - bytes)
}

#[test]
fn nested_cpuid_runs_allocate_the_same_at_any_trap_count() {
    for arch in ArchId::ALL {
        for mode in SwitchMode::ALL {
            let mut m = nested_machine_on(mode, arch);
            run_allocs(&mut m, 200);
            let short = run_allocs(&mut m, 1_000);
            let long = run_allocs(&mut m, 2_000);
            assert_eq!(
                short, long,
                "{mode:?} on {arch:?}: (allocs, bytes) of a 1000-cpuid run vs a 2000-cpuid run"
            );
        }
    }
}
