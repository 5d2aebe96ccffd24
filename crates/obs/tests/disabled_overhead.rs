//! Microbench: `ObsLevel`-disabled recording must be a cheap early return.
//!
//! Instrumentation sites stay unconditionally wired in the simulator's
//! hot paths, so the disabled-path cost of spans and causal recording is
//! paid on *every* simulated trap of every un-traced run. This test pins
//! that cost to "one branch" territory: no formatting, no allocation, no
//! map probe before the enabled check. The bound is deliberately generous
//! (debug builds, noisy CI hosts) — it exists to catch a regression that
//! puts real work in front of the early return, which shows up as a
//! 10-100× blowup, not a 2× one.

use std::hint::black_box;
use std::time::Instant;

use svt_obs::{HostPart, Obs, ObsLevel};
use svt_sim::SimTime;

/// Generous per-op ceiling. An early-return branch costs single-digit
/// nanoseconds even unoptimized; allocation or formatting on the path
/// costs hundreds.
const MAX_DISABLED_NS_PER_OP: f64 = 250.0;

const ITERS: u64 = 1_000_000;

#[test]
fn disabled_span_and_causal_recording_is_an_early_return() {
    let mut obs = Obs::new();
    assert!(!obs.causal.is_enabled());

    // Warm up so lazy init and cache effects don't bill the measurement.
    for i in 0..10_000u64 {
        obs.causal.span_close(
            "l2_exit",
            ObsLevel::L2,
            SimTime::from_ns(i),
            SimTime::from_ns(i + 1),
        );
    }

    let start = Instant::now();
    for i in 0..ITERS {
        let t = SimTime::from_ns(black_box(i));
        obs.causal
            .span_close("l2_exit", ObsLevel::L2, t, SimTime::from_ns(i + 1));
        black_box(obs.causal.record("l0_handler", ObsLevel::L0, t));
        obs.causal.span_close("reflect", ObsLevel::L1, t, t);
    }
    let elapsed = start.elapsed();

    // Nothing may have been recorded...
    assert_eq!(obs.causal.recorded(), 0);

    // ...and the disabled path must have stayed branch-cheap. Three
    // recording calls per iteration.
    let ns_per_op = elapsed.as_nanos() as f64 / (ITERS * 3) as f64;
    assert!(
        ns_per_op < MAX_DISABLED_NS_PER_OP,
        "disabled-path recording costs {ns_per_op:.1} ns/op (bound {MAX_DISABLED_NS_PER_OP} ns) — \
         something heavier than an early return is on the disabled path"
    );
}

#[test]
fn disabled_timeline_and_flight_gates_are_an_early_return() {
    let obs = Obs::new();
    assert!(!obs.timeline.is_enabled());
    assert!(!obs.flight.is_enabled());

    // The three gates the machine and reflector hit on every slice/trap
    // of an un-sampled run: the sampler's cadence check, the combined
    // protocol-telemetry gate, and the recorder's arm check.
    for i in 0..10_000u64 {
        black_box(obs.timeline.due(SimTime::from_ns(i)));
    }

    let start = Instant::now();
    for i in 0..ITERS {
        let t = SimTime::from_ns(black_box(i));
        black_box(obs.timeline.due(t));
        black_box(obs.protocol_enabled());
        black_box(obs.flight.is_enabled());
    }
    let elapsed = start.elapsed();

    // Nothing may have been sampled or tripped...
    assert!(obs.timeline.is_empty());
    assert_eq!(obs.timeline.dropped_windows(), 0);
    assert!(obs.flight.last_dump().is_none());

    // ...and the gates must have stayed branch-cheap.
    let ns_per_op = elapsed.as_nanos() as f64 / (ITERS * 3) as f64;
    assert!(
        ns_per_op < MAX_DISABLED_NS_PER_OP,
        "disabled timeline/flight gates cost {ns_per_op:.1} ns/op (bound \
         {MAX_DISABLED_NS_PER_OP} ns) — something heavier than an early return guards the \
         telemetry hot path"
    );
}

#[test]
fn disabled_hostprof_sites_are_an_early_return() {
    // An un-armed profiler, as every machine gets when `--hostprof` was
    // not given: `run_begin` refuses to open a window, so every
    // subsequent site must be a single `running`/`shape_open` test.
    let mut obs = Obs::new();
    assert!(!obs.hostprof.is_enabled());
    obs.hostprof.run_begin();
    assert!(!obs.hostprof.is_running());

    for i in 0..10_000u64 {
        obs.hostprof.shape_fold(black_box(i));
    }

    let start = Instant::now();
    for i in 0..ITERS {
        let w = black_box(i);
        obs.hostprof.enter(HostPart::Reflection);
        obs.hostprof.trap_begin();
        obs.hostprof.shape_fold(w);
        obs.hostprof.shape_fold_vmcs(w, 17, false);
        obs.hostprof.trap_end();
        obs.hostprof.exit(HostPart::Reflection);
    }
    let elapsed = start.elapsed();

    // Nothing may have been profiled...
    obs.hostprof.run_end(1);
    assert!(svt_obs::hostprof::take_global().is_none());

    // ...and the six per-trap sites must have stayed branch-cheap.
    let ns_per_op = elapsed.as_nanos() as f64 / (ITERS * 6) as f64;
    assert!(
        ns_per_op < MAX_DISABLED_NS_PER_OP,
        "disabled hostprof sites cost {ns_per_op:.1} ns/op (bound {MAX_DISABLED_NS_PER_OP} ns) — \
         something heavier than an early return is on the un-profiled trap path"
    );
}
