//! Property tests for the fault-injection subsystem: any random fault
//! plan, over any randomized SMP schedule, on every switch engine, must
//! leave the machine **live** (the run completes), **honest** (no causal
//! watchdog fires), and **transparent** (the guests execute exactly the
//! workload they would have executed fault-free — faults may cost time,
//! never semantics).
//!
//! Randomised inputs are driven by the in-tree deterministic PRNG so the
//! cases are reproducible and the suite has no external dependencies.

use std::cell::Cell;
use std::rc::Rc;

use svt::arch::{IcrCommand, MSR_TSC_DEADLINE, MSR_X2APIC_EOI, MSR_X2APIC_ICR, VECTOR_IPI};
use svt::core::{smp_machine, SwitchMode};
use svt::hv::{GuestCtx, GuestOp, GuestProgram, Machine};
use svt::sim::{DetRng, FaultKind, FaultPlan, SimDuration, SimTime};

/// A deterministic random workload: per request, a short burst of
/// compute / cpuid / vmcall / IPI ops drawn from a lane-keyed PRNG.
/// Interrupt handling (EOI) rides outside the PRNG stream, so the issued
/// op tally is a pure function of (seed, lane) — the equivalence oracle.
struct ChaosGuest {
    rng: DetRng,
    n_vcpus: usize,
    requests_left: u64,
    ops_left: u32,
    pending_eoi: u32,
    tally: [u64; 4], // compute, cpuid, vmcall, ipi
    irqs: u64,
    /// How many lanes have retired all their requests. A vCPU that
    /// retires early would be skipped by the scheduler, turning any IPI
    /// still in flight toward it into a (correctly) watchdogged loss —
    /// so every lane lingers (timer-armed halt, so other lanes still get
    /// scheduled) until all lanes are done, plus a margin covering the
    /// worst in-flight redelivery.
    done_lanes: Rc<Cell<usize>>,
    reported_done: bool,
    margin_left: u32,
    timer_armed: bool,
}

impl ChaosGuest {
    fn new(
        seed: u64,
        lane: usize,
        n_vcpus: usize,
        requests: u64,
        done_lanes: Rc<Cell<usize>>,
    ) -> Self {
        ChaosGuest {
            rng: DetRng::seed(seed ^ (lane as u64).wrapping_mul(0x9e37_79b9)),
            n_vcpus,
            requests_left: requests,
            ops_left: 0,
            pending_eoi: 0,
            tally: [0; 4],
            irqs: 0,
            done_lanes,
            reported_done: false,
            margin_left: 4,
            timer_armed: false,
        }
    }
}

impl GuestProgram for ChaosGuest {
    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> GuestOp {
        if self.pending_eoi > 0 {
            self.pending_eoi -= 1;
            return GuestOp::MsrWrite {
                msr: MSR_X2APIC_EOI,
                value: 0,
            };
        }
        if self.ops_left == 0 {
            if self.requests_left == 0 {
                if !self.reported_done {
                    self.reported_done = true;
                    self.done_lanes.set(self.done_lanes.get() + 1);
                }
                let all_done = self.done_lanes.get() >= self.n_vcpus;
                if all_done && self.margin_left == 0 {
                    return GuestOp::Done;
                }
                // Arm a timer and halt; the wakeup re-checks. A
                // busy-compute linger would monopolize the cooperative
                // scheduler and starve the other lanes' events. The
                // deadline must outlast the wrmsr trap itself (tens of
                // microseconds nested) or the timer fires and disarms
                // before the halt, stranding the lane. In-flight IPIs
                // are event-routed while halted, so a coarse period
                // delays nothing but the final Done.
                if self.timer_armed {
                    self.timer_armed = false;
                    return GuestOp::Hlt;
                }
                self.timer_armed = true;
                if all_done {
                    self.margin_left -= 1;
                }
                return GuestOp::MsrWrite {
                    msr: MSR_TSC_DEADLINE,
                    value: (ctx.now + SimDuration::from_us(200)).as_ps(),
                };
            }
            self.requests_left -= 1;
            self.ops_left = 1 + self.rng.below(5) as u32;
        }
        self.ops_left -= 1;
        match self.rng.below(4) {
            0 => {
                self.tally[0] += 1;
                GuestOp::Compute(SimDuration::from_ns(40 + self.rng.below(400)))
            }
            1 => {
                self.tally[1] += 1;
                GuestOp::Cpuid
            }
            2 => {
                self.tally[2] += 1;
                GuestOp::Vmcall(9)
            }
            _ if self.n_vcpus > 1 => {
                let dest = self.rng.below(self.n_vcpus as u64) as u32;
                self.tally[3] += 1;
                GuestOp::MsrWrite {
                    msr: MSR_X2APIC_ICR,
                    value: IcrCommand::fixed(VECTOR_IPI, dest).encode(),
                }
            }
            _ => {
                self.tally[1] += 1;
                GuestOp::Cpuid
            }
        }
    }

    fn interrupt(&mut self, _vector: u8, _ctx: &mut GuestCtx<'_>) {
        self.irqs += 1;
        self.pending_eoi += 1;
    }

    fn name(&self) -> &'static str {
        "chaos-guest"
    }
}

/// Draw a random fault plan: each kind independently armed with a random
/// rate, an occasional budget cap, and a random delay range.
fn random_plan(rng: &mut DetRng) -> FaultPlan {
    let mut plan = FaultPlan::seeded(rng.below(u64::MAX));
    for kind in FaultKind::ALL {
        if rng.chance(0.5) {
            let rate = 0.02 + 0.18 * rng.unit();
            plan = plan.with_rate(kind, rate);
            if rng.chance(0.3) {
                plan = plan.with_budget(kind, rng.range(1, 6));
            }
        }
    }
    if rng.chance(0.5) {
        plan = plan.with_delay(
            SimDuration::from_ns(100 + rng.below(400)),
            SimDuration::from_ns(600 + rng.below(2_000)),
        );
    }
    plan
}

struct RunOutcome {
    tallies: Vec<[u64; 4]>,
    requests_done: bool,
}

fn run_chaos(
    mode: SwitchMode,
    n_vcpus: usize,
    workload_seed: u64,
    requests: u64,
    plan: FaultPlan,
) -> (Machine, RunOutcome) {
    let mut m = smp_machine(mode, n_vcpus);
    m.faults = plan;
    m.obs.causal.enable();
    let done_lanes = Rc::new(Cell::new(0));
    let mut guests: Vec<ChaosGuest> = (0..n_vcpus)
        .map(|v| ChaosGuest::new(workload_seed, v, n_vcpus, requests, done_lanes.clone()))
        .collect();
    {
        let mut progs: Vec<&mut dyn GuestProgram> = guests
            .iter_mut()
            .map(|g| g as &mut dyn GuestProgram)
            .collect();
        m.run_smp(&mut progs, SimTime::MAX)
            .expect("faulted machine stays live");
    }
    let outcome = RunOutcome {
        tallies: guests.iter().map(|g| g.tally).collect(),
        requests_done: guests.iter().all(|g| g.requests_left == 0),
    };
    (m, outcome)
}

/// Liveness + watchdog silence + fault-free equivalence, over random
/// fault plans and random schedules, on all three engines and 1-4 vCPUs.
#[test]
fn random_fault_plans_preserve_liveness_and_guest_semantics() {
    const REQUESTS: u64 = 10;
    let mut meta = DetRng::seed(0xFA17_CA5E);
    let mut total_injected = 0u64;
    for mode in [SwitchMode::Baseline, SwitchMode::SwSvt, SwitchMode::HwSvt] {
        for n_vcpus in 1..=4usize {
            for _case in 0..3 {
                let workload_seed = meta.below(u64::MAX);
                let plan = random_plan(&mut meta);

                let (faulted, got) = run_chaos(mode, n_vcpus, workload_seed, REQUESTS, plan);
                let (_clean, want) =
                    run_chaos(mode, n_vcpus, workload_seed, REQUESTS, FaultPlan::none());

                // Liveness: both runs returned; every request retired.
                assert!(got.requests_done, "faulted run left requests behind");
                assert!(want.requests_done, "clean run left requests behind");

                // Honesty: recovery never confused the causal watchdogs.
                for (name, count) in faulted.obs.causal.violations() {
                    assert_eq!(
                        count, 0,
                        "{name} fired under {mode:?} x{n_vcpus} (seed {workload_seed:#x})"
                    );
                }

                // Transparency: the faulted guests issued exactly the
                // fault-free op stream — same computes, cpuids, vmcalls
                // and IPIs on every lane. Faults cost time, not work.
                assert_eq!(
                    got.tallies, want.tallies,
                    "guest-visible op stream diverged under {mode:?} x{n_vcpus}"
                );

                total_injected += faulted.faults.total_injected();
            }
        }
    }
    // The property is vacuous if the random plans never fired.
    assert!(
        total_injected > 100,
        "random plans injected too few faults ({total_injected}) to exercise recovery"
    );
}

/// Replaying the same fault plan seed over the same schedule reproduces
/// the exact same injection trace — campaign results are replayable.
#[test]
fn identical_fault_seeds_reproduce_identical_runs() {
    let plan = |s| {
        FaultPlan::seeded(s)
            .with_rate(FaultKind::CmdDrop, 0.1)
            .with_rate(FaultKind::DoorbellLost, 0.1)
            .with_rate(FaultKind::IpiDrop, 0.2)
            .with_rate(FaultKind::SiblingDelay, 0.1)
    };
    let (a, _) = run_chaos(SwitchMode::SwSvt, 2, 0xBEEF, 20, plan(7));
    let (b, _) = run_chaos(SwitchMode::SwSvt, 2, 0xBEEF, 20, plan(7));
    assert_eq!(a.faults.injected_counts(), b.faults.injected_counts());
    assert_eq!(a.clock.now(), b.clock.now(), "replay diverged in time");
    for name in ["svt_retransmits", "svt_timeouts", "svt_trap_fallback"] {
        assert_eq!(
            a.obs.metrics.counter_total(name),
            b.obs.metrics.counter_total(name),
            "replay diverged in {name}"
        );
    }
}

/// A plan whose window has already closed behaves exactly like no plan:
/// same finish time, zero injections, zero recovery marks.
#[test]
fn closed_injection_window_is_fault_free() {
    let windowed = FaultPlan::seeded(3)
        .with_rate(FaultKind::CmdDrop, 1.0)
        .with_window(SimTime::from_ps(0), SimTime::from_ps(1));
    let (w, _) = run_chaos(SwitchMode::SwSvt, 2, 0x50DA, 15, windowed);
    let (c, _) = run_chaos(SwitchMode::SwSvt, 2, 0x50DA, 15, FaultPlan::none());
    assert_eq!(w.faults.total_injected(), 0);
    assert_eq!(w.clock.now(), c.clock.now());
    assert_eq!(w.obs.metrics.counter_total("svt_retransmits"), 0);
}
