//! Calibration tests: the baseline nested stack must reproduce Table 1 of
//! the paper within tolerance, with the breakdown emerging from the
//! mechanical execution of Algorithm 1 — not from hard-coded totals.

use svt_hv::{GuestOp, Level, Machine, MachineConfig, OpLoop};
use svt_obs::{MetricKey, ObsLevel};
use svt_sim::{ClockSnapshot, CostModel, CostPart, SimDuration};

/// Paper Table 1, in nanoseconds.
const PAPER: &[(CostPart, f64)] = &[
    (CostPart::L2Guest, 50.0),
    (CostPart::SwitchL2L0, 810.0),
    (CostPart::Transform, 1290.0),
    (CostPart::L0Handler, 4890.0),
    (CostPart::SwitchL0L1, 1400.0),
    (CostPart::L1Handler, 1960.0),
];

fn run_cpuid_batch(iters: u64) -> (Machine, ClockSnapshot) {
    run_cpuid_batch_with(iters, |_| {})
}

/// As [`run_cpuid_batch`], on a cost model changed by `tweak`. The
/// metrics registry counts only the measured iterations.
fn run_cpuid_batch_with(iters: u64, tweak: fn(&mut CostModel)) -> (Machine, ClockSnapshot) {
    let mut cfg = MachineConfig::at_level(Level::L2);
    tweak(&mut cfg.cost);
    let mut m = Machine::baseline(cfg);
    // Warm up one iteration (bootstrap costs), then measure.
    let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
    m.run(&mut warm).unwrap();
    m.obs.metrics.clear();
    let base = m.clock.snapshot();
    let mut prog = OpLoop::new(GuestOp::Cpuid, iters, 0, SimDuration::ZERO);
    m.run(&mut prog).unwrap();
    let diff = m.clock.since_snapshot(&base);
    (m, diff)
}

#[test]
fn table1_total_within_two_percent() {
    let (_, d) = run_cpuid_batch(100);
    let per_op_ns = d.busy_time().as_ns() / 100.0;
    let err = (per_op_ns - 10_400.0).abs() / 10_400.0;
    assert!(
        err < 0.02,
        "per-op {per_op_ns:.1}ns, error {:.1}%",
        err * 100.0
    );
}

#[test]
fn table1_parts_within_five_percent() {
    let (_, d) = run_cpuid_batch(100);
    for &(part, expect) in PAPER {
        let got = d.part_time(part).as_ns() / 100.0;
        let err = (got - expect).abs() / expect;
        assert!(
            err < 0.05,
            "{part}: got {got:.1}ns, paper {expect:.1}ns ({:.1}% off)",
            err * 100.0
        );
    }
}

#[test]
fn overhead_fraction_matches_paper() {
    // The paper: parts 0, 1 (trap+resume) and 5 are "27% of the benchmark
    // execution time; the remaining 73% are overheads induced by nested
    // virtualization". Our attribution puts the nested-virt overhead
    // (parts 2+3+4) at ~73%.
    let (_, d) = run_cpuid_batch(50);
    let total = d.busy_time().as_ns();
    let overhead = d.part_time(CostPart::Transform).as_ns()
        + d.part_time(CostPart::L0Handler).as_ns()
        + d.part_time(CostPart::SwitchL0L1).as_ns();
    let frac = overhead / total;
    assert!((0.68..=0.78).contains(&frac), "overhead fraction {frac:.3}");
}

#[test]
fn each_cpuid_reflects_exactly_once() {
    let (m, d) = run_cpuid_batch(10);
    let metrics = &m.obs.metrics;
    assert_eq!(metrics.counter_total("vm_exit"), 10);
    assert_eq!(metrics.counter_total("l0_direct_exit"), 0);
    // Every handler run triggers exactly one folded L1->L0 trap (the
    // unshadowable control write), and no other.
    let vmwrite = MetricKey::new("l1_exit")
        .level(ObsLevel::L1)
        .exit("VMWRITE");
    assert_eq!(metrics.counter(vmwrite), 10);
    assert_eq!(metrics.counter_total("l1_exit"), 10);
    assert_eq!(metrics.counter_total("transform_fwd"), 10);
    assert_eq!(metrics.counter_total("transform_bwd"), 10);
    // Both transforms move 10 fields each; leg B reads 12 more fields.
    // The charge count is read off the clock: a vmread 1us dearer makes
    // each part dearer by 1us per charged vmread.
    let (_, dear) = run_cpuid_batch_with(10, |c| c.vmread += SimDuration::from_us(1));
    let grew = |part| dear.part_time(part) - d.part_time(part);
    assert_eq!(
        grew(CostPart::Transform),
        SimDuration::from_us(10 * (10 + 10))
    );
    assert_eq!(grew(CostPart::L0Handler), SimDuration::from_us(10 * 12));
}

#[test]
fn rip_advances_per_emulated_instruction() {
    let mut m = Machine::baseline(MachineConfig::at_level(Level::L2));
    let rip0 = m.vcpu2().rip;
    let mut prog = OpLoop::new(GuestOp::Cpuid, 5, 0, SimDuration::ZERO);
    m.run(&mut prog).unwrap();
    // L1's handler advances GuestRip by 2 per cpuid; the backward
    // transform and hardware entry propagate it into the vCPU.
    assert_eq!(m.vcpu2().rip, rip0 + 10);
}

#[test]
fn cpuid_result_reaches_the_guest() {
    #[derive(Debug, Default)]
    struct CpuidOnce {
        result: Option<u64>,
        issued: bool,
    }
    impl svt_hv::GuestProgram for CpuidOnce {
        fn step(&mut self, _ctx: &mut svt_hv::GuestCtx<'_>) -> GuestOp {
            if self.issued {
                GuestOp::Done
            } else {
                self.issued = true;
                GuestOp::Cpuid
            }
        }
        fn op_result(&mut self, v: u64, _ctx: &mut svt_hv::GuestCtx<'_>) {
            self.result = Some(v);
        }
    }
    let mut m = Machine::baseline(MachineConfig::at_level(Level::L2));
    let mut prog = CpuidOnce::default();
    m.run(&mut prog).unwrap();
    assert_eq!(prog.result, Some(svt_hv::cpuid_value(0)));
}

#[test]
fn shadowing_off_multiplies_l1_traps() {
    let mut cfg = MachineConfig::at_level(Level::L2);
    cfg.shadowing = false;
    let mut m = Machine::baseline(cfg);
    let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
    m.run(&mut warm).unwrap();
    m.obs.metrics.clear();
    let base = m.clock.snapshot();
    let mut prog = OpLoop::new(GuestOp::Cpuid, 20, 0, SimDuration::ZERO);
    m.run(&mut prog).unwrap();
    let d = m.clock.since_snapshot(&base);
    // Without shadowing, L1's exit-info vmreads and rip vmwrite also trap.
    let vmread = MetricKey::new("l1_exit").level(ObsLevel::L1).exit("VMREAD");
    let traps = m.obs.metrics.counter(vmread);
    assert!(traps >= 40, "{traps} VMREAD exits");
    let per_op = d.busy_time().as_ns() / 20.0;
    assert!(per_op > 13_000.0, "no-shadowing per-op {per_op:.0}ns");
}

#[test]
fn single_level_is_far_cheaper_than_nested() {
    let mut m1 = Machine::baseline(MachineConfig::at_level(Level::L1));
    let base = m1.clock.snapshot();
    let mut prog = OpLoop::new(GuestOp::Cpuid, 10, 0, SimDuration::ZERO);
    m1.run(&mut prog).unwrap();
    let single = m1.clock.since_snapshot(&base).busy_time().as_ns() / 10.0;
    // Fig. 6: single-level cpuid ~2us, nested ~10.4us.
    assert!((1_500.0..3_000.0).contains(&single), "single {single:.0}ns");
}

#[test]
fn native_cpuid_is_the_instruction_cost() {
    let mut m0 = Machine::baseline(MachineConfig::at_level(Level::L0));
    let base = m0.clock.snapshot();
    let mut prog = OpLoop::new(GuestOp::Cpuid, 10, 0, SimDuration::ZERO);
    m0.run(&mut prog).unwrap();
    let native = m0.clock.since_snapshot(&base).busy_time().as_ns() / 10.0;
    assert_eq!(native, 50.0); // Fig. 6's "0.05 us" bar.
}
