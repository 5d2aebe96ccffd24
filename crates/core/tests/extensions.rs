//! Tests for the paper's § 3.1 extensions: context multiplexing and level
//! bypass.

use svt_core::{nested_machine, BypassReflector, HwSvtReflector, SwitchMode};
use svt_hv::{GuestOp, Level, Machine, MachineConfig, OpLoop};
use svt_obs::MetricKey;
use svt_sim::{CostPart, SimDuration};

fn cpuid_us(m: &mut Machine, iters: u64) -> f64 {
    let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
    m.run(&mut warm).unwrap();
    let base = m.clock.snapshot();
    let mut prog = OpLoop::new(GuestOp::Cpuid, iters, 0, SimDuration::ZERO);
    m.run(&mut prog).unwrap();
    m.clock.since_snapshot(&base).busy_time().as_us() / iters as f64
}

#[test]
fn two_context_svt_sits_between_full_svt_and_baseline() {
    let baseline = cpuid_us(&mut nested_machine(SwitchMode::Baseline), 50);
    let full = cpuid_us(&mut nested_machine(SwitchMode::HwSvt), 50);
    let mut m2 = Machine::with_reflector(
        MachineConfig::at_level(Level::L2),
        Box::new(HwSvtReflector::with_contexts(2)),
    );
    let two = cpuid_us(&mut m2, 50);
    assert!(
        full < two && two < baseline,
        "full {full} < two-ctx {two} < baseline {baseline}"
    );
}

#[test]
fn two_context_svt_keeps_l2_switches_fast_but_pays_l0_l1() {
    let mut m = Machine::with_reflector(
        MachineConfig::at_level(Level::L2),
        Box::new(HwSvtReflector::with_contexts(2)),
    );
    let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
    m.run(&mut warm).unwrap();
    let base = m.clock.snapshot();
    let mut prog = OpLoop::new(GuestOp::Cpuid, 20, 0, SimDuration::ZERO);
    m.run(&mut prog).unwrap();
    let d = m.clock.since_snapshot(&base);
    // L2<->L0 is stall/resume (fast); L0<->L1 is the full world switch.
    assert!(d.part_time(CostPart::SwitchL2L0).as_ns() / 20.0 < 100.0);
    let l0l1 = d.part_time(CostPart::SwitchL0L1).as_ns() / 20.0;
    assert!((l0l1 - 1400.0).abs() < 10.0, "L0<->L1 {l0l1}ns");
}

#[test]
#[should_panic(expected = "multiplexes onto 2 or 3")]
fn one_context_svt_rejected() {
    let _ = HwSvtReflector::with_contexts(1);
}

#[test]
fn design_points_order_as_the_paper_argues() {
    // The paper positions SVt between single-level hardware (the baseline
    // running nested stacks in software) and full nested hardware support
    // (our bypass engine): baseline > SVt > bypass in cost.
    let baseline = cpuid_us(&mut nested_machine(SwitchMode::Baseline), 50);
    let svt = cpuid_us(&mut nested_machine(SwitchMode::HwSvt), 50);
    let mut mb = Machine::with_reflector(
        MachineConfig::at_level(Level::L2),
        Box::new(BypassReflector::new()),
    );
    let bypass = cpuid_us(&mut mb, 50);
    assert!(
        bypass < svt && svt < baseline,
        "bypass {bypass} < svt {svt} < baseline {baseline}"
    );
    // And the paper's positioning claim: SVt captures a large share of the
    // gap between the two extremes with far simpler hardware.
    let captured = (baseline - svt) / (baseline - bypass);
    assert!(captured > 0.4, "SVt captures {captured:.2} of the gap");
}

#[test]
fn bypass_still_respects_l0_control_points() {
    // L1's own privileged operations (the folded control write, timer
    // reprogramming) still trap to L0 under bypass.
    let mut m = Machine::with_reflector(
        MachineConfig::at_level(Level::L2),
        Box::new(BypassReflector::new()),
    );
    let mut prog = OpLoop::new(GuestOp::Cpuid, 10, 0, SimDuration::ZERO);
    m.run(&mut prog).unwrap();
    assert!(
        m.obs.metrics.counter_total("l1_exit") >= 10,
        "L0 still mediates L1"
    );
    // L1's handler reaches L2's registers with ctxtld/ctxtst: one leaf
    // read and four result writes per cpuid.
    let ctxt = MetricKey::new("ctxt_reg_access").reflector("bypass");
    assert_eq!(m.obs.metrics.counter(ctxt), 10 * (1 + 4));
}

/// Runs `traps` nested cpuids with the causal graph on and returns the
/// names of the spans they recorded.
fn traced_span_names(m: &mut Machine, traps: u64) -> Vec<&'static str> {
    let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
    m.run(&mut warm).unwrap();
    m.obs.causal.enable();
    let mut prog = OpLoop::new(GuestOp::Cpuid, traps, 0, SimDuration::ZERO);
    m.run(&mut prog).unwrap();
    m.obs.causal.spans().iter().map(|s| s.name).collect()
}

#[test]
fn two_context_svt_world_switch_is_the_baselines_span_for_span() {
    // Multiplexed L0/L1 pay the classic world switch into and out of L1,
    // recorded as the baseline records it: one `l1_entry` and one
    // `l1_exit` per trap.
    let mut m = Machine::with_reflector(
        MachineConfig::at_level(Level::L2),
        Box::new(HwSvtReflector::with_contexts(2)),
    );
    let names = traced_span_names(&mut m, 5);
    let count = |n: &str| names.iter().filter(|&&s| s == n).count();
    assert_eq!(count("l1_entry"), 5, "{names:?}");
    assert_eq!(count("l1_exit"), 5, "{names:?}");
}

#[test]
fn bypass_stall_resume_is_traced_and_counted_like_hw_svt() {
    // One stall/resume to L1's context at the trap and one back to L2's
    // at the resume, each a span and a count under the bypass engine.
    let mut m = Machine::with_reflector(
        MachineConfig::at_level(Level::L2),
        Box::new(BypassReflector::new()),
    );
    let names = traced_span_names(&mut m, 5);
    let spans = names.iter().filter(|&&s| s == "svt_stall_resume").count();
    assert_eq!(spans, 5 * 2, "{names:?}");
    let key = MetricKey::new("svt_stall_resume").reflector("bypass");
    assert_eq!(m.obs.metrics.counter(key), (1 + 5) * 2);
}
