//! Behavioral tests of the machine beyond the Table 1 calibration:
//! single-level and native paths, EPT-violation lazy fill, halt/wake,
//! timers, devices and error paths.

use svt_arch::{MSR_TSC_DEADLINE, MSR_X2APIC_EOI, VECTOR_TIMER};
use svt_hv::{
    Completion, DeviceModel, DeviceOutcome, GuestCtx, GuestOp, GuestProgram, Level, Machine,
    MachineConfig, MachineError, OpLoop,
};
use svt_mem::{Gpa, GuestMemory};
use svt_sim::{SimDuration, SimTime};

/// A program driven by a scripted list of operations.
#[derive(Debug)]
struct Script {
    ops: Vec<GuestOp>,
    at: usize,
    irqs: Vec<u8>,
    results: Vec<u64>,
}

impl Script {
    fn new(ops: Vec<GuestOp>) -> Self {
        Script {
            ops,
            at: 0,
            irqs: Vec::new(),
            results: Vec::new(),
        }
    }
}

impl GuestProgram for Script {
    fn step(&mut self, _ctx: &mut GuestCtx<'_>) -> GuestOp {
        let op = self.ops.get(self.at).copied().unwrap_or(GuestOp::Done);
        self.at += 1;
        op
    }
    fn op_result(&mut self, v: u64, _ctx: &mut GuestCtx<'_>) {
        self.results.push(v);
    }
    fn interrupt(&mut self, v: u8, _ctx: &mut GuestCtx<'_>) {
        self.irqs.push(v);
    }
}

#[test]
fn hlt_without_pending_event_is_an_error() {
    let mut m = Machine::baseline(MachineConfig::at_level(Level::L2));
    let mut prog = Script::new(vec![GuestOp::Hlt]);
    assert_eq!(m.run(&mut prog), Err(MachineError::IdleForever));
    assert!(MachineError::IdleForever.to_string().contains("halted"));
}

#[test]
fn timer_wakes_a_halted_nested_guest() {
    let mut m = Machine::baseline(MachineConfig::at_level(Level::L2));
    let deadline = SimTime::from_us(500).as_ps();
    let mut prog = Script::new(vec![
        GuestOp::MsrWrite {
            msr: MSR_TSC_DEADLINE,
            value: deadline,
        },
        GuestOp::Hlt,
        GuestOp::MsrWrite {
            msr: MSR_X2APIC_EOI,
            value: 0,
        },
        GuestOp::Done,
    ]);
    m.run(&mut prog).expect("timer fires");
    assert_eq!(prog.irqs, vec![VECTOR_TIMER]);
    // Wake happened at (or right after) the armed deadline.
    assert!(m.clock.now().as_ps() >= deadline);
    // The delivery chain costs showed up as nested reflections.
    assert!(m.clock.tag_time("EXTERNAL_INTERRUPT").as_ns() > 0.0);
    assert!(m.clock.tag_time("INTERRUPT_WINDOW").as_ns() > 0.0);
}

#[test]
fn timer_rearm_pushes_deadline_out() {
    let mut m = Machine::baseline(MachineConfig::at_level(Level::L2));
    let mut prog = Script::new(vec![
        GuestOp::MsrWrite {
            msr: MSR_TSC_DEADLINE,
            value: SimTime::from_us(100).as_ps(),
        },
        GuestOp::MsrWrite {
            msr: MSR_TSC_DEADLINE,
            value: SimTime::from_us(10_000).as_ps(),
        },
        GuestOp::Compute(SimDuration::from_us(200)),
        GuestOp::Done,
    ]);
    m.run(&mut prog).expect("no hang");
    // The first (earlier) deadline was superseded: no interrupt during the
    // 200us compute window.
    assert!(prog.irqs.is_empty());
}

#[test]
fn ept_violation_is_filled_by_l0_without_reflection() {
    let mut cfg = MachineConfig::at_level(Level::L2);
    cfg.mapped_pages = 64;
    let mut m = Machine::baseline(cfg);
    // Touch a page that is backed in ept12/ept01 but was dropped from the
    // composed ept02.
    m.l0.ept02.unmap(5);
    let before_l1 = m.clock.tag_time("EPT_VIOLATION");
    let mut prog = Script::new(vec![
        GuestOp::MmioWrite {
            gpa: Gpa(5 * svt_mem::PAGE_SIZE + 16),
            value: 1,
        },
        GuestOp::Done,
    ]);
    m.run(&mut prog).unwrap();
    // L0 handled it: the violation tag accrued time but no reflection
    // (no transform) happened for it.
    assert!(m.clock.tag_time("EPT_VIOLATION") > before_l1);
    // And the mapping is now restored: a second access is free.
    assert!(m
        .l0
        .ept02
        .translate(Gpa(5 * svt_mem::PAGE_SIZE), svt_arch::Access::Write)
        .is_ok());
}

#[test]
fn run_until_stops_at_deadline() {
    let mut m = Machine::baseline(MachineConfig::at_level(Level::L0));
    let mut prog = svt_hv::ComputeOnly::new(SimDuration::from_secs(1), SimDuration::from_us(10));
    let deadline = m.clock.now() + SimDuration::from_ms(1);
    m.run_until(&mut prog, deadline).unwrap();
    assert!(m.clock.now() >= deadline);
    assert!(
        m.clock.now().as_secs() < 0.9,
        "stopped well before the program finished"
    );
}

#[test]
fn native_msr_and_cpuid_semantics() {
    let mut m = Machine::baseline(MachineConfig::at_level(Level::L0));
    let mut prog = Script::new(vec![
        GuestOp::Cpuid,
        GuestOp::MsrWrite {
            msr: MSR_TSC_DEADLINE,
            value: SimTime::from_us(50).as_ps(),
        },
        GuestOp::Hlt,
        GuestOp::MsrWrite {
            msr: MSR_X2APIC_EOI,
            value: 0,
        },
        GuestOp::Done,
    ]);
    m.run(&mut prog).unwrap();
    assert_eq!(prog.results, vec![svt_hv::cpuid_value(0)]);
    assert_eq!(prog.irqs, vec![VECTOR_TIMER]);
    // Native runs never produce VM exits.
    assert_eq!(m.clock.counter("l2_exit_chain"), 0);
}

/// Device returning a canned value, for MMIO read plumbing.
#[derive(Debug)]
struct ConstDevice;

svt_sim::snap_fields! { ConstDevice {} }

impl DeviceModel for ConstDevice {
    fn ranges(&self) -> Vec<(Gpa, u64)> {
        vec![(Gpa(0x5000_0000), 0x1000)]
    }
    fn mmio_write(
        &mut self,
        _gpa: Gpa,
        _value: u64,
        _mem: &mut GuestMemory,
        _now: SimTime,
    ) -> DeviceOutcome {
        DeviceOutcome::service(SimDuration::from_us(1))
    }
    fn mmio_read(
        &mut self,
        _gpa: Gpa,
        _mem: &mut GuestMemory,
        _now: SimTime,
    ) -> (u64, DeviceOutcome) {
        (0xfeed, DeviceOutcome::default())
    }
    fn complete(
        &mut self,
        _token: u64,
        _mem: &mut GuestMemory,
        _now: SimTime,
    ) -> Option<Completion> {
        None
    }
}

#[test]
fn nested_mmio_read_returns_device_value_through_reflection() {
    let mut m = Machine::baseline(MachineConfig::at_level(Level::L2));
    m.add_device(Box::new(ConstDevice));
    let mut prog = Script::new(vec![
        GuestOp::MmioRead {
            gpa: Gpa(0x5000_0008),
        },
        GuestOp::Done,
    ]);
    m.run(&mut prog).unwrap();
    assert_eq!(prog.results, vec![0xfeed]);
    assert!(m.clock.tag_time("EPT_MISCONFIG").as_ns() > 0.0);
}

#[test]
fn single_level_mmio_uses_l0_device_emulation() {
    let mut m = Machine::baseline(MachineConfig::at_level(Level::L1));
    m.add_device(Box::new(ConstDevice));
    let mut prog = Script::new(vec![
        GuestOp::MmioRead {
            gpa: Gpa(0x5000_0000),
        },
        GuestOp::Done,
    ]);
    m.run(&mut prog).unwrap();
    assert_eq!(prog.results, vec![0xfeed]);
    // Single-level: exits counted on the direct path, no nested chains.
    assert!(m.clock.counter("l1_direct_exit") > 0);
    assert_eq!(m.clock.counter("l2_exit_chain"), 0);
}

#[test]
fn untracked_msr_does_not_exit() {
    // EFER is not in the trapped set: no chain should run.
    let mut m = Machine::baseline(MachineConfig::at_level(Level::L2));
    let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
    m.run(&mut warm).unwrap();
    let base = m.clock.snapshot();
    let mut prog = Script::new(vec![
        GuestOp::MsrWrite {
            msr: svt_arch::MSR_EFER,
            value: 1,
        },
        GuestOp::Done,
    ]);
    m.run(&mut prog).unwrap();
    let d = m.clock.since_snapshot(&base);
    assert_eq!(d.counter("l2_exit_chain"), 0);
}

#[test]
fn vmcall_round_trips_with_a_result() {
    let mut m = Machine::baseline(MachineConfig::at_level(Level::L2));
    let mut prog = Script::new(vec![GuestOp::Vmcall(0x42), GuestOp::Done]);
    m.run(&mut prog).unwrap();
    assert_eq!(prog.results, vec![0]);
    assert!(m.clock.tag_time("VMCALL").as_ns() > 0.0);
}

#[test]
fn machine_reports_engine_and_level() {
    let m = Machine::baseline(MachineConfig::at_level(Level::L2));
    assert_eq!(m.reflector_name(), "baseline");
    assert_eq!(m.level(), Level::L2);
    // Debug output is never empty (C-DEBUG-NONEMPTY).
    assert!(!format!("{m:?}").is_empty());
}
