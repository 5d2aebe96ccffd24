//! Level bypass: the "full hardware nested virtualization" design point.
//!
//! § 3.1 of the paper closes with: "SVt could selectively bypass some
//! virtualization levels when triggering a VM trap to bring performance
//! even closer to systems with full hardware support for nested
//! virtualization". [`BypassReflector`] implements that extension: nested
//! traps that L1 should handle are delivered *directly* to L1's hardware
//! context — no L0 legs, no VMCS transformations, no software injection
//! (the hardware writes the exit information into L1's descriptor). L1's
//! own privileged operations still trap into L0, preserving L0's control.
//!
//! This is the upper bound the paper positions SVt against: SVt trades a
//! little of this performance for far simpler hardware.

use svt_arch::{ExitReason, VmcsField};
use svt_cpu::Gpr;
use svt_hv::{Machine, Reflector};
use svt_sim::CostPart;

use crate::hw::{
    ctxt_gpr_read, ctxt_gpr_write, enter_l2_context, stall_resume, svt_l1_trap, CTX_L1, CTX_L2,
};

/// The bypass engine: SVt contexts plus direct L2→L1 trap delivery.
///
/// # Examples
///
/// ```
/// use svt_core::BypassReflector;
/// use svt_hv::{GuestOp, Level, Machine, MachineConfig, OpLoop};
/// use svt_sim::SimDuration;
///
/// let cfg = MachineConfig::at_level(Level::L2);
/// let mut m = Machine::with_reflector(cfg, Box::new(BypassReflector::new()));
/// let mut prog = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
/// let t0 = m.clock.now();
/// m.run(&mut prog)?;
/// // Faster even than HW SVt (~5.5us): the L0 legs are gone entirely.
/// assert!(m.clock.now().since(t0).as_us() < 4.0);
/// # Ok::<(), svt_hv::MachineError>(())
/// ```
#[derive(Debug, Default)]
pub struct BypassReflector {
    initialized: bool,
}

// The lazy-init flag is the engine's only mutable state; the context
// files ride in the per-vCPU `SmtCore` snapshot.
svt_sim::snap_fields! { BypassReflector { initialized } }

impl BypassReflector {
    /// Creates the engine.
    pub fn new() -> Self {
        BypassReflector { initialized: false }
    }

    fn ensure_init(&mut self, m: &mut Machine) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        enter_l2_context(m, CTX_L2);
    }
}

impl Reflector for BypassReflector {
    fn name(&self) -> &'static str {
        "bypass"
    }

    fn l2_trap(&mut self, m: &mut Machine) {
        self.ensure_init(m);
        // The trap is delivered straight to L1's context.
        stall_resume(m, self.name(), CostPart::SwitchL2L0, CTX_L1, true);
        m.core.micro_mut().nested = Some(CTX_L2);
        m.hw_exit_autosave();
    }

    fn l2_resume(&mut self, m: &mut Machine) {
        m.hw_entry_load();
        stall_resume(m, self.name(), CostPart::SwitchL2L0, CTX_L2, true);
    }

    fn reflect(&mut self, m: &mut Machine, exit: ExitReason) {
        // Hardware wrote the exit information into L1's descriptor at trap
        // time; nothing reaches L0 on this path.
        let (code, qual) = m.arch.encode(exit);
        m.vmcs12_mut().write(VmcsField::ExitReason, code);
        m.vmcs12_mut().write(VmcsField::ExitQualification, qual);
        self.run_l1(m, exit);
    }

    fn run_l1(&mut self, m: &mut Machine, exit: ExitReason) {
        // Already fetching from L1's context (l2_trap switched there).
        m.l1_handle_exit(self, exit);
    }

    fn l1_exit_roundtrip(&mut self, m: &mut Machine, exit: ExitReason, value: u64) -> u64 {
        // L1's own privileged ops still reach L0 (stall/resume switches).
        svt_l1_trap(m, exit, value)
    }

    fn elides_lazy_sync(&self) -> bool {
        true
    }

    fn l2_gpr_read(&mut self, m: &mut Machine, r: Gpr) -> u64 {
        ctxt_gpr_read(m, self.name(), r)
    }

    fn l2_gpr_write(&mut self, m: &mut Machine, r: Gpr, v: u64) {
        ctxt_gpr_write(m, self.name(), r, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svt_hv::{GuestOp, Level, MachineConfig, OpLoop};
    use svt_sim::SimDuration;

    fn cpuid_us(m: &mut Machine, iters: u64) -> f64 {
        let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
        m.run(&mut warm).unwrap();
        let base = m.clock.snapshot();
        let mut prog = OpLoop::new(GuestOp::Cpuid, iters, 0, SimDuration::ZERO);
        m.run(&mut prog).unwrap();
        m.clock.since_snapshot(&base).busy_time().as_us() / iters as f64
    }

    #[test]
    fn bypass_beats_hw_svt() {
        let mut hw = crate::nested_machine(crate::SwitchMode::HwSvt);
        let mut by = Machine::with_reflector(
            MachineConfig::at_level(Level::L2),
            Box::new(BypassReflector::new()),
        );
        let t_hw = cpuid_us(&mut hw, 50);
        let t_by = cpuid_us(&mut by, 50);
        assert!(t_by < t_hw, "bypass {t_by} vs hw {t_hw}");
        // But it is not free: L1's own traps still reach L0.
        assert!(t_by > 0.5, "bypass {t_by}");
    }

    #[test]
    fn bypass_skips_transforms_entirely() {
        use svt_sim::CostPart;
        let mut m = Machine::with_reflector(
            MachineConfig::at_level(Level::L2),
            Box::new(BypassReflector::new()),
        );
        let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
        m.run(&mut warm).unwrap();
        let base = m.clock.snapshot();
        let mut prog = OpLoop::new(GuestOp::Cpuid, 10, 0, SimDuration::ZERO);
        m.run(&mut prog).unwrap();
        let d = m.clock.since_snapshot(&base);
        assert_eq!(d.part_time(CostPart::Transform), SimDuration::ZERO);
        assert_eq!(d.part_time(CostPart::L0Handler), SimDuration::ZERO);
        // L1 still handled every exit.
        assert!(d.part_time(CostPart::L1Handler).as_ns() > 0.0);
    }

    #[test]
    fn l1_exit_info_arrives_without_l0() {
        let mut m = Machine::with_reflector(
            MachineConfig::at_level(Level::L2),
            Box::new(BypassReflector::new()),
        );
        let mut prog = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
        m.run(&mut prog).unwrap();
        let (code, _) = ExitReason::Cpuid.encode();
        assert_eq!(m.vmcs12().read(VmcsField::ExitReason), code);
    }
}
