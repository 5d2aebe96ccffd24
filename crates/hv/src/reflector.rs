//! The reflector: how level switches are physically performed.
//!
//! The nested trap-handling *logic* (Algorithm 1) is identical in the
//! baseline and under SVt — what changes is the *mechanics* of moving
//! between virtualization levels and of touching a subordinate VM's
//! registers. [`Reflector`] isolates exactly those mechanics:
//!
//! * [`BaselineReflector`] (here) — single hardware thread; every switch
//!   pays the hardware exit/entry plus the software register thunk, and
//!   L0↔L1 switches additionally pay the hypervisor world switch.
//! * `HwSvtReflector` and `SwSvtReflector` (in the `svt-core` crate) —
//!   the paper's contribution.

use std::fmt;

use svt_arch::ExitReason;
use svt_cpu::Gpr;
use svt_obs::ObsLevel;

use crate::machine::Machine;
use crate::state::Level;
use svt_sim::CostPart;

/// Mechanics of switching between virtualization levels. An engine's
/// protocol state (ring geometry, degrade FSM, retry flags) is its
/// snapshot state, declared through its `svt_sim::Snap` impl.
pub trait Reflector: fmt::Debug + svt_sim::snapshot::SnapDyn {
    /// Human-readable engine name ("baseline", "hw-svt", "sw-svt").
    fn name(&self) -> &'static str;

    /// Current degradation health ("healthy" unless the engine runs a
    /// degrade FSM). Folded into host-profiler trap shapes so a degraded
    /// ring round-trip never shares a fingerprint with a healthy one.
    fn health(&self) -> &'static str {
        "healthy"
    }

    /// Hardware mechanics of a trap from L2 into L0 (Table 1 part ①,
    /// first half). Guest state must be made available to L0.
    fn l2_trap(&mut self, m: &mut Machine);

    /// Hardware mechanics of resuming L2 (part ①, second half).
    fn l2_resume(&mut self, m: &mut Machine);

    /// Hands a reflected exit to L1, runs its handler
    /// ([`Machine::l1_handle_exit`]), and returns when L1 issues its
    /// VM-resume. Implementations charge the switch mechanics (part ④ in
    /// the baseline; ring+mwait in SW SVt; stall/resume in HW SVt).
    fn run_l1(&mut self, m: &mut Machine, exit: ExitReason);

    /// The middle of the reflection chain (Algorithm 1 lines 3–14): by
    /// default, the forward transformation, the vmcs12 event injection,
    /// L1's handler, the emulated-VMRESUME validation leg and the
    /// backward transformation. SW SVt overrides this: the command ring
    /// replaces injection and the VMRESUME exit entirely.
    fn reflect(&mut self, m: &mut Machine, exit: ExitReason) {
        m.l0_leg_a(self.elides_lazy_sync());
        m.forward_transform();
        m.inject_into_vmcs12(exit);
        self.run_l1(m, exit);
        m.l0_leg_b(self.elides_lazy_sync());
        m.backward_transform();
        m.l0_entry_finish();
    }

    /// A privileged operation performed *by* L1 that traps into L0 and
    /// back (Algorithm 1 lines 8–10). `value` is the operand (written
    /// value, or encoded deadline); returns the result for reads.
    fn l1_exit_roundtrip(&mut self, m: &mut Machine, exit: ExitReason, value: u64) -> u64;

    /// Whether L0 may skip its lazily-synced context state
    /// (the HW SVt elision: state stays in per-context register files).
    fn elides_lazy_sync(&self) -> bool {
        false
    }

    /// How L1's handler learns the exit reason and qualification: by
    /// default two vmreads of vmcs01' (shadow-satisfied when shadowing is
    /// on, full traps otherwise); SW SVt reads them from the received
    /// command instead.
    fn l1_read_exit_info(&mut self, m: &mut Machine) -> (u64, u64) {
        let field = |s: &mut Self, m: &mut Machine, f: svt_arch::VmcsField| {
            if m.shadowing {
                let c = m.cost.vmread;
                m.clock.charge(c);
                m.clock.count("shadow_vmread");
                m.vmcs12().read(f)
            } else {
                m.clock.count("l1_vmread_exit");
                s.l1_exit_roundtrip(m, ExitReason::Vmread { field: f }, 0)
            }
        };
        let code = field(self, m, svt_arch::VmcsField::ExitReason);
        let qual = field(self, m, svt_arch::VmcsField::ExitQualification);
        (code, qual)
    }

    /// L1 reads one of L2's general-purpose registers.
    fn l2_gpr_read(&mut self, m: &mut Machine, r: Gpr) -> u64;

    /// L1 writes one of L2's general-purpose registers.
    fn l2_gpr_write(&mut self, m: &mut Machine, r: Gpr, v: u64);
}

/// The prevailing single-hardware-thread mechanics: every level switch
/// spills and reloads the register context through memory.
#[derive(Debug, Default)]
pub struct BaselineReflector;

// Stateless: the register spills live in guest memory and the VMCS web.
svt_sim::snap_fields! { BaselineReflector {} }

impl BaselineReflector {
    /// Creates the baseline engine.
    pub fn new() -> Self {
        BaselineReflector
    }
}

impl Reflector for BaselineReflector {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn l2_trap(&mut self, m: &mut Machine) {
        m.clock.push_part(CostPart::SwitchL2L0);
        let c = (m.cost.vm_exit_hw, m.cost.gpr_thunk());
        m.clock.charge(c.0);
        m.clock.charge(c.1);
        m.clock.pop_part(CostPart::SwitchL2L0);
        m.hw_exit_autosave();
    }

    fn l2_resume(&mut self, m: &mut Machine) {
        m.clock.push_part(CostPart::SwitchL2L0);
        let c = (m.cost.gpr_thunk(), m.cost.vm_entry_hw);
        m.clock.charge(c.0);
        m.clock.charge(c.1);
        m.clock.pop_part(CostPart::SwitchL2L0);
        m.hw_entry_load();
    }

    fn run_l1(&mut self, m: &mut Machine, exit: ExitReason) {
        // Enter the guest hypervisor: full world switch (part 4).
        let begin = m.clock.now();
        m.clock.push_part(CostPart::SwitchL0L1);
        let enter = m.cost.vm_entry_hw + m.cost.gpr_thunk() + m.world_extra(Level::L1);
        m.clock.charge(enter);
        m.clock.pop_part(CostPart::SwitchL0L1);
        m.obs
            .causal
            .span_close("l1_entry", ObsLevel::L1, begin, m.clock.now());

        m.clock.push_part(CostPart::L1Handler);
        m.l1_handle_exit(self, exit);
        m.clock.pop_part(CostPart::L1Handler);

        // L1's VM-resume traps back into L0 (Algorithm 1 line 12).
        let begin = m.clock.now();
        m.clock.push_part(CostPart::SwitchL0L1);
        let leave = m.cost.vm_exit_hw + m.cost.gpr_thunk() + m.world_extra(Level::L1);
        m.clock.charge(leave);
        m.clock.pop_part(CostPart::SwitchL0L1);
        m.obs
            .causal
            .span_close("l1_exit", ObsLevel::L1, begin, m.clock.now());
    }

    fn l1_exit_roundtrip(&mut self, m: &mut Machine, exit: ExitReason, value: u64) -> u64 {
        // Charged under the caller's part (folded into part 5, as the
        // paper's Table 1 does).
        let leave = m.cost.vm_exit_hw + m.cost.gpr_thunk() + m.world_extra(Level::L1);
        m.clock.charge(leave);
        let result = m.l0_handle_l1_exit(exit, value);
        let enter = m.cost.vm_entry_hw + m.cost.gpr_thunk() + m.world_extra(Level::L1);
        m.clock.charge(enter);
        result
    }

    fn l2_gpr_read(&mut self, m: &mut Machine, r: Gpr) -> u64 {
        // L2's register values are still live in the (single) hardware
        // context when L1's handler runs, exactly as on real hardware; the
        // memory copy is authoritative in the simulation.
        m.vcpu2().gprs.get(r)
    }

    fn l2_gpr_write(&mut self, m: &mut Machine, r: Gpr, v: u64) {
        m.vcpu2_mut().gprs.set(r, v);
    }
}
