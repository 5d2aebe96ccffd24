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

use svt_arch::{ExitReason, VmcsField};
use svt_cpu::Gpr;

use crate::machine::Machine;

/// Mechanics of switching between virtualization levels. Every default
/// body is the classic single-thread mechanic ([`BaselineReflector`]'s,
/// written once as the `Machine::classic_*` methods); an engine
/// overrides only the switches it performs differently. An engine's
/// protocol state (ring geometry, degrade FSM) is its snapshot state,
/// declared through its `svt_sim::Snap` impl.
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
    fn l2_trap(&mut self, m: &mut Machine) {
        m.classic_l2_exit();
    }

    /// Hardware mechanics of resuming L2 (part ①, second half).
    fn l2_resume(&mut self, m: &mut Machine) {
        m.classic_l2_entry();
    }

    /// Hands a reflected exit to L1, runs its handler
    /// ([`Machine::l1_handle_exit`]), and returns when L1 issues its
    /// VM-resume. Implementations charge the switch mechanics (part ④ in
    /// the baseline; stall/resume in HW SVt).
    fn run_l1(&mut self, m: &mut Machine, exit: ExitReason) {
        m.classic_enter_l1();
        m.l1_handle_exit(self, exit);
        // L1's VM-resume traps back into L0 (Algorithm 1 line 12).
        m.classic_leave_l1();
    }

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
    fn l1_exit_roundtrip(&mut self, m: &mut Machine, exit: ExitReason, value: u64) -> u64 {
        m.classic_l1_trap(exit, value)
    }

    /// Whether L0 may skip its lazily-synced context state
    /// (the HW SVt elision: state stays in per-context register files).
    fn elides_lazy_sync(&self) -> bool {
        false
    }

    /// How L1's handler learns the exit reason and qualification: by
    /// default two vmreads of vmcs01'; SW SVt reads them from the
    /// received command instead.
    fn l1_read_exit_info(&mut self, m: &mut Machine) -> (u64, u64) {
        read_exit_info_vmcs(self, m)
    }

    /// L1 reads one of L2's general-purpose registers. By default L2's
    /// values are still live in the (single) hardware context when L1's
    /// handler runs, exactly as on real hardware; the memory copy is
    /// authoritative in the simulation.
    fn l2_gpr_read(&mut self, m: &mut Machine, r: Gpr) -> u64 {
        m.vcpu2().gprs.get(r)
    }

    /// L1 writes one of L2's general-purpose registers.
    fn l2_gpr_write(&mut self, m: &mut Machine, r: Gpr, v: u64) {
        m.vcpu2_mut().gprs.set(r, v);
    }
}

/// L1 reads the exit reason and qualification with two vmreads of
/// vmcs01': shadow-satisfied when shadowing is on, full traps otherwise.
fn read_exit_info_vmcs<R: Reflector + ?Sized>(r: &mut R, m: &mut Machine) -> (u64, u64) {
    let mut field = |f| {
        if m.shadowing {
            let c = m.cost.vmread;
            m.clock.charge(c);
            m.vmcs12().read(f)
        } else {
            r.l1_exit_roundtrip(m, ExitReason::Vmread { field: f }, 0)
        }
    };
    (
        field(VmcsField::ExitReason),
        field(VmcsField::ExitQualification),
    )
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
}
