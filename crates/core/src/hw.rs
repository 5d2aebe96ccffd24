//! The HW-SVt switch engine.
//!
//! Implements the paper's hardware proposal (§§ 3–4): each virtualization
//! level lives on its own hardware context of one SMT core (L0 on ctx0,
//! L1 on ctx1, L2 on ctx2); VM traps and resumes become thread stall /
//! resume events; and hypervisors touch their subordinate VM's registers
//! with `ctxtld`/`ctxtst` through the shared physical register file
//! instead of spilling through memory. L0 also *elides its lazily-synced
//! context state*, since that state never leaves the per-context register
//! files.

use svt_arch::{ExitReason, VmcsField};
use svt_cpu::{CtxId, CtxtLevel, Gpr};
use svt_hv::{Machine, Reflector};
use svt_obs::{MetricKey, ObsLevel};
use svt_sim::CostPart;

/// Hardware context assignments (the example of § 4).
const CTX_L0: CtxId = CtxId(0);
const CTX_L1: CtxId = CtxId(1);
const CTX_L2: CtxId = CtxId(2);

/// The hardware SVt engine.
///
/// # Examples
///
/// ```
/// use svt_core::{nested_machine, SwitchMode};
/// use svt_hv::{GuestOp, OpLoop};
/// use svt_sim::SimDuration;
///
/// let mut m = nested_machine(SwitchMode::HwSvt);
/// let mut prog = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
/// let t0 = m.clock.now();
/// m.run(&mut prog)?;
/// // Far cheaper than the 10.4us baseline.
/// assert!(m.clock.now().since(t0).as_us() < 7.0);
/// # Ok::<(), svt_hv::MachineError>(())
/// ```
#[derive(Debug, Default)]
pub struct HwSvtReflector {
    initialized: bool,
    /// Hardware contexts available for SVt (§ 3.1: "SVt can accelerate
    /// context switches between as many nested VM and hypervisor contexts
    /// as hardware contexts are available in a core. Past that point, the
    /// hypervisor must multiplex some of the virtualization levels on a
    /// single hardware context").
    contexts: u8,
}

// The µ-register and context-file state lives in `SmtCore` and rides in
// the per-vCPU snapshot.
svt_sim::snap_fields! { HwSvtReflector { #[shape = "HW-SVt context count"] contexts, initialized } }

impl HwSvtReflector {
    /// Creates the engine; hardware contexts are configured lazily on
    /// first use (once the machine exists).
    pub fn new() -> Self {
        HwSvtReflector::with_contexts(3)
    }

    /// The § 3.1 multiplexing fallback: with only two SVt contexts, L2
    /// keeps its own context (the hot path stays fast) while L0 and L1
    /// multiplex on context 0 with full software context switches.
    ///
    /// # Panics
    ///
    /// Panics unless `contexts` is 2 or 3.
    pub fn with_contexts(contexts: u8) -> Self {
        assert!(
            (2..=3).contains(&contexts),
            "the three-level stack multiplexes onto 2 or 3 contexts"
        );
        HwSvtReflector {
            initialized: false,
            contexts,
        }
    }

    fn full(&self) -> bool {
        self.contexts >= 3
    }

    /// Programs the SVt VMCS fields and µ-registers per the § 4
    /// walkthrough: vmcs01 targets {visor=ctx0, vm=ctx1, nested=ctx2},
    /// vmcs02 targets {visor=ctx0, vm=ctx2}; L2's register state is loaded
    /// into ctx2 once via cross-context stores.
    fn ensure_init(&mut self, m: &mut Machine) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        let l2_ctx = if self.full() { CTX_L2 } else { CtxId(1) };
        // vmcs01: L0 runs L1 in ctx1 (or multiplexed on ctx0); L1 reaches
        // its nested VM through SVt_nested.
        let full = self.full();
        let vmcs01 = m.vmcs01_mut();
        vmcs01.set_svt_ctx(VmcsField::SvtVisor, Some(CTX_L0.0));
        vmcs01.set_svt_ctx(
            VmcsField::SvtVm,
            Some(if full { CTX_L1.0 } else { CTX_L0.0 }),
        );
        vmcs01.set_svt_ctx(VmcsField::SvtNested, Some(l2_ctx.0));
        // vmcs02: L0 runs L2 in its own context; no deeper nesting.
        let vmcs02 = m.vmcs02_mut();
        vmcs02.set_svt_ctx(VmcsField::SvtVisor, Some(CTX_L0.0));
        vmcs02.set_svt_ctx(VmcsField::SvtVm, Some(l2_ctx.0));
        vmcs02.set_svt_ctx(VmcsField::SvtNested, None);
        // VMPTRLD caches the fields into the µ-registers.
        let c = m.cost.svt_vmcs_cache;
        m.clock.charge(c);
        let l2 = if self.full() { CTX_L2 } else { CtxId(1) };
        let micro = m.core.micro_mut();
        micro.visor = Some(CTX_L0);
        micro.vm = Some(l2);
        micro.nested = Some(l2);
        // L0 loads L2's initial register state into ctx2 with ctxtst.
        let gprs = m.vcpu2().gprs;
        let c = m.cost.ctxt_regs(Gpr::COUNT as u32);
        m.clock.charge(c);
        m.core.micro_mut().is_vm = false;
        for (r, v) in gprs.iter() {
            m.core
                .ctxtst(CtxtLevel::Guest, r, v)
                .expect("ctx2 configured");
        }
        // Execution currently sits in L2.
        let l2 = if self.full() { CTX_L2 } else { CtxId(1) };
        m.core.switch_to(l2).expect("L2 context exists");
        m.core.micro_mut().is_vm = true;
    }

    fn l2_ctx(&self) -> CtxId {
        if self.full() {
            CTX_L2
        } else {
            CtxId(1)
        }
    }

    fn stall_resume(&self, m: &mut Machine, part: CostPart, to: CtxId, is_vm: bool) {
        let begin = m.clock.now();
        m.clock.push_part(part);
        let c = m.cost.svt_stall + m.cost.svt_resume;
        m.clock.charge(c);
        m.clock.pop_part(part);
        m.core.switch_to(to).expect("SVt context exists");
        m.core.micro_mut().is_vm = is_vm;
        m.obs
            .causal
            .span_close("svt_stall_resume", ObsLevel::Machine, begin, m.clock.now());
        m.obs
            .metrics
            .inc(MetricKey::new("svt_stall_resume").reflector("hw-svt"));
    }
}

impl Reflector for HwSvtReflector {
    fn name(&self) -> &'static str {
        "hw-svt"
    }

    fn l2_trap(&mut self, m: &mut Machine) {
        self.ensure_init(m);
        // Stall L2's context, fetch from ctx0 — no context save: L2's
        // state stays live in its hardware context.
        let l2 = self.l2_ctx();
        self.stall_resume(m, CostPart::SwitchL2L0, CTX_L0, false);
        m.core.special_mut(l2).rip = m.vcpu2().rip;
        m.hw_exit_autosave();
    }

    fn l2_resume(&mut self, m: &mut Machine) {
        self.ensure_init(m);
        m.hw_entry_load();
        let l2 = self.l2_ctx();
        m.core.special_mut(l2).rip = m.vcpu2().rip;
        self.stall_resume(m, CostPart::SwitchL2L0, l2, true);
    }

    fn run_l1(&mut self, m: &mut Machine, exit: ExitReason) {
        self.ensure_init(m);
        if self.full() {
            // Resume L1's context (its full state is already there).
            self.stall_resume(m, CostPart::SwitchL0L1, CTX_L1, true);
        } else {
            // Multiplexed: L1 shares ctx0 with L0 and pays the classic
            // software world switch.
            m.clock.push_part(CostPart::SwitchL0L1);
            let c = m.cost.vm_entry_hw + m.cost.gpr_thunk() + m.world_extra(svt_hv::Level::L1);
            m.clock.charge(c);
            m.clock.pop_part(CostPart::SwitchL0L1);
            m.core.micro_mut().is_vm = true;
        }
        // While L1 executes, the µ-registers reflect vmcs01: its "guest"
        // register context is reached through SVt_nested (virtualized ids).
        m.core.micro_mut().nested = Some(self.l2_ctx());
        m.clock.push_part(CostPart::L1Handler);
        m.l1_handle_exit(self, exit);
        m.clock.pop_part(CostPart::L1Handler);
        // L1's VM-resume traps into L0.
        if self.full() {
            self.stall_resume(m, CostPart::SwitchL0L1, CTX_L0, false);
        } else {
            m.clock.push_part(CostPart::SwitchL0L1);
            let c = m.cost.vm_exit_hw + m.cost.gpr_thunk() + m.world_extra(svt_hv::Level::L1);
            m.clock.charge(c);
            m.clock.pop_part(CostPart::SwitchL0L1);
            m.core.micro_mut().is_vm = false;
        }
    }

    fn l1_exit_roundtrip(&mut self, m: &mut Machine, exit: ExitReason, value: u64) -> u64 {
        if self.full() {
            // L1's own privileged op still traps to L0, but the switch is
            // a thread stall/resume pair each way.
            let c = (m.cost.svt_stall + m.cost.svt_resume) * 2;
            m.clock.charge(c);
            let from = m.core.current();
            m.core.switch_to(CTX_L0).expect("ctx0 exists");
            m.core.micro_mut().is_vm = false;
            let out = m.l0_handle_l1_exit(exit, value);
            m.core.switch_to(from).expect("context exists");
            m.core.micro_mut().is_vm = true;
            out
        } else {
            // Multiplexed L0/L1: the full software switch both ways.
            let world = m.world_extra(svt_hv::Level::L1);
            let c = m.cost.vm_exit_hw + m.cost.gpr_thunk() + world;
            m.clock.charge(c);
            m.core.micro_mut().is_vm = false;
            let out = m.l0_handle_l1_exit(exit, value);
            let c = m.cost.vm_entry_hw + m.cost.gpr_thunk() + world;
            m.clock.charge(c);
            m.core.micro_mut().is_vm = true;
            out
        }
    }

    fn elides_lazy_sync(&self) -> bool {
        true
    }

    fn l2_gpr_read(&mut self, m: &mut Machine, r: Gpr) -> u64 {
        let c = m.cost.ctxt_reg_access;
        m.clock.charge(c);
        m.clock.count("ctxtld");
        m.obs
            .metrics
            .inc(MetricKey::new("ctxt_reg_access").reflector("hw-svt"));
        m.core
            .ctxtld(CtxtLevel::Guest, r)
            .expect("SVt target configured")
    }

    fn l2_gpr_write(&mut self, m: &mut Machine, r: Gpr, v: u64) {
        let c = m.cost.ctxt_reg_access;
        m.clock.charge(c);
        m.clock.count("ctxtst");
        m.obs
            .metrics
            .inc(MetricKey::new("ctxt_reg_access").reflector("hw-svt"));
        m.core
            .ctxtst(CtxtLevel::Guest, r, v)
            .expect("SVt target configured");
        // The memory copy mirrors the architectural state for the parts of
        // the machine that report it.
        m.vcpu2_mut().gprs.set(r, v);
    }
}
