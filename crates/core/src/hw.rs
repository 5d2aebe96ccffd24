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
pub(crate) const CTX_L0: CtxId = CtxId(0);
pub(crate) const CTX_L1: CtxId = CtxId(1);
pub(crate) const CTX_L2: CtxId = CtxId(2);

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
        let l2 = self.l2_ctx();
        // vmcs01: L0 runs L1 in ctx1 (or multiplexed on ctx0); L1 reaches
        // its nested VM through SVt_nested.
        let vm = if self.full() { CTX_L1 } else { CTX_L0 };
        let vmcs01 = m.vmcs01_mut();
        vmcs01.set_svt_ctx(VmcsField::SvtVisor, Some(CTX_L0.0));
        vmcs01.set_svt_ctx(VmcsField::SvtVm, Some(vm.0));
        vmcs01.set_svt_ctx(VmcsField::SvtNested, Some(l2.0));
        // vmcs02: L0 runs L2 in its own context; no deeper nesting.
        let vmcs02 = m.vmcs02_mut();
        vmcs02.set_svt_ctx(VmcsField::SvtVisor, Some(CTX_L0.0));
        vmcs02.set_svt_ctx(VmcsField::SvtVm, Some(l2.0));
        vmcs02.set_svt_ctx(VmcsField::SvtNested, None);
        // VMPTRLD caches the fields into the µ-registers, and L0 loads
        // L2's initial register state into its context with ctxtst.
        let c = m.cost.svt_vmcs_cache;
        m.clock.charge(c);
        let c = m.cost.ctxt_regs(Gpr::COUNT as u32);
        m.clock.charge(c);
        enter_l2_context(m, l2);
    }

    fn l2_ctx(&self) -> CtxId {
        if self.full() {
            CTX_L2
        } else {
            CtxId(1)
        }
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
        stall_resume(m, self.name(), CostPart::SwitchL2L0, CTX_L0, false);
        m.core.special_mut(l2).rip = m.vcpu2().rip;
        m.hw_exit_autosave();
    }

    fn l2_resume(&mut self, m: &mut Machine) {
        self.ensure_init(m);
        m.hw_entry_load();
        let l2 = self.l2_ctx();
        m.core.special_mut(l2).rip = m.vcpu2().rip;
        stall_resume(m, self.name(), CostPart::SwitchL2L0, l2, true);
    }

    fn run_l1(&mut self, m: &mut Machine, exit: ExitReason) {
        self.ensure_init(m);
        if self.full() {
            // Resume L1's context (its full state is already there).
            stall_resume(m, self.name(), CostPart::SwitchL0L1, CTX_L1, true);
        } else {
            // Multiplexed: L1 shares ctx0 with L0 and pays the classic
            // software world switch.
            m.classic_enter_l1();
            m.core.micro_mut().is_vm = true;
        }
        // While L1 executes, the µ-registers reflect vmcs01: its "guest"
        // register context is reached through SVt_nested (virtualized ids).
        m.core.micro_mut().nested = Some(self.l2_ctx());
        m.l1_handle_exit(self, exit);
        // L1's VM-resume traps into L0.
        if self.full() {
            stall_resume(m, self.name(), CostPart::SwitchL0L1, CTX_L0, false);
        } else {
            m.classic_leave_l1();
            m.core.micro_mut().is_vm = false;
        }
    }

    fn l1_exit_roundtrip(&mut self, m: &mut Machine, exit: ExitReason, value: u64) -> u64 {
        if self.full() {
            return svt_l1_trap(m, exit, value);
        }
        // Multiplexed L0/L1: the full software switch both ways.
        m.core.micro_mut().is_vm = false;
        let out = m.classic_l1_trap(exit, value);
        m.core.micro_mut().is_vm = true;
        out
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

/// Points the µ-registers at L2's hardware context `l2` (L0 on ctx0),
/// loads L2's registers into it with `ctxtst`, and leaves execution in
/// L2. Charges nothing: the engine charges its own set-up.
pub(crate) fn enter_l2_context(m: &mut Machine, l2: CtxId) {
    let micro = m.core.micro_mut();
    micro.visor = Some(CTX_L0);
    micro.vm = Some(l2);
    micro.nested = Some(l2);
    let gprs = m.vcpu2().gprs;
    m.core.micro_mut().is_vm = false;
    for (r, v) in gprs.iter() {
        m.core
            .ctxtst(CtxtLevel::Guest, r, v)
            .expect("L2 context configured");
    }
    m.core.switch_to(l2).expect("L2 context exists");
    m.core.micro_mut().is_vm = true;
}

/// One SVt level switch: stall the running context and resume `to`,
/// charged to `part` on behalf of `engine`, with `is_vm` set for the
/// resumed level; recorded as the `svt_stall_resume` span and counted.
pub(crate) fn stall_resume(
    m: &mut Machine,
    engine: &'static str,
    part: CostPart,
    to: CtxId,
    is_vm: bool,
) {
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
        .inc(MetricKey::new("svt_stall_resume").reflector(engine));
}

/// L1's own privileged operation still traps into L0, but each way is a
/// thread stall/resume pair: L0 handles it on ctx0, then L1's context
/// resumes. Charged under the caller's part; returns the result for
/// reads.
pub(crate) fn svt_l1_trap(m: &mut Machine, exit: ExitReason, value: u64) -> u64 {
    let c = (m.cost.svt_stall + m.cost.svt_resume) * 2;
    m.clock.charge(c);
    let from = m.core.current();
    m.core.switch_to(CTX_L0).expect("ctx0 exists");
    m.core.micro_mut().is_vm = false;
    let out = m.l0_handle_l1_exit(exit, value);
    m.core.switch_to(from).expect("context exists");
    m.core.micro_mut().is_vm = true;
    out
}

/// L1 reads one of L2's registers with `ctxtld` from L2's hardware
/// context: one charged, counted cross-context access on behalf of
/// `engine`.
pub(crate) fn ctxt_gpr_read(m: &mut Machine, engine: &'static str, r: Gpr) -> u64 {
    let c = m.cost.ctxt_reg_access;
    m.clock.charge(c);
    m.obs
        .metrics
        .inc(MetricKey::new("ctxt_reg_access").reflector(engine));
    m.core
        .ctxtld(CtxtLevel::Guest, r)
        .expect("SVt target configured")
}

/// L1 writes one of L2's registers with `ctxtst`, as
/// [`ctxt_gpr_read`]. The memory copy mirrors the architectural state
/// for the parts of the machine that report it.
pub(crate) fn ctxt_gpr_write(m: &mut Machine, engine: &'static str, r: Gpr, v: u64) {
    let c = m.cost.ctxt_reg_access;
    m.clock.charge(c);
    m.obs
        .metrics
        .inc(MetricKey::new("ctxt_reg_access").reflector(engine));
    m.core
        .ctxtst(CtxtLevel::Guest, r, v)
        .expect("SVt target configured");
    m.vcpu2_mut().gprs.set(r, v);
}
