//! The SMT core with SVt extensions.
//!
//! An [`SmtCore`] owns N hardware contexts (SMT threads) that share one
//! physical register file. The SVt extension (paper § 4) adds per-core
//! µ-registers — `SVt_current`, cached copies of the `SVt_visor`/`SVt_vm`/
//! `SVt_nested` VMCS fields, and `is_vm` — plus the `ctxtld`/`ctxtst`
//! cross-context register instructions and thread stall/resume switching.

use std::error::Error;
use std::fmt;

use crate::regs::{Gpr, GprState, PhysRegFile, RenameMap};
use svt_sim::snapshot::{load_new, load_shape, Sink, Snap, SnapError, SnapReader};

/// Identifier of a hardware context (SMT thread) within one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtxId(pub u8);

svt_sim::snap_fields! { CtxId(_) }

impl fmt::Display for CtxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx{}", self.0)
    }
}

/// Target-selection argument of `ctxtld`/`ctxtst` (paper § 4): contexts are
/// addressed *indirectly* by virtualization depth, never by raw id, so L0
/// can virtualize the ids L1 sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxtLevel {
    /// The direct guest VM (`SVt_vm` when run by a host, `SVt_nested` when
    /// run by a guest hypervisor).
    Guest,
    /// The nested VM (`SVt_nested`; only valid from the host hypervisor).
    Nested,
}

/// Faults raised by SVt operations; real hardware would deliver these as
/// VM traps into the supervising hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvtFault {
    /// The selected µ-register holds no valid context (e.g. `lvl == 2`
    /// with an invalid `SVt_nested`): the hypervisor must emulate deeper
    /// hierarchies in software.
    NoTargetContext,
    /// The level/`is_vm` combination is architecturally undefined.
    InvalidLevel,
    /// A context id named a thread the core does not have.
    BadContext(CtxId),
}

impl fmt::Display for SvtFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvtFault::NoTargetContext => write!(f, "no target context configured"),
            SvtFault::InvalidLevel => write!(f, "invalid cross-context level"),
            SvtFault::BadContext(c) => write!(f, "context {c} does not exist"),
        }
    }
}

impl Error for SvtFault {}

/// Per-core SVt µ-registers (Table 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroRegs {
    /// Context instructions are fetched from (`SVt_current`).
    pub current: CtxId,
    /// Cached `SVt_visor` field of the loaded VMCS.
    pub visor: Option<CtxId>,
    /// Cached `SVt_vm` field of the loaded VMCS.
    pub vm: Option<CtxId>,
    /// Cached `SVt_nested` field of the loaded VMCS.
    pub nested: Option<CtxId>,
    /// Whether a VM is currently executing (`is_vm`; pre-existing).
    pub is_vm: bool,
}

svt_sim::snap_fields! { MicroRegs { current, visor, vm, nested, is_vm } }

impl Default for MicroRegs {
    fn default() -> Self {
        MicroRegs {
            current: CtxId(0),
            visor: None,
            vm: None,
            nested: None,
            is_vm: false,
        }
    }
}

/// Per-context non-renamed architectural state.
#[derive(Debug, Clone, Default)]
pub struct SpecialRegs {
    /// Instruction pointer.
    pub rip: u64,
}

svt_sim::snap_fields! { SpecialRegs { rip } }

#[derive(Debug, Clone)]
struct HwContext {
    rename: RenameMap,
    special: SpecialRegs,
    stalled: bool,
}

/// An SMT core with SVt support.
///
/// # Examples
///
/// ```
/// use svt_cpu::{CtxId, Gpr, SmtCore};
///
/// let mut core = SmtCore::new(3);
/// core.write_gpr(CtxId(1), Gpr::Rax, 7);
/// assert_eq!(core.read_gpr(CtxId(1), Gpr::Rax), 7);
/// assert_eq!(core.read_gpr(CtxId(0), Gpr::Rax), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SmtCore {
    prf: PhysRegFile,
    contexts: Vec<HwContext>,
    micro: MicroRegs,
}

impl SmtCore {
    /// Creates a core with `n` hardware contexts. Context 0 starts active;
    /// the rest start stalled.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a core needs at least one context");
        // Twice the architectural registers per context: enough headroom
        // that in-flight renames never exhaust the file.
        let mut prf = PhysRegFile::new(n * Gpr::COUNT * 2);
        let contexts = (0..n)
            .map(|i| HwContext {
                rename: RenameMap::new(&mut prf),
                special: SpecialRegs::default(),
                stalled: i != 0,
            })
            .collect();
        SmtCore {
            prf,
            contexts,
            micro: MicroRegs::default(),
        }
    }

    /// Number of hardware contexts.
    pub fn num_contexts(&self) -> usize {
        self.contexts.len()
    }

    /// The µ-register block.
    pub fn micro(&self) -> &MicroRegs {
        &self.micro
    }

    /// Mutable µ-register block (loaded from VMCS fields at VMPTRLD by the
    /// virtualization hardware).
    pub fn micro_mut(&mut self) -> &mut MicroRegs {
        &mut self.micro
    }

    /// The context currently fetching instructions.
    pub fn current(&self) -> CtxId {
        self.micro.current
    }

    /// Whether `ctx` exists on this core.
    pub fn has_context(&self, ctx: CtxId) -> bool {
        (ctx.0 as usize) < self.contexts.len()
    }

    fn ctx(&self, ctx: CtxId) -> &HwContext {
        &self.contexts[ctx.0 as usize]
    }

    fn ctx_mut(&mut self, ctx: CtxId) -> &mut HwContext {
        &mut self.contexts[ctx.0 as usize]
    }

    /// Whether `ctx` is stalled.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` does not exist.
    pub fn is_stalled(&self, ctx: CtxId) -> bool {
        self.ctx(ctx).stalled
    }

    /// Reads a GPR of any context through the shared PRF.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` does not exist.
    pub fn read_gpr(&self, ctx: CtxId, r: Gpr) -> u64 {
        self.prf.read(self.ctx(ctx).rename.lookup(r))
    }

    /// Writes a GPR of the given context. In-context writes rename; the
    /// distinction is invisible architecturally.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` does not exist.
    pub fn write_gpr(&mut self, ctx: CtxId, r: Gpr, v: u64) {
        let idx = ctx.0 as usize;
        let (prf, c) = (&mut self.prf, &mut self.contexts[idx]);
        c.rename.rename(prf, r, v);
    }

    /// Snapshot of all GPRs of a context.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` does not exist.
    pub fn snapshot_gprs(&self, ctx: CtxId) -> GprState {
        let mut s = GprState::default();
        for r in Gpr::ALL {
            s.set(r, self.read_gpr(ctx, r));
        }
        s
    }

    /// Loads all GPRs of a context from a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` does not exist.
    pub fn load_gprs(&mut self, ctx: CtxId, s: &GprState) {
        for (r, v) in s.iter() {
            self.write_gpr(ctx, r, v);
        }
    }

    /// The non-renamed special registers of a context.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` does not exist.
    pub fn special(&self, ctx: CtxId) -> &SpecialRegs {
        &self.ctx(ctx).special
    }

    /// Mutable special registers of a context.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` does not exist.
    pub fn special_mut(&mut self, ctx: CtxId) -> &mut SpecialRegs {
        &mut self.ctx_mut(ctx).special
    }

    /// Resolves the target context of a `ctxtld`/`ctxtst`, applying the
    /// virtualized indirection of § 4: host hypervisors reach `SVt_vm`
    /// (`Guest`) and `SVt_nested` (`Nested`); guest hypervisors reach only
    /// `SVt_nested` via `Guest`.
    ///
    /// # Errors
    ///
    /// Returns the [`SvtFault`] the hardware would deliver as a VM trap.
    pub fn ctxt_target(&self, lvl: CtxtLevel) -> Result<CtxId, SvtFault> {
        let slot = match (self.micro.is_vm, lvl) {
            (false, CtxtLevel::Guest) => self.micro.vm,
            (false, CtxtLevel::Nested) => self.micro.nested,
            (true, CtxtLevel::Guest) => self.micro.nested,
            (true, CtxtLevel::Nested) => return Err(SvtFault::InvalidLevel),
        };
        let ctx = slot.ok_or(SvtFault::NoTargetContext)?;
        if !self.has_context(ctx) {
            return Err(SvtFault::BadContext(ctx));
        }
        Ok(ctx)
    }

    /// `ctxtld lvl, reg` — reads a register of the subordinate context.
    ///
    /// # Errors
    ///
    /// Returns the fault the hardware would trap with when no valid target
    /// is configured.
    pub fn ctxtld(&self, lvl: CtxtLevel, r: Gpr) -> Result<u64, SvtFault> {
        let target = self.ctxt_target(lvl)?;
        Ok(self.read_gpr(target, r))
    }

    /// `ctxtst lvl, reg, value` — writes a register of the subordinate
    /// context in place through the shared PRF.
    ///
    /// # Errors
    ///
    /// Returns the fault the hardware would trap with when no valid target
    /// is configured.
    pub fn ctxtst(&mut self, lvl: CtxtLevel, r: Gpr, v: u64) -> Result<(), SvtFault> {
        let target = self.ctxt_target(lvl)?;
        let p = self.ctx(target).rename.lookup(r);
        self.prf.write(p, v);
        Ok(())
    }

    /// Stalls the active context and resumes `to` — the SVt replacement
    /// for a VM trap or resume. Only one context runs at any instant.
    ///
    /// # Errors
    ///
    /// Returns [`SvtFault::BadContext`] if `to` does not exist.
    pub fn switch_to(&mut self, to: CtxId) -> Result<(), SvtFault> {
        if !self.has_context(to) {
            return Err(SvtFault::BadContext(to));
        }
        let from = self.micro.current;
        self.ctx_mut(from).stalled = true;
        self.ctx_mut(to).stalled = false;
        self.micro.current = to;
        Ok(())
    }

    /// Number of contexts currently running (always 1 under SVt: the
    /// single-effective-thread invariant of § 3.1).
    pub fn running_contexts(&self) -> usize {
        self.contexts.iter().filter(|c| !c.stalled).count()
    }
}

/// The core's *architectural* state: per-context GPRs (read through the
/// rename maps), special registers, stall flags, and the µ-register
/// block. The physical-register-file slot permutation is deliberately not
/// serialized — it is architecturally invisible (every read goes through
/// a rename map), so a restored core is indistinguishable from the
/// original to all software. The context count is a shape.
impl Snap for SmtCore {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        let SmtCore {
            prf: _,
            contexts,
            micro,
        } = self;
        contexts.len().save(w);
        for (i, c) in contexts.iter().enumerate() {
            self.snapshot_gprs(CtxId(i as u8)).save(w);
            c.special.save(w);
            c.stalled.save(w);
        }
        micro.save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        load_shape(&self.contexts.len(), "SMT context count", r)?;
        for i in 0..self.contexts.len() {
            let gprs: GprState = load_new(r)?;
            self.load_gprs(CtxId(i as u8), &gprs);
            let c = &mut self.contexts[i];
            c.special.load(r)?;
            c.stalled.load(r)?;
        }
        self.micro.load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contexts_have_private_architectural_state() {
        let mut core = SmtCore::new(3);
        core.write_gpr(CtxId(0), Gpr::Rcx, 1);
        core.write_gpr(CtxId(1), Gpr::Rcx, 2);
        core.write_gpr(CtxId(2), Gpr::Rcx, 3);
        assert_eq!(core.read_gpr(CtxId(0), Gpr::Rcx), 1);
        assert_eq!(core.read_gpr(CtxId(1), Gpr::Rcx), 2);
        assert_eq!(core.read_gpr(CtxId(2), Gpr::Rcx), 3);
    }

    #[test]
    fn snapshot_and_load_round_trip() {
        let mut core = SmtCore::new(2);
        for (i, r) in Gpr::ALL.iter().enumerate() {
            core.write_gpr(CtxId(0), *r, 100 + i as u64);
        }
        let snap = core.snapshot_gprs(CtxId(0));
        core.load_gprs(CtxId(1), &snap);
        assert_eq!(core.snapshot_gprs(CtxId(1)), snap);
    }

    #[test]
    fn single_effective_thread_invariant() {
        let mut core = SmtCore::new(3);
        assert_eq!(core.running_contexts(), 1);
        assert_eq!(core.current(), CtxId(0));
        core.switch_to(CtxId(2)).unwrap();
        assert_eq!(core.running_contexts(), 1);
        assert_eq!(core.current(), CtxId(2));
        assert!(core.is_stalled(CtxId(0)));
        assert!(!core.is_stalled(CtxId(2)));
        assert_eq!(
            core.switch_to(CtxId(9)),
            Err(SvtFault::BadContext(CtxId(9)))
        );
    }

    #[test]
    fn ctxt_access_from_host() {
        let mut core = SmtCore::new(3);
        core.micro_mut().vm = Some(CtxId(1));
        core.micro_mut().nested = Some(CtxId(2));
        core.micro_mut().is_vm = false;
        core.write_gpr(CtxId(1), Gpr::Rdx, 11);
        core.write_gpr(CtxId(2), Gpr::Rdx, 22);
        assert_eq!(core.ctxtld(CtxtLevel::Guest, Gpr::Rdx), Ok(11));
        assert_eq!(core.ctxtld(CtxtLevel::Nested, Gpr::Rdx), Ok(22));
        core.ctxtst(CtxtLevel::Guest, Gpr::Rdx, 99).unwrap();
        assert_eq!(core.read_gpr(CtxId(1), Gpr::Rdx), 99);
    }

    #[test]
    fn ctxt_access_from_guest_hypervisor_is_virtualized() {
        let mut core = SmtCore::new(3);
        // L1 executes with is_vm == 1; its "guest" is whatever L0 put in
        // SVt_nested (context 2), even though L1 believes it is context 1.
        core.micro_mut().vm = Some(CtxId(1));
        core.micro_mut().nested = Some(CtxId(2));
        core.micro_mut().is_vm = true;
        core.write_gpr(CtxId(2), Gpr::Rax, 0x1234);
        assert_eq!(core.ctxtld(CtxtLevel::Guest, Gpr::Rax), Ok(0x1234));
        assert_eq!(
            core.ctxtld(CtxtLevel::Nested, Gpr::Rax),
            Err(SvtFault::InvalidLevel)
        );
    }

    #[test]
    fn invalid_targets_fault_for_hypervisor_emulation() {
        let mut core = SmtCore::new(2);
        core.micro_mut().is_vm = false;
        core.micro_mut().vm = None;
        assert_eq!(
            core.ctxtld(CtxtLevel::Guest, Gpr::Rax),
            Err(SvtFault::NoTargetContext)
        );
        core.micro_mut().nested = Some(CtxId(7));
        assert_eq!(
            core.ctxtld(CtxtLevel::Nested, Gpr::Rax),
            Err(SvtFault::BadContext(CtxId(7)))
        );
    }

    #[test]
    fn cross_context_store_preserves_other_registers() {
        let mut core = SmtCore::new(2);
        core.micro_mut().vm = Some(CtxId(1));
        core.write_gpr(CtxId(1), Gpr::Rax, 1);
        core.write_gpr(CtxId(1), Gpr::Rbx, 2);
        core.ctxtst(CtxtLevel::Guest, Gpr::Rax, 77).unwrap();
        assert_eq!(core.read_gpr(CtxId(1), Gpr::Rax), 77);
        assert_eq!(core.read_gpr(CtxId(1), Gpr::Rbx), 2);
    }

    #[test]
    fn special_regs_are_per_context() {
        let mut core = SmtCore::new(2);
        core.special_mut(CtxId(0)).rip = 0x1000;
        core.special_mut(CtxId(1)).rip = 0x2000;
        assert_eq!(core.special(CtxId(0)).rip, 0x1000);
        assert_eq!(core.special(CtxId(1)).rip, 0x2000);
    }

    #[test]
    fn heavy_write_traffic_never_exhausts_prf() {
        let mut core = SmtCore::new(3);
        for i in 0..10_000u64 {
            let ctx = CtxId((i % 3) as u8);
            let r = Gpr::ALL[(i % 16) as usize];
            core.write_gpr(ctx, r, i);
        }
        assert_eq!(core.read_gpr(CtxId(0), Gpr::Rax,), 9984);
    }

    #[test]
    #[should_panic(expected = "at least one context")]
    fn zero_context_core_rejected() {
        let _ = SmtCore::new(0);
    }
}
