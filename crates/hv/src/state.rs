//! Hypervisor and vCPU state.
//!
//! The nested stack keeps exactly the descriptor web of the paper's
//! Fig. 2: L0 owns `vmcs01` (runs L1), `vmcs12` (the always-coherent
//! shadow of the `vmcs01'` L1 built for L2) and `vmcs02` (what L2 really
//! runs on), plus the two EPT hierarchies and their composition.

use svt_arch::{ArchId, Ept, EptPerms, ExecPolicy, IcrCommand, LocalApic, Vmcs, VmcsField};
use svt_cpu::GprState;
use svt_sim::snap_fields;
use svt_sim::snapshot::{load_code, load_new, Sink, Snap, SnapError, SnapReader};
use svt_sim::SimTime;

/// A virtualization level of the running stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Level {
    /// The bare-metal host hypervisor.
    L0,
    /// A guest (or guest hypervisor).
    L1,
    /// A nested guest.
    L2,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Level::L0 => f.write_str("L0"),
            Level::L1 => f.write_str("L1"),
            Level::L2 => f.write_str("L2"),
        }
    }
}

impl Level {
    /// The observability-layer level this virtualization level maps to.
    pub fn obs(self) -> svt_obs::ObsLevel {
        match self {
            Level::L0 => svt_obs::ObsLevel::L0,
            Level::L1 => svt_obs::ObsLevel::L1,
            Level::L2 => svt_obs::ObsLevel::L2,
        }
    }
}

svt_sim::snap_enum! { "program level" => Level { L0, L1, L2 } }

/// Events on the machine's physical event queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MachineEvent {
    /// A device backend finished asynchronous work.
    DeviceComplete {
        /// Index of the device on the bus.
        device: usize,
        /// Token the device used when scheduling.
        token: u64,
    },
    /// A physical TSC-deadline timer fired (one per vCPU's core).
    PhysTimer {
        /// The vCPU whose timer this is.
        vcpu: usize,
    },
    /// An IPI targeted at L1's main vCPU arrived (used to exercise the
    /// SW-SVt interrupt-deadlock avoidance protocol, § 5.3).
    #[default]
    IpiToL1Main,
    /// A cross-vCPU IPI in flight on the interconnect.
    Ipi {
        /// Destination vCPU index.
        to: usize,
        /// The decoded ICR command being delivered.
        cmd: IcrCommand,
        /// Interconnect sequence number, assigned per destination at send
        /// time. The receiving APIC absorbs a redelivered sequence, so an
        /// injected duplicate cannot double-deliver (exactly-once).
        seq: u64,
    },
}

/// A tag byte (0 device completion, 1 physical timer, 2 IPI to L1's
/// main vCPU, 3 cross-vCPU IPI) and the variant's fields.
impl Snap for MachineEvent {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        match *self {
            MachineEvent::DeviceComplete { device, token } => (0u8, device, token).save(w),
            MachineEvent::PhysTimer { vcpu } => (1u8, vcpu).save(w),
            MachineEvent::IpiToL1Main => w.u8(2),
            MachineEvent::Ipi { to, cmd, seq } => (3u8, to, cmd, seq).save(w),
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = match load_code(r, "machine event tag", |t| (t < 4).then_some(t))? {
            0 => MachineEvent::DeviceComplete {
                device: load_new(r)?,
                token: load_new(r)?,
            },
            1 => MachineEvent::PhysTimer { vcpu: load_new(r)? },
            2 => MachineEvent::IpiToL1Main,
            _ => {
                let (to, cmd, seq) = load_new(r)?;
                MachineEvent::Ipi { to, cmd, seq }
            }
        };
        Ok(())
    }
}

/// L0 (host hypervisor) state shared by every vCPU of the L1 guest and
/// its nested L2. The per-vCPU VMCS sets live in [`crate::Vcpu`].
#[derive(Debug, Clone)]
pub struct L0State {
    /// L0's trap policy for L1.
    pub policy01: ExecPolicy,
    /// The merged trap policy programmed into each vCPU's vmcs02.
    pub policy02: ExecPolicy,
    /// L1-guest-physical → host-physical mapping.
    pub ept01: Ept,
    /// Composed L2-guest-physical → host-physical mapping.
    pub ept02: Ept,
    /// Deadline of the most recently armed physical timer, if any.
    pub phys_timer: Option<SimTime>,
    /// `(ept12, ept01, ept02)` stamps right after the last compose.
    composed: Option<(u64, u64, u64)>,
}

impl L0State {
    /// Fresh L0 state with identity-mapped ept01 over `pages` pages.
    pub fn new(pages: u64) -> Self {
        let mut ept01 = Ept::new();
        ept01.identity_map(0, pages, EptPerms::RWX);
        L0State {
            policy01: ExecPolicy::kvm_default(),
            policy02: ExecPolicy::kvm_default(),
            ept01,
            ept02: Ept::new(),
            phys_timer: None,
            composed: None,
        }
    }

    /// Merges L0's and L1's trap policies into `policy02` and composes
    /// `ept02 = ept12 ∘ ept01`, as L0 does when L1 launches L2 (§ 2.1).
    /// The compose is skipped when neither source nor `ept02` has been
    /// edited since the last one: `ept02` then already holds its result.
    pub(crate) fn merge_and_compose(&mut self, l1: &L1State) {
        self.policy02 = self.policy01.merge_for_nested(&l1.policy12);
        let sources = (l1.ept12.stamp(), self.ept01.stamp(), self.ept02.stamp());
        if self.composed != Some(sources) {
            self.ept02 = l1.ept12.compose(&self.ept01);
            self.composed = Some((sources.0, sources.1, self.ept02.stamp()));
        }
    }

    /// Writes the merged policy and the EPT pointer into one vCPU's
    /// vmcs02.
    pub(crate) fn write_vmcs02(&self, vmcs02: &mut Vmcs) {
        self.policy02.write_to(vmcs02);
        // vmcs02's EPT pointer is a host-physical address L0 owns.
        vmcs02.write(VmcsField::EptPointer, 0xe9700000);
    }
}

// `composed` caches stamps, which are not state: a restored machine
// recomposes `ept02` on its next merge.
snap_fields! { L0State { policy01, policy02, ept01, ept02, phys_timer } skip { composed } }

/// L1 (guest hypervisor) software state.
#[derive(Debug, Clone)]
pub struct L1State {
    /// L1's trap policy for L2 (merged with L0's into `policy02`).
    pub policy12: ExecPolicy,
    /// L2-guest-physical → L1-guest-physical mapping built by L1.
    pub ept12: Ept,
    /// L1's own local APIC.
    pub apic: LocalApic,
    /// The TSC deadline L2 last programmed (virtualized by L1).
    pub l2_deadline: Option<SimTime>,
    /// Whether this L1 runs a hypervisor stack (nested mode) as opposed to
    /// being a plain single-level guest.
    pub is_hypervisor: bool,
}

impl L1State {
    /// Fresh L1 state with identity-mapped ept12 over `pages` pages.
    pub fn new(pages: u64, is_hypervisor: bool) -> Self {
        let mut ept12 = Ept::new();
        ept12.identity_map(0, pages, EptPerms::RWX);
        L1State {
            policy12: ExecPolicy::kvm_default(),
            ept12,
            apic: LocalApic::new(),
            l2_deadline: None,
            is_hypervisor,
        }
    }
}

snap_fields! { L1State { policy12, ept12, apic, l2_deadline, is_hypervisor } }

/// The measured guest's virtual CPU.
#[derive(Debug, Clone, Default)]
pub struct VcpuState {
    /// Its local APIC (interrupts, virtual TSC-deadline timer).
    pub apic: LocalApic,
    /// Memory-resident register copy (what the baseline context switch
    /// spills and reloads).
    pub gprs: GprState,
    /// Whether the vCPU executed `hlt` and waits for an interrupt.
    pub halted: bool,
    /// Current instruction pointer (advanced by emulated instructions).
    pub rip: u64,
}

snap_fields! { VcpuState { apic, gprs, halted, rip } }

/// Initial configuration of a [`crate::Machine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// The calibrated cost model.
    pub cost: svt_sim::CostModel,
    /// Level the measured program runs at.
    pub level: Level,
    /// Whether hardware VMCS shadowing is enabled (ablation knob; the
    /// paper's VT-x platform has it on, the CVA6 H-extension has no
    /// shadowing hardware at all).
    pub shadowing: bool,
    /// The ISA backend this machine simulates.
    pub arch: ArchId,
}

impl MachineConfig {
    /// The paper's configuration with the program at the given level.
    pub fn at_level(level: Level) -> Self {
        MachineConfig {
            cost: svt_sim::CostModel::default(),
            level,
            shadowing: true,
            arch: ArchId::X86,
        }
    }

    /// Like [`MachineConfig::at_level`] but on the given backend, with
    /// the backend's calibrated cost model and shadowing capability.
    /// `at_level_on(level, ArchId::X86)` is identical to
    /// `at_level(level)`.
    pub fn at_level_on(level: Level, arch: ArchId) -> Self {
        MachineConfig {
            cost: arch.cost_model(),
            shadowing: arch.default_shadowing(),
            arch,
            ..MachineConfig::at_level(level)
        }
    }
}

/// Sets up one vCPU's vmcs02 execution controls from the merged policies,
/// as L0 does when L1 launches L2 (§ 2.1). The policy merge and EPT
/// composition are machine-wide; the control writes land in the given
/// vCPU's descriptor.
pub fn program_vmcs02(l0: &mut L0State, l1: &L1State, vmcs02: &mut Vmcs) {
    l0.merge_and_compose(l1);
    l0.write_vmcs02(vmcs02);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l0_state_identity_maps() {
        let l0 = L0State::new(16);
        assert_eq!(l0.ept01.len(), 16);
        assert!(l0.ept02.is_empty());
    }

    #[test]
    fn program_vmcs02_merges_and_composes() {
        let mut l0 = L0State::new(8);
        let mut l1 = L1State::new(8, true);
        let mut vmcs02 = Vmcs::new(
            svt_arch::VmcsRole::Host { guest_level: 2 },
            svt_mem::Gpa(0x3000),
        );
        l1.policy12.trap_msr(0x77);
        l1.ept12.mark_mmio(3);
        program_vmcs02(&mut l0, &l1, &mut vmcs02);
        assert!(l0.policy02.msr_exits(0x77));
        assert!(!l0.policy02.shadow_vmcs);
        // The composed table has 7 RAM pages plus 1 MMIO page.
        assert_eq!(l0.ept02.len(), 8);
        assert!(matches!(
            l0.ept02
                .translate(svt_mem::Gpa(3 * svt_mem::PAGE_SIZE), svt_arch::Access::Read),
            Err(svt_arch::EptFault::Misconfig { .. })
        ));
    }

    #[test]
    fn level_display() {
        assert_eq!(Level::L2.to_string(), "L2");
        assert!(Level::L0 < Level::L2);
    }
}
