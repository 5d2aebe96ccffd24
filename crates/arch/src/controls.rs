//! Execution controls: which guest operations trap.
//!
//! Models the pin-based/processor-based control knobs and the MSR bitmap:
//! the policy a hypervisor programs to decide which of its guest's
//! operations cause VM exits. In nested virtualization L0 merges its own
//! policy with L1's when building vmcs02 ("L0 configures vmcs02 to ensure
//! access to these resources trigger a VM trap, regardless of the
//! configuration set by L1", § 2.1).

use std::collections::BTreeSet;

use crate::fields::VmcsField;
use crate::vmcs::Vmcs;

/// Bit positions inside the `ProcBasedControls` field.
mod bits {
    pub const EXT_INTR_EXITING: u64 = 1 << 0;
    pub const HLT_EXITING: u64 = 1 << 7;
    pub const USE_MSR_BITMAP: u64 = 1 << 28;
    pub const SHADOW_VMCS: u64 = 1 << 14;
    pub const PREEMPTION_TIMER: u64 = 1 << 6;
}

/// Trap policy for one guest.
///
/// # Examples
///
/// ```
/// use svt_arch::ExecPolicy;
///
/// let mut p = ExecPolicy::kvm_default();
/// assert!(p.msr_exits(svt_arch::MSR_TSC_DEADLINE));
/// p.pass_through_msr(svt_arch::MSR_TSC_DEADLINE);
/// assert!(!p.msr_exits(svt_arch::MSR_TSC_DEADLINE));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecPolicy {
    /// External interrupts cause VM exits.
    pub external_interrupt_exiting: bool,
    /// `hlt` causes VM exits.
    pub hlt_exiting: bool,
    /// Whether the MSR bitmap is consulted (false ⇒ every MSR access
    /// exits).
    pub use_msr_bitmap: bool,
    /// MSRs that exit *despite* the bitmap (trapped set).
    trapped_msrs: BTreeSet<u32>,
    /// Hardware VMCS shadowing enabled for this guest's vmread/vmwrite.
    pub shadow_vmcs: bool,
    /// VMX preemption timer armed.
    pub preemption_timer: bool,
}

// The `BTreeSet` iterates sorted, so identical policies serialize
// identically.
svt_sim::snap_fields! {
    ExecPolicy {
        external_interrupt_exiting, hlt_exiting, use_msr_bitmap, shadow_vmcs, preemption_timer,
        trapped_msrs
    }
}

impl ExecPolicy {
    /// The policy KVM programs for a regular guest: interrupts and `hlt`
    /// exit, MSR bitmap passes most MSRs through but traps the timer and
    /// APIC MSRs, shadowing available.
    pub fn kvm_default() -> Self {
        let mut trapped = BTreeSet::new();
        trapped.insert(crate::apic::MSR_TSC_DEADLINE);
        trapped.insert(crate::apic::MSR_APIC_BASE);
        trapped.insert(crate::apic::MSR_X2APIC_ICR);
        trapped.insert(crate::apic::MSR_X2APIC_EOI);
        ExecPolicy {
            external_interrupt_exiting: true,
            hlt_exiting: true,
            use_msr_bitmap: true,
            trapped_msrs: trapped,
            shadow_vmcs: true,
            preemption_timer: false,
        }
    }

    /// Whether access to `msr` causes a VM exit under this policy.
    pub fn msr_exits(&self, msr: u32) -> bool {
        if !self.use_msr_bitmap {
            return true;
        }
        self.trapped_msrs.contains(&msr)
    }

    /// Adds `msr` to the trapped set.
    pub fn trap_msr(&mut self, msr: u32) {
        self.trapped_msrs.insert(msr);
    }

    /// Removes `msr` from the trapped set (pass-through).
    pub fn pass_through_msr(&mut self, msr: u32) {
        self.trapped_msrs.remove(&msr);
    }

    /// The trapped MSR set.
    pub fn trapped_msrs(&self) -> impl Iterator<Item = u32> + '_ {
        self.trapped_msrs.iter().copied()
    }

    /// Merges L1's policy for L2 with L0's own requirements, producing the
    /// policy for vmcs02: anything either level wants trapped is trapped.
    pub fn merge_for_nested(&self, l1_policy: &ExecPolicy) -> ExecPolicy {
        ExecPolicy {
            external_interrupt_exiting: self.external_interrupt_exiting
                || l1_policy.external_interrupt_exiting,
            hlt_exiting: self.hlt_exiting || l1_policy.hlt_exiting,
            use_msr_bitmap: self.use_msr_bitmap && l1_policy.use_msr_bitmap,
            trapped_msrs: self
                .trapped_msrs
                .union(&l1_policy.trapped_msrs)
                .copied()
                .collect(),
            // L2 never gets real VMX hardware: shadowing applies to L1 only.
            shadow_vmcs: false,
            preemption_timer: self.preemption_timer || l1_policy.preemption_timer,
        }
    }

    /// Serializes the boolean knobs into the `ProcBasedControls` field of
    /// a VMCS (the MSR set lives in the memory-resident bitmap, modeled as
    /// hypervisor state).
    pub fn write_to(&self, vmcs: &mut Vmcs) {
        let mut v = 0u64;
        if self.external_interrupt_exiting {
            v |= bits::EXT_INTR_EXITING;
        }
        if self.hlt_exiting {
            v |= bits::HLT_EXITING;
        }
        if self.use_msr_bitmap {
            v |= bits::USE_MSR_BITMAP;
        }
        if self.shadow_vmcs {
            v |= bits::SHADOW_VMCS;
        }
        if self.preemption_timer {
            v |= bits::PREEMPTION_TIMER;
        }
        vmcs.write(VmcsField::ProcBasedControls, v);
    }

    /// Restores the boolean knobs from a VMCS field, keeping the current
    /// trapped-MSR set.
    pub fn read_from(&mut self, vmcs: &Vmcs) {
        let v = vmcs.read(VmcsField::ProcBasedControls);
        self.external_interrupt_exiting = v & bits::EXT_INTR_EXITING != 0;
        self.hlt_exiting = v & bits::HLT_EXITING != 0;
        self.use_msr_bitmap = v & bits::USE_MSR_BITMAP != 0;
        self.shadow_vmcs = v & bits::SHADOW_VMCS != 0;
        self.preemption_timer = v & bits::PREEMPTION_TIMER != 0;
    }
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy::kvm_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apic::{MSR_EFER, MSR_TSC_DEADLINE};
    use crate::vmcs::VmcsRole;
    use svt_mem::Gpa;

    #[test]
    fn default_traps_timer_not_efer() {
        let p = ExecPolicy::kvm_default();
        assert!(p.msr_exits(MSR_TSC_DEADLINE));
        assert!(!p.msr_exits(MSR_EFER));
    }

    #[test]
    fn disabling_bitmap_traps_everything() {
        let mut p = ExecPolicy::kvm_default();
        p.use_msr_bitmap = false;
        assert!(p.msr_exits(MSR_EFER));
        assert!(p.msr_exits(0x1234));
    }

    #[test]
    fn trap_and_pass_through() {
        let mut p = ExecPolicy::kvm_default();
        p.trap_msr(0x999);
        assert!(p.msr_exits(0x999));
        p.pass_through_msr(0x999);
        assert!(!p.msr_exits(0x999));
    }

    #[test]
    fn nested_merge_is_union_of_traps() {
        let mut l0 = ExecPolicy::kvm_default();
        l0.trap_msr(0x10);
        let mut l1 = ExecPolicy::kvm_default();
        l1.trap_msr(0x20);
        let merged = l0.merge_for_nested(&l1);
        assert!(merged.msr_exits(0x10));
        assert!(merged.msr_exits(0x20));
        assert!(merged.msr_exits(MSR_TSC_DEADLINE));
        assert!(!merged.shadow_vmcs, "L2 gets no VMX hardware");
    }

    #[test]
    fn nested_merge_respects_l0_override() {
        // Even if L1 passes the timer MSR through, L0's trap wins — the
        // paper's example of L0 virtualizing the timestamp resources.
        let l0 = ExecPolicy::kvm_default();
        let mut l1 = ExecPolicy::kvm_default();
        l1.pass_through_msr(MSR_TSC_DEADLINE);
        let merged = l0.merge_for_nested(&l1);
        assert!(merged.msr_exits(MSR_TSC_DEADLINE));
    }

    #[test]
    fn vmcs_round_trip() {
        let mut p = ExecPolicy::kvm_default();
        p.hlt_exiting = false;
        p.preemption_timer = true;
        let mut vmcs = Vmcs::new(VmcsRole::Host { guest_level: 1 }, Gpa(0));
        p.write_to(&mut vmcs);
        let mut q = ExecPolicy::kvm_default();
        q.read_from(&vmcs);
        assert_eq!(p, q);
    }
}
