//! vmcs02 programming on device attach and vCPU launch: L0 merges the
//! trap policies and composes `ept02 = ept12 ∘ ept01` once per attach,
//! and reuses the composed table when a further vCPU launches over
//! unchanged sources. Either way the machine must end up exactly where
//! composing afresh for every vCPU, on every attach, would leave it.

use svt_arch::{ArchId, Vmcs, VmcsField};
use svt_hv::{
    BaselineReflector, Completion, DeviceModel, DeviceOutcome, L0State, L1State, Level, Machine,
    MachineConfig,
};
use svt_mem::{Gpa, GuestMemory};
use svt_sim::snapshot::to_bytes;
use svt_sim::SimTime;

/// A device occupying `pages` MMIO pages at `base`.
#[derive(Debug)]
struct Window {
    base: Gpa,
    pages: u64,
}

svt_sim::snap_fields! { Window {} skip { base, pages } }

impl DeviceModel for Window {
    fn ranges(&self) -> Vec<(Gpa, u64)> {
        vec![(self.base, self.pages * svt_mem::PAGE_SIZE)]
    }
    fn mmio_write(&mut self, _: Gpa, _: u64, _: &mut GuestMemory, _: SimTime) -> DeviceOutcome {
        DeviceOutcome::default()
    }
    fn mmio_read(&mut self, _: Gpa, _: &mut GuestMemory, _: SimTime) -> (u64, DeviceOutcome) {
        (0, DeviceOutcome::default())
    }
    fn complete(&mut self, _: u64, _: &mut GuestMemory, _: SimTime) -> Option<Completion> {
        None
    }
}

/// vmcs02 programming as a fresh merge and compose per vCPU: what every
/// attach did to each vCPU before the compose was shared.
fn program_afresh(l0: &mut L0State, l1: &L1State, vmcs02: &mut Vmcs) {
    l0.policy02 = l0.policy01.merge_for_nested(&l1.policy12);
    l0.policy02.clone().write_to(vmcs02);
    l0.ept02 = l1.ept12.compose(&l0.ept01);
    vmcs02.write(VmcsField::EptPointer, 0xe9700000);
}

fn assert_ept02_composed(m: &Machine, what: &str) {
    assert_eq!(
        to_bytes(&m.l0.ept02),
        to_bytes(&m.l1.ept12.compose(&m.l0.ept01)),
        "{what}: ept02 is not ept12 ∘ ept01"
    );
}

#[test]
fn attach_programs_every_vmcs02_like_a_fresh_compose() {
    for arch in [ArchId::X86, ArchId::Riscv] {
        for n_vcpus in 1..=4 {
            for n_devices in 0..=2u64 {
                let what = format!("{arch:?}, {n_vcpus} vCPUs, {n_devices} devices");
                let mut m = Machine::baseline(MachineConfig::at_level_on(Level::L2, arch));
                for _ in 1..n_vcpus {
                    m.add_vcpu(Box::new(BaselineReflector::new()));
                }
                assert_ept02_composed(&m, &what);
                for d in 0..n_devices {
                    let before: Vec<Vmcs> = m.vcpus().iter().map(|v| v.vmcs02.clone()).collect();
                    let device = Window {
                        base: Gpa(0x5000_0000 + d * 0x10_0000),
                        pages: d + 1,
                    };
                    m.add_device_for(Box::new(device), d as usize % n_vcpus);
                    assert_ept02_composed(&m, &what);
                    let mut l0 = m.l0.clone();
                    for (i, mut want) in before.into_iter().enumerate() {
                        program_afresh(&mut l0, &m.l1, &mut want);
                        assert_eq!(
                            to_bytes(&m.vcpus()[i].vmcs02),
                            to_bytes(&want),
                            "{what}: vCPU {i}'s vmcs02 after attach {d}"
                        );
                    }
                    assert_eq!(
                        to_bytes(&m.l0.policy02),
                        to_bytes(&l0.policy02),
                        "{what}: policy02"
                    );
                }
            }
        }
    }
}

#[test]
fn vcpu_launch_recomposes_after_any_ept_edit() {
    let mut m = Machine::baseline(MachineConfig::at_level(Level::L2));
    m.add_device_for(
        Box::new(Window {
            base: Gpa(0x5000_0000),
            pages: 1,
        }),
        0,
    );
    // Each edit invalidates the composed table; the next launch must
    // rebuild it rather than reuse it.
    m.l0.ept02.unmap(5);
    m.add_vcpu(Box::new(BaselineReflector::new()));
    assert_ept02_composed(&m, "after an ept02 edit");
    m.l1.ept12.mark_mmio(9);
    m.add_vcpu(Box::new(BaselineReflector::new()));
    assert_ept02_composed(&m, "after an ept12 edit");
    m.l0.ept01.unmap(11);
    m.add_vcpu(Box::new(BaselineReflector::new()));
    assert_ept02_composed(&m, "after an ept01 edit");
    // An unchanged source set reuses the table as it stands.
    let stamp = m.l0.ept02.stamp();
    m.add_vcpu(Box::new(BaselineReflector::new()));
    assert_eq!(m.l0.ept02.stamp(), stamp);
    assert_ept02_composed(&m, "after a launch over unchanged sources");
}
