//! ISA-neutral virtualization-architecture layer.
//!
//! The single-level hardware virtualization substrate the paper's nested
//! stack is built on (§ 2.1), split into an ISA-neutral core and
//! per-backend dispatch so the Turtles reflection path and both SVt
//! engines run unmodified on more than one ISA:
//!
//! * [`Vmcs`]/[`VmcsField`] — VM state descriptors with the field
//!   classification that drives shadowing and transformation costs (the
//!   VMCS on x86, the hs/vs CSR file on RISC-V);
//! * [`ExitReason`] — every trap the hardware can raise; [`ArchId`]
//!   owns the per-backend encode/decode through the exit-information
//!   fields and the per-backend profiling tags;
//! * [`ExecPolicy`] — which guest operations trap, including the nested
//!   policy merge L0 performs when building vmcs02;
//! * [`Ept`] — two-level address translation with MMIO-misconfig marking
//!   and composition (`ept02 = ept12 ∘ ept01`; EPT on x86, the `hgatp`
//!   G-stage on RISC-V);
//! * [`LocalApic`] — per-vCPU interrupt file and deadline timer (x2APIC
//!   on x86, IMSIC + `vstimecmp` on RISC-V); the `MSR_*`/`VECTOR_*`
//!   constants form the neutral register namespace both backends share;
//! * [`ArchId`] — backend selection: encodings, tags, guest-op→exit
//!   mapping, shadowing capability and cost-model calibration.
//!
//! # Examples
//!
//! ```
//! use svt_arch::{ArchId, ExitReason, VmcsField, Vmcs, VmcsRole};
//! use svt_mem::Gpa;
//!
//! // L0 reflects a trap by encoding it into vmcs12's exit fields...
//! let arch = ArchId::X86;
//! let mut vmcs12 = Vmcs::new(VmcsRole::Shadow, Gpa(0x3000));
//! let (code, qual) = arch.encode(ExitReason::Cpuid);
//! vmcs12.write(VmcsField::ExitReason, code);
//! vmcs12.write(VmcsField::ExitQualification, qual);
//! // ...and L1 decodes what a real hypervisor could read back.
//! let decoded = arch.decode(
//!     vmcs12.read(VmcsField::ExitReason),
//!     vmcs12.read(VmcsField::ExitQualification),
//! );
//! assert_eq!(decoded, Some(ExitReason::Cpuid));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod apic;
mod controls;
mod ept;
mod exit;
mod fields;
mod id;
pub mod riscv;
mod vmcs;

pub use apic::{
    DeliveryMode, IcrCommand, LocalApic, MSR_APIC_BASE, MSR_EFER, MSR_SPEC_CTRL, MSR_TSC_DEADLINE,
    MSR_X2APIC_EOI, MSR_X2APIC_ICR, VECTOR_BLK, VECTOR_IPI, VECTOR_TIMER, VECTOR_VIRTIO,
};
pub use controls::ExecPolicy;
pub use ept::{Access, Ept, EptFault, EptPerms};
pub use exit::ExitReason;
pub use fields::{FieldGroup, VmcsField};
pub use id::ArchId;
pub use vmcs::{Vmcs, VmcsRole};
