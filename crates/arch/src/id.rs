//! Backend selection and dispatch.
//!
//! [`ArchId`] names one ISA backend and owns every decision that differs
//! between them: how exit reasons encode into the exit-information
//! fields, what they are called in profiles, which guest operations trap
//! with which reason, whether the hardware shadows VM-state accesses,
//! and which calibrated cost model applies. Everything else — the
//! [`crate::Vmcs`] state container, two-level translation, interrupt
//! delivery, execution-control policy, and all three reflection engines
//! built on top — is ISA-neutral and runs unmodified on any backend.

use svt_sim::CostModel;

use crate::exit::ExitReason;
use crate::riscv;

/// Which ISA backend a machine simulates.
///
/// The default is [`ArchId::X86`], which preserves the original VT-x
/// behavior bit-for-bit; every pre-existing entry point that does not
/// take an explicit arch keeps using it.
///
/// # Examples
///
/// ```
/// use svt_arch::{ArchId, ExitReason};
///
/// // The same neutral reason encodes differently per backend...
/// let hlt = ExitReason::Hlt;
/// assert_eq!(ArchId::X86.encode(hlt), (12, 0)); // VT-x basic exit code
/// assert_eq!(ArchId::Riscv.encode(hlt), (22, 1)); // scause VIRT_INSTR
/// // ...and each backend decodes its own encoding back.
/// for arch in ArchId::ALL {
///     let (code, qual) = arch.encode(hlt);
///     assert_eq!(arch.decode(code, qual), Some(hlt));
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArchId {
    /// x86-64 with VT-x: VMCS shadowing, EPT, x2APIC. The original
    /// backend; all committed baselines are produced on it.
    #[default]
    X86,
    /// RISC-V with the hypervisor extension, modeled on CVA6: hs/vs CSR
    /// file, `hgatp` two-stage translation, SBI-call and
    /// virtual-instruction traps, IMSIC interrupt file. No VM-state
    /// shadowing hardware.
    Riscv,
}

svt_sim::snap_enum! { "ISA backend" => ArchId { X86, Riscv } }

impl ArchId {
    /// Both backends, in report order.
    pub const ALL: [ArchId; 2] = [ArchId::X86, ArchId::Riscv];

    /// Stable lowercase label used in CLI flags, report JSON and metric
    /// dimensions.
    pub fn label(self) -> &'static str {
        match self {
            ArchId::X86 => "x86",
            ArchId::Riscv => "riscv",
        }
    }

    /// Parses a CLI spelling. Accepts the canonical labels plus common
    /// aliases (`x86_64`, `rv64`).
    pub fn parse(s: &str) -> Option<ArchId> {
        match s {
            "x86" | "x86_64" | "vmx" => Some(ArchId::X86),
            "riscv" | "rv64" | "riscv64" => Some(ArchId::Riscv),
            _ => None,
        }
    }

    /// Whether the hardware shadows guest-hypervisor accesses to its
    /// nested guest's VM state. VT-x has shadow VMCS; CVA6's H-extension
    /// has no shadow-CSR analogue, so on RISC-V every such access traps
    /// to L0 — the property that makes trap elision (SVt) bite harder
    /// there.
    pub fn default_shadowing(self) -> bool {
        match self {
            ArchId::X86 => true,
            ArchId::Riscv => false,
        }
    }

    /// The calibrated cost model for this backend: ISCA-19 (Table 1) for
    /// x86, CVA6-derived for RISC-V.
    pub fn cost_model(self) -> CostModel {
        match self {
            ArchId::X86 => CostModel::default(),
            ArchId::Riscv => CostModel::cva6(),
        }
    }

    /// Profiling tag for an exit reason on this backend.
    pub fn tag(self, reason: ExitReason) -> &'static str {
        match self {
            ArchId::X86 => reason.tag(),
            ArchId::Riscv => riscv::tag(reason),
        }
    }

    /// Encodes a reason into this backend's exit-information pair:
    /// `(basic exit code, qualification)` on x86, `(scause, stval)` on
    /// RISC-V.
    pub fn encode(self, reason: ExitReason) -> (u64, u64) {
        match self {
            ArchId::X86 => reason.encode(),
            ArchId::Riscv => riscv::encode(reason),
        }
    }

    /// Decodes this backend's exit-information pair. Returns `None` for
    /// codes the backend never produces.
    pub fn decode(self, code: u64, qual: u64) -> Option<ExitReason> {
        match self {
            ArchId::X86 => ExitReason::decode(code, qual),
            ArchId::Riscv => riscv::decode(code, qual),
        }
    }

    /// The exit reason an unconditionally-trapping identification
    /// instruction raises: `cpuid` exits on x86; on RISC-V the
    /// equivalent probe is an emulated instruction that takes a
    /// virtual-instruction trap.
    pub fn cpuid_exit(self) -> ExitReason {
        match self {
            ArchId::X86 => ExitReason::Cpuid,
            ArchId::Riscv => ExitReason::VirtInstr,
        }
    }

    /// The exit reason a hypercall raises: `vmcall` on x86, an SBI call
    /// (`ecall` from VS-mode) on RISC-V.
    pub fn hypercall_exit(self, nr: u64) -> ExitReason {
        match self {
            ArchId::X86 => ExitReason::Vmcall { nr },
            ArchId::Riscv => ExitReason::SbiCall { nr },
        }
    }
}

impl std::fmt::Display for ArchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x86_dispatch_matches_inherent_methods() {
        // The X86 arm must stay a pure delegation: committed baselines
        // depend on these encodings byte-for-byte.
        for r in [
            ExitReason::Cpuid,
            ExitReason::Hlt,
            ExitReason::Vmcall { nr: 3 },
            ExitReason::MsrWrite { msr: 0x6e0 },
        ] {
            assert_eq!(ArchId::X86.encode(r), r.encode());
            assert_eq!(ArchId::X86.tag(r), r.tag());
        }
        let (c, q) = ExitReason::Vmresume.encode();
        assert_eq!(ArchId::X86.decode(c, q), Some(ExitReason::Vmresume));
    }

    #[test]
    fn default_is_x86() {
        assert_eq!(ArchId::default(), ArchId::X86);
    }

    #[test]
    fn parse_accepts_cli_spellings() {
        assert_eq!(ArchId::parse("x86"), Some(ArchId::X86));
        assert_eq!(ArchId::parse("riscv"), Some(ArchId::Riscv));
        assert_eq!(ArchId::parse("rv64"), Some(ArchId::Riscv));
        assert_eq!(ArchId::parse("arm"), None);
        for arch in ArchId::ALL {
            assert_eq!(ArchId::parse(arch.label()), Some(arch));
        }
    }

    #[test]
    fn guest_op_mapping_per_backend() {
        assert_eq!(ArchId::X86.cpuid_exit(), ExitReason::Cpuid);
        assert_eq!(ArchId::Riscv.cpuid_exit(), ExitReason::VirtInstr);
        assert_eq!(ArchId::X86.hypercall_exit(4), ExitReason::Vmcall { nr: 4 });
        assert_eq!(
            ArchId::Riscv.hypercall_exit(4),
            ExitReason::SbiCall { nr: 4 }
        );
    }

    #[test]
    fn riscv_round_trips_every_mapped_exit() {
        for r in [
            ArchId::Riscv.cpuid_exit(),
            ArchId::Riscv.hypercall_exit(9),
            ExitReason::Hlt,
            ExitReason::InterruptWindow,
        ] {
            let (c, q) = ArchId::Riscv.encode(r);
            assert_eq!(ArchId::Riscv.decode(c, q), Some(r));
        }
    }

    #[test]
    fn shadowing_defaults_differ() {
        assert!(ArchId::X86.default_shadowing());
        assert!(!ArchId::Riscv.default_shadowing());
    }
}
