//! The VM state descriptor (VMCS).
//!
//! A [`Vmcs`] is the per-vCPU descriptor hypervisors use to bootstrap the
//! minimal context of a guest (§ 2.1 of the paper): exit information,
//! guest/host state and execution controls. Nested virtualization keeps a
//! web of them (Fig. 2): `vmcs01` (L0's descriptor for L1), `vmcs01'` (the
//! one L1 *thinks* it runs L2 with), its shadow copy `vmcs12`, and the
//! real `vmcs02` L0 actually launches L2 on.

use std::fmt;

use svt_mem::Gpa;
use svt_sim::snapshot::{load_code, Sink, Snap, SnapError, SnapReader};

use crate::fields::VmcsField;

/// Which virtualization hierarchy a VMCS describes, mostly for tracing and
/// sanity checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmcsRole {
    /// L0's descriptor for a directly-hosted guest (vmcs01 / vmcs02).
    Host {
        /// Level of the guest it runs (1 for L1, 2 for L2).
        guest_level: u8,
    },
    /// A descriptor owned by a guest hypervisor (vmcs01'), emulated by L0.
    GuestOwned,
    /// L0's shadow copy of a guest-owned descriptor (vmcs12).
    Shadow,
}

/// Two bytes: a role code (0 host, 1 guest-owned, 2 shadow) and the host
/// role's guest level (0 otherwise, ignored on load).
impl Snap for VmcsRole {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        match *self {
            VmcsRole::Host { guest_level } => (0u8, guest_level),
            VmcsRole::GuestOwned => (1, 0),
            VmcsRole::Shadow => (2, 0),
        }
        .save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let code = load_code(r, "VMCS role", |c| (c < 3).then_some(usize::from(c)))?;
        let guest_level = r.u8()?;
        *self = [
            VmcsRole::Host { guest_level },
            VmcsRole::GuestOwned,
            VmcsRole::Shadow,
        ][code];
        Ok(())
    }
}

/// A VM state descriptor.
///
/// # Examples
///
/// ```
/// use svt_arch::{Vmcs, VmcsField, VmcsRole};
/// use svt_mem::Gpa;
///
/// let mut v = Vmcs::new(VmcsRole::Host { guest_level: 1 }, Gpa(0x1000));
/// v.write(VmcsField::GuestRip, 0xfff0);
/// assert_eq!(v.read(VmcsField::GuestRip), 0xfff0);
/// ```
#[derive(Debug, Clone)]
pub struct Vmcs {
    role: VmcsRole,
    region: Gpa,
    fields: [u64; VmcsField::COUNT],
    launched: bool,
}

// Role and region are verified on load.
svt_sim::snap_fields! {
    Vmcs {
        #[shape = "VMCS role"] role, #[shape = "VMCS region"] region, fields, launched
    }
}

impl Vmcs {
    /// Creates a zeroed descriptor whose backing region lives at `region`
    /// in its owner's physical address space.
    pub fn new(role: VmcsRole, region: Gpa) -> Self {
        Vmcs {
            role,
            region,
            fields: [0; VmcsField::COUNT],
            launched: false,
        }
    }

    /// The descriptor's role in the nesting hierarchy.
    pub fn role(&self) -> VmcsRole {
        self.role
    }

    /// Backing-region address in the owner's physical address space — the
    /// identity hypervisors use to recognize a VMCS at `vmptrld` time.
    pub fn region(&self) -> Gpa {
        self.region
    }

    /// Reads a field.
    pub fn read(&self, f: VmcsField) -> u64 {
        self.fields[f.index()]
    }

    /// Writes a field.
    pub fn write(&mut self, f: VmcsField, v: u64) {
        self.fields[f.index()] = v;
    }

    /// Whether the descriptor has been launched (VMLAUNCH vs VMRESUME
    /// distinction).
    pub fn launched(&self) -> bool {
        self.launched
    }

    /// Marks the descriptor launched.
    pub fn set_launched(&mut self) {
        self.launched = true;
    }

    /// Clears launch state (VMCLEAR).
    pub fn clear(&mut self) {
        self.launched = false;
    }

    /// The SVt target-context fields as optional context numbers;
    /// `u64::MAX` encodes "invalid" per § 4 ("sets the SVt_nested field to
    /// an invalid value").
    pub fn svt_ctx(&self, f: VmcsField) -> Option<u8> {
        debug_assert!(VmcsField::SVT_FIELDS.contains(&f));
        match self.read(f) {
            u64::MAX => None,
            v => Some(v as u8),
        }
    }

    /// Encodes an optional context number into an SVt field.
    pub fn set_svt_ctx(&mut self, f: VmcsField, ctx: Option<u8>) {
        debug_assert!(VmcsField::SVT_FIELDS.contains(&f));
        self.write(f, ctx.map_or(u64::MAX, |c| c as u64));
    }
}

impl fmt::Display for Vmcs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Vmcs({:?} @ {:#x}, launched={})",
            self.role, self.region.0, self.launched
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vmcs() -> Vmcs {
        Vmcs::new(VmcsRole::Host { guest_level: 1 }, Gpa(0x4000))
    }

    #[test]
    fn fields_default_to_zero() {
        let v = vmcs();
        for &f in VmcsField::ALL {
            assert_eq!(v.read(f), 0);
        }
    }

    #[test]
    fn write_read_round_trip() {
        let mut v = vmcs();
        v.write(VmcsField::ExitReason, 10);
        v.write(VmcsField::GuestRip, 0x1234);
        assert_eq!(v.read(VmcsField::ExitReason), 10);
        assert_eq!(v.read(VmcsField::GuestRip), 0x1234);
    }

    #[test]
    fn launch_state_cycle() {
        let mut v = vmcs();
        assert!(!v.launched());
        v.set_launched();
        assert!(v.launched());
        v.clear();
        assert!(!v.launched());
    }

    #[test]
    fn svt_ctx_encoding() {
        let mut v = vmcs();
        v.set_svt_ctx(VmcsField::SvtVm, Some(1));
        v.set_svt_ctx(VmcsField::SvtNested, None);
        assert_eq!(v.svt_ctx(VmcsField::SvtVm), Some(1));
        assert_eq!(v.svt_ctx(VmcsField::SvtNested), None);
        assert_eq!(v.read(VmcsField::SvtNested), u64::MAX);
    }

    #[test]
    fn region_identity_preserved() {
        let v = Vmcs::new(VmcsRole::GuestOwned, Gpa(0xdead000));
        assert_eq!(v.region(), Gpa(0xdead000));
        assert!(v.to_string().contains("0xdead000"));
    }
}
