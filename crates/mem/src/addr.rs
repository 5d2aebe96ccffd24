//! Physical-address newtypes.
//!
//! Nested virtualization juggles three address spaces: L2 guest-physical,
//! L1 guest-physical, and host-physical. Mixing them up is exactly the bug
//! class the VMCS transformation exists to prevent, so the simulator keeps
//! them as distinct types: [`Gpa`] for any guest-physical address (which
//! level's space it belongs to is tracked by the owning structure) and
//! [`Hpa`] for host-physical addresses that index real simulated RAM.

use std::fmt;
use std::ops::Add;

/// Size of one page in the simulated machine.
pub const PAGE_SIZE: u64 = 4096;

/// A guest-physical address (of whichever virtualization level owns the
/// containing structure).
///
/// # Examples
///
/// ```
/// use svt_mem::Gpa;
///
/// let a = Gpa(0x1234);
/// assert_eq!(a.page(), 1);
/// assert_eq!(a.offset(), 0x234);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gpa(pub u64);

/// A host-physical address: an index into real simulated RAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hpa(pub u64);

svt_sim::snap_fields! { Gpa(_) }
svt_sim::snap_fields! { Hpa(_) }

macro_rules! addr_impl {
    ($t:ident) => {
        impl $t {
            /// Page frame number of this address.
            pub const fn page(self) -> u64 {
                self.0 / PAGE_SIZE
            }

            /// Byte offset within the page.
            pub const fn offset(self) -> u64 {
                self.0 % PAGE_SIZE
            }

            /// The address of the start of the containing page.
            pub const fn page_base(self) -> $t {
                $t(self.0 - self.0 % PAGE_SIZE)
            }

            /// Whether this address is page-aligned.
            pub const fn is_page_aligned(self) -> bool {
                self.0 % PAGE_SIZE == 0
            }
        }

        impl Add<u64> for $t {
            type Output = $t;
            fn add(self, rhs: u64) -> $t {
                $t(self.0 + rhs)
            }
        }

        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({:#x})", stringify!($t), self.0)
            }
        }

        impl fmt::LowerHex for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }
    };
}

addr_impl!(Gpa);
addr_impl!(Hpa);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_math() {
        let a = Gpa(PAGE_SIZE * 3 + 17);
        assert_eq!(a.page(), 3);
        assert_eq!(a.offset(), 17);
        assert_eq!(a.page_base(), Gpa(PAGE_SIZE * 3));
        assert!(!a.is_page_aligned());
        assert!(Hpa(PAGE_SIZE * 8).is_page_aligned());
    }

    #[test]
    fn add_offsets() {
        assert_eq!(Gpa(8) + 8, Gpa(16));
        assert_eq!(Hpa(0) + PAGE_SIZE, Hpa(4096));
    }

    #[test]
    fn distinct_types_do_not_compare() {
        // Compile-time property: Gpa and Hpa are different types. Runtime
        // check that values format distinctly.
        assert_eq!(Gpa(16).to_string(), "Gpa(0x10)");
        assert_eq!(Hpa(16).to_string(), "Hpa(0x10)");
        assert_eq!(format!("{:#x}", Gpa(255)), "0xff");
    }
}
