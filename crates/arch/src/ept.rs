//! Extended page tables.
//!
//! An [`Ept`] maps page frames of one physical address space onto another:
//! `ept01` maps L1-guest-physical to host-physical, `ept12` (built by L1)
//! maps L2-guest-physical to L1-guest-physical, and L0 composes the two
//! into the `ept02` it actually runs L2 on — the "EPT on EPT" machinery
//! nested virtualization requires. Pages can also be marked as MMIO
//! (deliberately misconfigured) so device accesses raise
//! `EPT_MISCONFIG` exits for emulation, as KVM does for virtio BARs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use svt_mem::{Gpa, PAGE_SIZE};

/// Page access kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

/// Page permissions (read/write/execute bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EptPerms {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
    /// Executable.
    pub x: bool,
}

impl EptPerms {
    /// Full RWX permissions.
    pub const RWX: EptPerms = EptPerms {
        r: true,
        w: true,
        x: true,
    };
    /// Read+execute (write-protected).
    pub const RX: EptPerms = EptPerms {
        r: true,
        w: false,
        x: true,
    };
    /// Read-only data.
    pub const R: EptPerms = EptPerms {
        r: true,
        w: false,
        x: false,
    };

    /// Whether these permissions allow `access`.
    pub fn allows(self, access: Access) -> bool {
        match access {
            Access::Read => self.r,
            Access::Write => self.w,
            Access::Exec => self.x,
        }
    }

    /// Intersection of two permission sets (used when composing EPTs).
    pub fn intersect(self, other: EptPerms) -> EptPerms {
        EptPerms {
            r: self.r && other.r,
            w: self.w && other.w,
            x: self.x && other.x,
        }
    }
}

/// A translation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EptFault {
    /// Missing mapping or insufficient permission.
    Violation {
        /// Faulting guest-physical address.
        gpa: Gpa,
        /// The access that faulted.
        access: Access,
    },
    /// The page is marked as an MMIO (misconfigured) region.
    Misconfig {
        /// Accessed guest-physical address.
        gpa: Gpa,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    Mapped { target_page: u64, perms: EptPerms },
    Mmio,
}

/// One extended-page-table hierarchy (page-granular).
///
/// # Examples
///
/// ```
/// use svt_arch::{Access, Ept, EptPerms};
/// use svt_mem::{Gpa, PAGE_SIZE};
///
/// let mut ept = Ept::new();
/// ept.map_page(0, 42, EptPerms::RWX);
/// let hpa = ept.translate(Gpa(0x10), Access::Read).unwrap();
/// assert_eq!(hpa.0, 42 * PAGE_SIZE + 0x10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ept {
    entries: BTreeMap<u64, Entry>,
    generation: u64,
    /// Identity of this table's contents; see [`Ept::stamp`].
    stamp: u64,
}

/// Source of [`Ept::stamp`] values; 0 is left to never-edited tables.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

impl Ept {
    /// Creates an empty hierarchy.
    pub fn new() -> Self {
        Ept::default()
    }

    /// A process-unique value that changes on every edit. A clone keeps
    /// its source's stamp until either is edited, so two tables with the
    /// same stamp hold the same contents. Not part of the table's state:
    /// snapshots and fingerprints ignore it.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    fn touch(&mut self) {
        self.stamp = NEXT_STAMP.fetch_add(1, Ordering::Relaxed);
    }

    /// Maps guest page `gpa_page` to target page `target_page`.
    pub fn map_page(&mut self, gpa_page: u64, target_page: u64, perms: EptPerms) {
        self.entries
            .insert(gpa_page, Entry::Mapped { target_page, perms });
        self.touch();
    }

    /// Identity-maps `n` pages starting at page `start`.
    pub fn identity_map(&mut self, start: u64, n: u64, perms: EptPerms) {
        for p in start..start + n {
            let entry = Entry::Mapped {
                target_page: p,
                perms,
            };
            self.entries.insert(p, entry);
        }
        self.touch();
    }

    /// Marks a page as MMIO: any access raises [`EptFault::Misconfig`],
    /// the device-emulation fast path.
    pub fn mark_mmio(&mut self, gpa_page: u64) {
        self.entries.insert(gpa_page, Entry::Mmio);
        self.touch();
    }

    /// Removes a mapping.
    pub fn unmap(&mut self, gpa_page: u64) {
        self.entries.remove(&gpa_page);
        self.touch();
    }

    /// Drops every mapping (`invept` single-context flush).
    pub fn invalidate_all(&mut self) {
        self.entries.clear();
        self.generation += 1;
        self.touch();
    }

    /// Monotonic generation counter bumped by invalidations; composed EPTs
    /// record the source generations they were built from.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of mapped (or MMIO) pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Translates an address in the source space to the target space.
    ///
    /// # Errors
    ///
    /// [`EptFault::Violation`] for unmapped pages or permission failures;
    /// [`EptFault::Misconfig`] for MMIO pages.
    pub fn translate(&self, gpa: Gpa, access: Access) -> Result<Gpa, EptFault> {
        match self.entries.get(&gpa.page()) {
            None => Err(EptFault::Violation { gpa, access }),
            Some(Entry::Mmio) => Err(EptFault::Misconfig { gpa }),
            Some(Entry::Mapped { target_page, perms }) => {
                if perms.allows(access) {
                    Ok(Gpa(target_page * PAGE_SIZE + gpa.offset()))
                } else {
                    Err(EptFault::Violation { gpa, access })
                }
            }
        }
    }

    /// Composes `self` (inner: L2-phys → L1-phys) with `outer`
    /// (L1-phys → host-phys) into the flattened table L0 runs L2 on
    /// (L2-phys → host-phys).
    ///
    /// * Pages the inner table marks MMIO stay MMIO (L1 emulates them).
    /// * Pages whose L1-physical target is MMIO in the outer table become
    ///   MMIO (L0 emulates them).
    /// * Pages whose L1-physical target is unmapped in the outer table are
    ///   left unmapped — they fault as violations on access and L0 fills
    ///   them lazily, like real shadow paging.
    /// * Permissions intersect.
    pub fn compose(&self, outer: &Ept) -> Ept {
        let mut out = Ept::new();
        for (&g2_page, entry) in &self.entries {
            let composed = match entry {
                Entry::Mmio => Entry::Mmio,
                Entry::Mapped { target_page, perms } => match outer.entries.get(target_page) {
                    Some(Entry::Mmio) => Entry::Mmio,
                    Some(Entry::Mapped {
                        target_page: hpa_page,
                        perms: outer_perms,
                    }) => Entry::Mapped {
                        target_page: *hpa_page,
                        perms: perms.intersect(*outer_perms),
                    },
                    None => continue,
                },
            };
            out.entries.insert(g2_page, composed);
        }
        out.touch();
        out
    }

    /// Serializes the table for `svt_sim::snapshot`. `BTreeMap` iteration
    /// is already sorted, so identical tables serialize identically.
    pub fn snap_save(&self, w: &mut svt_sim::SnapWriter) {
        w.u64(self.generation);
        w.usize(self.entries.len());
        for (&page, entry) in &self.entries {
            w.u64(page);
            match entry {
                Entry::Mmio => w.u8(0),
                Entry::Mapped { target_page, perms } => {
                    w.u8(1);
                    w.u64(*target_page);
                    w.u8((perms.r as u8) | (perms.w as u8) << 1 | (perms.x as u8) << 2);
                }
            }
        }
    }

    /// Restores state written by [`Ept::snap_save`].
    ///
    /// # Errors
    ///
    /// Typed `SnapError` on truncation or a malformed entry tag.
    pub fn snap_load(&mut self, r: &mut svt_sim::SnapReader<'_>) -> Result<(), svt_sim::SnapError> {
        self.generation = r.u64()?;
        let n = r.usize()?;
        self.entries.clear();
        self.touch();
        for _ in 0..n {
            let page = r.u64()?;
            let entry = match r.u8()? {
                0 => Entry::Mmio,
                1 => {
                    let target_page = r.u64()?;
                    let bits = r.u8()?;
                    Entry::Mapped {
                        target_page,
                        perms: EptPerms {
                            r: bits & 1 != 0,
                            w: bits & 2 != 0,
                            x: bits & 4 != 0,
                        },
                    }
                }
                b => {
                    return Err(svt_sim::SnapError::BadValue {
                        what: "EPT entry tag",
                        got: b as u64,
                    })
                }
            };
            self.entries.insert(page, entry);
        }
        Ok(())
    }

    /// Folds generation and every entry into a fingerprint.
    pub fn snap_fingerprint(&self, fp: &mut svt_sim::snapshot::Fingerprint) {
        fp.fold(self.generation);
        fp.fold(self.entries.len() as u64);
        for (&page, entry) in &self.entries {
            fp.fold(page);
            match entry {
                Entry::Mmio => {
                    fp.fold(u64::MAX);
                }
                Entry::Mapped { target_page, perms } => {
                    fp.fold(*target_page);
                    fp.fold(((perms.r as u64) | (perms.w as u64) << 1 | (perms.x as u64) << 2) + 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translate_maps_offset() {
        let mut e = Ept::new();
        e.map_page(3, 7, EptPerms::RWX);
        let t = e.translate(Gpa(3 * PAGE_SIZE + 99), Access::Write).unwrap();
        assert_eq!(t, Gpa(7 * PAGE_SIZE + 99));
    }

    #[test]
    fn unmapped_page_violates() {
        let e = Ept::new();
        assert_eq!(
            e.translate(Gpa(0), Access::Read),
            Err(EptFault::Violation {
                gpa: Gpa(0),
                access: Access::Read
            })
        );
    }

    #[test]
    fn permissions_enforced() {
        let mut e = Ept::new();
        e.map_page(0, 0, EptPerms::RX);
        assert!(e.translate(Gpa(0), Access::Read).is_ok());
        assert!(e.translate(Gpa(0), Access::Exec).is_ok());
        assert!(matches!(
            e.translate(Gpa(0), Access::Write),
            Err(EptFault::Violation { .. })
        ));
    }

    #[test]
    fn mmio_pages_misconfig() {
        let mut e = Ept::new();
        e.mark_mmio(16);
        assert_eq!(
            e.translate(Gpa(16 * PAGE_SIZE + 4), Access::Write),
            Err(EptFault::Misconfig {
                gpa: Gpa(16 * PAGE_SIZE + 4)
            })
        );
    }

    #[test]
    fn identity_map_covers_range() {
        let mut e = Ept::new();
        e.identity_map(10, 5, EptPerms::RWX);
        assert_eq!(e.len(), 5);
        assert!(e.translate(Gpa(14 * PAGE_SIZE), Access::Read).is_ok());
        assert!(e.translate(Gpa(15 * PAGE_SIZE), Access::Read).is_err());
    }

    #[test]
    fn compose_flattens_two_levels() {
        // ept12: L2 page 0 -> L1 page 100; ept01: L1 page 100 -> host 555.
        let mut ept12 = Ept::new();
        ept12.map_page(0, 100, EptPerms::RWX);
        let mut ept01 = Ept::new();
        ept01.map_page(100, 555, EptPerms::RWX);
        let ept02 = ept12.compose(&ept01);
        assert_eq!(
            ept02.translate(Gpa(5), Access::Read).unwrap(),
            Gpa(555 * PAGE_SIZE + 5)
        );
    }

    #[test]
    fn compose_preserves_mmio_of_both_levels() {
        let mut ept12 = Ept::new();
        ept12.mark_mmio(1); // L1's virtio device for L2
        ept12.map_page(2, 200, EptPerms::RWX);
        let mut ept01 = Ept::new();
        ept01.mark_mmio(200); // L0's device behind that page
        let ept02 = ept12.compose(&ept01);
        assert!(matches!(
            ept02.translate(Gpa(PAGE_SIZE), Access::Read),
            Err(EptFault::Misconfig { .. })
        ));
        assert!(matches!(
            ept02.translate(Gpa(2 * PAGE_SIZE), Access::Read),
            Err(EptFault::Misconfig { .. })
        ));
    }

    #[test]
    fn compose_intersects_permissions() {
        let mut ept12 = Ept::new();
        ept12.map_page(0, 10, EptPerms::RWX);
        let mut ept01 = Ept::new();
        ept01.map_page(10, 20, EptPerms::RX);
        let ept02 = ept12.compose(&ept01);
        assert!(ept02.translate(Gpa(0), Access::Read).is_ok());
        assert!(ept02.translate(Gpa(0), Access::Write).is_err());
    }

    #[test]
    fn compose_skips_unbacked_pages() {
        let mut ept12 = Ept::new();
        ept12.map_page(0, 100, EptPerms::RWX);
        let ept01 = Ept::new();
        let ept02 = ept12.compose(&ept01);
        assert!(ept02.is_empty());
    }

    #[test]
    fn invalidate_bumps_generation() {
        let mut e = Ept::new();
        e.map_page(0, 0, EptPerms::RWX);
        let g = e.generation();
        e.invalidate_all();
        assert!(e.is_empty());
        assert_eq!(e.generation(), g + 1);
    }

    #[test]
    fn remap_overwrites() {
        let mut e = Ept::new();
        e.map_page(0, 1, EptPerms::RWX);
        e.map_page(0, 2, EptPerms::RWX);
        assert_eq!(
            e.translate(Gpa(0), Access::Read).unwrap(),
            Gpa(2 * PAGE_SIZE)
        );
        e.unmap(0);
        assert!(e.translate(Gpa(0), Access::Read).is_err());
    }
}
