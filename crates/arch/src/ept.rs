//! Extended page tables.
//!
//! An [`Ept`] maps page frames of one physical address space onto another:
//! `ept01` maps L1-guest-physical to host-physical, `ept12` (built by L1)
//! maps L2-guest-physical to L1-guest-physical, and L0 composes the two
//! into the `ept02` it actually runs L2 on — the "EPT on EPT" machinery
//! nested virtualization requires. Pages can also be marked as MMIO
//! (deliberately misconfigured) so device accesses raise
//! `EPT_MISCONFIG` exits for emulation, as KVM does for virtio BARs.

use std::sync::atomic::{AtomicU64, Ordering};

use svt_mem::{Gpa, PAGE_SIZE};
use svt_sim::snapshot::{load_code, load_new, Sink, Snap, SnapError, SnapReader};

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

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Entry {
    Mapped {
        target_page: u64,
        perms: EptPerms,
    },
    #[default]
    Mmio,
}

/// Tag 0 is an MMIO page; tag 1 a mapping, its permissions packed into
/// one byte (`r | w << 1 | x << 2`).
impl Snap for Entry {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        match *self {
            Entry::Mmio => w.u8(0),
            Entry::Mapped { target_page, perms } => {
                let bits = u8::from(perms.r) | u8::from(perms.w) << 1 | u8::from(perms.x) << 2;
                (1u8, target_page, bits).save(w);
            }
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = match load_code(r, "EPT entry tag", |t| (t < 2).then_some(t))? {
            0 => Entry::Mmio,
            _ => {
                let (target_page, bits): (u64, u8) = load_new(r)?;
                Entry::Mapped {
                    target_page,
                    perms: EptPerms {
                        r: bits & 1 != 0,
                        w: bits & 2 != 0,
                        x: bits & 4 != 0,
                    },
                }
            }
        };
        Ok(())
    }
}

/// A run of consecutive pages with one kind of entry: every page is
/// MMIO, or page `first + i` targets the first page's target plus `i`,
/// all with the same permissions.
#[derive(Debug, Clone, Copy)]
struct Run {
    first: u64,
    pages: u64,
    entry: Entry,
}

impl Run {
    fn last(&self) -> u64 {
        self.first + (self.pages - 1)
    }

    /// The entry of `page`, which must lie in the run.
    fn entry_at(&self, page: u64) -> Entry {
        match self.entry {
            Entry::Mmio => Entry::Mmio,
            Entry::Mapped { target_page, perms } => Entry::Mapped {
                target_page: target_page + (page - self.first),
                perms,
            },
        }
    }

    /// Whether `next` starts right after this run and continues it, so
    /// the two are one run. A target range never wraps past `u64::MAX`.
    fn continues_into(&self, next: &Run) -> bool {
        next.first - self.first == self.pages
            && match (self.entry, next.entry) {
                (Entry::Mmio, Entry::Mmio) => true,
                (
                    Entry::Mapped { target_page, perms },
                    Entry::Mapped {
                        target_page: next_target,
                        perms: next_perms,
                    },
                ) => {
                    perms == next_perms && target_page.checked_add(self.pages) == Some(next_target)
                }
                _ => false,
            }
    }
}

/// One extended-page-table hierarchy (page-granular).
///
/// Pages are stored as sorted, disjoint runs of consecutive pages, so an
/// identity map, and a compose of two of them, is one run.
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
    /// Sorted by first page; no two adjacent runs continue each other.
    runs: Vec<Run>,
    generation: u64,
    /// Identity of this table's contents; see [`Ept::stamp`].
    stamp: u64,
}

/// The generation, then the page count and every `(page, entry)` pair in
/// page order. The stamp is not state: a loaded table gets a fresh one,
/// so a compose cached against the old contents cannot be mistaken for
/// current. Pairs load one by one, so a later duplicate page wins.
impl Snap for Ept {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        let Ept {
            runs,
            generation,
            stamp: _,
        } = self;
        generation.save(w);
        self.len().save(w);
        for run in runs {
            for page in run.first..=run.last() {
                page.save(w);
                run.entry_at(page).save(w);
            }
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.touch();
        self.generation.load(r)?;
        self.runs.clear();
        let n: usize = load_new(r)?;
        for _ in 0..n {
            let (page, entry) = load_new(r)?;
            self.assign(page, 1, Some(entry));
        }
        Ok(())
    }
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

    /// Gives the `n` pages from `first` on the entries of a run starting
    /// with `entry`, or unmaps them (`None`): splits the runs they cut
    /// and merges the new run with a neighbour it continues.
    fn assign(&mut self, first: u64, n: u64, entry: Option<Entry>) {
        if n == 0 {
            return;
        }
        let last = first + (n - 1);
        let lo = self.runs.partition_point(|r| r.last() < first);
        let hi = self.runs.partition_point(|r| r.first <= last);
        let mut pieces = [None; 3];
        if lo < hi {
            let (head, tail) = (self.runs[lo], self.runs[hi - 1]);
            if head.first < first {
                pieces[0] = Some(Run {
                    pages: first - head.first,
                    ..head
                });
            }
            if tail.last() > last {
                pieces[2] = Some(Run {
                    first: last + 1,
                    pages: tail.last() - last,
                    entry: tail.entry_at(last + 1),
                });
            }
        }
        pieces[1] = entry.map(|entry| Run {
            first,
            pages: n,
            entry,
        });
        let at = lo + usize::from(pieces[0].is_some());
        // Drain and insert rather than splice: a splice that grows the
        // vector mid-way collects its surplus into a temporary vector.
        self.runs.drain(lo..hi);
        for run in pieces.into_iter().flatten().rev() {
            self.runs.insert(lo, run);
        }
        if entry.is_some() {
            if at + 1 < self.runs.len() && self.runs[at].continues_into(&self.runs[at + 1]) {
                self.runs[at].pages += self.runs.remove(at + 1).pages;
            }
            if at > 0 && self.runs[at - 1].continues_into(&self.runs[at]) {
                self.runs[at - 1].pages += self.runs.remove(at).pages;
            }
        }
    }

    /// The entry of `page`, if mapped or MMIO.
    fn entry(&self, page: u64) -> Option<Entry> {
        let i = self.runs.partition_point(|r| r.first <= page);
        let run = self.runs[..i].last()?;
        (page - run.first < run.pages).then(|| run.entry_at(page))
    }

    /// Maps guest page `gpa_page` to target page `target_page`.
    pub fn map_page(&mut self, gpa_page: u64, target_page: u64, perms: EptPerms) {
        self.assign(gpa_page, 1, Some(Entry::Mapped { target_page, perms }));
        self.touch();
    }

    /// Identity-maps `n` pages starting at page `start`.
    pub fn identity_map(&mut self, start: u64, n: u64, perms: EptPerms) {
        let entry = Entry::Mapped {
            target_page: start,
            perms,
        };
        self.assign(start, n, Some(entry));
        self.touch();
    }

    /// Marks a page as MMIO: any access raises [`EptFault::Misconfig`],
    /// the device-emulation fast path.
    pub fn mark_mmio(&mut self, gpa_page: u64) {
        self.assign(gpa_page, 1, Some(Entry::Mmio));
        self.touch();
    }

    /// Removes a mapping.
    pub fn unmap(&mut self, gpa_page: u64) {
        self.assign(gpa_page, 1, None);
        self.touch();
    }

    /// Drops every mapping (`invept` single-context flush).
    pub fn invalidate_all(&mut self) {
        self.runs.clear();
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
        self.runs.iter().map(|r| r.pages as usize).sum()
    }

    /// Whether no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Translates an address in the source space to the target space.
    ///
    /// # Errors
    ///
    /// [`EptFault::Violation`] for unmapped pages or permission failures;
    /// [`EptFault::Misconfig`] for MMIO pages.
    pub fn translate(&self, gpa: Gpa, access: Access) -> Result<Gpa, EptFault> {
        match self.entry(gpa.page()) {
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
    ///
    /// Each inner run is cut where the outer runs under its targets start
    /// and end, so the work is per run, not per page.
    pub fn compose(&self, outer: &Ept) -> Ept {
        let mut out = Ept::new();
        for run in &self.runs {
            let Entry::Mapped { target_page, perms } = run.entry else {
                out.assign(run.first, run.pages, Some(Entry::Mmio));
                continue;
            };
            let target_last = target_page + (run.pages - 1);
            let from = outer.runs.partition_point(|o| o.last() < target_page);
            for o in outer.runs[from..]
                .iter()
                .take_while(|o| o.first <= target_last)
            {
                let (t0, t1) = (o.first.max(target_page), o.last().min(target_last));
                let entry = match o.entry_at(t0) {
                    Entry::Mmio => Entry::Mmio,
                    Entry::Mapped {
                        target_page: hpa_page,
                        perms: outer_perms,
                    } => Entry::Mapped {
                        target_page: hpa_page,
                        perms: perms.intersect(outer_perms),
                    },
                };
                out.assign(run.first + (t0 - target_page), t1 - t0 + 1, Some(entry));
            }
        }
        out.touch();
        out
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
