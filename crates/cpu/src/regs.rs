//! Architectural registers and the shared physical register file.
//!
//! SVt's cross-context register access (`ctxtld`/`ctxtst`) works because
//! SMT threads of one core share a single physical register file (PRF) and
//! differ only in their per-thread *rename maps*. The model reproduces that
//! structure: [`PhysRegFile`] holds the shared storage with a free list,
//! and each hardware context owns a [`RenameMap`] indexing into it. A
//! cross-context access simply walks the *target* context's rename map —
//! exactly the mechanism § 4 of the paper describes.

use std::fmt;

/// The sixteen x86-64 general-purpose registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Gpr {
    Rax,
    Rbx,
    Rcx,
    Rdx,
    Rsi,
    Rdi,
    Rbp,
    Rsp,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
}

impl Gpr {
    /// All GPRs in encoding order.
    pub const ALL: [Gpr; 16] = [
        Gpr::Rax,
        Gpr::Rbx,
        Gpr::Rcx,
        Gpr::Rdx,
        Gpr::Rsi,
        Gpr::Rdi,
        Gpr::Rbp,
        Gpr::Rsp,
        Gpr::R8,
        Gpr::R9,
        Gpr::R10,
        Gpr::R11,
        Gpr::R12,
        Gpr::R13,
        Gpr::R14,
        Gpr::R15,
    ];

    /// Number of GPRs.
    pub const COUNT: usize = 16;

    /// Index of this register in encoding order.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self)
    }
}

/// A full snapshot of one context's GPRs, used when hypervisors save or
/// load guest state.
///
/// # Examples
///
/// ```
/// use svt_cpu::{Gpr, GprState};
///
/// let mut s = GprState::default();
/// s.set(Gpr::Rax, 42);
/// assert_eq!(s.get(Gpr::Rax), 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GprState([u64; Gpr::COUNT]);

svt_sim::snap_fields! { GprState(_) }

impl GprState {
    /// Value of one register.
    pub fn get(&self, r: Gpr) -> u64 {
        self.0[r.index()]
    }

    /// Sets one register.
    pub fn set(&mut self, r: Gpr, v: u64) {
        self.0[r.index()] = v;
    }

    /// Iterates over `(register, value)` pairs in encoding order.
    pub fn iter(&self) -> impl Iterator<Item = (Gpr, u64)> + '_ {
        Gpr::ALL.iter().map(move |&r| (r, self.get(r)))
    }
}

/// Identifier of one physical register inside the shared file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysReg(usize);

/// The core-wide shared physical register file with a free list.
///
/// # Panics
///
/// Allocation panics if the file is exhausted; the core sizes it as
/// `contexts × GPRs × 2` so steady-state renaming never exhausts it.
#[derive(Debug, Clone)]
pub struct PhysRegFile {
    slots: Vec<u64>,
    free: Vec<usize>,
}

impl PhysRegFile {
    /// Creates a file with `capacity` physical registers, all free.
    pub fn new(capacity: usize) -> Self {
        PhysRegFile {
            slots: vec![0; capacity],
            free: (0..capacity).rev().collect(),
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Currently free physical registers.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Allocates a physical register holding `value`.
    ///
    /// # Panics
    ///
    /// Panics if the file is exhausted (a modeling bug, not a guest error).
    pub fn alloc(&mut self, value: u64) -> PhysReg {
        let idx = self.free.pop().expect("physical register file exhausted");
        self.slots[idx] = value;
        PhysReg(idx)
    }

    /// Returns a physical register to the free list.
    pub fn release(&mut self, r: PhysReg) {
        debug_assert!(!self.free.contains(&r.0), "double free of {r:?}");
        self.free.push(r.0);
    }

    /// Reads a physical register.
    pub fn read(&self, r: PhysReg) -> u64 {
        self.slots[r.0]
    }

    /// Writes a physical register in place (used by cross-context stores,
    /// which update the target's current physical register rather than
    /// renaming — only one context executes at a time under SVt, so there
    /// is no write-after-read hazard).
    pub fn write(&mut self, r: PhysReg, v: u64) {
        self.slots[r.0] = v;
    }
}

/// One hardware context's architectural-to-physical register mapping.
#[derive(Debug, Clone)]
pub struct RenameMap {
    map: [PhysReg; Gpr::COUNT],
}

impl RenameMap {
    /// Creates a map with freshly allocated physical registers (all zero).
    pub fn new(prf: &mut PhysRegFile) -> Self {
        RenameMap {
            map: std::array::from_fn(|_| prf.alloc(0)),
        }
    }

    /// The physical register currently backing `r`.
    pub fn lookup(&self, r: Gpr) -> PhysReg {
        self.map[r.index()]
    }

    /// Renames `r` to a new physical register holding `v`, releasing the
    /// old one — the normal in-context write path.
    pub fn rename(&mut self, prf: &mut PhysRegFile, r: Gpr, v: u64) {
        let old = self.map[r.index()];
        self.map[r.index()] = prf.alloc(v);
        prf.release(old);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpr_indices_are_dense() {
        for (i, r) in Gpr::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        assert_eq!(Gpr::COUNT, Gpr::ALL.len());
    }

    #[test]
    fn gpr_state_round_trip() {
        let mut s = GprState::default();
        for (i, r) in Gpr::ALL.iter().enumerate() {
            s.set(*r, i as u64 * 3);
        }
        for (i, r) in Gpr::ALL.iter().enumerate() {
            assert_eq!(s.get(*r), i as u64 * 3);
        }
        assert_eq!(s.iter().count(), 16);
    }

    #[test]
    fn prf_alloc_release_cycle() {
        let mut prf = PhysRegFile::new(4);
        assert_eq!(prf.free_count(), 4);
        let a = prf.alloc(10);
        let b = prf.alloc(20);
        assert_eq!(prf.read(a), 10);
        assert_eq!(prf.read(b), 20);
        assert_eq!(prf.free_count(), 2);
        prf.release(a);
        assert_eq!(prf.free_count(), 3);
        let c = prf.alloc(30);
        assert_eq!(prf.read(c), 30);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn prf_exhaustion_panics() {
        let mut prf = PhysRegFile::new(1);
        let _a = prf.alloc(1);
        let _b = prf.alloc(2);
    }

    #[test]
    fn rename_points_to_new_value_and_recycles() {
        let mut prf = PhysRegFile::new(Gpr::COUNT + 2);
        let mut map = RenameMap::new(&mut prf);
        assert_eq!(prf.free_count(), 2);
        let before = map.lookup(Gpr::Rax);
        map.rename(&mut prf, Gpr::Rax, 99);
        let after = map.lookup(Gpr::Rax);
        assert_ne!(before, after);
        assert_eq!(prf.read(after), 99);
        // The old physical register was recycled: the file never grows.
        assert_eq!(prf.free_count(), 2);
    }

    #[test]
    fn two_maps_share_one_file() {
        let mut prf = PhysRegFile::new(Gpr::COUNT * 2 + 4);
        let map0 = RenameMap::new(&mut prf);
        let map1 = RenameMap::new(&mut prf);
        // Writing through map1's physical register is visible to any reader
        // that walks map1 — the mechanism behind ctxtld/ctxtst.
        let p = map1.lookup(Gpr::Rbx);
        prf.write(p, 0x5157); // "SVt"
        assert_eq!(prf.read(map1.lookup(Gpr::Rbx)), 0x5157);
        assert_eq!(prf.read(map0.lookup(Gpr::Rbx)), 0);
    }
}
