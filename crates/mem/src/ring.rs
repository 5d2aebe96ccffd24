//! Shared-memory command rings for the SW-SVt prototype.
//!
//! The software-only prototype (paper § 5.2) connects the L0 hypervisor
//! thread and L1's SVt-thread with two unidirectional command rings in
//! shared memory, exposed to L1 as an `ivshmem` PCI device. Each ring is a
//! classic single-producer/single-consumer circular buffer: a header with
//! head/tail indices followed by fixed-size slots. All ring state lives in
//! simulated [`GuestMemory`], byte-for-byte, exactly as it would in the
//! real prototype.

use std::error::Error;
use std::fmt;

use svt_sim::snapshot::{Sink, Snap, SnapError, SnapReader};

use crate::addr::Hpa;
use crate::guest_memory::{GuestMemory, OutOfRange};

/// Ring header layout: head (u32) then tail (u32), each in its own cache
/// line to avoid false sharing, as the real prototype would.
const HEAD_OFF: u64 = 0;
const TAIL_OFF: u64 = 64;
const SLOTS_OFF: u64 = 128;

/// Errors from ring operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingError {
    /// Push attempted on a full ring.
    Full,
    /// Payload larger than the configured slot size.
    PayloadTooLarge {
        /// Bytes offered.
        len: usize,
        /// Slot capacity in bytes.
        slot: usize,
    },
    /// The ring touches memory outside RAM.
    Memory(OutOfRange),
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingError::Full => write!(f, "command ring is full"),
            RingError::PayloadTooLarge { len, slot } => {
                write!(f, "payload of {len} bytes exceeds slot size {slot}")
            }
            RingError::Memory(e) => write!(f, "ring memory access failed: {e}"),
        }
    }
}

impl Error for RingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RingError::Memory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OutOfRange> for RingError {
    fn from(e: OutOfRange) -> Self {
        RingError::Memory(e)
    }
}

/// A single-producer/single-consumer command ring living in guest memory.
///
/// The struct itself holds only the geometry; all mutable state (indices
/// and slots) is read and written through [`GuestMemory`] on every
/// operation, so both "sides" of the prototype genuinely communicate
/// through simulated shared memory.
///
/// # Examples
///
/// ```
/// use svt_mem::{CommandRing, GuestMemory, Hpa};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ram = GuestMemory::new(1 << 20);
/// let ring = CommandRing::new(Hpa(0x1000), 64, 8);
/// ring.init(&mut ram)?;
/// ring.push(&mut ram, b"CMD_VM_TRAP")?;
/// assert_eq!(ring.pop(&mut ram)?, Some(b"CMD_VM_TRAP".to_vec()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandRing {
    base: Hpa,
    slot_size: u32,
    num_slots: u32,
}

/// The smallest valid ring, at address 0: a placeholder for
/// [`Snap::load`] to overwrite.
impl Default for CommandRing {
    fn default() -> Self {
        CommandRing::new(Hpa(0), 8, 2)
    }
}

/// Only the geometry lives in the struct — indices and slot contents are
/// in guest memory and ride in the RAM pages of the snapshot. A loaded
/// geometry the constructor would reject is [`SnapError::BadValue`].
impl Snap for CommandRing {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        let CommandRing {
            base,
            slot_size,
            num_slots,
        } = self;
        base.save(w);
        slot_size.save(w);
        num_slots.save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.base.load(r)?;
        self.slot_size.load(r)?;
        self.num_slots.load(r)?;
        if self.slot_size < 8 || self.num_slots < 2 {
            return Err(SnapError::BadValue {
                what: "command ring geometry",
                got: (u64::from(self.slot_size) << 32) | u64::from(self.num_slots),
            });
        }
        Ok(())
    }
}

impl CommandRing {
    /// Describes a ring at `base` with `num_slots` slots of `slot_size`
    /// bytes each (4 bytes of which store the payload length).
    ///
    /// # Panics
    ///
    /// Panics if `slot_size < 8` or `num_slots < 2`.
    pub fn new(base: Hpa, slot_size: u32, num_slots: u32) -> Self {
        assert!(slot_size >= 8, "slot must fit a length prefix and payload");
        assert!(num_slots >= 2, "ring needs at least two slots");
        CommandRing {
            base,
            slot_size,
            num_slots,
        }
    }

    /// Total bytes of guest memory the ring occupies.
    pub fn footprint(&self) -> u64 {
        SLOTS_OFF + self.slot_size as u64 * self.num_slots as u64
    }

    /// Base address of the ring in guest memory.
    pub fn base(&self) -> Hpa {
        self.base
    }

    /// Maximum payload bytes per command.
    pub fn max_payload(&self) -> usize {
        self.slot_size as usize - 4
    }

    /// Zeroes the ring indices.
    ///
    /// # Errors
    ///
    /// Returns an error if the ring's memory is out of range.
    pub fn init(&self, ram: &mut GuestMemory) -> Result<(), RingError> {
        ram.write_u32(self.base + HEAD_OFF, 0)?;
        ram.write_u32(self.base + TAIL_OFF, 0)?;
        Ok(())
    }

    /// Indices live in `[0, 2 * num_slots)`: one extra lap distinguishes
    /// full from empty, and — unlike free-running u32 indices — the wrap
    /// point is a multiple of `num_slots`, so `index % num_slots` stays
    /// continuous across it. (Free-running indices silently collide slots
    /// at the u32 boundary whenever `num_slots` is not a power of two.)
    fn index_wrap(&self) -> u32 {
        2 * self.num_slots
    }

    fn head(&self, ram: &GuestMemory) -> Result<u32, RingError> {
        Ok(ram.read_u32(self.base + HEAD_OFF)? % self.index_wrap())
    }

    fn tail(&self, ram: &GuestMemory) -> Result<u32, RingError> {
        Ok(ram.read_u32(self.base + TAIL_OFF)? % self.index_wrap())
    }

    /// Number of queued commands.
    ///
    /// # Errors
    ///
    /// Returns an error if the ring's memory is out of range.
    pub fn len(&self, ram: &GuestMemory) -> Result<u32, RingError> {
        let wrap = self.index_wrap();
        let (head, tail) = (self.head(ram)?, self.tail(ram)?);
        Ok((head + wrap - tail) % wrap)
    }

    /// Whether no commands are queued.
    ///
    /// # Errors
    ///
    /// Returns an error if the ring's memory is out of range.
    pub fn is_empty(&self, ram: &GuestMemory) -> Result<bool, RingError> {
        Ok(self.len(ram)? == 0)
    }

    /// Whether the ring is at capacity.
    ///
    /// # Errors
    ///
    /// Returns an error if the ring's memory is out of range.
    pub fn is_full(&self, ram: &GuestMemory) -> Result<bool, RingError> {
        Ok(self.len(ram)? >= self.num_slots)
    }

    fn slot_addr(&self, index: u32) -> Hpa {
        let slot = index % self.num_slots;
        self.base + SLOTS_OFF + slot as u64 * self.slot_size as u64
    }

    /// Enqueues one command payload.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::Full`] when all slots are queued,
    /// [`RingError::PayloadTooLarge`] when the payload exceeds
    /// [`CommandRing::max_payload`], or a memory error.
    pub fn push(&self, ram: &mut GuestMemory, payload: &[u8]) -> Result<(), RingError> {
        if payload.len() > self.max_payload() {
            return Err(RingError::PayloadTooLarge {
                len: payload.len(),
                slot: self.max_payload(),
            });
        }
        if self.is_full(ram)? {
            return Err(RingError::Full);
        }
        let head = self.head(ram)?;
        let slot = self.slot_addr(head);
        ram.write_u32(slot, payload.len() as u32)?;
        ram.write(slot + 4, payload)?;
        ram.write_u32(self.base + HEAD_OFF, (head + 1) % self.index_wrap())?;
        Ok(())
    }

    /// Dequeues the oldest command payload, or `None` if the ring is empty.
    ///
    /// # Errors
    ///
    /// Returns an error if the ring's memory is out of range.
    pub fn pop(&self, ram: &mut GuestMemory) -> Result<Option<Vec<u8>>, RingError> {
        if self.is_empty(ram)? {
            return Ok(None);
        }
        let tail = self.tail(ram)?;
        let slot = self.slot_addr(tail);
        let len = ram.read_u32(slot)? as usize;
        let mut payload = vec![0u8; len.min(self.max_payload())];
        ram.read(slot + 4, &mut payload)?;
        ram.write_u32(self.base + TAIL_OFF, (tail + 1) % self.index_wrap())?;
        Ok(Some(payload))
    }

    /// Peeks at the oldest command without consuming it.
    ///
    /// # Errors
    ///
    /// Returns an error if the ring's memory is out of range.
    pub fn peek(&self, ram: &GuestMemory) -> Result<Option<Vec<u8>>, RingError> {
        if self.is_empty(ram)? {
            return Ok(None);
        }
        let tail = self.tail(ram)?;
        let slot = self.slot_addr(tail);
        let len = ram.read_u32(slot)? as usize;
        let mut payload = vec![0u8; len.min(self.max_payload())];
        ram.read(slot + 4, &mut payload)?;
        Ok(Some(payload))
    }

    /// The cache line the consumer `monitor`s for new work (the head
    /// index), as an address — used by the mwait channel model.
    pub fn doorbell_line(&self) -> Hpa {
        self.base + HEAD_OFF
    }

    /// Flips one payload byte of the most recently queued command — the
    /// fault injector's hook for modelling shared-memory corruption.
    /// Returns `false` (and touches nothing) when the ring is empty.
    ///
    /// # Errors
    ///
    /// Returns an error if the ring's memory is out of range.
    pub fn corrupt_newest(&self, ram: &mut GuestMemory, byte: usize) -> Result<bool, RingError> {
        if self.is_empty(ram)? {
            return Ok(false);
        }
        let wrap = self.index_wrap();
        let newest = (self.head(ram)? + wrap - 1) % wrap;
        let slot = self.slot_addr(newest);
        let len = (ram.read_u32(slot)? as usize).min(self.max_payload());
        if len == 0 {
            return Ok(false);
        }
        let off = slot + 4 + (byte % len) as u64;
        let mut b = [0u8; 1];
        ram.read(off, &mut b)?;
        ram.write(off, &[b[0] ^ 0xa5])?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (GuestMemory, CommandRing) {
        let mut ram = GuestMemory::new(1 << 20);
        let ring = CommandRing::new(Hpa(0x2000), 64, 4);
        ring.init(&mut ram).unwrap();
        (ram, ring)
    }

    #[test]
    fn fifo_order() {
        let (mut ram, ring) = setup();
        ring.push(&mut ram, b"one").unwrap();
        ring.push(&mut ram, b"two").unwrap();
        assert_eq!(ring.len(&ram).unwrap(), 2);
        assert_eq!(ring.pop(&mut ram).unwrap().unwrap(), b"one");
        assert_eq!(ring.pop(&mut ram).unwrap().unwrap(), b"two");
        assert_eq!(ring.pop(&mut ram).unwrap(), None);
    }

    #[test]
    fn full_ring_rejects_push() {
        let (mut ram, ring) = setup();
        for i in 0..4u8 {
            ring.push(&mut ram, &[i]).unwrap();
        }
        assert!(ring.is_full(&ram).unwrap());
        assert_eq!(ring.push(&mut ram, b"x"), Err(RingError::Full));
        // Draining one slot frees space.
        assert!(ring.pop(&mut ram).unwrap().is_some());
        ring.push(&mut ram, b"x").unwrap();
    }

    #[test]
    fn wraps_around_many_times() {
        let (mut ram, ring) = setup();
        for round in 0..100u32 {
            ring.push(&mut ram, &round.to_le_bytes()).unwrap();
            let got = ring.pop(&mut ram).unwrap().unwrap();
            assert_eq!(got, round.to_le_bytes());
        }
        assert!(ring.is_empty(&ram).unwrap());
    }

    #[test]
    fn oversized_payload_rejected() {
        let (mut ram, ring) = setup();
        let big = vec![0u8; 61];
        assert!(matches!(
            ring.push(&mut ram, &big),
            Err(RingError::PayloadTooLarge { len: 61, slot: 60 })
        ));
        // Exactly max_payload fits.
        ring.push(&mut ram, &vec![7u8; ring.max_payload()]).unwrap();
    }

    #[test]
    fn peek_does_not_consume() {
        let (mut ram, ring) = setup();
        ring.push(&mut ram, b"cmd").unwrap();
        assert_eq!(ring.peek(&ram).unwrap().unwrap(), b"cmd");
        assert_eq!(ring.len(&ram).unwrap(), 1);
        assert_eq!(ring.pop(&mut ram).unwrap().unwrap(), b"cmd");
    }

    #[test]
    fn state_lives_in_guest_memory() {
        let (mut ram, ring) = setup();
        ring.push(&mut ram, b"persisted").unwrap();
        // A second CommandRing value describing the same geometry sees the
        // same state: nothing is cached in the struct.
        let alias = CommandRing::new(Hpa(0x2000), 64, 4);
        assert_eq!(alias.pop(&mut ram).unwrap().unwrap(), b"persisted");
    }

    #[test]
    fn two_rings_do_not_interfere() {
        let mut ram = GuestMemory::new(1 << 20);
        let a = CommandRing::new(Hpa(0x1000), 64, 4);
        let b = CommandRing::new(Hpa(0x1000 + a.footprint()), 64, 4);
        a.init(&mut ram).unwrap();
        b.init(&mut ram).unwrap();
        a.push(&mut ram, b"to-l1").unwrap();
        b.push(&mut ram, b"to-l0").unwrap();
        assert_eq!(a.pop(&mut ram).unwrap().unwrap(), b"to-l1");
        assert_eq!(b.pop(&mut ram).unwrap().unwrap(), b"to-l0");
    }

    #[test]
    fn corrupt_newest_flips_exactly_one_byte_of_newest() {
        let (mut ram, ring) = setup();
        ring.push(&mut ram, b"aaaa").unwrap();
        ring.push(&mut ram, b"bbbb").unwrap();
        assert!(ring.corrupt_newest(&mut ram, 1).unwrap());
        // The oldest entry is untouched; the newest has one byte flipped.
        assert_eq!(ring.pop(&mut ram).unwrap().unwrap(), b"aaaa");
        let got = ring.pop(&mut ram).unwrap().unwrap();
        assert_eq!(got, [b'b', b'b' ^ 0xa5, b'b', b'b']);
    }

    #[test]
    fn corrupt_empty_ring_is_a_no_op() {
        let (mut ram, ring) = setup();
        assert!(!ring.corrupt_newest(&mut ram, 0).unwrap());
        assert!(ring.is_empty(&ram).unwrap());
    }

    #[test]
    fn out_of_range_ring_errors() {
        let mut ram = GuestMemory::new(0x100);
        let ring = CommandRing::new(Hpa(0x80), 64, 4);
        // Indices fit in RAM, but the first slot (base + 128) does not.
        ring.init(&mut ram).unwrap();
        assert!(matches!(
            ring.push(&mut ram, b"x"),
            Err(RingError::Memory(_))
        ));
    }
}
