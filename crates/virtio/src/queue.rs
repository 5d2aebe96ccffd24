//! Split virtqueues, byte-for-byte in guest memory.
//!
//! The classic virtio 0.9 layout: a descriptor table, an available ring
//! the driver fills, and a used ring the device fills. Both the driver
//! side (used by the workloads) and the device side (used by the device
//! models) operate on the same bytes in simulated guest RAM — nothing is
//! shortcut through Rust state.

use std::error::Error;
use std::fmt;

use svt_mem::{GuestMemory, Hpa, OutOfRange};

/// Descriptor flag: the chain continues at `next`.
pub const DESC_F_NEXT: u16 = 1;
/// Descriptor flag: device writes into this buffer.
pub const DESC_F_WRITE: u16 = 2;

const DESC_SIZE: u64 = 16;

/// Why a virtqueue operation was refused. Every variant is a *runtime*
/// error: a guest that overruns its own queue gets the request rejected
/// (and can observe it through the inflight counters), never a panic in
/// the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueError {
    /// The ring's guest memory is out of range.
    Memory(OutOfRange),
    /// A chain with no buffers was submitted.
    EmptyChain,
    /// The queue has fewer free descriptors than the chain needs.
    Exhausted {
        /// Free descriptors available.
        free: u16,
        /// Descriptors the chain needs.
        need: u16,
    },
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::Memory(e) => write!(f, "virtqueue memory access: {e}"),
            QueueError::EmptyChain => write!(f, "empty descriptor chain"),
            QueueError::Exhausted { free, need } => {
                write!(
                    f,
                    "virtqueue exhausted: {free} free descriptors, need {need}"
                )
            }
        }
    }
}

impl Error for QueueError {}

impl From<OutOfRange> for QueueError {
    fn from(e: OutOfRange) -> Self {
        QueueError::Memory(e)
    }
}

/// One descriptor as read from the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// Guest-physical buffer address.
    pub addr: u64,
    /// Buffer length in bytes.
    pub len: u32,
    /// `DESC_F_*` flags.
    pub flags: u16,
    /// Next descriptor index when `DESC_F_NEXT` is set.
    pub next: u16,
}

/// A descriptor chain popped by the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescChain {
    /// Index of the head descriptor (the used-ring id).
    pub head: u16,
    /// The resolved descriptors, in chain order.
    pub descs: Vec<Descriptor>,
}

impl DescChain {
    /// Total bytes across the chain.
    pub fn total_len(&self) -> u64 {
        self.descs.iter().map(|d| d.len as u64).sum()
    }

    /// Total bytes of device-writable buffers in the chain.
    pub fn writable_len(&self) -> u64 {
        self.descs
            .iter()
            .filter(|d| d.flags & DESC_F_WRITE != 0)
            .map(|d| d.len as u64)
            .sum()
    }
}

/// A split virtqueue: geometry plus cached indices.
///
/// The authoritative ring state lives in guest memory; the struct caches
/// only the device's and driver's private progress counters, as real
/// implementations do.
///
/// # Examples
///
/// ```
/// use svt_virtio::Virtqueue;
/// use svt_mem::{GuestMemory, Hpa};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mem = GuestMemory::new(1 << 20);
/// let mut q = Virtqueue::new(Hpa(0x1000), 8);
/// q.init(&mut mem)?;
/// let head = q.driver_add(&mut mem, &[(0x8000, 64, false)])?;
/// let chain = q.device_pop(&mut mem)?.expect("chain available");
/// assert_eq!(chain.head, head);
/// q.device_push_used(&mut mem, head, 0)?;
/// assert_eq!(q.driver_take_used(&mut mem)?, Some((head, 0)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Virtqueue {
    base: Hpa,
    size: u16,
    /// Driver's private copy of the next free descriptor index (simple
    /// bump allocator over a free list).
    free_head: u16,
    free_count: u16,
    /// Device's last seen avail index.
    last_avail: u16,
    /// Driver's last seen used index.
    last_used: u16,
}

impl Virtqueue {
    /// Describes a queue of `size` descriptors with its table at `base`.
    /// The layout is `desc table | avail ring | used ring`, contiguous.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is a power of two in `[2, 32768]`.
    pub fn new(base: Hpa, size: u16) -> Self {
        assert!(size.is_power_of_two() && size >= 2, "bad queue size");
        Virtqueue {
            base,
            size,
            free_head: 0,
            free_count: size,
            last_avail: 0,
            last_used: 0,
        }
    }

    /// Queue size in descriptors.
    pub fn size(&self) -> u16 {
        self.size
    }

    /// Total guest-memory footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.used_base() + 4 + self.size as u64 * 8 - self.base.0
    }

    fn desc_addr(&self, i: u16) -> Hpa {
        debug_assert!(i < self.size);
        self.base + i as u64 * DESC_SIZE
    }

    fn avail_base(&self) -> u64 {
        self.base.0 + self.size as u64 * DESC_SIZE
    }

    fn used_base(&self) -> u64 {
        self.avail_base() + 4 + self.size as u64 * 2
    }

    /// Zeroes the ring indices.
    ///
    /// # Errors
    ///
    /// Propagates guest-memory range errors.
    pub fn init(&mut self, mem: &mut GuestMemory) -> Result<(), OutOfRange> {
        mem.write_u16(Hpa(self.avail_base() + 2), 0)?;
        mem.write_u16(Hpa(self.used_base() + 2), 0)?;
        self.free_head = 0;
        self.free_count = self.size;
        self.last_avail = 0;
        self.last_used = 0;
        Ok(())
    }

    fn write_desc(&self, mem: &mut GuestMemory, i: u16, d: Descriptor) -> Result<(), OutOfRange> {
        let a = self.desc_addr(i);
        mem.write_u64(a, d.addr)?;
        mem.write_u32(a + 8, d.len)?;
        mem.write_u16(a + 12, d.flags)?;
        mem.write_u16(a + 14, d.next)?;
        Ok(())
    }

    fn read_desc(&self, mem: &GuestMemory, i: u16) -> Result<Descriptor, OutOfRange> {
        let a = self.desc_addr(i);
        Ok(Descriptor {
            addr: mem.read_u64(a)?,
            len: mem.read_u32(a + 8)?,
            flags: mem.read_u16(a + 12)?,
            next: mem.read_u16(a + 14)?,
        })
    }

    /// Driver: allocates descriptors for the buffers `(addr, len,
    /// device_writes)`, links them, and publishes the chain on the avail
    /// ring. Returns the head index.
    ///
    /// # Errors
    ///
    /// [`QueueError::EmptyChain`] for a zero-buffer chain,
    /// [`QueueError::Exhausted`] when fewer free descriptors remain than
    /// the chain needs, and [`QueueError::Memory`] for guest-memory range
    /// errors. All are runtime errors: an overrunning driver gets the
    /// request refused, not a simulator panic.
    pub fn driver_add(
        &mut self,
        mem: &mut GuestMemory,
        buffers: &[(u64, u32, bool)],
    ) -> Result<u16, QueueError> {
        if buffers.is_empty() {
            return Err(QueueError::EmptyChain);
        }
        if (self.free_count as usize) < buffers.len() {
            return Err(QueueError::Exhausted {
                free: self.free_count,
                need: buffers.len() as u16,
            });
        }
        let head = self.free_head;
        let mut idx = head;
        for (i, &(addr, len, write)) in buffers.iter().enumerate() {
            let last = i + 1 == buffers.len();
            let next = (idx + 1) % self.size;
            let mut flags = 0u16;
            if write {
                flags |= DESC_F_WRITE;
            }
            if !last {
                flags |= DESC_F_NEXT;
            }
            self.write_desc(
                mem,
                idx,
                Descriptor {
                    addr,
                    len,
                    flags,
                    next: if last { 0 } else { next },
                },
            )?;
            idx = next;
        }
        self.free_head = idx;
        self.free_count -= buffers.len() as u16;
        // Publish on the avail ring.
        let avail_idx = mem.read_u16(Hpa(self.avail_base() + 2))?;
        let slot = self.avail_base() + 4 + (avail_idx % self.size) as u64 * 2;
        mem.write_u16(Hpa(slot), head)?;
        mem.write_u16(Hpa(self.avail_base() + 2), avail_idx.wrapping_add(1))?;
        Ok(head)
    }

    /// Device: pops the next available chain, if any.
    ///
    /// # Errors
    ///
    /// Propagates guest-memory range errors.
    pub fn device_pop(&mut self, mem: &GuestMemory) -> Result<Option<DescChain>, OutOfRange> {
        let avail_idx = mem.read_u16(Hpa(self.avail_base() + 2))?;
        if self.last_avail == avail_idx {
            return Ok(None);
        }
        let slot = self.avail_base() + 4 + (self.last_avail % self.size) as u64 * 2;
        let head = mem.read_u16(Hpa(slot))?;
        self.last_avail = self.last_avail.wrapping_add(1);
        let mut descs = Vec::new();
        let mut i = head;
        loop {
            let d = self.read_desc(mem, i % self.size)?;
            let cont = d.flags & DESC_F_NEXT != 0;
            let next = d.next;
            descs.push(d);
            if !cont || descs.len() >= self.size as usize {
                break;
            }
            i = next;
        }
        Ok(Some(DescChain { head, descs }))
    }

    /// Device: returns a chain to the driver through the used ring.
    ///
    /// # Errors
    ///
    /// Propagates guest-memory range errors.
    pub fn device_push_used(
        &mut self,
        mem: &mut GuestMemory,
        head: u16,
        written: u32,
    ) -> Result<(), OutOfRange> {
        let used_idx = mem.read_u16(Hpa(self.used_base() + 2))?;
        let slot = self.used_base() + 4 + (used_idx % self.size) as u64 * 8;
        mem.write_u32(Hpa(slot), head as u32)?;
        mem.write_u32(Hpa(slot + 4), written)?;
        mem.write_u16(Hpa(self.used_base() + 2), used_idx.wrapping_add(1))?;
        Ok(())
    }

    /// Driver: consumes one used entry `(head, written)` if present, and
    /// recycles its descriptors.
    ///
    /// # Errors
    ///
    /// Propagates guest-memory range errors.
    pub fn driver_take_used(
        &mut self,
        mem: &GuestMemory,
    ) -> Result<Option<(u16, u32)>, OutOfRange> {
        let used_idx = mem.read_u16(Hpa(self.used_base() + 2))?;
        if self.last_used == used_idx {
            return Ok(None);
        }
        let slot = self.used_base() + 4 + (self.last_used % self.size) as u64 * 8;
        let head = mem.read_u32(Hpa(slot))? as u16;
        let written = mem.read_u32(Hpa(slot + 4))?;
        self.last_used = self.last_used.wrapping_add(1);
        // Recycle: count descriptors of the chain.
        let mut n = 1u16;
        let mut i = head;
        while mem
            .read_u16(self.desc_addr(i % self.size) + 12)
            .unwrap_or(0)
            & DESC_F_NEXT
            != 0
        {
            i = (i + 1) % self.size;
            n += 1;
            if n >= self.size {
                break;
            }
        }
        self.free_count = (self.free_count + n).min(self.size);
        Ok(Some((head, written)))
    }

    /// Driver-visible count of chains the device has not consumed yet
    /// (approximation using the device's private counter; used by tests).
    pub fn free_descriptors(&self) -> u16 {
        self.free_count
    }
}

// Only the cached cursors travel here: the authoritative ring bytes live
// in guest memory and ride in the RAM pages of the snapshot.
svt_sim::snap_fields! {
    Virtqueue {
        #[shape = "virtqueue base"] base, #[shape = "virtqueue size"] size, free_head, free_count,
        last_avail, last_used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (GuestMemory, Virtqueue) {
        let mut mem = GuestMemory::new(1 << 20);
        let mut q = Virtqueue::new(Hpa(0x1000), 8);
        q.init(&mut mem).unwrap();
        (mem, q)
    }

    #[test]
    fn add_pop_round_trip() {
        let (mut mem, mut q) = setup();
        let head = q.driver_add(&mut mem, &[(0x8000, 128, false)]).unwrap();
        let chain = q.device_pop(&mem).unwrap().unwrap();
        assert_eq!(chain.head, head);
        assert_eq!(chain.descs.len(), 1);
        assert_eq!(chain.descs[0].addr, 0x8000);
        assert_eq!(chain.descs[0].len, 128);
        assert_eq!(chain.total_len(), 128);
        assert!(q.device_pop(&mem).unwrap().is_none());
    }

    #[test]
    fn chains_link_multiple_descriptors() {
        let (mut mem, mut q) = setup();
        q.driver_add(
            &mut mem,
            &[(0x8000, 16, false), (0x9000, 512, false), (0xa000, 1, true)],
        )
        .unwrap();
        let chain = q.device_pop(&mem).unwrap().unwrap();
        assert_eq!(chain.descs.len(), 3);
        assert_eq!(chain.total_len(), 529);
        assert_eq!(chain.writable_len(), 1);
        assert_eq!(chain.descs[0].flags & DESC_F_NEXT, DESC_F_NEXT);
        assert_eq!(chain.descs[2].flags & DESC_F_NEXT, 0);
        assert_eq!(chain.descs[2].flags & DESC_F_WRITE, DESC_F_WRITE);
    }

    #[test]
    fn used_ring_round_trip() {
        let (mut mem, mut q) = setup();
        let head = q.driver_add(&mut mem, &[(0x8000, 64, true)]).unwrap();
        let chain = q.device_pop(&mem).unwrap().unwrap();
        q.device_push_used(&mut mem, chain.head, 42).unwrap();
        assert_eq!(q.driver_take_used(&mem).unwrap(), Some((head, 42)));
        assert_eq!(q.driver_take_used(&mem).unwrap(), None);
    }

    #[test]
    fn fifo_across_many_wraps() {
        let (mut mem, mut q) = setup();
        for round in 0u32..50 {
            let head = q
                .driver_add(&mut mem, &[(0x8000 + round as u64, 4, false)])
                .unwrap();
            let chain = q.device_pop(&mem).unwrap().unwrap();
            assert_eq!(chain.descs[0].addr, 0x8000 + round as u64);
            q.device_push_used(&mut mem, chain.head, round).unwrap();
            assert_eq!(q.driver_take_used(&mem).unwrap(), Some((head, round)));
        }
    }

    #[test]
    fn multiple_outstanding_chains_pop_in_order() {
        let (mut mem, mut q) = setup();
        for i in 0..4u64 {
            q.driver_add(&mut mem, &[(0x8000 + i * 0x100, 32, false)])
                .unwrap();
        }
        for i in 0..4u64 {
            let chain = q.device_pop(&mem).unwrap().unwrap();
            assert_eq!(chain.descs[0].addr, 0x8000 + i * 0x100);
        }
        assert!(q.device_pop(&mem).unwrap().is_none());
    }

    #[test]
    fn exhaustion_is_a_typed_error() {
        let (mut mem, mut q) = setup();
        for _ in 0..8 {
            q.driver_add(&mut mem, &[(0x8000, 8, false)]).unwrap();
        }
        assert_eq!(
            q.driver_add(&mut mem, &[(0x8000, 8, false)]),
            Err(QueueError::Exhausted { free: 0, need: 1 })
        );
        assert_eq!(q.driver_add(&mut mem, &[]), Err(QueueError::EmptyChain));
    }

    #[test]
    fn cursor_snapshot_round_trips() {
        let (mut mem, mut q) = setup();
        q.driver_add(&mut mem, &[(0x8000, 8, false)]).unwrap();
        q.device_pop(&mem).unwrap().unwrap();
        let buf = svt_sim::snapshot::to_bytes(&q);
        let mut fresh = Virtqueue::new(Hpa(0x1000), 8);
        svt_sim::snapshot::from_bytes(&mut fresh, &buf).unwrap();
        assert_eq!(fresh.free_descriptors(), q.free_descriptors());
        // Geometry mismatch is a shape error, not a panic.
        let mut other = Virtqueue::new(Hpa(0x2000), 8);
        assert!(matches!(
            svt_sim::snapshot::from_bytes(&mut other, &buf),
            Err(svt_sim::SnapError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn recycle_restores_capacity() {
        let (mut mem, mut q) = setup();
        for _ in 0..8 {
            q.driver_add(&mut mem, &[(0x8000, 8, false)]).unwrap();
        }
        assert_eq!(q.free_descriptors(), 0);
        let chain = q.device_pop(&mem).unwrap().unwrap();
        q.device_push_used(&mut mem, chain.head, 0).unwrap();
        q.driver_take_used(&mem).unwrap().unwrap();
        assert_eq!(q.free_descriptors(), 1);
        q.driver_add(&mut mem, &[(0x8000, 8, false)]).unwrap();
    }

    #[test]
    fn state_is_in_guest_memory() {
        let (mut mem, mut q) = setup();
        q.driver_add(&mut mem, &[(0x1234, 5, false)]).unwrap();
        // A second queue view over the same memory sees the same avail
        // entry (only private counters differ).
        let mut alias = Virtqueue::new(Hpa(0x1000), 8);
        let chain = alias.device_pop(&mem).unwrap().unwrap();
        assert_eq!(chain.descs[0].addr, 0x1234);
    }

    #[test]
    #[should_panic(expected = "bad queue size")]
    fn non_power_of_two_rejected() {
        let _ = Virtqueue::new(Hpa(0), 6);
    }
}
