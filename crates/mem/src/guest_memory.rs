//! Sparse simulated physical RAM.
//!
//! Pages are allocated lazily on first write, so a 128 GiB machine costs
//! only what the experiments actually touch. All multi-byte accessors are
//! little-endian, matching the modeled x86 platform.

use std::error::Error;
use std::fmt;
use svt_sim::snapshot::ByteBlock;
use svt_sim::FnvHashMap;

use crate::addr::{Hpa, PAGE_SIZE};

/// Error returned by memory accesses that fall outside the RAM size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRange {
    /// The first out-of-range address of the failed access.
    pub addr: Hpa,
    /// Configured RAM size in bytes.
    pub size: u64,
}

impl fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "physical access at {:#x} beyond RAM size {:#x}",
            self.addr.0, self.size
        )
    }
}

impl Error for OutOfRange {}

/// Sparse byte-addressable physical memory.
///
/// # Examples
///
/// ```
/// use svt_mem::{GuestMemory, Hpa};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ram = GuestMemory::new(1 << 20);
/// ram.write_u64(Hpa(0x100), 0xdead_beef)?;
/// assert_eq!(ram.read_u64(Hpa(0x100))?, 0xdead_beef);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GuestMemory {
    size: u64,
    pages: FnvHashMap<u64, ByteBlock<{ PAGE_SIZE as usize }>>,
}

// Every resident page is saved, sorted by page number. Restore
// reproduces the exact resident-page set — a page that was materialized
// by a write of zeros stays materialized, so
// [`GuestMemory::resident_pages`] (an observable the self-profiler
// reports) is preserved.
svt_sim::snap_fields! { GuestMemory { size, pages } }

impl GuestMemory {
    /// Creates a memory of `size` bytes. No page is materialized until
    /// written.
    pub fn new(size: u64) -> Self {
        GuestMemory {
            size,
            pages: FnvHashMap::default(),
        }
    }

    /// Configured RAM size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of pages actually materialized.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn check(&self, addr: Hpa, len: u64) -> Result<(), OutOfRange> {
        if addr.0.checked_add(len).is_none_or(|end| end > self.size) {
            return Err(OutOfRange {
                addr,
                size: self.size,
            });
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `addr`. Unwritten memory reads
    /// as zero.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] if the access crosses the end of RAM.
    pub fn read(&self, addr: Hpa, buf: &mut [u8]) -> Result<(), OutOfRange> {
        self.check(addr, buf.len() as u64)?;
        let mut off = 0usize;
        while off < buf.len() {
            let cur = addr + off as u64;
            let in_page = (PAGE_SIZE - cur.offset()).min((buf.len() - off) as u64) as usize;
            match self.pages.get(&cur.page()) {
                Some(p) => {
                    let start = cur.offset() as usize;
                    buf[off..off + in_page].copy_from_slice(&p.0[start..start + in_page]);
                }
                None => buf[off..off + in_page].fill(0),
            }
            off += in_page;
        }
        Ok(())
    }

    /// Writes `buf` starting at `addr`, materializing pages as needed.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] if the access crosses the end of RAM.
    pub fn write(&mut self, addr: Hpa, buf: &[u8]) -> Result<(), OutOfRange> {
        self.check(addr, buf.len() as u64)?;
        let mut off = 0usize;
        while off < buf.len() {
            let cur = addr + off as u64;
            let in_page = (PAGE_SIZE - cur.offset()).min((buf.len() - off) as u64) as usize;
            let page = self.pages.entry(cur.page()).or_default();
            let start = cur.offset() as usize;
            page.0[start..start + in_page].copy_from_slice(&buf[off..off + in_page]);
            off += in_page;
        }
        Ok(())
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] if the access crosses the end of RAM.
    pub fn read_u16(&self, addr: Hpa) -> Result<u16, OutOfRange> {
        let mut b = [0u8; 2];
        self.read(addr, &mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] if the access crosses the end of RAM.
    pub fn read_u32(&self, addr: Hpa) -> Result<u32, OutOfRange> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] if the access crosses the end of RAM.
    pub fn read_u64(&self, addr: Hpa) -> Result<u64, OutOfRange> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] if the access crosses the end of RAM.
    pub fn write_u16(&mut self, addr: Hpa, v: u16) -> Result<(), OutOfRange> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] if the access crosses the end of RAM.
    pub fn write_u32(&mut self, addr: Hpa, v: u32) -> Result<(), OutOfRange> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] if the access crosses the end of RAM.
    pub fn write_u64(&mut self, addr: Hpa, v: u64) -> Result<(), OutOfRange> {
        self.write(addr, &v.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_filled_by_default() {
        let ram = GuestMemory::new(1 << 16);
        let mut buf = [0xffu8; 16];
        ram.read(Hpa(0x42), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(ram.resident_pages(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut ram = GuestMemory::new(1 << 16);
        ram.write(Hpa(100), b"hello world").unwrap();
        let mut buf = [0u8; 11];
        ram.read(Hpa(100), &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
        assert_eq!(ram.resident_pages(), 1);
    }

    #[test]
    fn cross_page_access() {
        let mut ram = GuestMemory::new(1 << 16);
        let addr = Hpa(PAGE_SIZE - 3);
        ram.write(addr, &[1, 2, 3, 4, 5, 6]).unwrap();
        let mut buf = [0u8; 6];
        ram.read(addr, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5, 6]);
        assert_eq!(ram.resident_pages(), 2);
    }

    #[test]
    fn typed_accessors_little_endian() {
        let mut ram = GuestMemory::new(1 << 16);
        ram.write_u32(Hpa(0), 0x0403_0201).unwrap();
        let mut b = [0u8; 4];
        ram.read(Hpa(0), &mut b).unwrap();
        assert_eq!(b, [1, 2, 3, 4]);
        assert_eq!(ram.read_u16(Hpa(0)).unwrap(), 0x0201);
        ram.write_u64(Hpa(8), u64::MAX).unwrap();
        assert_eq!(ram.read_u64(Hpa(8)).unwrap(), u64::MAX);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut ram = GuestMemory::new(100);
        assert!(ram.write(Hpa(98), &[0; 2]).is_ok());
        let err = ram.write(Hpa(99), &[0; 2]).unwrap_err();
        assert_eq!(err.addr, Hpa(99));
        assert!(err.to_string().contains("beyond RAM size"));
        assert!(ram.read_u64(Hpa(96)).is_err());
    }

    #[test]
    fn overflowing_access_rejected() {
        let ram = GuestMemory::new(u64::MAX);
        let mut b = [0u8; 8];
        assert!(ram.read(Hpa(u64::MAX - 2), &mut b).is_err());
    }

    #[test]
    fn overlapping_writes_last_wins() {
        let mut ram = GuestMemory::new(1 << 16);
        ram.write(Hpa(0), &[0xaa; 8]).unwrap();
        ram.write(Hpa(4), &[0xbb; 8]).unwrap();
        let mut b = [0u8; 12];
        ram.read(Hpa(0), &mut b).unwrap();
        assert_eq!(&b[..4], &[0xaa; 4]);
        assert_eq!(&b[4..], &[0xbb; 8]);
    }
}
