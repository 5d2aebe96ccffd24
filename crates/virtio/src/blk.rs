//! virtio-blk backed by a RAM disk.
//!
//! Requests follow the standard three-part descriptor chain — a 16-byte
//! header (type + sector), the data buffers, and a one-byte status the
//! device writes — and the data genuinely moves between the RAM-disk
//! store and guest buffers. The paper boots its VM images from tmpfs to
//! decouple the evaluation from storage technology; the RAM disk's
//! per-sector media time plays that role here.
//!
//! The exit profile comes from the cost model: half of
//! `blk_backend_service` per kick, all of it per completion, plus
//! `blk_write_extra_service` per write completion (journal/flush on the
//! backing image — the reason the paper's randwr latency exceeds randrd),
//! and `ramdisk_per_sector` of media time. Completions interrupt on
//! [`svt_arch::VECTOR_BLK`].

use svt_sim::FnvHashMap;

use svt_arch::VECTOR_BLK;
use svt_hv::{Completion, DeviceModel, DeviceOutcome};
use svt_mem::{Gpa, GuestMemory, Hpa};
use svt_sim::snapshot::ByteBlock;
use svt_sim::{snap_fields, CostModel, SimDuration, SimTime};

use crate::queue::Virtqueue;

/// Doorbell register offset.
pub const REG_BLK_NOTIFY: u64 = 0;

/// Request type: read.
pub const BLK_T_IN: u32 = 0;
/// Request type: write.
pub const BLK_T_OUT: u32 = 1;
/// Bytes per sector.
pub const SECTOR_SIZE: u64 = 512;

/// Privileged backend operations per kick and per completion.
const BACKEND_EXITS: u32 = 2;
/// Extra privileged backend operations per write completion.
const WRITE_EXTRA_EXITS: u32 = 6;

/// Device configuration: where the device sits.
#[derive(Debug, Clone)]
pub struct BlkConfig {
    /// MMIO window base.
    pub mmio_base: Gpa,
}

/// A parsed block request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct BlkRequest {
    head: u16,
    write: bool,
    sector: u64,
    data: Vec<(u64, u32)>,
    status_addr: u64,
}

snap_fields! { BlkRequest { head, write, sector, data, status_addr } }

/// The virtio-blk device model with its RAM-disk store.
#[derive(Debug)]
pub struct VirtioBlk {
    cfg: BlkConfig,
    /// Backend service per completion; a kick costs half.
    backend_service: SimDuration,
    /// Extra completion service per write.
    write_extra_service: SimDuration,
    /// RAM-disk media time per sector.
    media_per_sector: SimDuration,
    queue: Virtqueue,
    disk: FnvHashMap<u64, ByteBlock<{ SECTOR_SIZE as usize }>>,
    media_free_at: SimTime,
    next_token: u64,
    pending: FnvHashMap<u64, BlkRequest>,
    /// Requests completed (what the status register reads).
    completed: u64,
    /// Guest-memory faults the device absorbed instead of panicking:
    /// bad buffer addresses in a request, or an unreachable ring.
    io_errors: u64,
}

snap_fields! {
    VirtioBlk {
        #[shape = "virtio-blk MMIO base"] cfg.mmio_base, queue, disk, media_free_at, next_token,
        pending, completed, io_errors
    } skip { backend_service, write_extra_service, media_per_sector }
}

impl VirtioBlk {
    /// Creates the device over a queue the driver has initialized, with
    /// its backend and media times from `cost`.
    pub fn new(cfg: BlkConfig, cost: &CostModel, queue: Virtqueue) -> Self {
        VirtioBlk {
            cfg,
            backend_service: cost.blk_backend_service,
            write_extra_service: cost.blk_write_extra_service,
            media_per_sector: cost.ramdisk_per_sector,
            queue,
            disk: FnvHashMap::default(),
            media_free_at: SimTime::ZERO,
            next_token: 0,
            pending: FnvHashMap::default(),
            completed: 0,
            io_errors: 0,
        }
    }

    /// Pre-populates a sector of the RAM disk (image loading).
    pub fn load_sector(&mut self, sector: u64, data: &[u8]) {
        let mut s = ByteBlock::default();
        s.0[..data.len().min(SECTOR_SIZE as usize)]
            .copy_from_slice(&data[..data.len().min(SECTOR_SIZE as usize)]);
        self.disk.insert(sector, s);
    }

    /// Reads a sector of the RAM disk (test/inspection helper).
    pub fn sector(&self, sector: u64) -> [u8; SECTOR_SIZE as usize] {
        self.disk
            .get(&sector)
            .map(|b| *b.0)
            .unwrap_or([0u8; SECTOR_SIZE as usize])
    }

    fn parse(&self, mem: &GuestMemory, chain: &crate::queue::DescChain) -> Option<BlkRequest> {
        if chain.descs.len() < 3 {
            return None;
        }
        let hdr = chain.descs.first()?;
        let ty = mem.read_u32(Hpa(hdr.addr)).ok()?;
        let sector = mem.read_u64(Hpa(hdr.addr + 8)).ok()?;
        let status = chain.descs.last()?;
        let data = chain.descs[1..chain.descs.len() - 1]
            .iter()
            .map(|d| (d.addr, d.len))
            .collect();
        Some(BlkRequest {
            head: chain.head,
            write: ty == BLK_T_OUT,
            sector,
            data,
            status_addr: status.addr,
        })
    }

    /// Moves the request's data between guest buffers and the RAM disk.
    /// A bad buffer address is a *request* failure, not a simulator
    /// fault: the error propagates so `complete` can report status 1.
    fn execute(
        &mut self,
        req: &BlkRequest,
        mem: &mut GuestMemory,
    ) -> Result<u32, svt_mem::OutOfRange> {
        let mut moved = 0u32;
        let mut sector = req.sector;
        for &(addr, len) in &req.data {
            let mut off = 0u64;
            while off < len as u64 {
                let n = (len as u64 - off).min(SECTOR_SIZE) as usize;
                if req.write {
                    let mut buf = vec![0u8; n];
                    mem.read(Hpa(addr + off), &mut buf)?;
                    let entry = self.disk.entry(sector).or_default();
                    entry.0[..n].copy_from_slice(&buf);
                } else {
                    let data = self.sector(sector);
                    mem.write(Hpa(addr + off), &data[..n])?;
                }
                sector += 1;
                off += n as u64;
                moved += n as u32;
            }
        }
        Ok(moved)
    }
}

impl DeviceModel for VirtioBlk {
    fn ranges(&self) -> Vec<(Gpa, u64)> {
        vec![(self.cfg.mmio_base, 0x1000)]
    }

    fn mmio_write(
        &mut self,
        gpa: Gpa,
        _value: u64,
        mem: &mut GuestMemory,
        now: SimTime,
    ) -> DeviceOutcome {
        if gpa.0 - self.cfg.mmio_base.0 != REG_BLK_NOTIFY {
            return DeviceOutcome::default();
        }
        let mut out = DeviceOutcome {
            service: self.backend_service / 2,
            backend_l1_exits: BACKEND_EXITS,
            schedule: Vec::new(),
        };
        loop {
            let chain = match self.queue.device_pop(mem) {
                Ok(Some(c)) => c,
                Ok(None) => break,
                Err(_) => {
                    // The ring itself is unreachable: stop servicing the
                    // kick; the error counter flags the wedged queue.
                    self.io_errors += 1;
                    break;
                }
            };
            let Some(req) = self.parse(mem, &chain) else {
                // Malformed request: fail it immediately with status 1.
                if self.queue.device_push_used(mem, chain.head, 0).is_err() {
                    self.io_errors += 1;
                }
                continue;
            };
            let sectors = req
                .data
                .iter()
                .map(|&(_, l)| (l as u64).div_ceil(SECTOR_SIZE))
                .sum::<u64>()
                .max(1);
            let start = now.max(self.media_free_at);
            let done = start + self.media_per_sector * sectors;
            self.media_free_at = done;
            self.next_token += 1;
            self.pending.insert(self.next_token, req);
            out.schedule.push((done, self.next_token));
        }
        out
    }

    fn mmio_read(
        &mut self,
        _gpa: Gpa,
        _mem: &mut GuestMemory,
        _now: SimTime,
    ) -> (u64, DeviceOutcome) {
        (self.completed, DeviceOutcome::default())
    }

    fn complete(&mut self, token: u64, mem: &mut GuestMemory, _now: SimTime) -> Option<Completion> {
        let req = self.pending.remove(&token)?;
        // A bad buffer address fails the request (virtio status 1), it
        // does not crash the device model.
        let (moved, status) = match self.execute(&req, mem) {
            Ok(m) => (m, 0u8),
            Err(_) => {
                self.io_errors += 1;
                (0, 1u8)
            }
        };
        if mem.write(Hpa(req.status_addr), &[status]).is_err() {
            self.io_errors += 1;
        }
        let written = if req.write { 1 } else { moved + 1 };
        if self.queue.device_push_used(mem, req.head, written).is_err() {
            self.io_errors += 1;
        }
        self.completed += 1;
        let mut service = self.backend_service;
        let mut exits = BACKEND_EXITS;
        if req.write {
            service += self.write_extra_service;
            exits += WRITE_EXTRA_EXITS;
        }
        Some(Completion {
            vector: VECTOR_BLK,
            service,
            backend_l1_exits: exits,
            schedule: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MMIO: Gpa = Gpa(0x4100_0000);
    const HDR: u64 = 0x8000;
    const DATA: u64 = 0x9000;
    const STATUS: u64 = 0xa000;

    fn setup() -> (GuestMemory, VirtioBlk, Virtqueue) {
        let mut mem = GuestMemory::new(1 << 20);
        let mut driver_q = Virtqueue::new(Hpa(0x1000), 16);
        driver_q.init(&mut mem).unwrap();
        let dev_q = Virtqueue::new(Hpa(0x1000), 16);
        let cfg = BlkConfig { mmio_base: MMIO };
        let blk = VirtioBlk::new(cfg, &CostModel::default(), dev_q);
        (mem, blk, driver_q)
    }

    fn submit(mem: &mut GuestMemory, q: &mut Virtqueue, write: bool, sector: u64, len: u32) -> u16 {
        mem.write_u32(Hpa(HDR), if write { BLK_T_OUT } else { BLK_T_IN })
            .unwrap();
        mem.write_u64(Hpa(HDR + 8), sector).unwrap();
        q.driver_add(
            mem,
            &[(HDR, 16, false), (DATA, len, !write), (STATUS, 1, true)],
        )
        .unwrap()
    }

    #[test]
    fn write_then_read_round_trips_data() {
        let (mut mem, mut blk, mut q) = setup();
        mem.write(Hpa(DATA), b"svt block payload").unwrap();
        let head_w = submit(&mut mem, &mut q, true, 7, 512);
        let out = blk.mmio_write(MMIO, 1, &mut mem, SimTime::ZERO);
        assert_eq!(out.schedule.len(), 1);
        let (at, tok) = out.schedule[0];
        blk.complete(tok, &mut mem, at).unwrap();
        assert_eq!(q.driver_take_used(&mem).unwrap(), Some((head_w, 1)));
        assert_eq!(&blk.sector(7)[..17], b"svt block payload");

        // Read it back into a different buffer.
        mem.write(Hpa(DATA), &[0u8; 512]).unwrap();
        let head_r = submit(&mut mem, &mut q, false, 7, 512);
        let out = blk.mmio_write(MMIO, 1, &mut mem, at);
        let (at2, tok2) = out.schedule[0];
        let comp = blk.complete(tok2, &mut mem, at2).unwrap();
        assert_eq!(comp.vector, VECTOR_BLK);
        assert_eq!(q.driver_take_used(&mem).unwrap(), Some((head_r, 513)));
        let mut buf = [0u8; 17];
        mem.read(Hpa(DATA), &mut buf).unwrap();
        assert_eq!(&buf, b"svt block payload");
        // Status byte written as OK.
        let mut st = [9u8];
        mem.read(Hpa(STATUS), &mut st).unwrap();
        assert_eq!(st[0], 0);
    }

    #[test]
    fn unwritten_sectors_read_zero() {
        let (mut mem, mut blk, mut q) = setup();
        mem.write(Hpa(DATA), &[0xff; 512]).unwrap();
        submit(&mut mem, &mut q, false, 999, 512);
        let out = blk.mmio_write(MMIO, 1, &mut mem, SimTime::ZERO);
        let (at, tok) = out.schedule[0];
        blk.complete(tok, &mut mem, at).unwrap();
        let mut buf = [1u8; 512];
        mem.read(Hpa(DATA), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 512]);
    }

    #[test]
    fn media_time_scales_with_sectors() {
        let (mut mem, mut blk, mut q) = setup();
        submit(&mut mem, &mut q, true, 0, 4096); // 8 sectors
        let out = blk.mmio_write(MMIO, 1, &mut mem, SimTime::ZERO);
        let (at, _) = out.schedule[0];
        let per_sector = CostModel::default().ramdisk_per_sector;
        assert_eq!(at, SimTime::ZERO + per_sector * 8);
    }

    #[test]
    fn queue_depth_serializes_on_media() {
        let (mut mem, mut blk, mut q) = setup();
        submit(&mut mem, &mut q, true, 0, 512);
        let head2 = {
            mem.write_u32(Hpa(HDR + 0x100), BLK_T_OUT).unwrap();
            mem.write_u64(Hpa(HDR + 0x108), 1).unwrap();
            q.driver_add(
                &mut mem,
                &[
                    (HDR + 0x100, 16, false),
                    (DATA + 0x400, 512, false),
                    (STATUS + 1, 1, true),
                ],
            )
            .unwrap()
        };
        let out = blk.mmio_write(MMIO, 1, &mut mem, SimTime::ZERO);
        assert_eq!(out.schedule.len(), 2);
        let gap = out.schedule[1].0.since(out.schedule[0].0);
        assert_eq!(gap, CostModel::default().ramdisk_per_sector);
        let _ = head2;
    }

    #[test]
    fn malformed_chain_failed_immediately() {
        let (mut mem, mut blk, mut q) = setup();
        // A single-descriptor chain is not a valid block request.
        let head = q.driver_add(&mut mem, &[(HDR, 16, false)]).unwrap();
        let out = blk.mmio_write(MMIO, 1, &mut mem, SimTime::ZERO);
        assert!(out.schedule.is_empty());
        assert_eq!(q.driver_take_used(&mem).unwrap(), Some((head, 0)));
    }

    #[test]
    fn data_buffer_outside_memory_fails_the_request_with_status_1() {
        let (mut mem, mut blk, mut q) = setup();
        mem.write_u32(Hpa(HDR), BLK_T_IN).unwrap();
        mem.write_u64(Hpa(HDR + 8), 0).unwrap();
        mem.write(Hpa(STATUS), &[9]).unwrap();
        // The data buffer lies past the end of the 1 MiB guest memory.
        let head = q
            .driver_add(
                &mut mem,
                &[(HDR, 16, false), (0x20_0000, 512, true), (STATUS, 1, true)],
            )
            .unwrap();
        let out = blk.mmio_write(MMIO, 1, &mut mem, SimTime::ZERO);
        assert_eq!(out.schedule.len(), 1);
        let (at, tok) = out.schedule[0];
        let comp = blk.complete(tok, &mut mem, at).unwrap();
        assert_eq!(comp.vector, VECTOR_BLK);
        // Nothing moved: the used entry carries only the status byte.
        assert_eq!(q.driver_take_used(&mem).unwrap(), Some((head, 1)));
        let mut st = [0u8];
        mem.read(Hpa(STATUS), &mut st).unwrap();
        assert_eq!(st[0], 1);
        assert_eq!(blk.io_errors, 1);
    }

    #[test]
    fn load_sector_prepopulates_image() {
        let (_, mut blk, _) = setup();
        blk.load_sector(3, b"image");
        assert_eq!(&blk.sector(3)[..5], b"image");
        assert_eq!(blk.sector(4), [0u8; 512]);
    }
}
