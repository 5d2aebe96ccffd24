//! Disk benchmarks: ioping-style latency and fio-style bandwidth.
//!
//! Both issue real virtio-blk requests (header/data/status descriptor
//! chains with data actually moving through the RAM disk). The latency
//! benchmark is synchronous (queue depth 1, 512 B accesses, as ioping);
//! the bandwidth benchmark keeps a queue depth of 4 KB requests in
//! flight, as the paper's fio runs.

use svt_sim::FnvHashMap;

use svt_arch::{MSR_X2APIC_EOI, VECTOR_BLK, VECTOR_TIMER};
use svt_hv::{GuestCtx, GuestOp, GuestProgram};
use svt_mem::Hpa;
use svt_sim::{DetRng, SimDuration, SimTime};
use svt_stats::LatencyRecorder;
use svt_virtio::{Virtqueue, BLK_T_IN, BLK_T_OUT};

use crate::harness::QUEUE_SIZE;
use crate::layout;

/// Benchmark shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskMode {
    /// ioping: one outstanding request, per-request latency.
    Latency,
    /// fio: `qd` outstanding requests, aggregate bandwidth.
    Bandwidth {
        /// Queue depth.
        qd: u32,
    },
}

/// The disk benchmark program.
#[derive(Debug)]
pub struct DiskBench {
    mode: DiskMode,
    write: bool,
    req_bytes: u32,
    total_ops: u64,
    blk_layer: SimDuration,
    queue: Virtqueue,
    rng: DetRng,
    slots: Vec<u64>,
    inflight: FnvHashMap<u16, SimTime>,
    slot_of: FnvHashMap<u16, u64>,
    submitted: u64,
    completed: u64,
    completions_pending: u32,
    eoi_owed: u32,
    pending: Vec<GuestOp>,
    latency: LatencyRecorder,
    started: Option<SimTime>,
    finished: Option<SimTime>,
    init_done: bool,
}

impl DiskBench {
    /// Random accesses of `req_bytes` each; `write` selects the direction.
    pub fn new(
        cost: &svt_sim::CostModel,
        mode: DiskMode,
        write: bool,
        req_bytes: u32,
        total_ops: u64,
    ) -> Self {
        let depth = match mode {
            DiskMode::Latency => 1,
            DiskMode::Bandwidth { qd } => qd,
        };
        assert!((1..=8).contains(&depth), "queue depth fits the slot pool");
        DiskBench {
            mode,
            write,
            req_bytes,
            total_ops,
            blk_layer: cost.blk_layer_per_req,
            queue: Virtqueue::new(layout::lane(0).blk_queue, QUEUE_SIZE),
            rng: DetRng::seed(0x5157),
            slots: (0..8)
                .map(|i| layout::lane(0).blk_bufs.0 + i * layout::BUF_SIZE * 4)
                .collect(),
            inflight: FnvHashMap::default(),
            slot_of: FnvHashMap::default(),
            submitted: 0,
            completed: 0,
            completions_pending: 0,
            eoi_owed: 0,
            pending: Vec::new(),
            latency: LatencyRecorder::new(),
            started: None,
            finished: None,
            init_done: false,
        }
    }

    /// Per-request latencies (latency mode).
    pub fn latency(&self) -> &LatencyRecorder {
        &self.latency
    }

    /// Aggregate bandwidth in KB/s over the active window.
    ///
    /// # Panics
    ///
    /// Panics before the run finishes.
    pub fn bandwidth_kb_s(&self) -> f64 {
        let start = self.started.expect("run not started");
        let end = self.finished.expect("run not finished");
        let kb = self.completed as f64 * self.req_bytes as f64 / 1000.0;
        kb / end.since(start).as_secs()
    }

    /// Completed operations.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    fn depth(&self) -> u32 {
        match self.mode {
            DiskMode::Latency => 1,
            DiskMode::Bandwidth { qd } => qd,
        }
    }

    fn submit_one(&mut self, ctx: &mut GuestCtx<'_>) -> bool {
        if self.submitted >= self.total_ops {
            return false;
        }
        let Some(slot) = self.slots.pop() else {
            return false;
        };
        let hdr = slot;
        let status = slot + 0x20;
        let data = slot + 0x100;
        let sector = self.rng.below(1 << 20);
        ctx.mem
            .write_u32(Hpa(hdr), if self.write { BLK_T_OUT } else { BLK_T_IN })
            .expect("hdr in RAM");
        ctx.mem.write_u64(Hpa(hdr + 8), sector).expect("hdr in RAM");
        if self.write {
            ctx.mem
                .write_u64(Hpa(data), 0xd15c_0000 + self.submitted)
                .expect("data in RAM");
        }
        let head = self
            .queue
            .driver_add(
                ctx.mem,
                &[
                    (hdr, 16, false),
                    (data, self.req_bytes, !self.write),
                    (status, 1, true),
                ],
            )
            .expect("blk ring in RAM");
        self.inflight.insert(head, ctx.now);
        self.slot_of.insert(head, slot);
        self.submitted += 1;
        true
    }
}

impl GuestProgram for DiskBench {
    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> GuestOp {
        if let Some(op) = self.pending.pop() {
            return op;
        }
        if self.eoi_owed > 0 {
            self.eoi_owed -= 1;
            return GuestOp::MsrWrite {
                msr: MSR_X2APIC_EOI,
                value: 0,
            };
        }
        if !self.init_done {
            self.init_done = true;
            self.queue.init(ctx.mem).expect("blk ring in RAM");
            self.started = Some(ctx.now);
            let depth = self.depth();
            let mut n = 0;
            for _ in 0..depth {
                if self.submit_one(ctx) {
                    n += 1;
                }
            }
            if n > 0 {
                self.pending.push(GuestOp::MmioWrite {
                    gpa: layout::lane(0).blk_mmio,
                    value: 1,
                });
                return GuestOp::Compute(self.blk_layer * n);
            }
        }
        if self.completed >= self.total_ops {
            if self.finished.is_none() {
                self.finished = Some(ctx.now);
            }
            return GuestOp::Done;
        }
        if self.completions_pending > 0 {
            let n = self.completions_pending;
            self.completions_pending = 0;
            let mut posted = 0;
            for _ in 0..n {
                if self.submit_one(ctx) {
                    posted += 1;
                }
            }
            if posted > 0 {
                self.pending.push(GuestOp::MmioWrite {
                    gpa: layout::lane(0).blk_mmio,
                    value: 1,
                });
                return GuestOp::Compute(self.blk_layer * posted);
            }
        }
        GuestOp::Hlt
    }

    fn interrupt(&mut self, vector: u8, ctx: &mut GuestCtx<'_>) {
        self.eoi_owed += 1;
        if vector == VECTOR_BLK {
            while let Some((head, _)) = self.queue.driver_take_used(ctx.mem).expect("blk ring") {
                if let Some(t0) = self.inflight.remove(&head) {
                    self.latency.record(ctx.now.since(t0).as_ns());
                    self.completed += 1;
                    self.completions_pending += 1;
                }
                if let Some(slot) = self.slot_of.remove(&head) {
                    self.slots.push(slot);
                }
            }
        } else if vector == VECTOR_TIMER {
            // Stray timer.
        }
    }

    fn name(&self) -> &'static str {
        "disk-bench"
    }
}
