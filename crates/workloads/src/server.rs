//! The in-guest request/response server.
//!
//! One generic [`RrServer`] program plays netserver, memcached and the
//! TPC-C backend: it drains requests from the RX virtqueue, runs a
//! pluggable [`ServiceModel`] (which may mutate real application state
//! and demand a write-ahead-log write to virtio-blk before replying),
//! and posts replies on the TX virtqueue. Every architectural side
//! effect of a real server is reproduced: EOIs after each interrupt,
//! doorbell kicks, RX-buffer replenishing, TSC-deadline rearming and
//! `hlt` idling — these are exactly the trap sources the paper's Fig. 7/8/9
//! measurements are made of.

use std::collections::VecDeque;

use svt_arch::{MSR_TSC_DEADLINE, MSR_X2APIC_EOI, VECTOR_BLK, VECTOR_TIMER, VECTOR_VIRTIO};
use svt_hv::{GuestCtx, GuestOp, GuestProgram};
use svt_mem::{Gpa, GuestMemory, Hpa};
use svt_sim::{FnvHashMap, SimDuration};
use svt_virtio::{Virtqueue, BLK_T_OUT};

use crate::harness::QUEUE_SIZE;
use crate::layout;
use crate::loadgen::regs;

/// RX buffers the server keeps posted.
const RX_DEPTH: u64 = 16;

/// A request parsed from an RX buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedRequest {
    /// Client departure timestamp (echoed in the reply).
    pub send_ps: u64,
    /// Key identifier.
    pub key: u64,
    /// Operation code.
    pub op: u32,
    /// Value size.
    pub vsize: u32,
}

/// What serving one request requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeOutput {
    /// Application processing time.
    pub compute: SimDuration,
    /// Reply payload size.
    pub reply_len: u32,
    /// Bytes to persist to the WAL before replying (0 = none).
    pub wal_bytes: u32,
    /// Synchronous data reads (buffer-cache misses) before replying.
    pub disk_reads: u32,
}

/// Application logic behind the server.
pub trait ServiceModel: std::fmt::Debug {
    /// Serves one request, possibly mutating real application state.
    fn serve(&mut self, req: &ParsedRequest, mem: &mut GuestMemory) -> ServeOutput;
}

/// netserver's echo service (netperf TCP_RR).
#[derive(Debug, Clone)]
pub struct EchoService {
    /// Per-request application work.
    pub compute: SimDuration,
    /// Reply size in bytes.
    pub reply_len: u32,
}

impl ServiceModel for EchoService {
    fn serve(&mut self, _req: &ParsedRequest, _mem: &mut GuestMemory) -> ServeOutput {
        ServeOutput {
            compute: self.compute,
            reply_len: self.reply_len,
            ..ServeOutput::default()
        }
    }
}

/// Server behaviour knobs: the architectural-event profile. Every
/// interrupt is EOI'd, 16 RX buffers stay posted, and the NIC sits at the
/// lane's [`layout::LaneLayout::net_mmio`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Guest network-stack time per received and per sent packet (the
    /// cost model's `netstack_per_packet`).
    netstack: SimDuration,
    /// Rearm the TSC-deadline timer every n requests (0 = never) — the
    /// TCP retransmit-timer traffic behind the paper's MSR_WRITE profile.
    pub timer_rearm_every: u64,
    /// Kick the RX-notify doorbell every n requests (0 = never).
    pub replenish_every: u64,
    /// Stop after serving this many requests.
    pub expected: u64,
    /// Block-device MMIO base, when the service writes a WAL.
    pub blk_mmio: Option<Gpa>,
    /// Which vCPU's workload lane ([`layout::lane`]) the server's queues,
    /// buffer pools and NIC MMIO window live in. Lane 0 is the historical
    /// layout.
    pub lane: usize,
}

impl ServerConfig {
    /// netperf-like defaults against the load generator of vCPU `lane`'s
    /// private workload lane: a timer rearm and an RX refill notify per
    /// request, no block device.
    pub fn rr_on_lane(cost: &svt_sim::CostModel, expected: u64, lane: usize) -> Self {
        ServerConfig {
            netstack: cost.netstack_per_packet,
            timer_rearm_every: 1,
            replenish_every: 1,
            expected,
            blk_mmio: None,
            lane,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Init,
    Ready,
    AwaitDisk,
    Finished,
}

#[derive(Debug)]
struct PreparedReply {
    send_ps: u64,
    reply_len: u32,
}

/// The request/response server guest program.
#[derive(Debug)]
pub struct RrServer {
    cfg: ServerConfig,
    lane: layout::LaneLayout,
    service: Box<dyn ServiceModel>,
    tx: Virtqueue,
    rx: Virtqueue,
    blk: Option<Virtqueue>,
    ops: VecDeque<GuestOp>,
    phase: Phase,
    rx_slots: FnvHashMap<u16, u64>,
    tx_free: Vec<u64>,
    tx_inflight: FnvHashMap<u16, u64>,
    queue: VecDeque<ParsedRequest>,
    eoi_owed: u32,
    served: u64,
    since_replenish: u64,
    since_timer: u64,
    wal_reply: Option<PreparedReply>,
    wal_done: bool,
    reads_remaining: u32,
    wal_pending: u32,
    pending_repost: Vec<u64>,
    req_seq: u64,
    cur_req: Option<u64>,
    end_pending: VecDeque<u64>,
}

impl RrServer {
    /// Creates the server. Queue geometry comes from the [`layout`] lane
    /// named by `cfg.lane` (lane 0 is the historical single-vCPU layout).
    pub fn new(cfg: ServerConfig, service: Box<dyn ServiceModel>) -> Self {
        let lane = layout::lane(cfg.lane);
        let blk = cfg
            .blk_mmio
            .map(|_| Virtqueue::new(lane.blk_queue, QUEUE_SIZE));
        RrServer {
            cfg,
            lane,
            service,
            tx: Virtqueue::new(lane.tx_queue, QUEUE_SIZE),
            rx: Virtqueue::new(lane.rx_queue, QUEUE_SIZE),
            blk,
            ops: VecDeque::new(),
            phase: Phase::Init,
            rx_slots: FnvHashMap::default(),
            tx_free: (0..16)
                .map(|i| lane.tx_bufs.0 + i * layout::BUF_SIZE)
                .collect(),
            tx_inflight: FnvHashMap::default(),
            queue: VecDeque::new(),
            eoi_owed: 0,
            served: 0,
            since_replenish: 0,
            since_timer: 0,
            wal_reply: None,
            wal_done: false,
            reads_remaining: 0,
            wal_pending: 0,
            pending_repost: Vec::new(),
            req_seq: 0,
            cur_req: None,
            end_pending: VecDeque::new(),
        }
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    fn post_rx(&mut self, mem: &mut GuestMemory, addr: u64) {
        let head = self
            .rx
            .driver_add(mem, &[(addr, layout::BUF_SIZE as u32, true)])
            .expect("rx ring in RAM");
        self.rx_slots.insert(head, addr);
    }

    fn emit_reply(&mut self, mem: &mut GuestMemory, reply: PreparedReply) {
        if self.tx_free.is_empty() {
            // Opportunistic reclaim on the xmit path, as real virtio-net
            // drivers do: consume completed TX entries without waiting for
            // an interrupt.
            while let Some((head, _)) = self.tx.driver_take_used(mem).expect("tx ring in RAM") {
                if let Some(b) = self.tx_inflight.remove(&head) {
                    self.tx_free.push(b);
                }
            }
        }
        let buf = self.tx_free.pop().expect("tx buffer pool exhausted");
        mem.write_u64(Hpa(buf), reply.send_ps)
            .expect("tx buf in RAM");
        let head = self
            .tx
            .driver_add(mem, &[(buf, reply.reply_len.max(8), false)])
            .expect("tx ring in RAM");
        self.tx_inflight.insert(head, buf);
        // The reply is on the wire once the queued TX ops drain; the
        // request's causal anchor closes then (see `step`).
        if let Some(k) = self.cur_req.take() {
            self.end_pending.push_back(k);
        }
        self.served += 1;
        self.since_replenish += 1;
        self.since_timer += 1;
        // RX refill notification and the TCP retransmit timer are armed
        // *before* the reply leaves (the refill happens in the NAPI poll,
        // the timer when the segment is queued) — they sit on the
        // request's critical path.
        if self.cfg.replenish_every > 0 && self.since_replenish >= self.cfg.replenish_every {
            self.since_replenish = 0;
            self.ops.push_back(GuestOp::MmioWrite {
                gpa: self.lane.net_mmio + regs::RX_NOTIFY,
                value: 1,
            });
        }
        if self.cfg.timer_rearm_every > 0 && self.since_timer >= self.cfg.timer_rearm_every {
            self.since_timer = 0;
            // Always pushed out; effectively never fires under traffic.
            self.ops.push_back(GuestOp::MsrWrite {
                msr: MSR_TSC_DEADLINE,
                value: u64::MAX / 2,
            });
        }
        self.ops.push_back(GuestOp::Compute(self.cfg.netstack));
        self.ops.push_back(GuestOp::MmioWrite {
            gpa: self.lane.net_mmio + regs::TX_NOTIFY,
            value: 1,
        });
    }

    fn begin_request(&mut self, mem: &mut GuestMemory, req: ParsedRequest) {
        self.ops.push_back(GuestOp::Compute(self.cfg.netstack));
        let out = self.service.serve(&req, mem);
        if !out.compute.is_zero() {
            self.ops.push_back(GuestOp::Compute(out.compute));
        }
        let reply = PreparedReply {
            send_ps: req.send_ps,
            reply_len: out.reply_len,
        };
        if out.wal_bytes > 0 || out.disk_reads > 0 {
            self.reads_remaining = out.disk_reads;
            self.wal_pending = out.wal_bytes;
            self.wal_reply = Some(reply);
            self.wal_done = false;
            self.phase = Phase::AwaitDisk;
            self.next_disk_op(mem);
        } else {
            self.emit_reply(mem, reply);
        }
    }

    /// Issues the next synchronous disk operation of the current request:
    /// first the buffer-miss reads, then the WAL write.
    fn next_disk_op(&mut self, mem: &mut GuestMemory) {
        let blk_mmio = self.cfg.blk_mmio.expect("disk I/O requires a block device");
        let blk = self.blk.as_mut().expect("blk queue configured");
        let hdr = self.lane.blk_bufs.0;
        let data = self.lane.blk_bufs.0 + 0x1000;
        let status = self.lane.blk_bufs.0 + 0x80;
        let (ty, len) = if self.reads_remaining > 0 {
            self.reads_remaining -= 1;
            (svt_virtio::BLK_T_IN, 8192)
        } else {
            let len = self.wal_pending;
            self.wal_pending = 0;
            (BLK_T_OUT, len)
        };
        mem.write_u32(Hpa(hdr), ty).expect("blk buf in RAM");
        mem.write_u64(Hpa(hdr + 8), (self.served * 29) % (1 << 20))
            .expect("blk buf in RAM");
        blk.driver_add(
            mem,
            &[
                (hdr, 16, false),
                (data, len.max(1), ty == svt_virtio::BLK_T_IN),
                (status, 1, true),
            ],
        )
        .expect("blk ring in RAM");
        self.ops.push_back(GuestOp::MmioWrite {
            gpa: blk_mmio,
            value: 1,
        });
    }

    fn parse_rx(&mut self, mem: &GuestMemory, head: u16) -> Option<ParsedRequest> {
        let addr = self.rx_slots.remove(&head)?;
        let req = ParsedRequest {
            send_ps: mem.read_u64(Hpa(addr)).ok()?,
            key: mem.read_u64(Hpa(addr + 8)).ok()?,
            op: mem.read_u32(Hpa(addr + 16)).ok()?,
            vsize: mem.read_u32(Hpa(addr + 20)).ok()?,
        };
        // Buffer is immediately reusable; real drivers re-post in batches.
        self.pending_repost.push(addr);
        Some(req)
    }

    fn drain_net_irq(&mut self, mem: &mut GuestMemory) {
        // Reclaim transmitted buffers.
        while let Some((head, _)) = self.tx.driver_take_used(mem).expect("tx ring in RAM") {
            if let Some(buf) = self.tx_inflight.remove(&head) {
                self.tx_free.push(buf);
            }
        }
        // Collect delivered requests.
        while let Some((head, _)) = self.rx.driver_take_used(mem).expect("rx ring in RAM") {
            if let Some(req) = self.parse_rx(mem, head) {
                self.queue.push_back(req);
            }
        }
        // Re-post consumed buffers.
        let reposts = std::mem::take(&mut self.pending_repost);
        for addr in reposts {
            self.post_rx(mem, addr);
        }
    }
}

impl GuestProgram for RrServer {
    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> GuestOp {
        if self.ops.is_empty() {
            // All ops queued on behalf of replied-to requests (netstack
            // compute, doorbell kicks and their traps) have executed:
            // close those requests' causal anchors.
            while let Some(k) = self.end_pending.pop_front() {
                ctx.obs.causal.request_end(k, ctx.now);
            }
        }
        if let Some(op) = self.ops.pop_front() {
            return op;
        }
        if self.eoi_owed > 0 {
            self.eoi_owed -= 1;
            return GuestOp::MsrWrite {
                msr: MSR_X2APIC_EOI,
                value: 0,
            };
        }
        match self.phase {
            Phase::Init => {
                self.rx.init(ctx.mem).expect("rx ring in RAM");
                self.tx.init(ctx.mem).expect("tx ring in RAM");
                if let Some(blk) = self.blk.as_mut() {
                    blk.init(ctx.mem).expect("blk ring in RAM");
                }
                for i in 0..RX_DEPTH {
                    let addr = self.lane.rx_bufs.0 + i * layout::BUF_SIZE;
                    self.post_rx(ctx.mem, addr);
                }
                self.phase = Phase::Ready;
                // No Hlt is queued here: whether to idle is decided fresh
                // on the next step, after any already-delivered interrupt
                // has been drained (the classic sti;hlt race).
                GuestOp::MmioWrite {
                    gpa: self.lane.net_mmio + regs::START,
                    value: 1,
                }
            }
            Phase::AwaitDisk => {
                if self.wal_done {
                    self.wal_done = false;
                    if self.reads_remaining > 0 || self.wal_pending > 0 {
                        self.next_disk_op(ctx.mem);
                        self.step(ctx)
                    } else {
                        self.phase = Phase::Ready;
                        let reply = self.wal_reply.take().expect("reply prepared");
                        self.emit_reply(ctx.mem, reply);
                        self.step(ctx)
                    }
                } else {
                    GuestOp::Hlt
                }
            }
            Phase::Ready => {
                if self.served >= self.cfg.expected {
                    self.phase = Phase::Finished;
                    return GuestOp::Done;
                }
                if let Some(req) = self.queue.pop_front() {
                    let key = ((self.cfg.lane as u64) << 32) | self.req_seq;
                    self.req_seq += 1;
                    ctx.obs.causal.request_start(key, ctx.now);
                    self.cur_req = Some(key);
                    self.begin_request(ctx.mem, req);
                    self.step(ctx)
                } else {
                    GuestOp::Hlt
                }
            }
            Phase::Finished => GuestOp::Done,
        }
    }

    fn interrupt(&mut self, vector: u8, ctx: &mut GuestCtx<'_>) {
        self.eoi_owed += 1;
        match vector {
            VECTOR_VIRTIO => self.drain_net_irq(ctx.mem),
            VECTOR_BLK => {
                if let Some(blk) = self.blk.as_mut() {
                    while blk
                        .driver_take_used(ctx.mem)
                        .expect("blk ring in RAM")
                        .is_some()
                    {
                        self.wal_done = true;
                    }
                }
            }
            VECTOR_TIMER => {}
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "rr-server"
    }
}
