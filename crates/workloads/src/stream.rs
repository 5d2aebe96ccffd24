//! netperf TCP_STREAM: a windowed bulk sender.
//!
//! The guest keeps a window of 16 KB packets posted on the TX virtqueue
//! of a [`svt_virtio::VirtioNet`] in sink mode; coalesced ACK interrupts
//! return credits. Throughput is whatever survives the virtualization
//! overheads and the 10 GbE line — near line rate in the baseline, which
//! is why the paper's Fig. 7 network-bandwidth speedup saturates at
//! 1.00×/1.12×.

use svt_arch::{MSR_TSC_DEADLINE, MSR_X2APIC_EOI, VECTOR_TIMER, VECTOR_VIRTIO};
use svt_hv::{GuestCtx, GuestOp, GuestProgram};
use svt_sim::{FnvHashMap, SimDuration, SimTime};
use svt_virtio::Virtqueue;

use crate::harness::QUEUE_SIZE;
use crate::layout;

/// The bulk-transfer sender program.
#[derive(Debug)]
pub struct StreamSender {
    packet_len: u32,
    window: u32,
    total_packets: u64,
    netstack_tx: SimDuration,
    timer_rearm_every: u64,
    tx: Virtqueue,
    tx_free: Vec<u64>,
    tx_inflight: FnvHashMap<u16, u64>,
    sent: u64,
    acked: u64,
    credits: u32,
    eoi_owed: u32,
    since_timer: u64,
    pending: Vec<GuestOp>,
    started: Option<SimTime>,
    finished: Option<SimTime>,
    init_done: bool,
}

impl StreamSender {
    /// Sends `total_packets` packets of `packet_len` bytes with the given
    /// window.
    pub fn new(
        cost: &svt_sim::CostModel,
        packet_len: u32,
        window: u32,
        total_packets: u64,
    ) -> Self {
        assert!((1..=16).contains(&window), "window fits the buffer pool");
        StreamSender {
            packet_len,
            window,
            total_packets,
            netstack_tx: cost.netstack_per_packet,
            timer_rearm_every: 16,
            tx: Virtqueue::new(layout::lane(0).tx_queue, QUEUE_SIZE),
            tx_free: (0..16)
                .map(|i| layout::lane(0).tx_bufs.0 + i * layout::BUF_SIZE * 4)
                .collect(),
            tx_inflight: FnvHashMap::default(),
            sent: 0,
            acked: 0,
            credits: 0,
            eoi_owed: 0,
            since_timer: 0,
            pending: Vec::new(),
            started: None,
            finished: None,
            init_done: false,
        }
    }

    /// Achieved goodput in Mbps over the active window.
    ///
    /// # Panics
    ///
    /// Panics before the run finishes.
    pub fn throughput_mbps(&self) -> f64 {
        let start = self.started.expect("run not started");
        let end = self.finished.expect("run not finished");
        let bits = self.acked as f64 * self.packet_len as f64 * 8.0;
        bits / end.since(start).as_secs() / 1e6
    }

    /// Packets acknowledged so far.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    fn post_packets(&mut self, ctx: &mut GuestCtx<'_>, n: u32) -> bool {
        let mut posted = false;
        for _ in 0..n {
            if self.sent >= self.total_packets {
                break;
            }
            let Some(buf) = self.tx_free.pop() else {
                break;
            };
            let head = self
                .tx
                .driver_add(ctx.mem, &[(buf, self.packet_len, false)])
                .expect("tx ring in RAM");
            self.tx_inflight.insert(head, buf);
            self.sent += 1;
            self.since_timer += 1;
            posted = true;
        }
        posted
    }
}

impl GuestProgram for StreamSender {
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
            self.tx.init(ctx.mem).expect("tx ring in RAM");
            self.started = Some(ctx.now);
            self.post_packets(ctx, self.window);
            self.pending.push(GuestOp::MmioWrite {
                gpa: layout::lane(0).net_mmio + svt_virtio::REG_TX_NOTIFY,
                value: 1,
            });
            return GuestOp::Compute(self.netstack_tx * self.window as u64);
        }
        if self.acked >= self.total_packets {
            if self.finished.is_none() {
                self.finished = Some(ctx.now);
            }
            return GuestOp::Done;
        }
        if self.credits > 0 {
            let n = self.credits;
            self.credits = 0;
            if self.post_packets(ctx, n) {
                self.pending.push(GuestOp::MmioWrite {
                    gpa: layout::lane(0).net_mmio + svt_virtio::REG_TX_NOTIFY,
                    value: 1,
                });
                if self.timer_rearm_every > 0 && self.since_timer >= self.timer_rearm_every {
                    self.since_timer = 0;
                    self.pending.push(GuestOp::MsrWrite {
                        msr: MSR_TSC_DEADLINE,
                        value: u64::MAX / 2,
                    });
                }
                return GuestOp::Compute(self.netstack_tx * n as u64);
            }
        }
        GuestOp::Hlt
    }

    fn interrupt(&mut self, vector: u8, ctx: &mut GuestCtx<'_>) {
        self.eoi_owed += 1;
        if vector == VECTOR_VIRTIO {
            while let Some((head, _)) = self.tx.driver_take_used(ctx.mem).expect("tx ring") {
                if let Some(buf) = self.tx_inflight.remove(&head) {
                    self.tx_free.push(buf);
                    self.acked += 1;
                    self.credits += 1;
                }
            }
        } else if vector == VECTOR_TIMER {
            // Stray retransmit timer; nothing to do.
        }
    }

    fn name(&self) -> &'static str {
        "stream-sender"
    }
}
