//! virtio-net with a 10 GbE wire model.
//!
//! The device pairs a TX and an RX virtqueue with a serialized-line wire:
//! packets depart in order at line rate after a one-way wire latency, and
//! a configurable peer either echoes them (netperf TCP_RR) or sinks them
//! and returns coalesced ACKs (netperf TCP_STREAM). The backend numbers
//! (service times and how many vhost-style privileged operations each
//! kick/completion performs against the backend's hypervisor) form the
//! exit profile that Fig. 7's network rows are built from.

use svt_sim::FnvHashMap;

use svt_hv::{Completion, DeviceModel, DeviceOutcome};
use svt_mem::{Gpa, GuestMemory, Hpa};
use svt_sim::snapshot::{load_code, load_new, Sink, Snap, SnapError, SnapReader};
use svt_sim::{snap_fields, SimDuration, SimTime};

use crate::queue::Virtqueue;

/// Default MMIO base of the net device in guest-physical space.
pub const NET_MMIO_BASE: Gpa = Gpa(0x4000_0000);
/// Doorbell register offset: TX queue notify.
pub const REG_TX_NOTIFY: u64 = 0;
/// Doorbell register offset: RX queue notify (buffer replenish).
pub const REG_RX_NOTIFY: u64 = 8;
/// Read-only status/counter register offset.
pub const REG_STATUS: u64 = 16;

/// What sits on the other end of the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerMode {
    /// Echo server: replies with `reply_len` bytes after `think`
    /// (netperf TCP_RR).
    Echo {
        /// Reply payload size in bytes.
        reply_len: u32,
        /// Peer processing time before the reply departs.
        think: SimDuration,
    },
    /// Sink: consumes packets and returns one coalesced ACK per
    /// `ack_coalesce` packets (netperf TCP_STREAM).
    Sink {
        /// Packets acknowledged per ACK interrupt.
        ack_coalesce: u32,
    },
}

/// Device configuration: geometry, wire model and exit profile.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// MMIO window base.
    pub mmio_base: Gpa,
    /// Completion interrupt vector.
    pub irq_vector: u8,
    /// One-way wire + switch latency.
    pub wire_latency: SimDuration,
    /// Line rate in Mbps (10 GbE on the paper's testbed).
    pub line_rate_mbps: u64,
    /// Backend service per doorbell kick.
    pub kick_service: SimDuration,
    /// Backend service per completion.
    pub completion_service: SimDuration,
    /// Privileged backend operations per kick (vhost notify, …).
    pub kick_backend_exits: u32,
    /// Privileged backend operations per completion (IRQ fd, EOI, …).
    pub completion_backend_exits: u32,
    /// Peer behaviour.
    pub peer: PeerMode,
}

impl NetConfig {
    /// An RR-style configuration from calibrated costs.
    pub fn rr(cost: &svt_sim::CostModel, reply_len: u32) -> Self {
        NetConfig {
            mmio_base: NET_MMIO_BASE,
            irq_vector: svt_arch::VECTOR_VIRTIO,
            wire_latency: cost.wire_latency,
            line_rate_mbps: 10_000,
            kick_service: cost.virtio_backend_service,
            completion_service: cost.virtio_backend_service,
            kick_backend_exits: 1,
            completion_backend_exits: 1,
            peer: PeerMode::Echo {
                reply_len,
                think: cost.netstack_per_packet,
            },
        }
    }

    /// A STREAM-style configuration from calibrated costs.
    pub fn stream(cost: &svt_sim::CostModel, ack_coalesce: u32) -> Self {
        NetConfig {
            peer: PeerMode::Sink { ack_coalesce },
            ..NetConfig::rr(cost, 1)
        }
    }
}

#[derive(Debug, Clone)]
enum Pending {
    RxDeliver { reply_len: u32 },
    TxAck { heads: Vec<u16> },
}

impl Default for Pending {
    fn default() -> Self {
        Pending::RxDeliver { reply_len: 0 }
    }
}

/// Tag 0 is a reply delivery, tag 1 a delayed ACK of TX heads.
impl Snap for Pending {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        match self {
            Pending::RxDeliver { reply_len } => (0u8, *reply_len).save(w),
            Pending::TxAck { heads } => {
                w.u8(1);
                heads.save(w);
            }
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = match load_code(r, "virtio-net pending tag", |t| (t < 2).then_some(t))? {
            0 => Pending::RxDeliver {
                reply_len: load_new(r)?,
            },
            _ => Pending::TxAck {
                heads: load_new(r)?,
            },
        };
        Ok(())
    }
}

/// Device-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Replies/ACK interrupts delivered.
    pub rx_packets: u64,
    /// Replies dropped for lack of posted RX buffers.
    pub rx_dropped: u64,
}

snap_fields! { NetStats { tx_packets, tx_bytes, rx_packets, rx_dropped } }

/// The virtio-net device model.
#[derive(Debug)]
pub struct VirtioNet {
    cfg: NetConfig,
    tx: Virtqueue,
    rx: Virtqueue,
    wire_free_at: SimTime,
    next_token: u64,
    pending: FnvHashMap<u64, Pending>,
    ack_backlog: Vec<u16>,
    stats: NetStats,
    kicks: u64,
    irqs: u64,
    /// Guest-memory faults the device absorbed instead of panicking.
    /// Surfaced via `obs_counters` so the watchdog layer can flag a
    /// wedged driver.
    io_errors: u64,
}

snap_fields! {
    VirtioNet {
        #[shape = "virtio-net MMIO base"] cfg.mmio_base, tx, rx, wire_free_at, next_token, pending,
        ack_backlog, stats, kicks, irqs, io_errors
    }
}

impl VirtioNet {
    /// Creates the device over TX/RX queues the driver has initialized.
    pub fn new(cfg: NetConfig, tx: Virtqueue, rx: Virtqueue) -> Self {
        VirtioNet {
            cfg,
            tx,
            rx,
            wire_free_at: SimTime::ZERO,
            next_token: 0,
            pending: FnvHashMap::default(),
            ack_backlog: Vec::new(),
            stats: NetStats::default(),
            kicks: 0,
            irqs: 0,
            io_errors: 0,
        }
    }

    /// Device statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Wire transmission time for `bytes` at the configured line rate.
    pub fn tx_time(&self, bytes: u64) -> SimDuration {
        // bits / (Mbps * 1e6) seconds = bits * 1e6 / rate picoseconds... in ns:
        let ns = bytes as f64 * 8.0 * 1000.0 / self.cfg.line_rate_mbps as f64;
        SimDuration::from_ns_f64(ns)
    }

    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    fn process_tx_kick(&mut self, mem: &mut GuestMemory, now: SimTime) -> DeviceOutcome {
        let mut out = DeviceOutcome {
            service: self.cfg.kick_service,
            backend_l1_exits: self.cfg.kick_backend_exits,
            schedule: Vec::new(),
        };
        loop {
            let chain = match self.tx.device_pop(mem) {
                Ok(Some(c)) => c,
                Ok(None) => break,
                Err(_) => {
                    // The TX ring is unreachable: stop servicing the
                    // kick; the error counter flags the wedged queue.
                    self.io_errors += 1;
                    break;
                }
            };
            let len = chain.total_len();
            self.stats.tx_packets += 1;
            self.stats.tx_bytes += len;
            let start = now.max(self.wire_free_at);
            let done = start + self.tx_time(len);
            self.wire_free_at = done;
            match self.cfg.peer {
                PeerMode::Echo { reply_len, think } => {
                    // TX buffer reclaimed immediately (no TX interrupt).
                    if self.tx.device_push_used(mem, chain.head, 0).is_err() {
                        self.io_errors += 1;
                    }
                    let reply_at = done
                        + self.cfg.wire_latency
                        + think
                        + self.cfg.wire_latency
                        + self.tx_time(reply_len as u64);
                    let tok = self.token();
                    self.pending.insert(tok, Pending::RxDeliver { reply_len });
                    out.schedule.push((reply_at, tok));
                }
                PeerMode::Sink { ack_coalesce } => {
                    self.ack_backlog.push(chain.head);
                    if self.ack_backlog.len() as u32 >= ack_coalesce {
                        let heads = std::mem::take(&mut self.ack_backlog);
                        let ack_at = done + self.cfg.wire_latency * 2;
                        let tok = self.token();
                        self.pending.insert(tok, Pending::TxAck { heads });
                        out.schedule.push((ack_at, tok));
                    }
                }
            }
        }
        // Delayed ACK: a partial batch left after the kick is flushed after
        // a TCP-delack-style timeout rather than held forever.
        if !self.ack_backlog.is_empty() {
            let heads = std::mem::take(&mut self.ack_backlog);
            let ack_at = self.wire_free_at + self.cfg.wire_latency * 2 + SimDuration::from_us(100);
            let tok = self.token();
            self.pending.insert(tok, Pending::TxAck { heads });
            out.schedule.push((ack_at, tok));
        }
        out
    }
}

impl DeviceModel for VirtioNet {
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
        let off = gpa.0 - self.cfg.mmio_base.0;
        match off {
            REG_TX_NOTIFY => {
                self.kicks += 1;
                self.process_tx_kick(mem, now)
            }
            REG_RX_NOTIFY => {
                self.kicks += 1;
                DeviceOutcome::service(self.cfg.kick_service / 4)
            }
            _ => DeviceOutcome::default(),
        }
    }

    fn mmio_read(
        &mut self,
        gpa: Gpa,
        _mem: &mut GuestMemory,
        _now: SimTime,
    ) -> (u64, DeviceOutcome) {
        let off = gpa.0 - self.cfg.mmio_base.0;
        let v = match off {
            REG_STATUS => self.stats.tx_packets,
            _ => 0,
        };
        (v, DeviceOutcome::default())
    }

    fn complete(&mut self, token: u64, mem: &mut GuestMemory, _now: SimTime) -> Option<Completion> {
        let pending = self.pending.remove(&token)?;
        match pending {
            Pending::RxDeliver { reply_len } => {
                let chain = match self.rx.device_pop(mem) {
                    Ok(Some(c)) => c,
                    Ok(None) => {
                        self.stats.rx_dropped += 1;
                        return None;
                    }
                    Err(_) => {
                        // Unreachable RX ring: the reply is dropped, the
                        // error counter flags the wedged queue.
                        self.io_errors += 1;
                        self.stats.rx_dropped += 1;
                        return None;
                    }
                };
                // Write a payload marker into the posted buffer.
                if let Some(d) = chain.descs.first() {
                    let n = (reply_len as usize).min(8).min(d.len as usize);
                    if mem
                        .write(Hpa(d.addr), &0x5654_5654u64.to_le_bytes()[..n])
                        .is_err()
                    {
                        self.io_errors += 1;
                    }
                }
                if self
                    .rx
                    .device_push_used(mem, chain.head, reply_len)
                    .is_err()
                {
                    self.io_errors += 1;
                }
                self.stats.rx_packets += 1;
                self.irqs += 1;
                Some(Completion {
                    vector: self.cfg.irq_vector,
                    service: self.cfg.completion_service,
                    backend_l1_exits: self.cfg.completion_backend_exits,
                    schedule: Vec::new(),
                })
            }
            Pending::TxAck { heads } => {
                for head in heads {
                    if self.tx.device_push_used(mem, head, 0).is_err() {
                        self.io_errors += 1;
                    }
                }
                self.stats.rx_packets += 1;
                self.irqs += 1;
                Some(Completion {
                    vector: self.cfg.irq_vector,
                    service: self.cfg.completion_service,
                    backend_l1_exits: self.cfg.completion_backend_exits,
                    schedule: Vec::new(),
                })
            }
        }
    }

    fn obs_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("net_kicks", self.kicks),
            ("net_irqs", self.irqs),
            ("net_tx_packets", self.stats.tx_packets),
            ("net_rx_packets", self.stats.rx_packets),
            ("net_rx_dropped", self.stats.rx_dropped),
            ("net_inflight", self.pending.len() as u64),
            ("net_io_errors", self.io_errors),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svt_sim::CostModel;

    fn setup(peer: PeerMode) -> (GuestMemory, VirtioNet, Virtqueue, Virtqueue) {
        let mut mem = GuestMemory::new(1 << 20);
        let mut txd = Virtqueue::new(Hpa(0x1000), 16);
        let mut rxd = Virtqueue::new(Hpa(0x2000), 16);
        txd.init(&mut mem).unwrap();
        rxd.init(&mut mem).unwrap();
        let cost = CostModel::default();
        let mut cfg = NetConfig::rr(&cost, 1);
        cfg.peer = peer;
        // The device views the same rings through its own counters.
        let tx_dev = Virtqueue::new(Hpa(0x1000), 16);
        let rx_dev = Virtqueue::new(Hpa(0x2000), 16);
        let net = VirtioNet::new(cfg, tx_dev, rx_dev);
        (mem, net, txd, rxd)
    }

    #[test]
    fn rr_kick_schedules_reply() {
        let (mut mem, mut net, mut txd, mut rxd) = setup(PeerMode::Echo {
            reply_len: 1,
            think: SimDuration::from_us(4),
        });
        // Driver posts an RX buffer and a 1-byte TX packet, then kicks.
        rxd.driver_add(&mut mem, &[(0x9000, 64, true)]).unwrap();
        let tx_head = txd.driver_add(&mut mem, &[(0x8000, 1, false)]).unwrap();
        let out = net.mmio_write(NET_MMIO_BASE + REG_TX_NOTIFY, 1, &mut mem, SimTime::ZERO);
        assert_eq!(out.backend_l1_exits, 1);
        assert_eq!(out.schedule.len(), 1);
        // TX buffer already reclaimed.
        assert_eq!(txd.driver_take_used(&mem).unwrap(), Some((tx_head, 0)));
        // Reply arrives after ~2x wire latency + think.
        let (reply_at, tok) = out.schedule[0];
        let wire2 = CostModel::default().wire_latency.as_us() * 2.0;
        assert!(
            reply_at.as_us() > wire2 && reply_at.as_us() < wire2 + 6.0,
            "{reply_at}"
        );
        let comp = net.complete(tok, &mut mem, reply_at).unwrap();
        assert_eq!(comp.vector, svt_arch::VECTOR_VIRTIO);
        // The RX used ring now carries the reply.
        assert_eq!(rxd.driver_take_used(&mem).unwrap().map(|(_, l)| l), Some(1));
        assert_eq!(net.stats().rx_packets, 1);
    }

    #[test]
    fn rr_without_rx_buffer_drops() {
        let (mut mem, mut net, mut txd, _rxd) = setup(PeerMode::Echo {
            reply_len: 1,
            think: SimDuration::ZERO,
        });
        txd.driver_add(&mut mem, &[(0x8000, 1, false)]).unwrap();
        let out = net.mmio_write(NET_MMIO_BASE, 1, &mut mem, SimTime::ZERO);
        let (at, tok) = out.schedule[0];
        assert!(net.complete(tok, &mut mem, at).is_none());
        assert_eq!(net.stats().rx_dropped, 1);
    }

    #[test]
    fn stream_coalesces_acks() {
        let (mut mem, mut net, mut txd, _rxd) = setup(PeerMode::Sink { ack_coalesce: 4 });
        for i in 0..8u64 {
            txd.driver_add(&mut mem, &[(0x8000 + i * 0x4000, 16_384, false)])
                .unwrap();
        }
        let out = net.mmio_write(NET_MMIO_BASE, 1, &mut mem, SimTime::ZERO);
        // 8 packets, coalesce 4 => exactly 2 ACK completions.
        assert_eq!(out.schedule.len(), 2);
        let (at, tok) = out.schedule[0];
        let comp = net.complete(tok, &mut mem, at).unwrap();
        assert_eq!(comp.vector, svt_arch::VECTOR_VIRTIO);
        // Four TX buffers reclaimed by the first ACK.
        let mut reclaimed = 0;
        while txd.driver_take_used(&mem).unwrap().is_some() {
            reclaimed += 1;
        }
        assert_eq!(reclaimed, 4);
    }

    #[test]
    fn wire_serializes_back_to_back_packets() {
        let (mut mem, mut net, mut txd, _rxd) = setup(PeerMode::Sink { ack_coalesce: 1 });
        txd.driver_add(&mut mem, &[(0x8000, 16_384, false)])
            .unwrap();
        txd.driver_add(&mut mem, &[(0xc000, 16_384, false)])
            .unwrap();
        let out = net.mmio_write(NET_MMIO_BASE, 1, &mut mem, SimTime::ZERO);
        let t0 = out.schedule[0].0;
        let t1 = out.schedule[1].0;
        // 16KB at 10Gbps is ~13.1us; the second ACK trails by one slot.
        let gap = t1.since(t0);
        assert!((gap.as_us() - 13.1).abs() < 0.2, "gap {gap}");
    }

    #[test]
    fn tx_time_matches_line_rate() {
        let (_, net, _, _) = setup(PeerMode::Sink { ack_coalesce: 1 });
        // 10Gbps: 1 byte = 0.8ns; 16KB ~ 13.1us.
        assert!((net.tx_time(16_384).as_us() - 13.107).abs() < 0.01);
        assert_eq!(net.tx_time(0), SimDuration::ZERO);
    }
}
