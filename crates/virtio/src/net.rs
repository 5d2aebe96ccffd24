//! virtio-net with a 10 GbE wire model.
//!
//! The device drives a TX virtqueue over a serialized-line wire: packets
//! depart in order at line rate after a one-way wire latency, and the
//! peer sinks them and returns coalesced ACKs (netperf TCP_STREAM, Fig.
//! 7's STREAM row). Request/response traffic (TCP_RR) runs through the
//! load-generator NIC of `svt-workloads` instead. The backend numbers
//! (the cost model's `virtio_backend_service` per kick and per ACK, and
//! one vhost-style privileged operation against the backend's hypervisor
//! for each) form the exit profile of the STREAM row. ACKs interrupt on
//! [`svt_arch::VECTOR_VIRTIO`]; the wire runs at the paper's NIC line
//! rate ([`MachineSpec::nic_mbps`]).

use svt_sim::FnvHashMap;

use svt_arch::VECTOR_VIRTIO;
use svt_hv::{Completion, DeviceModel, DeviceOutcome};
use svt_mem::{Gpa, GuestMemory};
use svt_sim::{snap_fields, CostModel, MachineSpec, SimDuration, SimTime};

use crate::queue::Virtqueue;

/// Doorbell register offset: TX queue notify.
pub const REG_TX_NOTIFY: u64 = 0;
/// Read-only status/counter register offset.
pub const REG_STATUS: u64 = 16;

/// Privileged backend operations per kick (vhost notify) and per ACK
/// completion (IRQ fd).
const BACKEND_EXITS: u32 = 1;

/// Device configuration: where the device sits and how its peer ACKs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// MMIO window base.
    pub mmio_base: Gpa,
    /// Packets the peer acknowledges per ACK interrupt.
    pub ack_coalesce: u32,
}

/// The virtio-net device model.
#[derive(Debug)]
pub struct VirtioNet {
    cfg: NetConfig,
    /// One-way wire + switch latency (the cost model's `wire_latency`).
    wire_latency: SimDuration,
    /// Backend service per kick and per ACK (the cost model's
    /// `virtio_backend_service`).
    backend_service: SimDuration,
    tx: Virtqueue,
    wire_free_at: SimTime,
    next_token: u64,
    /// In-flight ACKs by completion token: the TX heads each reclaims.
    pending: FnvHashMap<u64, Vec<u16>>,
    ack_backlog: Vec<u16>,
    /// Packets transmitted (what the status register reads).
    tx_packets: u64,
    /// Guest-memory faults the device absorbed instead of panicking: an
    /// unreachable TX ring or a used entry it could not return.
    io_errors: u64,
}

snap_fields! {
    VirtioNet {
        #[shape = "virtio-net MMIO base"] cfg.mmio_base, tx, wire_free_at, next_token, pending,
        ack_backlog, tx_packets, io_errors
    } skip { wire_latency, backend_service }
}

impl VirtioNet {
    /// Creates the device over a TX queue the driver has initialized,
    /// with its wire and backend times from `cost`.
    pub fn new(cfg: NetConfig, cost: &CostModel, tx: Virtqueue) -> Self {
        VirtioNet {
            cfg,
            wire_latency: cost.wire_latency,
            backend_service: cost.virtio_backend_service,
            tx,
            wire_free_at: SimTime::ZERO,
            next_token: 0,
            pending: FnvHashMap::default(),
            ack_backlog: Vec::new(),
            tx_packets: 0,
            io_errors: 0,
        }
    }

    /// Wire transmission time for `bytes` at the NIC's line rate.
    pub fn tx_time(&self, bytes: u64) -> SimDuration {
        // bits / (Mbps * 1e6) seconds = bits * 1e6 / rate picoseconds... in ns:
        let ns = bytes as f64 * 8.0 * 1000.0 / MachineSpec::isca19().nic_mbps as f64;
        SimDuration::from_ns_f64(ns)
    }

    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    fn process_tx_kick(&mut self, mem: &mut GuestMemory, now: SimTime) -> DeviceOutcome {
        let mut out = DeviceOutcome {
            service: self.backend_service,
            backend_l1_exits: BACKEND_EXITS,
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
            self.tx_packets += 1;
            let start = now.max(self.wire_free_at);
            let done = start + self.tx_time(len);
            self.wire_free_at = done;
            self.ack_backlog.push(chain.head);
            if self.ack_backlog.len() as u32 >= self.cfg.ack_coalesce {
                let heads = std::mem::take(&mut self.ack_backlog);
                let ack_at = done + self.wire_latency * 2;
                let tok = self.token();
                self.pending.insert(tok, heads);
                out.schedule.push((ack_at, tok));
            }
        }
        // Delayed ACK: a partial batch left after the kick is flushed after
        // a TCP-delack-style timeout rather than held forever.
        if !self.ack_backlog.is_empty() {
            let heads = std::mem::take(&mut self.ack_backlog);
            let ack_at = self.wire_free_at + self.wire_latency * 2 + SimDuration::from_us(100);
            let tok = self.token();
            self.pending.insert(tok, heads);
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
            REG_TX_NOTIFY => self.process_tx_kick(mem, now),
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
            REG_STATUS => self.tx_packets,
            _ => 0,
        };
        (v, DeviceOutcome::default())
    }

    fn complete(&mut self, token: u64, mem: &mut GuestMemory, _now: SimTime) -> Option<Completion> {
        // An ACK: the peer received these TX buffers; reclaim them.
        for head in self.pending.remove(&token)? {
            if self.tx.device_push_used(mem, head, 0).is_err() {
                self.io_errors += 1;
            }
        }
        Some(Completion {
            vector: VECTOR_VIRTIO,
            service: self.backend_service,
            backend_l1_exits: BACKEND_EXITS,
            schedule: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svt_mem::Hpa;

    const MMIO: Gpa = Gpa(0x4000_0000);

    fn setup(ack_coalesce: u32) -> (GuestMemory, VirtioNet, Virtqueue) {
        let mut mem = GuestMemory::new(1 << 20);
        let mut txd = Virtqueue::new(Hpa(0x1000), 16);
        txd.init(&mut mem).unwrap();
        let cfg = NetConfig {
            mmio_base: MMIO,
            ack_coalesce,
        };
        // The device views the same ring through its own counters.
        let net = VirtioNet::new(cfg, &CostModel::default(), Virtqueue::new(Hpa(0x1000), 16));
        (mem, net, txd)
    }

    #[test]
    fn stream_coalesces_acks() {
        let (mut mem, mut net, mut txd) = setup(4);
        for i in 0..8u64 {
            txd.driver_add(&mut mem, &[(0x8000 + i * 0x4000, 16_384, false)])
                .unwrap();
        }
        let out = net.mmio_write(MMIO, 1, &mut mem, SimTime::ZERO);
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
        let (mut mem, mut net, mut txd) = setup(1);
        txd.driver_add(&mut mem, &[(0x8000, 16_384, false)])
            .unwrap();
        txd.driver_add(&mut mem, &[(0xc000, 16_384, false)])
            .unwrap();
        let out = net.mmio_write(MMIO, 1, &mut mem, SimTime::ZERO);
        let t0 = out.schedule[0].0;
        let t1 = out.schedule[1].0;
        // 16KB at 10Gbps is ~13.1us; the second ACK trails by one slot.
        let gap = t1.since(t0);
        assert!((gap.as_us() - 13.1).abs() < 0.2, "gap {gap}");
    }

    #[test]
    fn tx_time_matches_line_rate() {
        let (_, net, _) = setup(1);
        // 10Gbps: 1 byte = 0.8ns; 16KB ~ 13.1us.
        assert!((net.tx_time(16_384).as_us() - 13.107).abs() < 0.01);
        assert_eq!(net.tx_time(0), SimDuration::ZERO);
    }

    #[test]
    fn unreachable_tx_ring_counts_an_io_error() {
        let mut mem = GuestMemory::new(1 << 20);
        let cfg = NetConfig {
            mmio_base: MMIO,
            ack_coalesce: 1,
        };
        // The ring sits past the end of the 1 MiB guest memory.
        let tx = Virtqueue::new(Hpa(0x20_0000), 16);
        let mut net = VirtioNet::new(cfg, &CostModel::default(), tx);
        let out = net.mmio_write(MMIO, 1, &mut mem, SimTime::ZERO);
        assert!(out.schedule.is_empty());
        assert_eq!(net.io_errors, 1);
        assert_eq!(net.tx_packets, 0);
    }
}
