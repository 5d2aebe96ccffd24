//! The load-generator NIC: the remote client machine.
//!
//! For request/response workloads (netperf TCP_RR, memcached+mutilate,
//! sysbench TPC-C) the guest's virtio-net device *is* the boundary to the
//! remote load generator. [`LoadGenNet`] plays both roles: it delivers
//! request packets into the guest's RX virtqueue (open-loop Poisson or
//! closed-loop), and receives replies through the TX virtqueue. Request
//! payloads carry their departure timestamp through real guest memory;
//! the generator reads it back from the echoed reply to record end-to-end
//! latency, exactly as mutilate does.
//!
//! Wire and backend times come from the machine's cost model
//! (`wire_latency` each way, `virtio_backend_service` per kick and per
//! delivery, a quarter of it per RX refill notify); each kick and each
//! delivery costs one privileged backend operation, and deliveries
//! interrupt on [`VECTOR_VIRTIO`].

use std::cell::RefCell;
use std::rc::Rc;
use svt_sim::FnvHashMap;

use svt_arch::VECTOR_VIRTIO;
use svt_hv::{Completion, DeviceModel, DeviceOutcome};
use svt_mem::{Gpa, GuestMemory, Hpa};
use svt_sim::snapshot::{
    load_nested, load_new, save_nested, Sink, Snap, SnapDyn, SnapError, SnapReader,
};
use svt_sim::{snap_fields, CostModel, DetRng, SimDuration, SimTime};
use svt_stats::LatencyRecorder;
use svt_virtio::Virtqueue;

/// MMIO register offsets on the load-generator NIC.
pub mod regs {
    /// Doorbell: guest posted a reply on the TX queue.
    pub const TX_NOTIFY: u64 = 0;
    /// Doorbell: guest replenished RX buffers.
    pub const RX_NOTIFY: u64 = 8;
    /// Write: start generating load.
    pub const START: u64 = 24;
}

/// How the client issues requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalMode {
    /// `concurrency` outstanding requests; a reply immediately triggers
    /// the next request after `think` (netperf TCP_RR: concurrency 1).
    ClosedLoop {
        /// Outstanding requests.
        concurrency: u32,
        /// Client processing time between reply and next request.
        think: SimDuration,
    },
    /// Poisson arrivals at a target rate, regardless of replies
    /// (mutilate's open-loop mode for Fig. 8).
    OpenLoop {
        /// Mean inter-arrival time (1/rate).
        mean_interarrival: SimDuration,
    },
}

/// One generated request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Request {
    /// Operation code (workload-defined; e.g. 0 = GET, 1 = SET).
    pub op: u32,
    /// Key identifier.
    pub key: u64,
    /// Value size in bytes (payload the server must produce or store).
    pub vsize: u32,
}

snap_fields! { Request { op, key, vsize } }

/// Produces the request stream (uniform, ETC-like, TPC-C mix, ...). A
/// source's position in its stream is snapshot state, declared through
/// its `Snap` impl.
pub trait RequestSource: std::fmt::Debug + SnapDyn {
    /// The next request.
    fn next(&mut self, rng: &mut DetRng) -> Request;
}

/// Fixed-size requests (netperf TCP_RR's 1-byte ping-pong).
#[derive(Debug, Clone)]
pub struct FixedSource {
    /// The request every client sends.
    pub request: Request,
}

snap_fields! { FixedSource {} skip { request } }

/// A length-prefixed sub-payload, as the machine stores devices.
impl Snap for Box<dyn RequestSource> {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        save_nested(Some(&**self as &dyn SnapDyn), w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        load_nested(Some(&mut **self as &mut dyn SnapDyn), r)
    }
}

impl RequestSource for FixedSource {
    fn next(&mut self, _rng: &mut DetRng) -> Request {
        self.request
    }
}

/// Shared, externally readable statistics of a load run.
#[derive(Debug, Default)]
pub struct LoadStats {
    /// End-to-end request latencies in nanoseconds.
    pub latency: LatencyRecorder,
    /// Requests sent.
    pub sent: u64,
    /// Replies received.
    pub completed: u64,
    /// Requests dropped because the guest had no RX buffer posted.
    pub dropped: u64,
    /// Time the first request departed.
    pub first_send: Option<SimTime>,
    /// Time the last reply arrived.
    pub last_reply: Option<SimTime>,
}

/// The latency samples travel as a list of `f64`s (`svt-stats` does not
/// know about snapshots).
impl Snap for LoadStats {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        let LoadStats {
            latency,
            sent,
            completed,
            dropped,
            first_send,
            last_reply,
        } = self;
        latency.samples().to_vec().save(w);
        (*sent, *completed, *dropped, *first_send, *last_reply).save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.latency.clear();
        for ns in load_new::<Vec<f64>>(r)? {
            self.latency.record(ns);
        }
        (self.sent, self.completed, self.dropped) = load_new(r)?;
        (self.first_send, self.last_reply) = load_new(r)?;
        Ok(())
    }
}

impl LoadStats {
    /// Achieved throughput in requests/second over the active window.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two events were recorded.
    pub fn throughput_rps(&self) -> f64 {
        let first = self.first_send.expect("no request sent");
        let last = self.last_reply.expect("no reply received");
        let span = last.since(first).as_secs();
        assert!(span > 0.0, "degenerate measurement window");
        self.completed as f64 / span
    }
}

/// Configuration of the generator.
#[derive(Debug)]
pub struct LoadGenConfig {
    /// MMIO window base in the guest's physical space.
    pub mmio_base: Gpa,
    /// Arrival process.
    pub arrival: ArrivalMode,
    /// Stop after this many requests.
    pub total_requests: u64,
    /// RNG seed for the request stream.
    pub seed: u64,
}

/// Byte layout of a request/reply payload in guest memory.
pub const PAYLOAD_HEADER: usize = 8 + 8 + 4 + 4; // send_ps, key, op, vsize

const TOKEN_ARRIVAL: u64 = 1 << 62;

/// Privileged backend operations per kick and per delivery.
const BACKEND_EXITS: u32 = 1;

/// The load-generator NIC device.
#[derive(Debug)]
pub struct LoadGenNet {
    cfg: LoadGenConfig,
    /// One-way wire latency between client and guest.
    wire_latency: SimDuration,
    /// Backend service per kick and per delivered request.
    backend_service: SimDuration,
    source: Box<dyn RequestSource>,
    tx: Virtqueue,
    rx: Virtqueue,
    rng: DetRng,
    stats: Rc<RefCell<LoadStats>>,
    pending_arrivals: FnvHashMap<u64, Request>,
    next_token: u64,
    started: bool,
}

// The statistics handle is shared with the harness, so loading through
// it updates what the harness reads. The configuration is not state.
snap_fields! {
    LoadGenNet {
        source, tx, rx, rng, stats, pending_arrivals, next_token, started
    } skip { cfg, wire_latency, backend_service }
}

impl LoadGenNet {
    /// Creates the generator over the guest's TX/RX queues, with its wire
    /// and backend times from `cost`. Returns the device and a shared
    /// handle to its statistics.
    pub fn new(
        cfg: LoadGenConfig,
        cost: &CostModel,
        source: Box<dyn RequestSource>,
        tx: Virtqueue,
        rx: Virtqueue,
    ) -> (Self, Rc<RefCell<LoadStats>>) {
        let stats = Rc::new(RefCell::new(LoadStats::default()));
        let seed = cfg.seed;
        (
            LoadGenNet {
                cfg,
                wire_latency: cost.wire_latency,
                backend_service: cost.virtio_backend_service,
                source,
                tx,
                rx,
                rng: DetRng::seed(seed),
                stats: Rc::clone(&stats),
                pending_arrivals: FnvHashMap::default(),
                next_token: 0,
                started: false,
            },
            stats,
        )
    }

    fn schedule_arrival(&mut self, at: SimTime, out: &mut Vec<(SimTime, u64)>) {
        let sent = { self.stats.borrow().sent };
        if sent >= self.cfg.total_requests {
            return;
        }
        self.stats.borrow_mut().sent += 1;
        let req = self.source.next(&mut self.rng);
        self.next_token += 1;
        let tok = TOKEN_ARRIVAL | self.next_token;
        self.pending_arrivals.insert(tok, req);
        out.push((at, tok));
    }

    fn deliver_request(
        &mut self,
        req: Request,
        mem: &mut GuestMemory,
        now: SimTime,
    ) -> Option<Completion> {
        let Some(chain) = self.rx.device_pop(mem).expect("rx queue in RAM") else {
            self.stats.borrow_mut().dropped += 1;
            return None;
        };
        let d = chain.descs.first().expect("chain non-empty");
        // The request departed the client one wire latency ago; latency is
        // measured from that departure.
        let sent = now - self.wire_latency;
        let mut payload = Vec::with_capacity(PAYLOAD_HEADER);
        payload.extend_from_slice(&sent.as_ps().to_le_bytes());
        payload.extend_from_slice(&req.key.to_le_bytes());
        payload.extend_from_slice(&req.op.to_le_bytes());
        payload.extend_from_slice(&req.vsize.to_le_bytes());
        let n = payload.len().min(d.len as usize);
        mem.write(Hpa(d.addr), &payload[..n])
            .expect("rx buffer in RAM");
        self.rx
            .device_push_used(mem, chain.head, PAYLOAD_HEADER as u32 + req.vsize)
            .expect("rx used in RAM");
        {
            let mut s = self.stats.borrow_mut();
            if s.first_send.is_none() {
                s.first_send = Some(sent);
            }
        }
        Some(Completion {
            vector: VECTOR_VIRTIO,
            service: self.backend_service,
            backend_l1_exits: BACKEND_EXITS,
            schedule: Vec::new(),
        })
    }

    /// Shared statistics handle.
    pub fn stats_handle(&self) -> Rc<RefCell<LoadStats>> {
        Rc::clone(&self.stats)
    }
}

impl DeviceModel for LoadGenNet {
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
        let mut out = DeviceOutcome {
            service: self.backend_service,
            backend_l1_exits: BACKEND_EXITS,
            schedule: Vec::new(),
        };
        match off {
            regs::START if !self.started => {
                self.started = true;
                match self.cfg.arrival {
                    ArrivalMode::ClosedLoop { concurrency, .. } => {
                        for _ in 0..concurrency {
                            let at = now + self.wire_latency;
                            self.schedule_arrival(at, &mut out.schedule);
                        }
                    }
                    ArrivalMode::OpenLoop { mean_interarrival } => {
                        // Seed the whole Poisson arrival schedule lazily:
                        // each delivery schedules the next arrival.
                        let gap = self.rng.exp_duration(mean_interarrival);
                        self.schedule_arrival(now + self.wire_latency + gap, &mut out.schedule);
                    }
                }
                out.backend_l1_exits = 0;
                out.service = SimDuration::ZERO;
            }
            regs::TX_NOTIFY => {
                // Guest posted replies: record latencies, trigger follow-ups.
                while let Some(chain) = self.tx.device_pop(mem).expect("tx queue in RAM") {
                    let d = chain.descs.first().expect("chain non-empty");
                    let send_ps = mem.read_u64(Hpa(d.addr)).expect("tx buffer in RAM");
                    self.tx
                        .device_push_used(mem, chain.head, 0)
                        .expect("tx used in RAM");
                    let reply_arrives = now + self.wire_latency;
                    let latency = reply_arrives.since(SimTime::from_ps(send_ps));
                    {
                        let mut s = self.stats.borrow_mut();
                        s.latency.record(latency.as_ns());
                        s.completed += 1;
                        s.last_reply = Some(reply_arrives);
                    }
                    if let ArrivalMode::ClosedLoop { think, .. } = self.cfg.arrival {
                        let at = reply_arrives + think + self.wire_latency;
                        self.schedule_arrival(at, &mut out.schedule);
                    }
                }
            }
            regs::RX_NOTIFY => {
                out.service = self.backend_service / 4;
            }
            _ => {}
        }
        out
    }

    fn mmio_read(
        &mut self,
        _gpa: Gpa,
        _mem: &mut GuestMemory,
        _now: SimTime,
    ) -> (u64, DeviceOutcome) {
        let s = self.stats.borrow();
        (s.completed, DeviceOutcome::default())
    }

    fn complete(&mut self, token: u64, mem: &mut GuestMemory, now: SimTime) -> Option<Completion> {
        let req = self.pending_arrivals.remove(&token)?;
        let mut comp = self.deliver_request(req, mem, now);
        if let ArrivalMode::OpenLoop { mean_interarrival } = self.cfg.arrival {
            // Chain the next Poisson arrival.
            let gap = self.rng.exp_duration(mean_interarrival);
            let mut schedule = Vec::new();
            self.schedule_arrival(now + gap, &mut schedule);
            match &mut comp {
                Some(c) => c.schedule.extend(schedule),
                None if !schedule.is_empty() => {
                    // Request dropped but arrivals continue: surface the
                    // schedule through a zero-cost completion.
                    comp = Some(Completion {
                        vector: VECTOR_VIRTIO,
                        service: SimDuration::ZERO,
                        backend_l1_exits: 0,
                        schedule,
                    });
                }
                None => {}
            }
        }
        comp
    }

    fn obs_counters(&self) -> Vec<(&'static str, u64)> {
        let s = self.stats.borrow();
        vec![
            ("loadgen_sent", s.sent),
            ("loadgen_completed", s.completed),
            ("loadgen_dropped", s.dropped),
            ("loadgen_inflight", self.pending_arrivals.len() as u64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default cost model's one-way wire latency.
    fn wire() -> SimDuration {
        CostModel::default().wire_latency
    }

    fn setup(arrival: ArrivalMode, total: u64) -> (GuestMemory, LoadGenNet, Virtqueue, Virtqueue) {
        let mut mem = GuestMemory::new(1 << 20);
        let mut txd = Virtqueue::new(Hpa(0x1000), 16);
        let mut rxd = Virtqueue::new(Hpa(0x2000), 16);
        txd.init(&mut mem).unwrap();
        rxd.init(&mut mem).unwrap();
        let cfg = LoadGenConfig {
            mmio_base: Gpa(0x4000_0000),
            arrival,
            total_requests: total,
            seed: 1,
        };
        let source = Box::new(FixedSource {
            request: Request {
                op: 0,
                key: 9,
                vsize: 1,
            },
        });
        let (dev, _) = LoadGenNet::new(
            cfg,
            &CostModel::default(),
            source,
            Virtqueue::new(Hpa(0x1000), 16),
            Virtqueue::new(Hpa(0x2000), 16),
        );
        (mem, dev, txd, rxd)
    }

    #[test]
    fn start_schedules_first_arrival_after_wire() {
        let (mut mem, mut dev, _txd, _rxd) = setup(
            ArrivalMode::ClosedLoop {
                concurrency: 1,
                think: SimDuration::ZERO,
            },
            10,
        );
        let out = dev.mmio_write(Gpa(0x4000_0000 + regs::START), 1, &mut mem, SimTime::ZERO);
        assert_eq!(out.schedule.len(), 1);
        assert_eq!(out.schedule[0].0, SimTime::ZERO + wire());
        assert_eq!(dev.stats_handle().borrow().sent, 1);
    }

    #[test]
    fn request_payload_lands_in_posted_buffer() {
        let (mut mem, mut dev, _txd, mut rxd) = setup(
            ArrivalMode::ClosedLoop {
                concurrency: 1,
                think: SimDuration::ZERO,
            },
            10,
        );
        rxd.driver_add(&mut mem, &[(0x9000, 256, true)]).unwrap();
        let out = dev.mmio_write(Gpa(0x4000_0000 + regs::START), 1, &mut mem, SimTime::ZERO);
        let (at, tok) = out.schedule[0];
        let comp = dev.complete(tok, &mut mem, at).unwrap();
        assert_eq!(comp.vector, VECTOR_VIRTIO);
        // The payload carries the client departure timestamp (one wire
        // latency before arrival) and the key.
        let sent = at - wire();
        assert_eq!(mem.read_u64(Hpa(0x9000)).unwrap(), sent.as_ps());
        assert_eq!(mem.read_u64(Hpa(0x9008)).unwrap(), 9);
        assert!(rxd.driver_take_used(&mem).unwrap().is_some());
    }

    #[test]
    fn reply_records_latency_and_chains_next_request() {
        let (mut mem, mut dev, mut txd, mut rxd) = setup(
            ArrivalMode::ClosedLoop {
                concurrency: 1,
                think: SimDuration::from_us(2),
            },
            10,
        );
        rxd.driver_add(&mut mem, &[(0x9000, 256, true)]).unwrap();
        let out = dev.mmio_write(Gpa(0x4000_0000 + regs::START), 1, &mut mem, SimTime::ZERO);
        let (at, tok) = out.schedule[0];
        dev.complete(tok, &mut mem, at).unwrap();
        // Guest "processes" for 5us, echoes the timestamp in its reply.
        let send_ps = mem.read_u64(Hpa(0x9000)).unwrap();
        mem.write_u64(Hpa(0xb000), send_ps).unwrap();
        txd.driver_add(&mut mem, &[(0xb000, 64, false)]).unwrap();
        let reply_time = at + SimDuration::from_us(5);
        let out = dev.mmio_write(Gpa(0x4000_0000 + regs::TX_NOTIFY), 1, &mut mem, reply_time);
        let stats = dev.stats_handle();
        let s = stats.borrow();
        assert_eq!(s.completed, 1);
        // Latency = request wire + processing (5us) + return wire.
        let expected = wire() * 2 + SimDuration::from_us(5);
        assert!((s.latency.samples()[0] - expected.as_ns()).abs() < 1.0);
        drop(s);
        // Next request scheduled: reply_arrival + think + wire.
        assert_eq!(out.schedule.len(), 1);
        assert_eq!(
            out.schedule[0].0,
            reply_time + wire() + SimDuration::from_us(2) + wire()
        );
    }

    #[test]
    fn open_loop_arrivals_continue_without_replies() {
        let (mut mem, mut dev, _txd, mut rxd) = setup(
            ArrivalMode::OpenLoop {
                mean_interarrival: SimDuration::from_us(100),
            },
            1000,
        );
        for i in 0..8u64 {
            rxd.driver_add(&mut mem, &[(0x9000 + i * 0x100, 256, true)])
                .unwrap();
        }
        let out = dev.mmio_write(Gpa(0x4000_0000 + regs::START), 1, &mut mem, SimTime::ZERO);
        let mut due = out.schedule;
        let mut delivered = 0;
        while delivered < 5 {
            let (at, tok) = due.remove(0);
            if let Some(c) = dev.complete(tok, &mut mem, at) {
                due.extend(c.schedule);
                delivered += 1;
            }
        }
        assert_eq!(dev.stats_handle().borrow().sent, 6);
    }

    #[test]
    fn stops_at_total_requests() {
        let (mut mem, mut dev, _txd, mut rxd) = setup(
            ArrivalMode::ClosedLoop {
                concurrency: 4,
                think: SimDuration::ZERO,
            },
            2,
        );
        rxd.driver_add(&mut mem, &[(0x9000, 256, true)]).unwrap();
        let out = dev.mmio_write(Gpa(0x4000_0000 + regs::START), 1, &mut mem, SimTime::ZERO);
        // Concurrency 4 but only 2 total requests budgeted.
        assert_eq!(out.schedule.len(), 2);
        assert_eq!(dev.stats_handle().borrow().sent, 2);
    }

    #[test]
    fn dropped_when_no_rx_buffer() {
        let (mut mem, mut dev, _txd, _rxd) = setup(
            ArrivalMode::ClosedLoop {
                concurrency: 1,
                think: SimDuration::ZERO,
            },
            10,
        );
        let out = dev.mmio_write(Gpa(0x4000_0000 + regs::START), 1, &mut mem, SimTime::ZERO);
        let (at, tok) = out.schedule[0];
        assert!(dev.complete(tok, &mut mem, at).is_none());
        assert_eq!(dev.stats_handle().borrow().dropped, 1);
    }
}
