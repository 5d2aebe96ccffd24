//! Fig. 7 runners: the I/O subsystem benchmarks.
//!
//! Network latency/bandwidth (netperf TCP_RR / TCP_STREAM) and disk
//! random-read/random-write latency/bandwidth (ioping / fio), each under
//! the three switch engines.

use svt_core::{nested_machine, SwitchMode};
use svt_sim::SimDuration;
use svt_virtio::{NetConfig, VirtioNet, Virtqueue};

use crate::disk::{DiskBench, DiskMode};
use crate::harness::{
    attach_blk_for, attach_loadgen_for_seeded, rr_arrival, DEFAULT_LANE_SEED, QUEUE_SIZE,
};
use crate::layout;
use crate::loadgen::{FixedSource, Request};
use crate::server::{EchoService, RrServer, ServerConfig};
use crate::stream::StreamSender;

/// One subsystem measurement across the three engines.
#[derive(Debug, Clone, PartialEq)]
pub struct IoRow {
    /// Benchmark name as in Fig. 7.
    pub name: &'static str,
    /// Measurement unit of the baseline column.
    pub unit: &'static str,
    /// Whether higher is better (bandwidths) or lower (latencies).
    pub higher_better: bool,
    /// Absolute baseline value (the number printed on Fig. 7's bars).
    pub baseline: f64,
    /// SW SVt speedup vs baseline.
    pub sw_speedup: f64,
    /// HW SVt speedup vs baseline.
    pub hw_speedup: f64,
    /// The paper's (baseline, SW, HW) triple for reference.
    pub paper: (f64, f64, f64),
}

/// netperf TCP_RR: mean round-trip latency in µs for 1-byte payloads.
pub fn net_rr_latency_us(mode: SwitchMode, transactions: u64) -> f64 {
    let source = Box::new(FixedSource {
        request: Request {
            op: 0,
            key: 1,
            vsize: 1,
        },
    });
    let mut m = nested_machine(mode);
    let arrival = rr_arrival(&m.cost);
    let stats =
        attach_loadgen_for_seeded(&mut m, 0, arrival, transactions, source, DEFAULT_LANE_SEED);
    let mut server = RrServer::new(
        ServerConfig::rr_on_lane(&m.cost, transactions, 0),
        Box::new(EchoService {
            compute: SimDuration::from_us(2),
            reply_len: 1,
        }),
    );
    m.run(&mut server).expect("RR run completes");
    let s = stats.borrow();
    s.latency.mean() / 1000.0
}

/// netperf TCP_STREAM: goodput in Mbps for 16 KB sends.
pub fn net_stream_mbps(mode: SwitchMode, packets: u64) -> f64 {
    let mut m = nested_machine(mode);
    let lane = layout::lane(0);
    let cfg = NetConfig {
        mmio_base: lane.net_mmio,
        ack_coalesce: 16,
    };
    let net = VirtioNet::new(cfg, &m.cost, Virtqueue::new(lane.tx_queue, QUEUE_SIZE));
    m.add_device_for(Box::new(net), 0);
    let mut sender = StreamSender::new(&m.cost, 16_384, 16, packets);
    m.run(&mut sender).expect("stream run completes");
    sender.throughput_mbps()
}

/// ioping-style disk latency in µs (512 B random accesses, QD 1).
pub fn disk_latency_us(mode: SwitchMode, write: bool, ops: u64) -> f64 {
    let mut m = nested_machine(mode);
    attach_blk_for(&mut m, 0);
    let cost = m.cost.clone();
    let mut bench = DiskBench::new(&cost, DiskMode::Latency, write, 512, ops);
    m.run(&mut bench).expect("disk run completes");
    bench.latency().mean() / 1000.0
}

/// fio-style disk bandwidth in KB/s (4 KB random accesses, QD 4).
pub fn disk_bandwidth_kb_s(mode: SwitchMode, write: bool, ops: u64) -> f64 {
    let mut m = nested_machine(mode);
    attach_blk_for(&mut m, 0);
    let cost = m.cost.clone();
    let mut bench = DiskBench::new(&cost, DiskMode::Bandwidth { qd: 4 }, write, 4096, ops);
    m.run(&mut bench).expect("disk run completes");
    bench.bandwidth_kb_s()
}

/// Runs all six Fig. 7 measurements. `scale` divides the default
/// iteration counts (use >1 for quick runs).
pub fn fig7(scale: u64) -> Vec<IoRow> {
    let n_rr = (400 / scale).max(20);
    let n_pkt = (600 / scale).max(30);
    let n_io = (400 / scale).max(20);
    let run3 = |f: &dyn Fn(SwitchMode) -> f64| {
        (
            f(SwitchMode::Baseline),
            f(SwitchMode::SwSvt),
            f(SwitchMode::HwSvt),
        )
    };

    let mut rows = Vec::new();
    let (b, s, h) = run3(&|m| net_rr_latency_us(m, n_rr));
    rows.push(IoRow {
        name: "Network latency",
        unit: "usec",
        higher_better: false,
        baseline: b,
        sw_speedup: b / s,
        hw_speedup: b / h,
        paper: (163.0, 1.10, 2.38),
    });
    let (b, s, h) = run3(&|m| net_stream_mbps(m, n_pkt));
    rows.push(IoRow {
        name: "Network bandwidth",
        unit: "Mbps",
        higher_better: true,
        baseline: b,
        sw_speedup: s / b,
        hw_speedup: h / b,
        paper: (9387.0, 1.00, 1.12),
    });
    let (b, s, h) = run3(&|m| disk_latency_us(m, false, n_io));
    rows.push(IoRow {
        name: "Disk randrd latency",
        unit: "usec",
        higher_better: false,
        baseline: b,
        sw_speedup: b / s,
        hw_speedup: b / h,
        paper: (126.0, 1.30, 2.18),
    });
    let (b, s, h) = run3(&|m| disk_bandwidth_kb_s(m, false, n_io));
    rows.push(IoRow {
        name: "Disk randrd bandwidth",
        unit: "KB/s",
        higher_better: true,
        baseline: b,
        sw_speedup: s / b,
        hw_speedup: h / b,
        paper: (87_136.0, 1.55, 2.31),
    });
    let (b, s, h) = run3(&|m| disk_latency_us(m, true, n_io));
    rows.push(IoRow {
        name: "Disk randwr latency",
        unit: "usec",
        higher_better: false,
        baseline: b,
        sw_speedup: b / s,
        hw_speedup: b / h,
        paper: (179.0, 1.05, 2.26),
    });
    let (b, s, h) = run3(&|m| disk_bandwidth_kb_s(m, true, n_io));
    rows.push(IoRow {
        name: "Disk randwr bandwidth",
        unit: "KB/s",
        higher_better: true,
        baseline: b,
        sw_speedup: s / b,
        hw_speedup: h / b,
        paper: (55_769.0, 1.18, 2.60),
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rr_round_trips_complete() {
        let lat = net_rr_latency_us(SwitchMode::Baseline, 25);
        assert!(lat > 50.0 && lat < 400.0, "RR latency {lat}us");
    }

    #[test]
    fn svt_improves_rr_latency() {
        let b = net_rr_latency_us(SwitchMode::Baseline, 25);
        let sw = net_rr_latency_us(SwitchMode::SwSvt, 25);
        let hw = net_rr_latency_us(SwitchMode::HwSvt, 25);
        assert!(hw < sw && sw < b, "{b} {sw} {hw}");
    }

    #[test]
    fn stream_reaches_high_utilization() {
        let bw = net_stream_mbps(SwitchMode::Baseline, 120);
        assert!(bw > 5_000.0 && bw <= 10_000.0, "STREAM {bw} Mbps");
    }

    #[test]
    fn disk_latency_sane_and_improved_by_svt() {
        let b = disk_latency_us(SwitchMode::Baseline, false, 30);
        let hw = disk_latency_us(SwitchMode::HwSvt, false, 30);
        assert!(b > 30.0 && b < 300.0, "disk randrd {b}us");
        assert!(hw < b);
    }

    #[test]
    fn disk_writes_slower_than_reads() {
        // The paper's randwr latency (179us) exceeds randrd (126us).
        let rd = disk_latency_us(SwitchMode::Baseline, false, 30);
        let wr = disk_latency_us(SwitchMode::Baseline, true, 30);
        assert!(wr >= rd * 0.9, "rd {rd} wr {wr}");
    }
}
