//! End-to-end integration tests spanning the whole workspace: workloads
//! driving real virtqueues over the nested hypervisor under every switch
//! engine, with data integrity checked through each layer.

use svt::core::{nested_machine, SwitchMode};
use svt::hv::{GuestOp, Level, Machine, MachineConfig, OpLoop};
use svt::sim::{CostPart, SimDuration};
use svt::workloads::{
    attach_blk_for, attach_loadgen_for_seeded, disk_latency_us, net_rr_latency_us, rr_arrival,
    EchoService, FixedSource, Request, RrServer, ServerConfig, DEFAULT_LANE_SEED,
};

#[test]
fn rr_transaction_flows_through_every_engine() {
    for mode in SwitchMode::ALL {
        let source = Box::new(FixedSource {
            request: Request {
                op: 0,
                key: 7,
                vsize: 1,
            },
        });
        let cost = svt::sim::CostModel::default();
        let mut m = nested_machine(mode);
        let stats =
            attach_loadgen_for_seeded(&mut m, 0, rr_arrival(&cost), 30, source, DEFAULT_LANE_SEED);
        let mut server = RrServer::new(
            ServerConfig::rr_on_lane(&cost, 30, 0),
            Box::new(EchoService {
                compute: SimDuration::from_us(2),
                reply_len: 1,
            }),
        );
        m.run(&mut server).unwrap_or_else(|e| panic!("{mode}: {e}"));
        let s = stats.borrow();
        assert_eq!(s.completed, 30, "{mode}: all transactions complete");
        assert_eq!(s.dropped, 0, "{mode}: no drops at QD1");
        assert_eq!(server.served(), 30);
        // Latencies are sane and the clock moved.
        assert!(s.latency.mean() > 10_000.0, "{mode}");
    }
}

#[test]
fn fig7_orderings_hold_end_to_end() {
    // HW SVt < SW SVt < baseline on both net and disk latency.
    let rr: Vec<f64> = SwitchMode::ALL
        .iter()
        .map(|&m| net_rr_latency_us(m, 30))
        .collect();
    assert!(rr[2] < rr[1] && rr[1] < rr[0], "net {rr:?}");
    let dk: Vec<f64> = SwitchMode::ALL
        .iter()
        .map(|&m| disk_latency_us(m, false, 30))
        .collect();
    assert!(dk[2] < dk[1] && dk[1] < dk[0], "disk {dk:?}");
}

#[test]
fn disk_data_survives_the_full_stack() {
    // A write benchmark leaves real data on the RAM disk via genuine
    // descriptor chains; reading it back returns the same bytes (checked
    // inside VirtioBlk's unit tests); here we check the nested machine
    // keeps request counts consistent through the interrupt chains.
    let mut m = nested_machine(SwitchMode::Baseline);
    attach_blk_for(&mut m, 0);
    let cost = m.cost.clone();
    let mut bench = svt::workloads::DiskBench::new(
        &cost,
        svt::workloads::DiskMode::Bandwidth { qd: 4 },
        true,
        4096,
        40,
    );
    m.run(&mut bench).expect("disk run completes");
    assert_eq!(bench.completed(), 40);
    assert!(m.obs.metrics.counter_total("irq_delivered") > 0);
}

#[test]
fn exit_reason_profile_matches_workload_type() {
    // A cpuid loop produces only CPUID-tagged reflection time; an I/O
    // workload produces EPT_MISCONFIG and EXTERNAL_INTERRUPT time.
    let mut m = nested_machine(SwitchMode::Baseline);
    let mut prog = OpLoop::new(GuestOp::Cpuid, 10, 0, SimDuration::ZERO);
    m.run(&mut prog).unwrap();
    assert!(m.clock.tag_time("CPUID").as_ns() > 0.0);
    assert_eq!(m.clock.tag_time("EPT_MISCONFIG").as_ns(), 0.0);

    let source = Box::new(FixedSource {
        request: Request {
            op: 0,
            key: 1,
            vsize: 1,
        },
    });
    let cost = svt::sim::CostModel::default();
    let mut m = nested_machine(SwitchMode::Baseline);
    let _stats =
        attach_loadgen_for_seeded(&mut m, 0, rr_arrival(&cost), 10, source, DEFAULT_LANE_SEED);
    let mut server = RrServer::new(
        ServerConfig::rr_on_lane(&cost, 10, 0),
        Box::new(EchoService {
            compute: SimDuration::from_us(2),
            reply_len: 1,
        }),
    );
    m.run(&mut server).unwrap();
    assert!(m.clock.tag_time("EPT_MISCONFIG").as_ns() > 0.0);
    assert!(m.clock.tag_time("EXTERNAL_INTERRUPT").as_ns() > 0.0);
    assert!(m.clock.tag_time("MSR_WRITE").as_ns() > 0.0);
}

#[test]
fn attribution_is_exhaustive() {
    // Busy time equals the sum over all parts; nothing is double counted
    // or lost across a full nested RR run.
    let source = Box::new(FixedSource {
        request: Request {
            op: 0,
            key: 1,
            vsize: 1,
        },
    });
    let cost = svt::sim::CostModel::default();
    let mut m = nested_machine(SwitchMode::Baseline);
    let _stats =
        attach_loadgen_for_seeded(&mut m, 0, rr_arrival(&cost), 10, source, DEFAULT_LANE_SEED);
    let mut server = RrServer::new(
        ServerConfig::rr_on_lane(&cost, 10, 0),
        Box::new(EchoService {
            compute: SimDuration::from_us(2),
            reply_len: 1,
        }),
    );
    let t0 = m.clock.now();
    m.run(&mut server).unwrap();
    let elapsed = m.clock.now().since(t0);
    let snap = m.clock.snapshot();
    let accounted: SimDuration = snap.part_time.values().copied().sum();
    // All simulated time since boot is attributed somewhere (within the
    // pre-measurement boot charge).
    assert!(accounted.as_ns() >= elapsed.as_ns() * 0.99);
}

#[test]
fn single_level_and_native_machines_run_io_free_workloads() {
    for level in [Level::L0, Level::L1] {
        let mut m = Machine::baseline(MachineConfig::at_level(level));
        let mut prog = OpLoop::new(GuestOp::Cpuid, 20, 100, SimDuration::from_ns(1));
        let report = m.run(&mut prog).unwrap();
        assert!(report.steps >= 40);
    }
}

#[test]
fn sw_svt_ring_traffic_is_observable_in_guest_memory() {
    // After an SW-SVt run, the command rings in host RAM have seen real
    // traffic: their head indices moved.
    let mut m = nested_machine(SwitchMode::SwSvt);
    let mut prog = OpLoop::new(GuestOp::Cpuid, 5, 0, SimDuration::ZERO);
    m.run(&mut prog).unwrap();
    let head = m.ram.read_u32(svt::mem::Hpa(0x10_0000)).unwrap();
    assert!(head >= 5, "CMD ring head advanced: {head}");
}

#[test]
fn hw_svt_part_breakdown_shows_the_elision() {
    let mut m = nested_machine(SwitchMode::HwSvt);
    let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
    m.run(&mut warm).unwrap();
    let base = m.clock.snapshot();
    let mut prog = OpLoop::new(GuestOp::Cpuid, 50, 0, SimDuration::ZERO);
    m.run(&mut prog).unwrap();
    let d = m.clock.since_snapshot(&base);
    // Switches nearly free; transforms unchanged from baseline.
    assert!(d.part_time(CostPart::SwitchL2L0).as_ns() / 50.0 < 100.0);
    assert!(d.part_time(CostPart::SwitchL0L1).as_ns() / 50.0 < 100.0);
    let transform = d.part_time(CostPart::Transform).as_ns() / 50.0;
    assert!((transform - 1290.0).abs() < 20.0, "{transform}");
}
