//! Behavioral tests of the workload guest programs: stream sender, disk
//! bench, video player and the request/response server's I/O plan.

use svt_core::{nested_machine, SwitchMode};
use svt_hv::Machine;
use svt_sim::SimDuration;
use svt_virtio::{NetConfig, VirtioNet, Virtqueue};
use svt_workloads::*;

fn stream_machine(mode: SwitchMode, coalesce: u32) -> Machine {
    let mut m = nested_machine(mode);
    let lane = layout::lane(0);
    let cfg = NetConfig {
        mmio_base: lane.net_mmio,
        ack_coalesce: coalesce,
    };
    let net = VirtioNet::new(cfg, &m.cost, Virtqueue::new(lane.tx_queue, QUEUE_SIZE));
    m.add_device_for(Box::new(net), 0);
    m
}

#[test]
fn stream_sender_accounts_every_packet() {
    let mut m = stream_machine(SwitchMode::Baseline, 4);
    let cost = m.cost.clone();
    let mut sender = StreamSender::new(&cost, 16_384, 8, 100);
    m.run(&mut sender).unwrap();
    assert_eq!(sender.acked(), 100);
    let mbps = sender.throughput_mbps();
    assert!(mbps > 1_000.0 && mbps <= 10_000.0, "{mbps}");
}

#[test]
fn stream_partial_final_batch_is_flushed() {
    // 101 % 4 != 0: the delayed-ACK flush must complete the run.
    let mut m = stream_machine(SwitchMode::Baseline, 4);
    let cost = m.cost.clone();
    let mut sender = StreamSender::new(&cost, 16_384, 8, 101);
    m.run(&mut sender).expect("no ACK starvation");
    assert_eq!(sender.acked(), 101);
}

#[test]
fn stream_larger_window_does_not_reduce_throughput() {
    let run = |window| {
        let mut m = stream_machine(SwitchMode::Baseline, 4);
        let cost = m.cost.clone();
        let mut sender = StreamSender::new(&cost, 16_384, window, 120);
        m.run(&mut sender).unwrap();
        sender.throughput_mbps()
    };
    let w2 = run(2);
    let w12 = run(12);
    assert!(w12 >= w2 * 0.95, "window 2: {w2}, window 12: {w12}");
}

#[test]
fn disk_bench_latency_mode_is_synchronous() {
    let mut m = nested_machine(SwitchMode::Baseline);
    attach_blk_for(&mut m, 0);
    let cost = m.cost.clone();
    let mut bench = DiskBench::new(&cost, DiskMode::Latency, false, 512, 20);
    m.run(&mut bench).unwrap();
    assert_eq!(bench.completed(), 20);
    assert_eq!(bench.latency().len(), 20);
    // QD1: every sample is a full round trip; distribution is tight.
    let mean = bench.latency().mean();
    let p99 = bench.latency().p99();
    assert!(p99 < mean * 1.5, "mean {mean} p99 {p99}");
}

#[test]
fn disk_bandwidth_scales_with_queue_depth() {
    let run = |qd| {
        let mut m = nested_machine(SwitchMode::Baseline);
        attach_blk_for(&mut m, 0);
        let cost = m.cost.clone();
        let mut bench = DiskBench::new(&cost, DiskMode::Bandwidth { qd }, false, 4096, 60);
        m.run(&mut bench).unwrap();
        bench.bandwidth_kb_s()
    };
    let qd1 = run(1);
    let qd4 = run(4);
    assert!(qd4 > qd1, "qd1 {qd1} qd4 {qd4}");
}

#[test]
fn video_player_presents_every_frame() {
    let mut m = nested_machine(SwitchMode::Baseline);
    attach_blk_for(&mut m, 0);
    let mut cfg = VideoConfig::isca19(60);
    cfg.duration = SimDuration::from_secs(5);
    let mut p = VideoPlayer::new(cfg, 3);
    m.run(&mut p).unwrap();
    assert_eq!(p.frames_played(), 60 * 5);
    assert_eq!(p.frames_dropped(), 0);
    // Frames were paced by the timer, not free-running: at least 5 real
    // seconds elapsed on the simulated clock.
    assert!(m.clock.now().as_secs() >= 5.0);
}

#[test]
fn video_player_reads_file_chunks_from_disk() {
    let mut m = nested_machine(SwitchMode::Baseline);
    attach_blk_for(&mut m, 0);
    let mut cfg = VideoConfig::isca19(24);
    cfg.duration = SimDuration::from_secs(3);
    let mut p = VideoPlayer::new(cfg, 4);
    m.run(&mut p).unwrap();
    // ~6 chunks in 3s at 500ms cadence, tens of reads each.
    assert!(m.clock.tag_time("EPT_MISCONFIG").as_ns() > 0.0);
    assert!(m.obs.metrics.counter_total("irq_delivered") > 100);
}

#[test]
fn server_wal_blocks_reply_until_persistence() {
    // A service demanding WAL persistence must not reply before the block
    // write completes: with media+backend time W, per-request latency is
    // at least W larger than the no-WAL service.
    #[derive(Debug)]
    struct WalEcho;
    impl ServiceModel for WalEcho {
        fn serve(&mut self, _req: &ParsedRequest, _mem: &mut svt_mem::GuestMemory) -> ServeOutput {
            ServeOutput {
                compute: SimDuration::from_us(1),
                reply_len: 8,
                wal_bytes: 4096,
                disk_reads: 0,
            }
        }
    }
    let cost = svt_sim::CostModel::default();
    let run = |wal: bool| {
        let source = Box::new(FixedSource {
            request: Request {
                op: 0,
                key: 1,
                vsize: 1,
            },
        });
        let mut m = nested_machine(SwitchMode::Baseline);
        let stats =
            attach_loadgen_for_seeded(&mut m, 0, rr_arrival(&cost), 10, source, DEFAULT_LANE_SEED);
        attach_blk_for(&mut m, 0);
        let mut cfg = ServerConfig::rr_on_lane(&cost, 10, 0);
        cfg.blk_mmio = Some(layout::lane(0).blk_mmio);
        let svc: Box<dyn ServiceModel> = if wal {
            Box::new(WalEcho)
        } else {
            Box::new(EchoService {
                compute: SimDuration::from_us(1),
                reply_len: 8,
            })
        };
        let mut server = RrServer::new(cfg, svc);
        m.run(&mut server).unwrap();
        let s = stats.borrow();
        s.latency.mean()
    };
    let with_wal = run(true);
    let without = run(false);
    assert!(
        with_wal > without + 30_000.0,
        "wal {with_wal} vs plain {without}"
    );
}

#[test]
fn server_disk_reads_are_sequentially_ordered_before_reply() {
    #[derive(Debug)]
    struct ReadyEcho;
    impl ServiceModel for ReadyEcho {
        fn serve(&mut self, _req: &ParsedRequest, _mem: &mut svt_mem::GuestMemory) -> ServeOutput {
            ServeOutput {
                compute: SimDuration::from_us(1),
                reply_len: 8,
                wal_bytes: 128,
                disk_reads: 3,
            }
        }
    }
    let cost = svt_sim::CostModel::default();
    let source = Box::new(FixedSource {
        request: Request {
            op: 0,
            key: 1,
            vsize: 1,
        },
    });
    let mut m = nested_machine(SwitchMode::Baseline);
    let stats =
        attach_loadgen_for_seeded(&mut m, 0, rr_arrival(&cost), 5, source, DEFAULT_LANE_SEED);
    attach_blk_for(&mut m, 0);
    let mut cfg = ServerConfig::rr_on_lane(&cost, 5, 0);
    cfg.blk_mmio = Some(layout::lane(0).blk_mmio);
    let mut server = RrServer::new(cfg, Box::new(ReadyEcho));
    m.run(&mut server).unwrap();
    assert_eq!(stats.borrow().completed, 5);
    // 4 block operations per request (3 reads + 1 WAL write), 5 requests.
    assert!(m.obs.metrics.counter_total("irq_delivered") >= 5 * 4);
}

#[test]
fn open_loop_overload_saturates_gracefully() {
    // Offered load far beyond capacity: the server saturates, p99 blows
    // up, but the run completes and throughput plateaus.
    let p = memcached_point(SwitchMode::Baseline, 40_000.0, 400, DEFAULT_LANE_SEED);
    assert!(p.throughput < 20_000.0, "saturation: {}", p.throughput);
    assert!(p.p99_ns > SLA_NS, "overload exceeds SLA");
}
