//! The paper's § 6.2/6.3 profiling claims, reproduced from the clock's
//! per-exit-reason attribution.

use svt::core::{nested_machine, SwitchMode};
use svt::sim::SimDuration;
use svt::workloads::{
    attach_loadgen_for_seeded, memcached_point, rr_arrival, EchoService, FixedSource, Request,
    RrServer, ServerConfig, DEFAULT_LANE_SEED,
};

#[test]
fn vmcs_access_share_is_small_with_shadowing() {
    // § 6.2: "of all time spent handling VM traps in L0, only about 4% is
    // spent in the VM trap handlers triggered by VMCS accesses in L1."
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
        attach_loadgen_for_seeded(&mut m, 0, rr_arrival(&cost), 60, source, DEFAULT_LANE_SEED);
    let mut server = RrServer::new(
        ServerConfig::rr_on_lane(&cost, 60, 0),
        Box::new(EchoService {
            compute: SimDuration::from_us(2),
            reply_len: 1,
        }),
    );
    m.run(&mut server).unwrap();
    let vmcs = m.clock.tag_time("VMREAD").as_ns() + m.clock.tag_time("VMWRITE").as_ns();
    let total: f64 = m.clock.tags_by_time().iter().map(|(_, t)| t.as_ns()).sum();
    let share = vmcs / total;
    assert!(share < 0.12, "VMCS-access share {share:.3}");
}

#[test]
fn memcached_l0_time_dominated_by_ept_misconfig() {
    // § 6.3.1: "L0 spends 4.8%-19.3% of the overall time serving
    // EPT_MISCONFIG traps ... and 0.5%-4.6% serving MSR_WRITE."
    let p = memcached_point(SwitchMode::Baseline, 6_000.0, 200, DEFAULT_LANE_SEED);
    assert!(p.throughput > 0.0);
    // Re-run to inspect the clock (memcached_point consumes its machine, so
    // rebuild the scenario with the same parameters).
    let source = Box::new(svt::workloads::EtcSource::new(100_000));
    let cost = svt::sim::CostModel::default();
    let mut m = nested_machine(SwitchMode::Baseline);
    let _stats = attach_loadgen_for_seeded(
        &mut m,
        0,
        svt::workloads::ArrivalMode::OpenLoop {
            mean_interarrival: SimDuration::from_ns_f64(1e9 / 6_000.0),
        },
        200,
        source,
        DEFAULT_LANE_SEED,
    );
    let mut cfg = ServerConfig::rr_on_lane(&cost, 200, 0);
    cfg.timer_rearm_every = 4;
    cfg.replenish_every = 2;
    let mut server = RrServer::new(cfg, Box::new(svt::workloads::KvService::new(50_000)));
    m.run(&mut server).unwrap();

    let total = m.clock.now().since(svt::sim::SimTime::ZERO).as_ns();
    let ept = m.clock.tag_time("EPT_MISCONFIG").as_ns() / total;
    let msr = m.clock.tag_time("MSR_WRITE").as_ns() / total;
    assert!(
        (0.03..0.45).contains(&ept),
        "EPT_MISCONFIG share {ept:.3} (paper: 0.048-0.193)"
    );
    assert!(
        (0.005..0.25).contains(&msr),
        "MSR_WRITE share {msr:.3} (paper: 0.005-0.046)"
    );
    assert!(ept > msr, "EPT_MISCONFIG dominates MSR_WRITE");
}

#[test]
fn sw_svt_blocked_protocol_makes_forward_progress() {
    // § 5.3: an IPI to L1's main vCPU while the SVt-thread holds a command
    // must not deadlock; the SVT_BLOCKED path services it.
    use svt::hv::{GuestOp, Level, Machine, MachineConfig, MachineEvent, OpLoop};
    let cfg = MachineConfig::at_level(Level::L2);
    let reflector = Box::new(svt::core::SwSvtReflector::new());
    let mut m = Machine::with_reflector(cfg, reflector);
    // Arrange IPIs to arrive while traps are being handled.
    for i in 1..=5u64 {
        m.events.schedule(
            svt::sim::SimTime::from_us(30 + i * 9),
            MachineEvent::IpiToL1Main,
        );
    }
    let mut prog = OpLoop::new(GuestOp::Cpuid, 50, 1000, SimDuration::from_ns(10));
    m.run(&mut prog).expect("no deadlock");
    let blocked = m.obs.metrics.counter_total("svt_blocked");
    let direct = m.obs.metrics.counter_total("l1_ipi_direct");
    assert_eq!(
        blocked + direct,
        5,
        "all IPIs serviced ({blocked} blocked, {direct} direct)"
    );
    assert!(blocked >= 1, "at least one IPI hit the SVT_BLOCKED window");
    // L1's APIC saw and completed every IPI.
    assert!(m.l1.apic.is_idle());
}

/// One side of a cross-vCPU IPI ping-pong: send an ICR write to the
/// peer, halt until the peer's IPI arrives, repeat.
struct IpiPingPong {
    peer: u32,
    sends_left: u64,
    expect_recv: u64,
    received: u64,
    awaiting: bool,
    eoi_owed: u64,
}

impl IpiPingPong {
    fn initiator(peer: u32, rounds: u64) -> Self {
        IpiPingPong {
            peer,
            sends_left: rounds,
            expect_recv: rounds,
            received: 0,
            awaiting: false,
            eoi_owed: 0,
        }
    }

    fn responder(peer: u32, rounds: u64) -> Self {
        IpiPingPong {
            awaiting: true,
            ..Self::initiator(peer, rounds)
        }
    }
}

impl svt::hv::GuestProgram for IpiPingPong {
    fn step(&mut self, _ctx: &mut svt::hv::GuestCtx<'_>) -> svt::hv::GuestOp {
        use svt::arch::{IcrCommand, MSR_X2APIC_EOI, MSR_X2APIC_ICR, VECTOR_IPI};
        if self.eoi_owed > 0 {
            self.eoi_owed -= 1;
            return svt::hv::GuestOp::MsrWrite {
                msr: MSR_X2APIC_EOI,
                value: 0,
            };
        }
        if self.sends_left == 0 && self.received == self.expect_recv {
            return svt::hv::GuestOp::Done;
        }
        if self.awaiting {
            return svt::hv::GuestOp::Hlt;
        }
        self.sends_left -= 1;
        self.awaiting = true;
        svt::hv::GuestOp::MsrWrite {
            msr: MSR_X2APIC_ICR,
            value: IcrCommand::fixed(VECTOR_IPI, self.peer).encode(),
        }
    }

    fn interrupt(&mut self, vector: u8, _ctx: &mut svt::hv::GuestCtx<'_>) {
        if vector == svt::arch::VECTOR_IPI {
            self.received += 1;
            self.awaiting = false;
            self.eoi_owed += 1;
        }
    }

    fn name(&self) -> &'static str {
        "ipi-ping-pong"
    }
}

#[test]
fn svt_blocked_window_is_bounded_under_cross_vcpu_ipi_storm() {
    // § 5.3 on an SMP guest: two vCPUs ping-pong ICR-write IPIs while
    // IPIs for L1's main vCPU land inside the SW-SVt command windows.
    // The run must terminate (no deadlock between the two blocked-
    // protocol instances), no IPI may be lost, and every SVT_BLOCKED
    // service window must stay bounded.
    use svt::core::smp_machine;
    use svt::hv::{GuestProgram, MachineEvent};
    use svt::obs::MetricKey;

    const ROUNDS: u64 = 25;
    let mut m = smp_machine(SwitchMode::SwSvt, 2);
    for i in 1..=8u64 {
        m.events.schedule(
            svt::sim::SimTime::from_us(5 + i * 13),
            MachineEvent::IpiToL1Main,
        );
    }
    // Each of vCPU 0's sends is answered by vCPU 1, so both trap on the
    // ICR write 25 times and both spend most rounds inside the SW-SVt
    // command protocol.
    let mut p0 = IpiPingPong::initiator(1, ROUNDS);
    let mut p1 = IpiPingPong::responder(0, ROUNDS);
    let mut progs: Vec<&mut dyn GuestProgram> = vec![&mut p0, &mut p1];
    m.run_smp(&mut progs, svt::sim::SimTime::MAX)
        .expect("no deadlock under the IPI storm");

    // Nothing on the interconnect was lost: every ICR write reached its
    // target vCPU and woke it.
    assert_eq!(m.obs.metrics.counter_total("ipi_sent"), 2 * ROUNDS);
    assert_eq!(m.obs.metrics.counter_total("ipi_received"), 2 * ROUNDS);
    assert_eq!(p0.received, ROUNDS);
    assert_eq!(p1.received, ROUNDS);
    // Both vCPUs took the storm through their own reflector instance.
    assert!(m.obs.metrics.counter(MetricKey::new("ipi_sent").vcpu(0)) == ROUNDS);
    assert!(m.obs.metrics.counter(MetricKey::new("ipi_sent").vcpu(1)) == ROUNDS);

    // The SVT_BLOCKED path fired and each blocked window stayed short:
    // the main vCPU serviced the IPI and returned to the command wait.
    let blocked = m.obs.metrics.counter_total("svt_blocked");
    assert!(blocked >= 1, "storm never hit the SVT_BLOCKED window");
    let h = m
        .obs
        .metrics
        .histogram(MetricKey::new("svt_blocked_window_ps").reflector("sw-svt"))
        .expect("blocked windows recorded");
    assert_eq!(h.count(), blocked, "every blocked IPI recorded a window");
    assert!(
        h.max() < 20_000_000,
        "blocked window up to {} ps; expected < 20us",
        h.max()
    );
}
