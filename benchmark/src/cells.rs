//! The benchmark's workloads: each is a grid of cells, and each cell
//! builds, loads, runs and tears down one simulated machine through the
//! simulator's public API, timing every call from outside.

use std::time::Instant;

use svt_arch::ArchId;
use svt_core::{nested_machine_on, smp_machine, smp_machine_on, SwitchMode};
use svt_hv::{GuestOp, GuestProgram, Level, Machine, MachineConfig, OpLoop};
use svt_sim::{CostPart, FaultPlan, SimDuration, SimTime};
use svt_workloads::{
    attach_blk_for, attach_loadgen_for_seeded, layout, ArrivalMode, EtcSource, KvService,
    LoadStats, RrServer, ServerConfig, SmpPoint, TpccService, TpccSource, DEFAULT_LANE_SEED,
};

/// cpuid instructions per Fig-6 cell.
const CPUID_ITERS: u64 = 2_000;
/// Offered load per memcached lane (the committed smp campaign's rate).
const RATE_QPS: f64 = 2_000.0;
/// Fault probability of the chaos workload's faulted cell.
const CHAOS_RATE: f64 = 0.05;
/// Warm keys per memcached shard and key space of the ETC source, as in
/// the library's memcached runners.
const KV_WARM_KEYS: u64 = 50_000;
const ETC_KEYS: u64 = 100_000;
/// TPC-C warehouses per lane and statements per transaction.
const TPCC_WAREHOUSES: u64 = 4;
const TPCC_STATEMENTS_PER_TXN: u64 = 34;

/// The phases every cell is split into, in order. Each is one call (or
/// a few) into one crate, timed from outside.
pub const PHASES: [&str; 5] = [
    "core.boot",
    "workloads.setup",
    "hv.run",
    "workloads.teardown",
    "hv.teardown",
];
pub const BOOT: usize = 0;
pub const SETUP: usize = 1;
pub const RUN: usize = 2;
pub const WL_TEARDOWN: usize = 3;
pub const HV_TEARDOWN: usize = 4;

/// The deterministic counters read after each run: the per-layer name
/// and the registry counters it sums.
pub const COUNTERS: [(&str, &[&str]); 12] = [
    ("hv.traps", &["vm_exit", "l0_direct_exit"]),
    ("hv.l1_exits", &["l1_exit"]),
    ("hv.transforms", &["transform_fwd", "transform_bwd"]),
    ("arch.ipis_sent", &["ipi_sent"]),
    ("arch.irqs_injected", &["irq_injected"]),
    ("core.svt_commands", &["svt_commands"]),
    ("core.svt_blocked", &["svt_blocked"]),
    ("core.ring_traps", &["svt_trap_ring"]),
    ("core.fallback_traps", &["svt_trap_fallback"]),
    ("core.retransmits", &["svt_retransmits"]),
    ("core.timeouts", &["svt_timeouts"]),
    ("sim.faults_injected", &["fault_injected"]),
];
pub const TRAPS: usize = 0;
pub const RING_TRAPS: usize = 7;
pub const FALLBACK_TRAPS: usize = 8;
pub const FAULTS_INJECTED: usize = 11;

/// Load-generator totals summed over a cell's lanes.
pub const REQUEST_COUNTERS: [&str; 3] = [
    "workloads.requests_sent",
    "workloads.requests_completed",
    "workloads.requests_dropped",
];

/// Simulated time per trap is split into the paper's Fig-6 parts plus
/// the SW-SVt channel, under these names.
pub const SIM_PARTS: [(&str, CostPart); 7] = [
    ("hv.sim_ns.l2_guest", CostPart::L2Guest),
    ("hv.sim_ns.switch_l2_l0", CostPart::SwitchL2L0),
    ("hv.sim_ns.transform", CostPart::Transform),
    ("hv.sim_ns.l0_handler", CostPart::L0Handler),
    ("hv.sim_ns.switch_l0_l1", CostPart::SwitchL0L1),
    ("hv.sim_ns.l1_handler", CostPart::L1Handler),
    ("core.sim_ns.channel", CostPart::Channel),
];

/// What a cell simulates.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// The Fig-6 cpuid loop at one virtualization level.
    Cpuid { arch: ArchId, level: Level },
    /// Sharded memcached under open-loop ETC load. A `chaos` cell runs
    /// as the library's chaos campaign does (causal watchdogs on, the
    /// default lane streams) with faults injected at the given rate.
    Memcached {
        vcpus: usize,
        requests: u64,
        chaos: Option<f64>,
    },
    /// Sharded TPC-C with a WAL on virtio-blk, closed loop.
    Tpcc { vcpus: usize, transactions: u64 },
}

/// Which side of the workload's SVt-gain ratio a cell is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Base,
    Sw,
    Hw,
    Other,
}

#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub kind: Kind,
    pub mode: SwitchMode,
    pub role: Role,
}

impl Cell {
    /// Whether the cell is a nested x86 machine: the cells whose
    /// simulated time per trap splits into the Fig-6 parts.
    pub fn is_x86_l2(&self) -> bool {
        match self.kind {
            Kind::Cpuid { arch, level } => arch == ArchId::X86 && level == Level::L2,
            Kind::Memcached { .. } | Kind::Tpcc { .. } => true,
        }
    }
}

/// A named grid of cells; one pass over it is a round.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub cells: Vec<Cell>,
    /// Whether the gain compares throughput (higher is better) rather
    /// than latency.
    pub gain_by_throughput: bool,
}

pub const WORKLOADS: [&str; 4] = [
    "cpuid_nested",
    "memcached_campaign",
    "tpcc_wal",
    "memcached_chaos",
];

fn engines(kind: Kind) -> Vec<Cell> {
    [
        (SwitchMode::Baseline, Role::Base),
        (SwitchMode::SwSvt, Role::Sw),
        (SwitchMode::HwSvt, Role::Hw),
    ]
    .into_iter()
    .map(|(mode, role)| Cell { kind, mode, role })
    .collect()
}

/// The named workload's grid, or `None` for an unknown name.
pub fn workload(name: &str) -> Option<Workload> {
    let (name, cells, gain_by_throughput) = match name {
        "cpuid_nested" => {
            let mut cells = Vec::new();
            for arch in [ArchId::X86, ArchId::Riscv] {
                for level in [Level::L0, Level::L1] {
                    cells.push(Cell {
                        kind: Kind::Cpuid { arch, level },
                        mode: SwitchMode::Baseline,
                        role: Role::Other,
                    });
                }
                let mut l2 = engines(Kind::Cpuid {
                    arch,
                    level: Level::L2,
                });
                if arch != ArchId::X86 {
                    // The gains and the paper comparison are the x86 bars.
                    l2.iter_mut().for_each(|c| c.role = Role::Other);
                }
                cells.extend(l2);
            }
            ("cpuid_nested", cells, false)
        }
        "memcached_campaign" => (
            "memcached_campaign",
            engines(Kind::Memcached {
                vcpus: 4,
                requests: 150,
                chaos: None,
            }),
            false,
        ),
        "tpcc_wal" => (
            "tpcc_wal",
            engines(Kind::Tpcc {
                vcpus: 2,
                transactions: 20,
            }),
            true,
        ),
        "memcached_chaos" => {
            // Four vCPUs rather than two: with two, the run-to-run spread
            // of round times was about twice the campaign's on this host.
            let chaos = |rate, mode, role| Cell {
                kind: Kind::Memcached {
                    vcpus: 4,
                    requests: 100,
                    chaos: Some(rate),
                },
                mode,
                role,
            };
            let cells = vec![
                chaos(0.0, SwitchMode::Baseline, Role::Base),
                chaos(0.0, SwitchMode::SwSvt, Role::Other),
                chaos(CHAOS_RATE, SwitchMode::SwSvt, Role::Sw),
            ];
            ("memcached_chaos", cells, false)
        }
        _ => return None,
    };
    Some(Workload {
        name,
        cells,
        gain_by_throughput,
    })
}

/// Host time and allocations of one timed interval, in nanoseconds
/// since the process's stopwatch epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interval {
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub bytes: u64,
}

impl Interval {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times closures against one epoch and counts their allocations with
/// the counting allocator's thread-local totals.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    epoch: Instant,
}

impl Stopwatch {
    pub fn new() -> Self {
        Stopwatch {
            epoch: Instant::now(),
        }
    }

    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Interval) {
        let (a0, b0) = svt_obs::hostprof::thread_alloc_totals();
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        let (a1, b1) = svt_obs::hostprof::thread_alloc_totals();
        let iv = Interval {
            start_ns: start,
            end_ns: end,
            allocs: a1 - a0,
            bytes: b1 - b0,
        };
        (out, iv)
    }
}

/// The phase intervals of one cell, filled in as the cell runs; a phase
/// a panic skipped stays zero.
#[derive(Debug)]
pub struct PhaseLog {
    clock: Stopwatch,
    pub phases: [Interval; PHASES.len()],
}

impl PhaseLog {
    pub fn new(clock: Stopwatch) -> Self {
        PhaseLog {
            clock,
            phases: [Interval::default(); PHASES.len()],
        }
    }

    fn phase<T>(&mut self, phase: usize, f: impl FnOnce() -> T) -> T {
        let (out, iv) = self.clock.time(f);
        self.phases[phase] = iv;
        out
    }
}

/// The simulated result of one cell: everything a correct run must
/// reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// cpuid cells: latency in µs per instruction.
    pub cpuid_us: Option<f64>,
    /// Serving cells: the aggregate serving point.
    pub point: Option<SmpPoint>,
    pub counts: [u64; COUNTERS.len()],
    pub requests: [u64; REQUEST_COUNTERS.len()],
    /// Machine-wide simulated time per [`SIM_PARTS`] entry.
    pub sim_parts: [SimDuration; SIM_PARTS.len()],
    pub watchdog_violations: u64,
}

impl Outcome {
    fn harvest(m: &Machine, stats: &[std::rc::Rc<std::cell::RefCell<LoadStats>>]) -> Outcome {
        let counts =
            COUNTERS.map(|(_, names)| names.iter().map(|n| m.obs.metrics.counter_total(n)).sum());
        let mut requests = [0; REQUEST_COUNTERS.len()];
        for s in stats {
            let s = s.borrow();
            requests[0] += s.sent;
            requests[1] += s.completed;
            requests[2] += s.dropped;
        }
        let parts = m.total_part_time();
        Outcome {
            cpuid_us: None,
            point: None,
            counts,
            requests,
            sim_parts: SIM_PARTS.map(|(_, p)| parts[p as usize]),
            watchdog_violations: m.obs.causal.violations().map(|(_, n)| n).sum(),
        }
    }

    /// The number the workload's SVt gain compares.
    pub fn headline(&self, by_throughput: bool) -> f64 {
        match (&self.point, self.cpuid_us) {
            (Some(p), _) if by_throughput => p.throughput,
            (Some(p), _) => p.avg_ns,
            (None, Some(us)) => us,
            (None, None) => f64::NAN,
        }
    }
}

fn chaos_plan(seed: u64, rate: f64) -> FaultPlan {
    if rate > 0.0 {
        FaultPlan::uniform(seed, rate)
    } else {
        FaultPlan::none()
    }
}

/// Runs one cell, recording each phase's host cost in `log`.
pub fn run_cell(cell: &Cell, seed: u64, log: &mut PhaseLog) -> Outcome {
    let mode = cell.mode;
    match cell.kind {
        Kind::Cpuid { arch, level } => {
            let mut m = log.phase(BOOT, || {
                if level == Level::L2 {
                    nested_machine_on(mode, arch)
                } else {
                    Machine::baseline(MachineConfig::at_level_on(level, arch))
                }
            });
            let (mut warm, mut prog) = log.phase(SETUP, || {
                (
                    OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO),
                    OpLoop::new(GuestOp::Cpuid, CPUID_ITERS, 0, SimDuration::ZERO),
                )
            });
            // As the library's cpuid runners: one warm-up cpuid, then the
            // measured loop's busy time.
            let busy = log.phase(RUN, || {
                m.run(&mut warm).expect("cpuid never blocks");
                let base = m.clock.snapshot();
                m.run(&mut prog).expect("cpuid never blocks");
                m.clock.since_snapshot(&base).busy_time()
            });
            let mut out = Outcome::harvest(&m, &[]);
            out.cpuid_us = Some(busy.as_us() / CPUID_ITERS as f64);
            // The cpuid loops own no heap memory: nothing to tear down.
            log.phase(WL_TEARDOWN, || {});
            log.phase(HV_TEARDOWN, || drop(m));
            out
        }
        Kind::Memcached {
            vcpus,
            requests,
            chaos,
        } => {
            let mean = SimDuration::from_ns_f64(1e9 / RATE_QPS);
            let mut m = log.phase(BOOT, || match chaos {
                Some(_) => smp_machine(mode, vcpus),
                None => smp_machine_on(mode, ArchId::X86, vcpus),
            });
            let (stats, mut servers) = log.phase(SETUP, || {
                // Chaos cells keep the default lane streams, so only the
                // fault plan varies with the seed.
                let lane_seed = match chaos {
                    Some(rate) => {
                        m.faults = chaos_plan(seed, rate);
                        m.obs.causal.enable();
                        DEFAULT_LANE_SEED
                    }
                    None => seed,
                };
                let cost = m.cost.clone();
                let mut stats = Vec::with_capacity(vcpus);
                let mut servers = Vec::with_capacity(vcpus);
                for v in 0..vcpus {
                    stats.push(attach_loadgen_for_seeded(
                        &mut m,
                        v,
                        ArrivalMode::OpenLoop {
                            mean_interarrival: mean,
                        },
                        requests,
                        Box::new(EtcSource::new(ETC_KEYS)),
                        lane_seed,
                    ));
                    let mut cfg = ServerConfig::rr_on_lane(&cost, u64::MAX, v);
                    cfg.timer_rearm_every = 4;
                    cfg.replenish_every = 2;
                    servers.push(RrServer::new(cfg, Box::new(KvService::new(KV_WARM_KEYS))));
                }
                (stats, servers)
            });
            let horizon = SimTime::ZERO
                + SimDuration::from_ns_f64(requests as f64 * mean.as_ns())
                + SimDuration::from_ms(80);
            log.phase(RUN, || run_servers(&mut m, &mut servers, horizon));
            let mut out = Outcome::harvest(&m, &stats);
            out.point = Some(collect(vcpus, &stats));
            log.phase(WL_TEARDOWN, || drop((servers, stats)));
            log.phase(HV_TEARDOWN, || drop(m));
            out
        }
        Kind::Tpcc {
            vcpus,
            transactions,
        } => {
            let statements = transactions * TPCC_STATEMENTS_PER_TXN;
            let mut m = log.phase(BOOT, || smp_machine_on(mode, ArchId::X86, vcpus));
            let (stats, mut servers) = log.phase(SETUP, || {
                let cost = m.cost.clone();
                let mut stats = Vec::with_capacity(vcpus);
                let mut servers = Vec::with_capacity(vcpus);
                for v in 0..vcpus {
                    stats.push(attach_loadgen_for_seeded(
                        &mut m,
                        v,
                        ArrivalMode::ClosedLoop {
                            concurrency: 4,
                            think: SimDuration::from_us(15),
                        },
                        statements,
                        Box::new(TpccSource::new(TPCC_WAREHOUSES)),
                        seed,
                    ));
                    attach_blk_for(&mut m, v);
                    let mut cfg = ServerConfig::rr_on_lane(&cost, statements, v);
                    cfg.blk_mmio = Some(layout::lane(v).blk_mmio);
                    cfg.timer_rearm_every = 2;
                    cfg.replenish_every = 2;
                    let (service, _db) = TpccService::new(TPCC_WAREHOUSES);
                    servers.push(RrServer::new(cfg, Box::new(service)));
                }
                (stats, servers)
            });
            log.phase(RUN, || run_servers(&mut m, &mut servers, SimTime::MAX));
            let mut out = Outcome::harvest(&m, &stats);
            out.point = Some(collect(vcpus, &stats));
            log.phase(WL_TEARDOWN, || drop((servers, stats)));
            log.phase(HV_TEARDOWN, || drop(m));
            out
        }
    }
}

fn run_servers(m: &mut Machine, servers: &mut [RrServer], horizon: SimTime) {
    let mut progs: Vec<&mut dyn GuestProgram> = servers
        .iter_mut()
        .map(|s| s as &mut dyn GuestProgram)
        .collect();
    m.run_smp(&mut progs, horizon).expect("smp run completes");
}

/// Aggregates the lanes' load statistics exactly as the library's SMP
/// runners do, so the point can be compared with theirs bit for bit.
fn collect(n_vcpus: usize, stats: &[std::rc::Rc<std::cell::RefCell<LoadStats>>]) -> SmpPoint {
    let mut completed = 0;
    let mut lat_sum = 0.0;
    let mut p99 = 0.0f64;
    let mut first: Option<SimTime> = None;
    let mut last: Option<SimTime> = None;
    for s in stats {
        let s = s.borrow();
        completed += s.completed;
        lat_sum += s.latency.mean() * s.completed as f64;
        p99 = p99.max(s.latency.p99());
        first = match (first, s.first_send) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        last = match (last, s.last_reply) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
    let span = last
        .expect("replies received")
        .since(first.expect("requests sent"))
        .as_secs();
    assert!(span > 0.0, "degenerate measurement window");
    SmpPoint {
        n_vcpus,
        completed,
        throughput: completed as f64 / span,
        avg_ns: lat_sum / completed as f64,
        p99_ns: p99,
    }
}

/// Whether `out` equals what the library's own runner returns for the
/// same configuration.
pub fn matches_library(cell: &Cell, seed: u64, out: &Outcome) -> bool {
    let mode = cell.mode;
    let traps = out.counts[TRAPS];
    match cell.kind {
        Kind::Cpuid { arch, level } => {
            let us = out.cpuid_us.expect("cpuid cells report latency");
            if arch == ArchId::X86 {
                svt_workloads::cpuid_counted(level, mode, CPUID_ITERS) == (us, traps)
            } else {
                svt_workloads::cpuid_us_on(level, mode, arch, CPUID_ITERS) == us
            }
        }
        Kind::Memcached {
            vcpus,
            requests,
            chaos: None,
        } => {
            svt_workloads::memcached_smp_counted_seeded(mode, vcpus, RATE_QPS, requests, seed)
                == (
                    out.point.clone().expect("serving cells report a point"),
                    traps,
                )
        }
        Kind::Memcached {
            vcpus,
            requests,
            chaos: Some(rate),
        } => {
            let c = svt_workloads::memcached_chaos(
                mode,
                vcpus,
                RATE_QPS,
                requests,
                chaos_plan(seed, rate),
            );
            out.point.as_ref() == Some(&c.point)
                && traps == c.traps
                && out.counts[RING_TRAPS] == c.ring_traps
                && out.counts[FALLBACK_TRAPS] == c.fallback_traps
                && out.counts[FAULTS_INJECTED] == c.total_injected
                && out.watchdog_violations == c.watchdog_violations()
        }
        Kind::Tpcc {
            vcpus,
            transactions,
        } => {
            out.point.as_ref()
                == Some(&svt_workloads::tpcc_smp_seeded(
                    mode,
                    vcpus,
                    transactions,
                    seed,
                ))
        }
    }
}
