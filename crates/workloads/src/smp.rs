//! SMP workload runners: sharded memcached and TPC-C on the N-vCPU machine.
//!
//! Each vCPU gets a full private serving lane — its own load-generator
//! NIC (and, for TPC-C, its own virtio-blk WAL device) on its own queue
//! memory and MMIO window, with device completions routed only to that
//! vCPU — plus its own shard of the application (a private [`KvService`]
//! or TPC-C warehouse set, as memcached and most sharded stores deploy on
//! SMP guests). Throughput is the sum over the per-vCPU load generators.
//! Fig. 8's single-vCPU memcached points are 1-vCPU runs of [`RunSpec`].

use svt_arch::ArchId;
use svt_core::{smp_machine_on, SwitchMode};
use svt_hv::{GuestProgram, Machine};
use svt_obs::{folded_stacks, CriticalPath};
use svt_sim::{SimDuration, SimTime};

use crate::harness::{attach_blk_for, attach_loadgen_for_seeded};
use crate::kvstore::{EtcSource, KvService};
use crate::layout;
use crate::loadgen::ArrivalMode;
use crate::server::{RrServer, ServerConfig};
use crate::tpcc::{TpccService, TpccSource};

/// Aggregate result of one SMP serving run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SmpPoint {
    /// vCPUs the guest ran with.
    pub n_vcpus: usize,
    /// Requests (or statements) completed across all lanes.
    pub completed: u64,
    /// Aggregate throughput in completions/second over the union of the
    /// lanes' active windows.
    pub throughput: f64,
    /// Mean end-to-end latency over all lanes, in nanoseconds.
    pub avg_ns: f64,
    /// Worst per-lane 99th-percentile latency, in nanoseconds.
    pub p99_ns: f64,
}

/// Causal-profiling products of one SMP run: the per-request critical
/// paths extracted from the machine's causal event graph, their folded
/// (FlameGraph-style) rendering, and the watchdog verdicts.
#[derive(Debug, Clone)]
pub struct CausalProfile {
    /// One critical path per completed request, in completion order.
    pub paths: Vec<CriticalPath>,
    /// Folded stacks (`vcpu;LEVEL;phase weight` lines).
    pub folded: String,
    /// `(watchdog name, violation count)` pairs, non-zero entries only.
    pub violations: Vec<(&'static str, u64)>,
    /// Causal events recorded over the run.
    pub events_recorded: u64,
    /// Events evicted by the graph's bounded ring.
    pub events_dropped: u64,
    /// The spans retained in the causal graph (for Chrome traces): the
    /// same window the flow arrows come from.
    pub spans: Vec<svt_obs::Span>,
    /// Cross-lane causal edges as Chrome flow arrows.
    pub flows: Vec<svt_obs::FlowArrow>,
}

impl CausalProfile {
    /// Arms a machine for profiling: enables the causal event graph. Pass
    /// as the `arm` of [`RunSpec::run`].
    pub fn arm(m: &mut Machine) {
        m.obs.causal.enable();
    }

    /// Extracts the causal products after a profiled run. `run_smp` has
    /// already swept the graph's watchdogs at the end-of-run clock. Pass
    /// as the `harvest` of [`RunSpec::run`].
    pub fn harvest(m: &mut Machine) -> CausalProfile {
        let paths = m.obs.causal.critical_paths();
        let folded = folded_stacks(&paths);
        let violations = m.obs.causal.violations().filter(|&(_, n)| n > 0).collect();
        CausalProfile {
            paths,
            folded,
            violations,
            events_recorded: m.obs.causal.recorded(),
            events_dropped: m.obs.causal.dropped(),
            spans: m.obs.causal.spans(),
            flows: m.obs.causal.flow_arrows(),
        }
    }
}

/// The application every lane of a [`RunSpec`] serves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum App {
    /// Sharded memcached under per-vCPU open-loop ETC load: each lane is
    /// offered `rate_qps` until it has issued `requests` requests.
    Memcached {
        /// Offered load per lane, queries/second.
        rate_qps: f64,
        /// Requests issued per lane.
        requests: u64,
    },
    /// Sharded TPC-C: per-vCPU closed-loop clients, each lane persisting
    /// its WAL to its own virtio-blk device.
    Tpcc {
        /// Whole TPC-C transactions per lane.
        transactions: u64,
    },
}

/// One SMP serving run: which application, on which engine, ISA backend
/// and vCPU count, with which per-lane request streams (lane `v` draws
/// from `lane_seed + v`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// The application every lane serves.
    pub app: App,
    /// The reflection engine.
    pub mode: SwitchMode,
    /// The ISA backend.
    pub arch: ArchId,
    /// vCPUs, one serving lane each.
    pub vcpus: usize,
    /// Base seed of the per-lane request streams.
    pub lane_seed: u64,
}

impl RunSpec {
    /// Runs the spec and returns the aggregate point plus whatever
    /// `harvest` read off the machine.
    ///
    /// `arm` runs right after the machine is built and before any lane is
    /// attached: it installs fault plans and turns on recorders. `harvest`
    /// runs once the machine has stopped, before teardown. Plain runs pass
    /// `|_| {}` and `|_| ()`.
    ///
    /// # Panics
    ///
    /// Panics if `vcpus` is zero or exceeds the machine's physical cores,
    /// if the run fails, or if no lane completes any request.
    pub fn run<T>(
        &self,
        arm: impl FnOnce(&mut Machine),
        harvest: impl FnOnce(&mut Machine) -> T,
    ) -> (SmpPoint, T) {
        let mut m = smp_machine_on(self.mode, self.arch, self.vcpus);
        arm(&mut m);
        let cost = m.cost.clone();
        let mut stats = Vec::with_capacity(self.vcpus);
        let mut servers: Vec<RrServer> = Vec::with_capacity(self.vcpus);
        let horizon = match self.app {
            App::Memcached { rate_qps, requests } => {
                let mean = SimDuration::from_ns_f64(1e9 / rate_qps);
                for v in 0..self.vcpus {
                    let source = Box::new(EtcSource::new(100_000));
                    stats.push(attach_loadgen_for_seeded(
                        &mut m,
                        v,
                        ArrivalMode::OpenLoop {
                            mean_interarrival: mean,
                        },
                        requests,
                        source,
                        self.lane_seed,
                    ));
                    let mut cfg = ServerConfig::rr_on_lane(&cost, u64::MAX, v);
                    cfg.timer_rearm_every = 4;
                    cfg.replenish_every = 2;
                    // One kv shard per vCPU: no cross-vCPU application state.
                    servers.push(RrServer::new(cfg, Box::new(KvService::new(50_000))));
                }
                SimTime::ZERO
                    + SimDuration::from_ns_f64(requests as f64 * mean.as_ns())
                    + SimDuration::from_ms(80)
            }
            App::Tpcc { transactions } => {
                let statements = transactions * 34;
                for v in 0..self.vcpus {
                    let source = Box::new(TpccSource::new(4));
                    stats.push(attach_loadgen_for_seeded(
                        &mut m,
                        v,
                        ArrivalMode::ClosedLoop {
                            concurrency: 4,
                            think: SimDuration::from_us(15),
                        },
                        statements,
                        source,
                        self.lane_seed,
                    ));
                    attach_blk_for(&mut m, v);
                    let mut cfg = ServerConfig::rr_on_lane(&cost, statements, v);
                    cfg.blk_mmio = Some(layout::lane(v).blk_mmio);
                    cfg.timer_rearm_every = 2;
                    cfg.replenish_every = 2;
                    // One warehouse set per vCPU, as sharded OLTP deployments do.
                    let (service, _db) = TpccService::new(4);
                    servers.push(RrServer::new(cfg, Box::new(service)));
                }
                SimTime::MAX
            }
        };
        run_servers(&mut m, &mut servers, horizon);
        let harvested = harvest(&mut m);
        let point = collect(self.vcpus, &stats);
        // Guest memory, EPT webs and the application shards are freed after
        // `run_end` closed the machine's profiling window; attribute that to
        // Teardown.
        svt_obs::hostprof::charge_block(svt_obs::HostPart::Teardown, move || {
            drop(servers);
            drop(m);
        });
        (point, harvested)
    }
}

fn run_servers(m: &mut Machine, servers: &mut [RrServer], horizon: SimTime) {
    let mut progs: Vec<&mut dyn GuestProgram> = servers
        .iter_mut()
        .map(|s| s as &mut dyn GuestProgram)
        .collect();
    m.run_smp(&mut progs, horizon).expect("smp run completes");
}

/// Simulated traps a machine served: L2 vm-exits plus L0 direct exits,
/// the unit of work the wall-clock self-benchmarks divide host time by.
pub(crate) fn traps_served(m: &Machine) -> u64 {
    m.obs.metrics.counter_total("vm_exit") + m.obs.metrics.counter_total("l0_direct_exit")
}

/// Sharded memcached on x86, additionally returning the simulated traps
/// the run served (see [`RunSpec`]).
///
/// # Panics
///
/// As [`RunSpec::run`].
pub fn memcached_smp_counted_seeded(
    mode: SwitchMode,
    n_vcpus: usize,
    rate_qps: f64,
    requests: u64,
    seed: u64,
) -> (SmpPoint, u64) {
    RunSpec {
        app: App::Memcached { rate_qps, requests },
        mode,
        arch: ArchId::X86,
        vcpus: n_vcpus,
        lane_seed: seed,
    }
    .run(|_| {}, |m| traps_served(m))
}

/// Sharded TPC-C on x86 (see [`RunSpec`]).
///
/// # Panics
///
/// As [`RunSpec::run`].
pub fn tpcc_smp_seeded(mode: SwitchMode, n_vcpus: usize, transactions: u64, seed: u64) -> SmpPoint {
    RunSpec {
        app: App::Tpcc { transactions },
        mode,
        arch: ArchId::X86,
        vcpus: n_vcpus,
        lane_seed: seed,
    }
    .run(|_| {}, |_| ())
    .0
}

pub(crate) fn collect(
    n_vcpus: usize,
    stats: &[std::rc::Rc<std::cell::RefCell<crate::loadgen::LoadStats>>],
) -> SmpPoint {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::DEFAULT_LANE_SEED;

    fn memcached(mode: SwitchMode, arch: ArchId, vcpus: usize, requests: u64) -> RunSpec {
        RunSpec {
            app: App::Memcached {
                rate_qps: 2_000.0,
                requests,
            },
            mode,
            arch,
            vcpus,
            lane_seed: DEFAULT_LANE_SEED,
        }
    }

    #[test]
    fn memcached_scales_with_vcpus() {
        let mut prev = 0.0;
        for n in [1usize, 2, 4] {
            let (p, ()) = memcached(SwitchMode::SwSvt, ArchId::X86, n, 80).run(|_| {}, |_| ());
            assert!(
                p.throughput > prev,
                "{n} vCPUs: {} not above {prev}",
                p.throughput
            );
            prev = p.throughput;
        }
    }

    #[test]
    fn riscv_memcached_runs_all_engines_cleanly() {
        for mode in SwitchMode::ALL {
            let (p, prof) = memcached(mode, ArchId::Riscv, 2, 40)
                .run(CausalProfile::arm, CausalProfile::harvest);
            assert!(p.completed > 0, "{mode}: no requests completed");
            assert!(
                prof.violations.is_empty(),
                "{mode}: watchdogs tripped {:?}",
                prof.violations
            );
        }
    }

    #[test]
    fn profiled_spans_come_from_the_retained_causal_window() {
        // 2 vCPUs x 400 requests overflow the causal ring: the oldest
        // events are evicted, and the spans must be evicted with them.
        for mode in SwitchMode::ALL {
            let (_, (prof, oldest)) =
                memcached(mode, ArchId::X86, 2, 400).run(CausalProfile::arm, |m: &mut Machine| {
                    let oldest = m.obs.causal.events().next().map(|e| e.at);
                    (CausalProfile::harvest(m), oldest)
                });
            assert!(prof.events_dropped > 0, "{mode}: the ring never evicted");
            let first = prof.spans.first().expect("spans retained");
            let oldest = oldest.expect("events retained");
            assert!(
                first.end >= oldest,
                "{mode}: span {} ends at {}, before the oldest retained event at {oldest}",
                first.name,
                first.end
            );
        }
    }

    #[test]
    fn tpcc_scales_with_vcpus() {
        let one = tpcc_smp_seeded(SwitchMode::HwSvt, 1, 30, DEFAULT_LANE_SEED);
        let two = tpcc_smp_seeded(SwitchMode::HwSvt, 2, 30, DEFAULT_LANE_SEED);
        assert!(
            two.throughput > one.throughput,
            "1 vCPU {} vs 2 vCPUs {}",
            one.throughput,
            two.throughput
        );
        assert_eq!(two.completed, 2 * one.completed);
    }
}
