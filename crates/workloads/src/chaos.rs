//! Chaos campaigns: serving workloads under deterministic fault injection.
//!
//! Runs the sharded memcached SMP workload with an armed
//! [`FaultPlan`] installed in the machine and harvests everything the
//! robustness story needs in one structured point: per-kind injection
//! counts, the recovery counters (retries, timeouts, duplicate drops),
//! the degradation state machine's transitions and fallback share, and
//! all causal-graph watchdog verdicts. One `(seed, rate)` pair fully
//! determines a run.

use svt_arch::ArchId;
use svt_core::SwitchMode;
use svt_hv::Machine;
use svt_obs::{MetricKey, WATCHDOGS};
use svt_sim::FaultPlan;

use crate::harness::DEFAULT_LANE_SEED;
use crate::smp::{traps_served, App, RunSpec, SmpPoint};

/// Everything one chaos run reports.
#[derive(Debug, Clone, Default)]
pub struct ChaosPoint {
    /// The serving-side result (throughput, latency), as in fault-free runs.
    pub point: SmpPoint,
    /// The fault plan's seed.
    pub seed: u64,
    /// Per-kind injected-fault counts, `(kind name, count)`.
    pub injected: Vec<(&'static str, u64)>,
    /// Total faults injected across all kinds.
    pub total_injected: u64,
    /// Channel retransmission attempts.
    pub retransmits: u64,
    /// Bounded-wait expirations (lost doorbells / dropped commands).
    pub timeouts: u64,
    /// Stale or duplicated ring entries discarded by the sequence check.
    pub duplicates_dropped: u64,
    /// Commands rejected for corruption, malformation or wrong kind.
    pub protocol_errors: u64,
    /// Interconnect-level IPI retransmissions (injected drops).
    pub ipi_retransmits: u64,
    /// Duplicate IPIs absorbed by the receiver's exactly-once check.
    pub ipi_duplicates_absorbed: u64,
    /// Degradation-policy transitions, `(label, count)`, taken edges only.
    pub transitions: Vec<(&'static str, u64)>,
    /// Traps served through the ring protocol.
    pub ring_traps: u64,
    /// Traps served through the classic world-switch fallback.
    pub fallback_traps: u64,
    /// Traps whose resume leg alone fell back.
    pub resume_fallbacks: u64,
    /// Every causal watchdog with its violation count (zeros included).
    pub watchdogs: Vec<(&'static str, u64)>,
    /// Simulated traps the run served (L2 vm-exits plus L0 direct
    /// exits) — the self-benchmark's unit of work.
    pub traps: u64,
}

impl ChaosPoint {
    /// Share of reflected traps that fell back whole, in [0, 1]: traps
    /// whose command leg failed, so the classic world switch served the
    /// trap, over every reflected trap (ring traps, whole fallbacks and
    /// traps whose resume leg alone fell back).
    pub fn fallback_rate(&self) -> f64 {
        let total = self.ring_traps + self.fallback_traps + self.resume_fallbacks;
        if total == 0 {
            0.0
        } else {
            self.fallback_traps as f64 / total as f64
        }
    }

    /// Sum of all watchdog violations (zero on a healthy run).
    pub fn watchdog_violations(&self) -> u64 {
        self.watchdogs.iter().map(|&(_, n)| n).sum()
    }
}

// Label keys (fault kinds, transitions, watchdogs) re-intern to
// `&'static str` on load — the universe of such names is the fixed
// in-tree set.
svt_sim::snap_fields! {
    ChaosPoint {
        point, seed, injected, total_injected, retransmits, timeouts, duplicates_dropped,
        protocol_errors, ipi_retransmits, ipi_duplicates_absorbed, transitions, ring_traps,
        fallback_traps, resume_fallbacks, watchdogs, traps
    }
}

/// Sharded memcached under per-vCPU open-loop ETC load with `plan`
/// armed on the machine. The same `(plan seed, rates, schedule)` always
/// produces the same point, bit for bit.
///
/// # Panics
///
/// Panics if `n_vcpus` is zero or exceeds the machine's physical cores,
/// or if no lane completes any request (an injection-survival failure:
/// liveness is part of the contract).
pub fn memcached_chaos(
    mode: SwitchMode,
    n_vcpus: usize,
    rate_qps: f64,
    requests: u64,
    plan: FaultPlan,
) -> ChaosPoint {
    let seed = plan.seed();
    let spec = RunSpec {
        app: App::Memcached { rate_qps, requests },
        mode,
        arch: ArchId::X86,
        vcpus: n_vcpus,
        // Lanes keep the default request streams regardless of the fault
        // seed: every cell of a fault-rate sweep then serves identical
        // load, so throughput differences are attributable to the faults.
        lane_seed: DEFAULT_LANE_SEED,
    };
    let (point, counters) = spec.run(
        |m| {
            m.faults = plan;
            // The causal graph doubles as the run's invariant monitor: its
            // watchdogs must stay silent even under injection.
            m.obs.causal.enable();
        },
        |m| harvest(m, seed),
    );
    ChaosPoint { point, ..counters }
}

/// Reads the injection, recovery and watchdog counters off a finished
/// chaos run. The serving `point` is left empty for the caller to fill.
fn harvest(m: &mut Machine, seed: u64) -> ChaosPoint {
    let total = |name: &str| m.obs.metrics.counter_total(name);
    let injected = m.faults.injected_counts();
    let total_injected = m.faults.total_injected();
    let taken: Vec<(&'static str, u64)> = [
        "healthy->degraded",
        "degraded->fallen_back",
        "fallen_back->degraded",
        "degraded->healthy",
    ]
    .into_iter()
    .map(|label| {
        let key = MetricKey::new("svt_state_transition")
            .exit(label)
            .reflector("sw-svt");
        (label, m.obs.metrics.counter(key))
    })
    .filter(|&(_, n)| n > 0)
    .collect();
    let watchdogs = WATCHDOGS
        .iter()
        .map(|&name| {
            let n = m
                .obs
                .causal
                .violations()
                .find(|&(k, _)| k == name)
                .map_or(0, |(_, n)| n);
            (name, n)
        })
        .collect();
    ChaosPoint {
        point: SmpPoint::default(),
        seed,
        injected,
        total_injected,
        retransmits: total("svt_retransmits"),
        timeouts: total("svt_timeouts"),
        duplicates_dropped: total("svt_duplicates_dropped"),
        protocol_errors: total("svt_protocol_errors"),
        ipi_retransmits: total("ipi_retransmits"),
        ipi_duplicates_absorbed: total("ipi_duplicates_absorbed"),
        transitions: taken,
        ring_traps: total("svt_trap_ring"),
        fallback_traps: total("svt_trap_fallback"),
        resume_fallbacks: total("svt_resume_fallback"),
        watchdogs,
        traps: traps_served(m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_chaos_matches_plain_smp() {
        let (plain, _) = crate::smp::memcached_smp_counted_seeded(
            SwitchMode::SwSvt,
            2,
            2_000.0,
            60,
            DEFAULT_LANE_SEED,
        );
        let chaos = memcached_chaos(SwitchMode::SwSvt, 2, 2_000.0, 60, FaultPlan::none());
        assert_eq!(chaos.point, plain);
        assert_eq!(chaos.total_injected, 0);
        assert_eq!(chaos.retransmits, 0);
        assert_eq!(chaos.watchdog_violations(), 0);
        assert_eq!(chaos.fallback_rate(), 0.0);
    }

    #[test]
    fn injected_faults_are_survived_and_counted() {
        let plan = FaultPlan::uniform(0xC4A05, 0.08);
        let chaos = memcached_chaos(SwitchMode::SwSvt, 2, 2_000.0, 80, plan);
        assert!(chaos.total_injected > 0, "plan injected nothing");
        assert!(chaos.point.completed > 0, "no requests survived");
        assert_eq!(
            chaos.watchdog_violations(),
            0,
            "watchdogs fired: {:?}",
            chaos.watchdogs
        );
        // Recovery actually ran: injected channel faults left retry marks.
        assert!(
            chaos.retransmits + chaos.timeouts + chaos.duplicates_dropped > 0,
            "{chaos:?}"
        );
    }

    #[test]
    fn fallback_rate_counts_resume_fallbacks_as_reflected_traps() {
        let p = ChaosPoint {
            ring_traps: 484,
            fallback_traps: 172,
            resume_fallbacks: 11,
            ..ChaosPoint::default()
        };
        assert_eq!(p.fallback_rate(), 172.0 / 667.0);
    }

    #[test]
    fn identical_seeds_reproduce_identical_campaigns() {
        let a = memcached_chaos(
            SwitchMode::SwSvt,
            2,
            2_000.0,
            60,
            FaultPlan::uniform(7, 0.05),
        );
        let b = memcached_chaos(
            SwitchMode::SwSvt,
            2,
            2_000.0,
            60,
            FaultPlan::uniform(7, 0.05),
        );
        assert_eq!(a.point, b.point);
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.retransmits, b.retransmits);
        assert_eq!(a.transitions, b.transitions);
    }
}
