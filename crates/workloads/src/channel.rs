//! § 6.1 channel study: communication-mechanism micro-benchmarks.
//!
//! Reproduces the paper's feasibility analysis of the SW-SVt channel:
//! the latency of signaling a waiting thread via a function call,
//! polling, `monitor`/`mwait` or a mutex, across thread placements and
//! surrounding workload sizes, including the cycles a busy-polling SMT
//! sibling steals from the worker. Values derive from the calibrated
//! [`CostModel`]; the conclusions the paper draws (mwait is the best
//! compromise on SMT; cross-NUMA is an order of magnitude worse) are
//! asserted by the tests.

use svt_core::POLL_STEAL_RATIO;
use svt_mem::{CommandRing, GuestMemory, Hpa};
use svt_sim::{Clock, CostModel, CostPart, Placement, SimDuration};
use svt_stats::Convergence;

/// A signaling mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// Plain function call (the no-channel baseline).
    FunctionCall,
    /// Busy polling on a shared cache line.
    Polling,
    /// `monitor`/`mwait` on the doorbell line.
    Mwait,
    /// Kernel futex.
    Mutex,
}

impl Mechanism {
    /// All mechanisms, in the paper's discussion order.
    pub const ALL: [Mechanism; 4] = [
        Mechanism::FunctionCall,
        Mechanism::Polling,
        Mechanism::Mwait,
        Mechanism::Mutex,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::FunctionCall => "function call",
            Mechanism::Polling => "polling",
            Mechanism::Mwait => "mwait",
            Mechanism::Mutex => "mutex",
        }
    }
}

/// One cell of the channel study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelCell {
    /// Mechanism measured.
    pub mechanism: Mechanism,
    /// Placement of the waiter relative to the worker.
    pub placement: Placement,
    /// Surrounding workload per round (dependent increments).
    pub workload_increments: u64,
    /// Signal-to-handler latency in nanoseconds.
    pub latency_ns: f64,
    /// Total per-round cost including the overhead the waiting mechanism
    /// imposes on the worker (the quantity that grows for polling on SMT).
    pub round_ns: f64,
}

/// Computes one cell of the study.
pub fn channel_cell(
    cost: &CostModel,
    mechanism: Mechanism,
    placement: Placement,
    workload_increments: u64,
) -> ChannelCell {
    let work = SimDuration::from_ps(cost.workload_increment.as_ps() * workload_increments);
    let line = cost.cacheline(placement);
    let latency_ns = match mechanism {
        Mechanism::FunctionCall => cost.function_call.as_ns(),
        Mechanism::Polling => (cost.poll_iter + line).as_ns(),
        Mechanism::Mwait => (cost.monitor_arm + cost.mwait_wake(placement)).as_ns(),
        Mechanism::Mutex => {
            // A mutex spins briefly in user space before sleeping: small
            // workloads are caught by the spin, longer ones pay the
            // kernel wake.
            if work < cost.mutex_spin_grace {
                (cost.mutex_spin_grace + line).as_ns()
            } else {
                (cost.mutex_wake + line).as_ns()
            }
        }
    };
    let steal_ns = match (mechanism, placement) {
        (Mechanism::Polling, Placement::SmtSibling) => work.as_ns() * POLL_STEAL_RATIO,
        _ => 0.0,
    };
    ChannelCell {
        mechanism,
        placement,
        workload_increments,
        latency_ns,
        round_ns: work.as_ns() + latency_ns + steal_ns,
    }
}

/// The full study: all mechanisms × remote placements × workload sizes.
pub fn channel_study(cost: &CostModel, workload_sizes: &[u64]) -> Vec<ChannelCell> {
    let mut cells = Vec::new();
    for &w in workload_sizes {
        for p in Placement::ALL_REMOTE {
            for m in Mechanism::ALL {
                if m == Mechanism::FunctionCall && p != Placement::SmtSibling {
                    continue; // a call has no placement dimension
                }
                cells.push(channel_cell(cost, m, p, w));
            }
        }
    }
    cells
}

/// The paper's workload-size axis.
pub fn default_workloads() -> Vec<u64> {
    vec![0, 64, 512, 4096, 16_384, 65_536]
}

/// Runs the channel micro-benchmark as an actual simulation rather than a
/// closed-form computation: a requester pushes commands through a real
/// [`CommandRing`] in guest memory, the responder wakes via the chosen
/// mechanism, does the surrounding workload, and answers through a second
/// ring — repeated until the paper's convergence criterion (2σ CI within
/// 1 % of the mean after 4σ outlier filtering) is met. Returns the mean
/// round time in nanoseconds.
///
/// # Panics
///
/// Panics on [`Placement::SameThread`] with any mechanism other than the
/// function call (a thread cannot signal itself).
pub fn simulate_channel_round_ns(
    cost: &CostModel,
    mechanism: Mechanism,
    placement: Placement,
    workload_increments: u64,
) -> f64 {
    let mut ram = GuestMemory::new(1 << 20);
    let cmd = CommandRing::new(Hpa(0x1000), 64, 8);
    let rsp = CommandRing::new(Hpa(0x1000 + cmd.footprint()), 64, 8);
    cmd.init(&mut ram).expect("ring in RAM");
    rsp.init(&mut ram).expect("ring in RAM");
    let mut clock = Clock::new();
    let work = SimDuration::from_ps(cost.workload_increment.as_ps() * workload_increments);

    let one_round = |clock: &mut Clock, ram: &mut GuestMemory, seq: u32| {
        let t0 = clock.now();
        // The responder computes the surrounding workload...
        clock.push_part(CostPart::Other);
        clock.charge(work);
        if mechanism == Mechanism::Polling && placement == Placement::SmtSibling {
            // ...slowed by the polling sibling stealing cycles.
            clock.charge(SimDuration::from_ns_f64(work.as_ns() * POLL_STEAL_RATIO));
        }
        clock.pop_part(CostPart::Other);
        clock.push_part(CostPart::Channel);
        if mechanism == Mechanism::FunctionCall {
            clock.charge(cost.function_call);
        } else {
            // Requester publishes the command...
            cmd.push(ram, &seq.to_le_bytes()).expect("ring has room");
            clock.charge(cost.cacheline(placement) * 2);
            // ...responder detects it...
            let wake = match mechanism {
                Mechanism::Mwait => cost.monitor_arm + cost.mwait_wake(placement),
                Mechanism::Polling => cost.poll_iter + cost.cacheline(placement),
                Mechanism::Mutex => {
                    if work < cost.mutex_spin_grace {
                        cost.mutex_spin_grace + cost.cacheline(placement)
                    } else {
                        cost.mutex_wake + cost.cacheline(placement)
                    }
                }
                Mechanism::FunctionCall => unreachable!(),
            };
            clock.charge(wake);
            let mut got = [0u8; 4];
            let len = cmd.pop(ram, &mut got).expect("ring in RAM");
            assert_eq!((len, got), (Some(4), seq.to_le_bytes()));
            // ...and answers; the requester wakes the same way.
            rsp.push(ram, &seq.to_le_bytes()).expect("ring has room");
            clock.charge(cost.cacheline(placement) * 2);
            clock.charge(wake);
            let mut back = [0u8; 4];
            let len = rsp.pop(ram, &mut back).expect("ring in RAM");
            assert_eq!((len, back), (Some(4), seq.to_le_bytes()));
        }
        clock.pop_part(CostPart::Channel);
        clock.now().since(t0).as_ns()
    };

    let mut conv = Convergence::new(0.01, 8, 4096);
    let mut seq = 0u32;
    conv.run(|| {
        seq = seq.wrapping_add(1);
        one_round(&mut clock, &mut ram, seq)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(m: Mechanism, p: Placement, w: u64) -> ChannelCell {
        channel_cell(&CostModel::default(), m, p, w)
    }

    #[test]
    fn polling_has_lowest_latency_for_small_workloads() {
        let p = Placement::SmtSibling;
        let poll = cell(Mechanism::Polling, p, 0);
        let mwait = cell(Mechanism::Mwait, p, 0);
        let mutex = cell(Mechanism::Mutex, p, 0);
        assert!(poll.latency_ns < mwait.latency_ns);
        assert!(poll.latency_ns < mutex.latency_ns);
    }

    #[test]
    fn polling_overhead_grows_with_workload_on_smt() {
        // "overheads increase with the workload in SMT because the waiting
        // thread consumes execution cycles from the computing thread".
        let small = cell(Mechanism::Polling, Placement::SmtSibling, 64);
        let large = cell(Mechanism::Polling, Placement::SmtSibling, 65_536);
        let mwait_large = cell(Mechanism::Mwait, Placement::SmtSibling, 65_536);
        let overhead_small = small.round_ns - small.workload_increments as f64 * 0.4;
        let overhead_large = large.round_ns - large.workload_increments as f64 * 0.4;
        assert!(overhead_large > overhead_small * 10.0);
        // At large workloads mwait's total round beats polling's.
        assert!(mwait_large.round_ns < large.round_ns);
    }

    #[test]
    fn cross_numa_is_order_of_magnitude_worse() {
        let smt = cell(Mechanism::Mwait, Placement::SmtSibling, 0);
        let numa = cell(Mechanism::Mwait, Placement::CrossNode, 0);
        assert!(numa.latency_ns > smt.latency_ns * 5.0, "{numa:?}");
    }

    #[test]
    fn mutex_beats_mwait_slightly_at_small_sizes_only() {
        // "mwait ... has slightly longer delays with small workload sizes
        // (mutex actively polls for a brief time first)" and "mwait is
        // slightly better than mutex in large workload sizes".
        let p = Placement::SmtSibling;
        let mutex_small = cell(Mechanism::Mutex, p, 0);
        let mwait_small = cell(Mechanism::Mwait, p, 0);
        assert!(mutex_small.latency_ns < mwait_small.latency_ns);
        let mutex_large = cell(Mechanism::Mutex, p, 65_536);
        let mwait_large = cell(Mechanism::Mwait, p, 65_536);
        assert!(mwait_large.round_ns < mutex_large.round_ns);
    }

    #[test]
    fn study_covers_full_grid() {
        let cells = channel_study(&CostModel::default(), &default_workloads());
        // 6 sizes x (3 placements x 3 mechanisms + 1 function call).
        assert_eq!(cells.len(), 6 * (3 * 3 + 1));
    }

    #[test]
    fn simulation_agrees_with_the_closed_form() {
        // The simulated ping-pong pays the closed form's one-way latency
        // twice plus four cache-line transfers for the two ring payloads.
        let cost = CostModel::default();
        for &w in &[0u64, 4096, 65_536] {
            for p in Placement::ALL_REMOTE {
                for m in [Mechanism::Mwait, Mechanism::Polling, Mechanism::Mutex] {
                    let analytic = channel_cell(&cost, m, p, w);
                    let simulated = simulate_channel_round_ns(&cost, m, p, w);
                    let expected =
                        analytic.round_ns + analytic.latency_ns + 4.0 * cost.cacheline(p).as_ns();
                    assert!(
                        (simulated - expected).abs() < 1.0,
                        "{m:?} {p} w={w}: sim {simulated:.0} vs expected {expected:.0}"
                    );
                }
            }
        }
    }

    #[test]
    fn simulated_rounds_converge_deterministically() {
        let cost = CostModel::default();
        let a = simulate_channel_round_ns(&cost, Mechanism::Mwait, Placement::SmtSibling, 64);
        let b = simulate_channel_round_ns(&cost, Mechanism::Mwait, Placement::SmtSibling, 64);
        assert_eq!(a, b);
        assert!(a > 1_000.0, "{a}");
    }

    #[test]
    fn smt_mwait_is_the_compromise_the_paper_picks() {
        // Low latency AND no worker slowdown: among mechanisms with zero
        // steal at SMT placement and large workloads, mwait has the lowest
        // latency besides the function call.
        let w = 16_384;
        let mwait = cell(Mechanism::Mwait, Placement::SmtSibling, w);
        let mutex = cell(Mechanism::Mutex, Placement::SmtSibling, w);
        let poll = cell(Mechanism::Polling, Placement::SmtSibling, w);
        assert!(mwait.round_ns <= mutex.round_ns);
        assert!(mwait.round_ns <= poll.round_ns);
    }
}
