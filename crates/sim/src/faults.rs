//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seeded, fully deterministic chaos schedule: every
//! potential fault site in the simulation (a doorbell wakeup, a ring
//! command transfer, an IPI on the interconnect, the SVt sibling's
//! scheduling slot) asks the plan whether the fault fires *now*, and the
//! answer is a pure function of the seed, the per-kind rates and the
//! sequence of prior draws. Re-running the same workload with the same
//! plan reproduces the same fault schedule bit-for-bit, which is what
//! makes chaos campaigns regressable and fault bugs bisectable.
//!
//! The plan draws from the in-tree [`DetRng`] and can be gated on a
//! simulated-clock window, so campaigns can target a phase of a run
//! (e.g. only after warm-up). Kinds with a zero rate never consume a
//! draw: adding a new fault site does not perturb the schedule of plans
//! that do not exercise it, and a disabled plan ([`FaultPlan::none`]) is
//! entirely draw-free, keeping fault-free runs bit-identical to builds
//! without injection.

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// Every fault the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The `mwait` doorbell wakeup is lost: the waiter sleeps until its
    /// bounded timeout fires.
    DoorbellLost,
    /// The waiter wakes with no command present (stray store on the
    /// monitored line) and must re-arm.
    DoorbellSpurious,
    /// The SVt-thread sibling is delayed (preempted / stolen by another
    /// hypervisor thread) before handling the trap.
    SiblingDelay,
    /// A ring command is dropped: the sender's stores never become
    /// visible to the consumer.
    CmdDrop,
    /// A ring command is enqueued twice.
    CmdDuplicate,
    /// A ring command's payload is corrupted in shared memory.
    CmdCorrupt,
    /// An IPI vanishes from the interconnect (redelivered by the retry
    /// layer after a detection window).
    IpiDrop,
    /// An IPI is delivered twice.
    IpiDuplicate,
}

impl FaultKind {
    /// All kinds, in injection-report order.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::DoorbellLost,
        FaultKind::DoorbellSpurious,
        FaultKind::SiblingDelay,
        FaultKind::CmdDrop,
        FaultKind::CmdDuplicate,
        FaultKind::CmdCorrupt,
        FaultKind::IpiDrop,
        FaultKind::IpiDuplicate,
    ];

    /// Stable snake_case name (metric dimension and report key).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::DoorbellLost => "doorbell_lost",
            FaultKind::DoorbellSpurious => "doorbell_spurious",
            FaultKind::SiblingDelay => "sibling_delay",
            FaultKind::CmdDrop => "cmd_drop",
            FaultKind::CmdDuplicate => "cmd_duplicate",
            FaultKind::CmdCorrupt => "cmd_corrupt",
            FaultKind::IpiDrop => "ipi_drop",
            FaultKind::IpiDuplicate => "ipi_duplicate",
        }
    }

    fn idx(self) -> usize {
        match self {
            FaultKind::DoorbellLost => 0,
            FaultKind::DoorbellSpurious => 1,
            FaultKind::SiblingDelay => 2,
            FaultKind::CmdDrop => 3,
            FaultKind::CmdDuplicate => 4,
            FaultKind::CmdCorrupt => 5,
            FaultKind::IpiDrop => 6,
            FaultKind::IpiDuplicate => 7,
        }
    }
}

const KINDS: usize = FaultKind::ALL.len();

/// A seeded, deterministic fault schedule.
///
/// # Examples
///
/// ```
/// use svt_sim::{FaultKind, FaultPlan, SimTime};
///
/// let mut a = FaultPlan::uniform(7, 0.5);
/// let mut b = FaultPlan::uniform(7, 0.5);
/// let now = SimTime::ZERO;
/// for _ in 0..64 {
///     assert_eq!(
///         a.roll_at(now, FaultKind::CmdDrop),
///         b.roll_at(now, FaultKind::CmdDrop),
///     );
/// }
/// assert_eq!(a.injected(FaultKind::CmdDrop), b.injected(FaultKind::CmdDrop));
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: DetRng,
    seed: u64,
    rate: [f64; KINDS],
    budget: [u64; KINDS],
    injected: [u64; KINDS],
    window: Option<(SimTime, SimTime)>,
    delay_lo: SimDuration,
    delay_hi: SimDuration,
    armed: bool,
}

// The RNG stream position and injection counters ride along, so a
// restored plan continues the exact fault schedule.
crate::snap_fields! {
    FaultPlan {
        rng, seed, rate, budget, injected, window, delay_lo, delay_hi, armed
    }
}

impl FaultPlan {
    /// The disabled plan: never fires, never draws. Fault-free runs with
    /// this plan are bit-identical to runs without the injector.
    pub fn none() -> Self {
        FaultPlan {
            rng: DetRng::seed(0),
            seed: 0,
            rate: [0.0; KINDS],
            budget: [u64::MAX; KINDS],
            injected: [0; KINDS],
            window: None,
            delay_lo: SimDuration::from_us(1),
            delay_hi: SimDuration::from_us(4),
            armed: false,
        }
    }

    /// A plan with the given seed and all rates zero; arm it with
    /// [`FaultPlan::with_rate`].
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            rng: DetRng::seed(seed),
            seed,
            ..FaultPlan::none()
        }
    }

    /// A plan firing every kind at probability `p` per opportunity.
    pub fn uniform(seed: u64, p: f64) -> Self {
        let mut plan = FaultPlan::seeded(seed);
        for k in FaultKind::ALL {
            plan = plan.with_rate(k, p);
        }
        plan
    }

    /// Sets one kind's per-opportunity probability.
    pub fn with_rate(mut self, kind: FaultKind, p: f64) -> Self {
        self.rate[kind.idx()] = p;
        self.armed = self.rate.iter().any(|&r| r > 0.0);
        self
    }

    /// Caps one kind at `n` total injections (useful for pinning exactly
    /// one fault in negative tests).
    pub fn with_budget(mut self, kind: FaultKind, n: u64) -> Self {
        self.budget[kind.idx()] = n;
        self
    }

    /// Restricts injection to `[from, to)` of simulated time.
    pub fn with_window(mut self, from: SimTime, to: SimTime) -> Self {
        self.window = Some((from, to));
        self
    }

    /// Sets the bounds of the sibling-delay duration draw.
    pub fn with_delay(mut self, lo: SimDuration, hi: SimDuration) -> Self {
        assert!(lo <= hi, "empty delay range");
        self.delay_lo = lo;
        self.delay_hi = hi;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether any kind has a non-zero rate.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// One injection opportunity for `kind` at simulated time `now`:
    /// returns whether the fault fires. Kinds at rate zero (and plans
    /// outside their window or over budget) never consume a draw.
    pub fn roll_at(&mut self, now: SimTime, kind: FaultKind) -> bool {
        if !self.armed {
            return false;
        }
        let i = kind.idx();
        if self.rate[i] <= 0.0 || self.injected[i] >= self.budget[i] {
            return false;
        }
        if let Some((from, to)) = self.window {
            if now < from || now >= to {
                return false;
            }
        }
        if self.rng.chance(self.rate[i]) {
            self.injected[i] += 1;
            true
        } else {
            false
        }
    }

    /// Draws one sibling-delay duration from the configured bounds.
    pub fn delay(&mut self) -> SimDuration {
        let lo = self.delay_lo.as_ps();
        let hi = self.delay_hi.as_ps();
        if hi <= lo {
            return self.delay_lo;
        }
        SimDuration::from_ps(self.rng.range(lo, hi))
    }

    /// Total injections of one kind so far.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected[kind.idx()]
    }

    /// Total injections across all kinds.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Per-kind injection counts, in [`FaultKind::ALL`] order.
    pub fn injected_counts(&self) -> Vec<(&'static str, u64)> {
        FaultKind::ALL
            .iter()
            .map(|&k| (k.name(), self.injected(k)))
            .collect()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let mut p = FaultPlan::none();
        for _ in 0..100 {
            for k in FaultKind::ALL {
                assert!(!p.roll_at(SimTime::ZERO, k));
            }
        }
        assert_eq!(p.total_injected(), 0);
        assert!(!p.is_armed());
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultPlan::uniform(42, 0.3);
        let mut b = FaultPlan::uniform(42, 0.3);
        for i in 0..200u64 {
            let now = SimTime::ZERO + SimDuration::from_ns(i);
            for k in FaultKind::ALL {
                assert_eq!(a.roll_at(now, k), b.roll_at(now, k));
            }
        }
        assert_eq!(a.injected_counts(), b.injected_counts());
        assert!(a.total_injected() > 0, "p=0.3 over 1600 draws must fire");
    }

    #[test]
    fn zero_rate_kinds_do_not_perturb_the_stream() {
        // A plan exercising only CmdDrop gives the same CmdDrop schedule
        // whether or not other sites roll in between.
        let mut a = FaultPlan::seeded(7).with_rate(FaultKind::CmdDrop, 0.5);
        let mut b = FaultPlan::seeded(7).with_rate(FaultKind::CmdDrop, 0.5);
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        for _ in 0..100 {
            got_a.push(a.roll_at(SimTime::ZERO, FaultKind::CmdDrop));
            b.roll_at(SimTime::ZERO, FaultKind::IpiDrop); // rate 0: no draw
            got_b.push(b.roll_at(SimTime::ZERO, FaultKind::CmdDrop));
        }
        assert_eq!(got_a, got_b);
    }

    #[test]
    fn budget_caps_injections() {
        let mut p = FaultPlan::seeded(3)
            .with_rate(FaultKind::DoorbellLost, 1.0)
            .with_budget(FaultKind::DoorbellLost, 2);
        let fired: usize = (0..50)
            .filter(|_| p.roll_at(SimTime::ZERO, FaultKind::DoorbellLost))
            .count();
        assert_eq!(fired, 2);
        assert_eq!(p.injected(FaultKind::DoorbellLost), 2);
    }

    #[test]
    fn window_gates_injection() {
        let from = SimTime::ZERO + SimDuration::from_us(10);
        let to = SimTime::ZERO + SimDuration::from_us(20);
        let mut p = FaultPlan::seeded(5)
            .with_rate(FaultKind::CmdCorrupt, 1.0)
            .with_window(from, to);
        assert!(!p.roll_at(SimTime::ZERO, FaultKind::CmdCorrupt));
        assert!(p.roll_at(from, FaultKind::CmdCorrupt));
        assert!(!p.roll_at(to, FaultKind::CmdCorrupt));
    }

    #[test]
    fn delay_stays_in_bounds() {
        let lo = SimDuration::from_us(1);
        let hi = SimDuration::from_us(4);
        let mut p = FaultPlan::seeded(9).with_delay(lo, hi);
        for _ in 0..100 {
            let d = p.delay();
            assert!(d >= lo && d < hi, "{d:?}");
        }
    }

    #[test]
    fn kind_names_are_stable_and_unique() {
        let mut names: Vec<_> = FaultKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FaultKind::ALL.len());
    }
}
