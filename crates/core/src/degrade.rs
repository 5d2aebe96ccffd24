//! Graceful degradation for the SW-SVt protocol.
//!
//! The hardened reflector never trades liveness for speed: when the ring
//! protocol keeps failing (lost doorbells, dropped or corrupted
//! commands), it *falls back per-trap* to the classic exit/resume
//! world-switch path — slower, but immune to channel faults — and keeps
//! probing the ring so a healed channel is re-promoted. The policy lives
//! in this small explicit state machine:
//!
//! ```text
//!             first failed attempt                K consecutive failures
//!  Healthy ─────────────────────▶ Degraded ─────────────────────▶ FallenBack
//!     ▲                             │  ▲                              │
//!     │  HEAL_WINDOW clean traps    │  │        successful probe      │
//!     └─────────────────────────────┘  └──────────────────────────────┘
//!                                         (every PROBE_EVERY-th trap
//!                                          retries the ring)
//! ```
//!
//! K ([`FALLBACK_AFTER`]), the heal window and the probe period are
//! constants. Transitions are reported to the caller so every one of
//! them lands in the svt-obs metrics registry and on the causal graph,
//! which also count them.

/// Health of the SW-SVt channel, as judged by the degradation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvtHealth {
    /// The ring protocol is working; use it for every trap.
    Healthy,
    /// Recent failures seen; still on the ring, watching for a streak.
    Degraded,
    /// The ring is considered broken; traps take the classic world-switch
    /// path, with periodic ring probes.
    FallenBack,
}

impl SvtHealth {
    /// Stable snake_case name (metric dimension).
    pub fn name(self) -> &'static str {
        match self {
            SvtHealth::Healthy => "healthy",
            SvtHealth::Degraded => "degraded",
            SvtHealth::FallenBack => "fallen_back",
        }
    }
}

svt_sim::snap_enum! { "SVt health code" => SvtHealth { Healthy, Degraded, FallenBack } }

/// A state change the policy just made, for observability.
pub type Transition = (SvtHealth, SvtHealth);

/// Stable label of a transition (metric dimension). Only the four legal
/// edges of the diagram exist.
pub fn transition_label(t: Transition) -> &'static str {
    match t {
        (SvtHealth::Healthy, SvtHealth::Degraded) => "healthy->degraded",
        (SvtHealth::Degraded, SvtHealth::FallenBack) => "degraded->fallen_back",
        (SvtHealth::FallenBack, SvtHealth::Degraded) => "fallen_back->degraded",
        (SvtHealth::Degraded, SvtHealth::Healthy) => "degraded->healthy",
        _ => "invalid",
    }
}

/// Consecutive failed attempts (K) that demote `Degraded` → `FallenBack`.
pub const FALLBACK_AFTER: u32 = 4;

/// Consecutive clean ring traps that promote `Degraded` → `Healthy`.
pub const HEAL_WINDOW: u32 = 8;

/// In `FallenBack`, every this-many-th trap probes the ring.
pub const PROBE_EVERY: u32 = 8;

/// The degradation policy: counts consecutive failures and clean traps
/// and decides, per trap, whether the ring or the fallback path runs.
#[derive(Debug, Clone)]
pub struct DegradeFsm {
    state: SvtHealth,
    /// Consecutive failed channel attempts (reset by any clean trap).
    consec_failures: u32,
    /// Consecutive clean ring traps while `Degraded`.
    clean_streak: u32,
    /// Fallback traps since the last ring probe.
    since_probe: u32,
}

impl Default for DegradeFsm {
    fn default() -> Self {
        DegradeFsm {
            state: SvtHealth::Healthy,
            consec_failures: 0,
            clean_streak: 0,
            since_probe: 0,
        }
    }
}

impl DegradeFsm {
    /// A healthy policy with no failures seen.
    pub fn new() -> Self {
        DegradeFsm::default()
    }

    /// Current health.
    pub fn state(&self) -> SvtHealth {
        self.state
    }

    /// Consecutive failed attempts so far.
    pub fn consecutive_failures(&self) -> u32 {
        self.consec_failures
    }

    fn go(&mut self, to: SvtHealth) -> Option<Transition> {
        let from = self.state;
        if from == to {
            return None;
        }
        self.state = to;
        Some((from, to))
    }

    /// Decides the path for the next trap: `true` = ring, `false` =
    /// fallback world switch. In `FallenBack`, every [`PROBE_EVERY`]-th
    /// trap is a ring probe.
    pub fn use_ring(&mut self) -> bool {
        if self.state != SvtHealth::FallenBack {
            return true;
        }
        self.since_probe += 1;
        if self.since_probe >= PROBE_EVERY {
            self.since_probe = 0;
            true
        } else {
            false
        }
    }

    /// One channel attempt failed (timeout, corrupt, stale-exhausted…).
    /// Returns the transition taken, if any.
    pub fn on_failure(&mut self) -> Option<Transition> {
        self.clean_streak = 0;
        self.consec_failures += 1;
        match self.state {
            SvtHealth::Healthy => self.go(SvtHealth::Degraded),
            SvtHealth::Degraded if self.consec_failures >= FALLBACK_AFTER => {
                self.go(SvtHealth::FallenBack)
            }
            _ => None,
        }
    }

    /// One ring trap completed cleanly (both legs, no retries needed).
    /// Returns the transition taken, if any.
    pub fn on_clean(&mut self) -> Option<Transition> {
        self.consec_failures = 0;
        match self.state {
            SvtHealth::Healthy => None,
            SvtHealth::Degraded => {
                self.clean_streak += 1;
                if self.clean_streak >= HEAL_WINDOW {
                    self.clean_streak = 0;
                    self.go(SvtHealth::Healthy)
                } else {
                    None
                }
            }
            // A successful probe: the channel works again.
            SvtHealth::FallenBack => {
                self.clean_streak = 0;
                self.go(SvtHealth::Degraded)
            }
        }
    }
}

// A restored FSM continues the exact failure/heal/probe cadence.
svt_sim::snap_fields! { DegradeFsm { state, consec_failures, clean_streak, since_probe } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_consecutive_failures_reach_fallback_exactly_once() {
        let mut fsm = DegradeFsm::new();
        let mut taken = Vec::new();
        for _ in 0..FALLBACK_AFTER + 3 {
            if let Some(t) = fsm.on_failure() {
                taken.push(transition_label(t));
            }
        }
        assert_eq!(taken, ["healthy->degraded", "degraded->fallen_back"]);
        assert_eq!(fsm.state(), SvtHealth::FallenBack);
    }

    #[test]
    fn clean_trap_resets_the_failure_streak() {
        let mut fsm = DegradeFsm::new();
        for _ in 0..FALLBACK_AFTER - 1 {
            fsm.on_failure();
        }
        fsm.on_clean();
        assert_eq!(fsm.consecutive_failures(), 0);
        // The streak restarts: K-1 more failures do not fall back.
        for _ in 0..FALLBACK_AFTER - 1 {
            fsm.on_failure();
        }
        assert_eq!(fsm.state(), SvtHealth::Degraded);
    }

    #[test]
    fn healthy_window_repromotes() {
        let mut fsm = DegradeFsm::new();
        fsm.on_failure();
        assert_eq!(fsm.state(), SvtHealth::Degraded);
        let mut promoted = None;
        for _ in 0..HEAL_WINDOW {
            promoted = fsm.on_clean().or(promoted);
        }
        assert_eq!(promoted, Some((SvtHealth::Degraded, SvtHealth::Healthy)));
        assert_eq!(fsm.state(), SvtHealth::Healthy);
    }

    #[test]
    fn fallen_back_probes_periodically_and_recovers_via_degraded() {
        let mut fsm = DegradeFsm::new();
        for _ in 0..FALLBACK_AFTER {
            fsm.on_failure();
        }
        assert_eq!(fsm.state(), SvtHealth::FallenBack);
        // PROBE_EVERY - 1 fallback traps, then one probe.
        let rings = (0..PROBE_EVERY).filter(|_| fsm.use_ring()).count();
        assert_eq!(rings, 1);
        // The probe succeeds: back to Degraded, then heal to Healthy.
        assert_eq!(
            fsm.on_clean(),
            Some((SvtHealth::FallenBack, SvtHealth::Degraded))
        );
        assert!(fsm.use_ring(), "Degraded serves traps on the ring");
    }

    #[test]
    fn transition_labels_cover_the_diagram() {
        use SvtHealth::*;
        assert_eq!(transition_label((Healthy, Degraded)), "healthy->degraded");
        assert_eq!(
            transition_label((Degraded, FallenBack)),
            "degraded->fallen_back"
        );
        assert_eq!(
            transition_label((FallenBack, Degraded)),
            "fallen_back->degraded"
        );
        assert_eq!(transition_label((Degraded, Healthy)), "degraded->healthy");
    }
}
