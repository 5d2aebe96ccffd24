//! Telemetry runs: serving workloads with the windowed time-series
//! sampler and the flight recorder armed.
//!
//! [`TelemetryOpts::arm`] and [`TelemetryPoint::harvest`] are the
//! `arm`/`harvest` pair of a [`RunSpec`](crate::RunSpec) run: causal
//! graph (the flight buffer), timeline sampler at a configurable
//! simulated-time cadence, and the armed flight recorder. Everything the
//! run returns — the serving point, the columnar timeline, the crash
//! dump — is a pure function of the spec, the fault plan and the opts,
//! so timeline reports merge byte-identically across sweep workers
//! exactly like run reports do.

use svt_hv::Machine;
use svt_obs::Json;
use svt_sim::{SimDuration, SimTime};

use crate::smp::traps_served;

/// Knobs of a telemetry run.
#[derive(Debug, Clone)]
pub struct TelemetryOpts {
    /// Timeline window length in simulated time.
    pub cadence: SimDuration,
    /// Per-vCPU causal-tail length in flight dumps.
    pub flight_k: usize,
    /// Trip the flight recorder unconditionally at end of run, capturing
    /// a healthy tail even when nothing went wrong.
    pub dump_on_exit: bool,
}

impl Default for TelemetryOpts {
    fn default() -> Self {
        TelemetryOpts {
            cadence: svt_obs::DEFAULT_TIMELINE_CADENCE,
            flight_k: svt_obs::DEFAULT_FLIGHT_K,
            dump_on_exit: false,
        }
    }
}

impl TelemetryOpts {
    /// Turns on the causal graph, the timeline sampler and the flight
    /// recorder. Install any fault plan first.
    pub fn arm(&self, m: &mut Machine) {
        m.obs.causal.enable();
        m.obs.timeline.enable_with(self.cadence);
        m.obs.flight.enable_with(self.flight_k);
    }
}

/// Everything one telemetry run reports besides its serving point.
#[derive(Debug, Clone)]
pub struct TelemetryPoint {
    /// Simulated traps served (the self-benchmark's unit of work).
    pub traps: u64,
    /// Windows the timeline emitted.
    pub windows: usize,
    /// The columnar timeline export.
    pub timeline: Json,
    /// The latest flight-recorder dump, if any trip happened.
    pub flight: Option<Json>,
    /// Flight-recorder trips over the run.
    pub flight_trips: u64,
    /// Causal watchdog violations (zero on a healthy run).
    pub watchdog_violations: u64,
    /// Faults the armed plan injected.
    pub total_injected: u64,
    /// Traps served through the classic world-switch fallback.
    pub fallback_traps: u64,
}

impl TelemetryPoint {
    /// Reads the telemetry products off a finished run armed with
    /// `opts`, first tripping the end-of-run dump if `opts` asks for it.
    pub fn harvest(m: &mut Machine, opts: &TelemetryOpts) -> TelemetryPoint {
        if opts.dump_on_exit {
            let now = (0..m.n_vcpus())
                .map(|i| m.local_now(i))
                .max()
                .unwrap_or(SimTime::ZERO);
            m.obs.flight_trip("dump_on_exit", now);
        }
        TelemetryPoint {
            traps: traps_served(m),
            windows: m.obs.timeline.len(),
            timeline: m.obs.timeline.to_json(),
            flight: m.obs.flight.last_dump().cloned(),
            flight_trips: m.obs.flight.trips(),
            watchdog_violations: m.obs.causal.total_violations(),
            total_injected: m.faults.total_injected(),
            fallback_traps: m.obs.metrics.counter_total("svt_trap_fallback"),
        }
    }
}

#[cfg(test)]
mod tests {
    use svt_arch::ArchId;
    use svt_core::SwitchMode;
    use svt_sim::FaultPlan;

    use super::*;
    use crate::smp::{App, RunSpec, SmpPoint};
    use crate::DEFAULT_LANE_SEED;

    fn spec(arch: ArchId, vcpus: usize, requests: u64) -> RunSpec {
        RunSpec {
            app: App::Memcached {
                rate_qps: 2_000.0,
                requests,
            },
            mode: SwitchMode::SwSvt,
            arch,
            vcpus,
            lane_seed: DEFAULT_LANE_SEED,
        }
    }

    fn run(spec: RunSpec, plan: FaultPlan, opts: &TelemetryOpts) -> (SmpPoint, TelemetryPoint) {
        spec.run(
            |m| {
                m.faults = plan;
                opts.arm(m);
            },
            |m| TelemetryPoint::harvest(m, opts),
        )
    }

    #[test]
    fn telemetry_run_matches_plain_smp_and_samples_windows() {
        let (plain, ()) = spec(ArchId::X86, 2, 60).run(|_| {}, |_| ());
        let (point, t) = run(
            spec(ArchId::X86, 2, 60),
            FaultPlan::none(),
            &TelemetryOpts::default(),
        );
        // Observability never changes simulated behavior.
        assert_eq!(point, plain);
        assert!(t.windows > 0, "no timeline windows sampled");
        assert_eq!(
            t.timeline.get("windows").and_then(|w| w.as_i64()),
            Some(t.windows as i64)
        );
        // Fault-free run: no dump unless asked for.
        assert_eq!(t.flight_trips, 0);
        assert!(t.flight.is_none());
        assert_eq!(t.watchdog_violations, 0);
    }

    #[test]
    fn riscv_telemetry_cell_matches_plain_riscv_run() {
        // The smp bin's telemetry cell with `--arch riscv`: causal graph,
        // timeline and flight recorder armed on the H-extension backend,
        // through every engine.
        for mode in SwitchMode::ALL {
            let spec = RunSpec {
                mode,
                ..spec(ArchId::Riscv, 2, 40)
            };
            let (plain, ()) = spec.run(|_| {}, |_| ());
            let opts = TelemetryOpts {
                dump_on_exit: true,
                ..TelemetryOpts::default()
            };
            let (point, t) = run(spec, FaultPlan::none(), &opts);
            assert_eq!(point, plain, "{mode}: telemetry changed the riscv run");
            assert!(t.windows > 0, "{mode}: no timeline windows on riscv");
            assert_eq!(t.watchdog_violations, 0, "{mode}: watchdogs tripped");
            assert!(t.flight.is_some(), "{mode}: no end-of-run dump");
        }
    }

    #[test]
    fn dump_on_exit_captures_a_healthy_tail() {
        let (_, t) = run(
            spec(ArchId::X86, 1, 40),
            FaultPlan::none(),
            &TelemetryOpts {
                dump_on_exit: true,
                ..TelemetryOpts::default()
            },
        );
        assert_eq!(t.flight_trips, 1);
        let dump = t.flight.expect("dump-on-exit produced a dump");
        assert_eq!(dump.get("reason").unwrap().as_str(), Some("dump_on_exit"));
        let vcpus = dump.get("vcpus").unwrap().as_arr().unwrap();
        assert!(!vcpus.is_empty());
        assert!(!vcpus[0].get("events").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn forced_fallback_trips_the_recorder_with_tails() {
        // The chaos smoke's committed operating point: rate 0.05 at this
        // seed drives the policy into FallenBack.
        let (_, t) = run(
            spec(ArchId::X86, 2, 60),
            FaultPlan::uniform(0xC4A0_5EED, 0.05),
            &TelemetryOpts::default(),
        );
        assert!(t.total_injected > 0);
        assert!(t.flight_trips > 0, "no forced-fallback trip");
        let dump = t.flight.expect("trip produced a dump");
        assert_eq!(
            dump.get("reason").unwrap().as_str(),
            Some("forced_fallback")
        );
        let k = dump.get("k").unwrap().as_i64().unwrap() as usize;
        let vcpus = dump.get("vcpus").unwrap().as_arr().unwrap();
        let mut any_events = false;
        for lane in vcpus {
            let events = lane.get("events").unwrap().as_arr().unwrap();
            assert!(events.len() <= k);
            any_events |= !events.is_empty();
        }
        assert!(any_events, "dump carries no causal tail");
    }

    #[test]
    fn identical_configs_produce_identical_timelines() {
        let once = || {
            run(
                spec(ArchId::X86, 2, 60),
                FaultPlan::uniform(7, 0.05),
                &TelemetryOpts::default(),
            )
            .1
        };
        let (a, b) = (once(), once());
        assert_eq!(a.timeline.pretty(), b.timeline.pretty());
        assert_eq!(a.flight.map(|j| j.pretty()), b.flight.map(|j| j.pretty()));
    }
}
