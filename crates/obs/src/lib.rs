//! Unified observability for the SVt reproduction.
//!
//! One coherent telemetry layer wired through every subsystem:
//!
//! * [`MetricsRegistry`] — typed counters, gauges and log-bucketed latency
//!   histograms keyed by structured [`MetricKey`]s (level × exit reason ×
//!   reflector kind).
//! * [`CausalGraph`] — the causal event graph, the one event stream:
//!   every traced event gets a monotonic [`CausalEventId`] plus
//!   happens-before edges, supporting per-request critical-path
//!   extraction ([`CriticalPath`], folded stacks) and online invariant
//!   watchdogs (ring deadline, `SVT_BLOCKED` bound, IPI exactly-once,
//!   span nesting). Each trap stage (exit → transform → L0 handler →
//!   reflect → L1 handler → resume) is a span-close node with exact
//!   simulated-time stamps; [`CausalGraph::spans`] reads them back, and
//!   [`chrome_trace`] renders spans plus cross-lane flow arrows for
//!   Perfetto.
//! * [`RunReport`] — the machine-readable report every `svt-bench` binary
//!   emits via `--json <path>`, backing the `BENCH_*.json` perf
//!   trajectory.
//!
//! Serialization uses the in-tree [`Json`] value — the toolchain is
//! hermetic, so no external serde stack is available or wanted.

#![warn(missing_docs)]

mod causal;
mod chrome;
mod flight;
mod hist;
pub mod hostprof;
mod json;
mod key;
mod registry;
mod report;
mod timeline;

pub use causal::EventId as CausalEventId;
pub use causal::{
    fold_paths, folded_stacks, CausalEvent, CausalGraph, CriticalPath, FlowArrow, PathSegment,
    Span, WATCHDOGS,
};
pub use chrome::{chrome_trace, lane_tid};
pub use flight::{FlightRecorder, DEFAULT_FLIGHT_K};
pub use hist::LogHistogram;
pub use hostprof::{CountingAlloc, HostAgg, HostPart, HostProf, HostScope, ShapeStat};
pub use json::{Json, JsonError};
pub use key::{MetricKey, ObsLevel};
pub use registry::MetricsRegistry;
pub use report::{CriticalPathRow, ExitRow, PartRow, RunReport, SpeedupRow, REPORT_SCHEMA_VERSION};
pub use timeline::{Timeline, TimelineRow, DEFAULT_MAX_WINDOWS, DEFAULT_TIMELINE_CADENCE};

use svt_sim::{CostPart, SimDuration, SimTime};

/// The per-machine observability bundle: metrics and the causal event
/// graph, carried by the simulated machine and threaded through every
/// subsystem.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Typed metrics.
    pub metrics: MetricsRegistry,
    /// Causal event graph (spans, critical paths, watchdogs, flow arrows).
    pub causal: CausalGraph,
    /// Windowed time-series sampler (counter/part deltas per sim-time
    /// window).
    pub timeline: Timeline,
    /// Crash-dump flight recorder (per-vCPU causal tails + protocol
    /// state).
    pub flight: FlightRecorder,
    /// Host-cost self-profiler (wall/alloc attribution + trap shapes).
    pub hostprof: HostProf,
    /// Latest SW-SVt protocol state per vCPU lane, the one copy the
    /// timeline's rows and the flight recorder's dumps both read.
    proto: Vec<ProtoState>,
}

// The deterministic observability state: the full metrics registry plus
// the timeline and causal-graph cursors. Flight-recorder tails, the
// protocol-state mirror and host-profiler accumulators are process-local
// and are not carried.
svt_sim::snap_fields! { Obs { metrics, timeline, causal } skip { flight, hostprof, proto } }

/// The protocol state the SW-SVt reflector last pushed for one lane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProtoState {
    pub(crate) ring_depth: u32,
    pub(crate) blocked: bool,
    pub(crate) health: &'static str,
}

impl Default for ProtoState {
    fn default() -> Self {
        ProtoState {
            ring_depth: 0,
            blocked: false,
            health: "healthy",
        }
    }
}

impl Obs {
    /// A fresh bundle with the causal graph disabled.
    pub fn new() -> Self {
        Obs::default()
    }

    /// End-of-run bookkeeping: runs the causal graph's stale-entry sweep
    /// at `now` and harvests watchdog violation counts into the metrics
    /// registry (idempotent: counts are absolute, set as gauges would be
    /// wrong — the registry counter is brought up to the graph's total).
    pub fn finish_causal(&mut self, now: SimTime) {
        self.causal.finish(now);
        self.harvest_watchdogs();
    }

    /// Whether any consumer of reflector-pushed protocol state (timeline
    /// sampler or flight recorder) is live. The reflector checks this
    /// before computing ring occupancy, so disabled runs pay two flag
    /// loads and nothing else.
    #[inline]
    pub fn protocol_enabled(&self) -> bool {
        self.timeline.is_enabled() || self.flight.is_enabled()
    }

    /// Records the latest SW-SVt protocol state for a lane, pushed by the
    /// reflector whenever ring occupancy, the blocked flag or the
    /// degradation health changes. A no-op unless
    /// [`Obs::protocol_enabled`].
    pub fn note_protocol(
        &mut self,
        vcpu: u32,
        ring_depth: u32,
        blocked: bool,
        health: &'static str,
    ) {
        if !self.protocol_enabled() {
            return;
        }
        let i = vcpu as usize;
        if i >= self.proto.len() {
            self.proto.resize_with(i + 1, ProtoState::default);
        }
        self.proto[i] = ProtoState {
            ring_depth,
            blocked,
            health,
        };
    }

    /// Drives the timeline sampler with the machine-wide per-part
    /// attribution totals at `now`. The machine calls this only when
    /// [`Timeline::due`] already fired.
    pub fn sample_timeline(&mut self, now: SimTime, parts: &[SimDuration; CostPart::COUNT]) {
        let Obs {
            timeline,
            metrics,
            proto,
            ..
        } = self;
        timeline.sample(now, parts, metrics, proto);
    }

    /// Flushes the timeline's final partial window at end of run.
    pub fn flush_timeline(&mut self, now: SimTime, parts: &[SimDuration; CostPart::COUNT]) {
        let Obs {
            timeline,
            metrics,
            proto,
            ..
        } = self;
        timeline.flush(now, parts, metrics, proto);
    }

    /// Polls the flight recorder against the causal graph's watchdog
    /// verdicts; a fresh violation produces a crash dump.
    pub fn watch_flight(&mut self, now: SimTime) -> bool {
        let Obs {
            flight,
            causal,
            metrics,
            proto,
            ..
        } = self;
        flight.watch(now, causal, metrics, proto)
    }

    /// Trips the flight recorder unconditionally (forced fallback,
    /// `--dump-on-exit`).
    pub fn flight_trip(&mut self, reason: &str, now: SimTime) {
        let Obs {
            flight,
            causal,
            metrics,
            proto,
            ..
        } = self;
        flight.trip(reason, now, causal, metrics, proto);
    }

    /// Copies causal watchdog violation counts into the metrics registry
    /// under their watchdog names, adding only the delta since the last
    /// harvest.
    pub fn harvest_watchdogs(&mut self) {
        let deltas: Vec<(&'static str, u64)> = self
            .causal
            .violations()
            .map(|(name, total)| {
                let key = MetricKey::new(name);
                let have = self.metrics.counter(key);
                (name, total.saturating_sub(have))
            })
            .filter(|&(_, d)| d > 0)
            .collect();
        for (name, delta) in deltas {
            self.metrics.add(MetricKey::new(name), delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_wires_metrics_and_spans() {
        let mut obs = Obs::new();
        obs.metrics
            .inc(MetricKey::new("vm_exit").level(ObsLevel::L2));
        obs.causal.enable();
        obs.causal
            .span_close("exit", ObsLevel::L2, SimTime::ZERO, SimTime::from_ns(10));
        assert_eq!(
            obs.metrics
                .counter(MetricKey::new("vm_exit").level(ObsLevel::L2)),
            1
        );
        let spans = obs.causal.spans();
        assert_eq!(spans.len(), 1);
        let doc = chrome_trace(&spans, &[]);
        assert!(Json::parse(&doc.to_string()).is_ok());
    }

    #[test]
    fn one_protocol_push_feeds_the_timeline_and_the_flight_dump() {
        let mut obs = Obs::new();
        // Nothing armed: the push is dropped.
        obs.note_protocol(1, 3, true, "fallen_back");
        assert!(obs.proto.is_empty());
        obs.timeline.enable();
        obs.flight.enable();
        obs.note_protocol(1, 3, true, "fallen_back");
        let now = SimTime::from_us(10);
        obs.sample_timeline(now, &[SimDuration::ZERO; CostPart::COUNT]);
        let row = &obs.timeline.rows()[0];
        assert_eq!(
            (row.ring_depth, row.blocked_lanes, row.health),
            (3, 1, "fallen_back")
        );
        obs.flight_trip("forced_fallback", now);
        let dump = obs.flight.last_dump().expect("armed recorder dumps");
        let lane = &dump.get("vcpus").and_then(Json::as_arr).unwrap()[1];
        assert_eq!(
            lane.get("health").and_then(Json::as_str),
            Some("fallen_back")
        );
        assert_eq!(lane.get("ring_depth").and_then(Json::as_i64), Some(3));
    }

    #[test]
    fn watchdog_harvest_is_idempotent() {
        let mut obs = Obs::new();
        obs.causal.enable();
        obs.causal.ipi_recv(SimTime::from_ns(1)); // duplicate delivery
        obs.finish_causal(SimTime::from_ns(2));
        obs.finish_causal(SimTime::from_ns(3));
        assert_eq!(
            obs.metrics
                .counter(MetricKey::new("watchdog_ipi_duplicate")),
            1
        );
    }
}
