//! The crash-dump flight recorder.
//!
//! A post-mortem needs the *tail* of a run: what each vCPU was doing in
//! the moments before an invariant watchdog tripped or the degradation
//! policy fell back to world switches. The recorder reuses the causal
//! graph's existing bounded event ring as its flight buffer — the graph
//! already retains the last few thousand events allocation-free, so
//! arming the recorder adds **zero** hot-path recording cost on top of
//! causal tracing. A trip only pays at dump time: it walks the retained
//! ring, extracts the last K events per vCPU together with the latest
//! protocol state pushed by the reflector (the same per-lane mirror the
//! timeline reads, kept on [`crate::Obs`]), and serializes a structured
//! JSON crash report, kept in memory as [`FlightRecorder::last_dump`].
//!
//! Three things trip it:
//! - an invariant watchdog violation surfacing in the causal graph
//!   (polled by the machine via [`crate::Obs::watch_flight`]),
//! - the degradation policy being forced into `FallenBack`,
//! - `--dump-on-exit` on the bench bins (an unconditional end-of-run
//!   trip, for capturing healthy tails).

use svt_sim::SimTime;

use crate::causal::CausalGraph;
use crate::json::Json;
use crate::registry::MetricsRegistry;
use crate::ProtoState;

/// Per-vCPU tail length (K) of a dump.
pub const DEFAULT_FLIGHT_K: usize = 32;

/// The flight recorder. Lives on [`crate::Obs`]; the machine polls
/// [`crate::Obs::watch_flight`] and the SW-SVt reflector trips it
/// directly on a forced fallback.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    enabled: bool,
    /// Watchdog violations already attributed to a previous trip, so the
    /// poll stays delta-based and a single violation trips exactly once.
    seen_violations: u64,
    trips: u64,
    last_dump: Option<Json>,
}

impl FlightRecorder {
    /// A disarmed recorder.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Arms the recorder; dumps keep the last [`DEFAULT_FLIGHT_K`] events
    /// per vCPU.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether the recorder is armed.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of trips so far.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// The most recent dump, if any trip happened.
    pub fn last_dump(&self) -> Option<&Json> {
        self.last_dump.as_ref()
    }

    /// Polls the causal graph for new watchdog violations and trips on
    /// any, with `proto` the per-lane protocol state. Returns whether a
    /// dump was produced.
    pub(crate) fn watch(
        &mut self,
        now: SimTime,
        causal: &CausalGraph,
        metrics: &MetricsRegistry,
        proto: &[ProtoState],
    ) -> bool {
        if !self.enabled {
            return false;
        }
        let total = causal.total_violations();
        if total <= self.seen_violations {
            return false;
        }
        self.seen_violations = total;
        self.trip("watchdog_violation", now, causal, metrics, proto);
        true
    }

    /// Produces a crash dump now: the last K causal events and the
    /// protocol state (`proto`, by lane) per vCPU, watchdog verdicts, and
    /// every counter total. The dump is kept in memory.
    pub(crate) fn trip(
        &mut self,
        reason: &str,
        now: SimTime,
        causal: &CausalGraph,
        metrics: &MetricsRegistry,
        proto: &[ProtoState],
    ) {
        if !self.enabled {
            return;
        }
        self.trips += 1;
        // Watchdog state observed at trip time is "seen": an exit-time
        // trip after a watchdog trip must not double-report.
        self.seen_violations = self.seen_violations.max(causal.total_violations());
        let k = DEFAULT_FLIGHT_K;
        // Per-vCPU tails out of the retained ring (time-ordered already).
        let n_vcpus = causal
            .events()
            .map(|e| e.vcpu as usize + 1)
            .max()
            .unwrap_or(0)
            .max(proto.len());
        let mut tails: Vec<Vec<Json>> = vec![Vec::new(); n_vcpus];
        for e in causal.events() {
            let preds: Vec<Json> = e
                .preds
                .as_slice()
                .iter()
                .map(|p| Json::from(p.raw()))
                .collect();
            let lane = &mut tails[e.vcpu as usize];
            if lane.len() == k {
                lane.remove(0);
            }
            lane.push(Json::obj([
                ("id", Json::from(e.id.raw())),
                ("phase", Json::from(e.phase)),
                ("level", Json::from(e.level.name())),
                ("at_ps", Json::from(e.at.as_ps())),
                ("preds", Json::Arr(preds)),
            ]));
        }
        let vcpus: Vec<Json> = tails
            .into_iter()
            .enumerate()
            .map(|(v, events)| {
                let proto = proto.get(v).copied().unwrap_or_default();
                Json::obj([
                    ("vcpu", Json::from(v)),
                    ("health", Json::from(proto.health)),
                    ("ring_depth", Json::from(proto.ring_depth)),
                    ("svt_blocked", Json::from(proto.blocked)),
                    ("events", Json::Arr(events)),
                ])
            })
            .collect();
        let watchdogs: Vec<(String, Json)> = causal
            .violations()
            .map(|(name, n)| (name.to_string(), Json::from(n)))
            .collect();
        let counters: Vec<(String, Json)> = metrics
            .iter_counters_sorted()
            .map(|(key, n)| (key.to_string(), Json::from(n)))
            .collect();
        let dump = Json::obj([
            ("kind", Json::from("svt-flight-dump")),
            ("reason", Json::from(reason)),
            ("at_ps", Json::from(now.as_ps())),
            ("trip", Json::from(self.trips)),
            ("k", Json::from(k)),
            ("vcpus", Json::Arr(vcpus)),
            ("watchdogs", Json::Obj(watchdogs)),
            (
                "causal",
                Json::obj([
                    ("recorded", Json::from(causal.recorded())),
                    ("dropped", Json::from(causal.dropped())),
                ]),
            ),
            ("counters", Json::Obj(counters)),
        ]);
        self.last_dump = Some(dump);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::ObsLevel;

    fn graph_with_events(n: u64) -> CausalGraph {
        let mut g = CausalGraph::new();
        g.enable();
        for i in 0..n {
            g.set_vcpu((i % 2) as u32);
            g.record("vm_exit", ObsLevel::L2, SimTime::from_ns(10 * (i + 1)));
        }
        g
    }

    #[test]
    fn disarmed_recorder_never_dumps() {
        let mut fr = FlightRecorder::new();
        let g = graph_with_events(4);
        let m = MetricsRegistry::new();
        fr.trip("forced_fallback", SimTime::from_us(1), &g, &m, &[]);
        assert!(!fr.watch(SimTime::from_us(1), &g, &m, &[]));
        assert_eq!(fr.trips(), 0);
        assert!(fr.last_dump().is_none());
    }

    #[test]
    fn trip_captures_last_k_events_per_vcpu() {
        let mut fr = FlightRecorder::new();
        fr.enable();
        // More than K events on each of the two vCPUs.
        let n = 2 * DEFAULT_FLIGHT_K as u64 + 16;
        let g = graph_with_events(n);
        let m = MetricsRegistry::new();
        let lane1 = ProtoState {
            ring_depth: 5,
            blocked: true,
            health: "fallen_back",
        };
        let proto = [ProtoState::default(), lane1];
        fr.trip("forced_fallback", SimTime::from_us(2), &g, &m, &proto);
        let dump = fr.last_dump().expect("dump produced");
        assert_eq!(
            dump.get("reason").unwrap().as_str(),
            Some("forced_fallback")
        );
        let vcpus = dump.get("vcpus").unwrap().as_arr().unwrap();
        assert_eq!(vcpus.len(), 2);
        for lane in vcpus {
            let events = lane.get("events").unwrap().as_arr().unwrap();
            assert_eq!(events.len(), DEFAULT_FLIGHT_K, "tail is exactly K");
        }
        // Tail keeps the *latest* events: vcpu 1 recorded at 20,40,..ns,
        // so its tail ends at the graph's final event.
        let last = vcpus[1]
            .get("events")
            .unwrap()
            .as_arr()
            .unwrap()
            .last()
            .unwrap()
            .clone();
        assert_eq!(
            last.get("at_ps").unwrap().as_i64(),
            Some(SimTime::from_ns(10 * n).as_ps() as i64)
        );
        assert_eq!(
            vcpus[1].get("health").unwrap().as_str(),
            Some("fallen_back")
        );
        assert_eq!(vcpus[1].get("ring_depth").unwrap().as_i64(), Some(5));
        // The dump round-trips through the parser.
        assert_eq!(Json::parse(&dump.to_string()).unwrap(), *dump);
    }

    #[test]
    fn watch_trips_once_per_new_violation() {
        let mut fr = FlightRecorder::new();
        fr.enable();
        let g = graph_with_events(2);
        let m = MetricsRegistry::new();
        // No violations yet: silent.
        assert!(!fr.watch(SimTime::from_us(1), &g, &m, &[]));
        assert_eq!(fr.trips(), 0);
    }
}
