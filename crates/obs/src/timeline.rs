//! The deterministic windowed time-series sampler.
//!
//! Everything else in svt-obs is end-of-run: totals, histograms, a causal
//! graph. The timeline adds the *when*: at a fixed simulated-time cadence
//! (default every 10 µs of sim time) it snapshots the delta of every
//! metrics-registry counter, the delta of every [`CostPart`] attribution
//! bucket, and the latest SW-SVt protocol state (ring occupancy,
//! `SVT_BLOCKED`, [`DegradeFsm`] health) pushed by the reflector, emitting
//! one compact columnar row per crossed window.
//!
//! # Determinism
//!
//! Windows are keyed to *simulated* time, never host time, and the sampler
//! is driven from the machine's own run loop — so a timeline is a pure
//! function of the machine configuration, exactly like every other
//! simulated observable. Sweep cells each carry their own machine (and
//! hence their own timeline), and the sweep engine merges cells in grid
//! order, so merged timeline reports are byte-identical at any `--jobs`
//! value, the same argument `sweep_determinism.rs` pins for run reports.
//!
//! # Disabled cost
//!
//! The hot-path check is [`Timeline::due`]: one `enabled` load plus one
//! time compare. Protocol-state pushes early-return on the same flag.
//! `disabled_overhead.rs` pins both under the crate's <250 ns/op bound.
//!
//! [`DegradeFsm`]: https://docs.rs/ (svt-core's degradation policy)

use std::collections::BTreeSet;

use svt_sim::{CostPart, FnvHashMap, SimDuration, SimTime};

use crate::json::Json;
use crate::key::MetricKey;
use crate::registry::MetricsRegistry;
use crate::ProtoState;

/// Default sampling cadence: one window per 10 µs of simulated time.
pub const DEFAULT_TIMELINE_CADENCE: SimDuration = SimDuration::from_us(10);

/// Default cap on retained windows. A bound, not a target: at the default
/// cadence this covers 0.65 s of simulated time, far beyond any bench
/// horizon; past it rows are counted in [`Timeline::dropped_windows`]
/// instead of growing without bound.
pub const DEFAULT_MAX_WINDOWS: usize = 1 << 16;

/// Degradation rank of a health name (worst state wins the aggregate).
fn health_rank(health: &str) -> u8 {
    match health {
        "degraded" => 1,
        "fallen_back" => 2,
        _ => 0,
    }
}

/// One emitted window: deltas since the previous row plus the protocol
/// state at sampling time.
#[derive(Debug, Clone)]
pub struct TimelineRow {
    /// Window-end instant (a cadence boundary, or the run end for the
    /// final partial window).
    pub end: SimTime,
    /// Per-[`CostPart`] time attributed during the window, picoseconds,
    /// indexed by part discriminant.
    pub parts_ps: [u64; CostPart::COUNT],
    /// Non-zero counter increments during the window, in key order.
    pub counters: Vec<(MetricKey, u64)>,
    /// Total SW-SVt ring occupancy (command + response, all lanes).
    pub ring_depth: u32,
    /// Lanes currently inside an `SVT_BLOCKED` window.
    pub blocked_lanes: u32,
    /// Worst degradation-policy health across lanes.
    pub health: &'static str,
}

/// The windowed sampler. Lives on [`crate::Obs`]; the machine's run loop
/// drives [`Timeline::sample`] whenever [`Timeline::due`] fires.
#[derive(Debug, Clone)]
pub struct Timeline {
    enabled: bool,
    cadence: SimDuration,
    next_due: SimTime,
    max_windows: usize,
    dropped: u64,
    rows: Vec<TimelineRow>,
    prev_parts: [SimDuration; CostPart::COUNT],
    prev_counters: FnvHashMap<MetricKey, u64>,
}

// Only the sampling *cursor* is state: cadence, next window boundary and
// the per-part and per-counter baselines. Already-emitted rows are
// process-local report artifacts — a restored machine continues sampling
// at the same window boundaries with correct deltas, starting from an
// empty row set.
svt_sim::snap_fields! {
    Timeline {
        enabled, cadence, next_due, prev_parts, prev_counters
    } skip { max_windows, dropped, rows }
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline {
            enabled: false,
            cadence: DEFAULT_TIMELINE_CADENCE,
            next_due: SimTime::MAX,
            max_windows: DEFAULT_MAX_WINDOWS,
            dropped: 0,
            rows: Vec::new(),
            prev_parts: [SimDuration::ZERO; CostPart::COUNT],
            prev_counters: FnvHashMap::default(),
        }
    }
}

impl Timeline {
    /// A disabled sampler at the default cadence.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Enables sampling at the default 10 µs cadence.
    pub fn enable(&mut self) {
        self.enable_with(DEFAULT_TIMELINE_CADENCE);
    }

    /// Enables sampling at an explicit cadence.
    ///
    /// # Panics
    ///
    /// Panics on a zero cadence (the window loop would never advance).
    pub fn enable_with(&mut self, cadence: SimDuration) {
        assert!(cadence > SimDuration::ZERO, "zero timeline cadence");
        self.enabled = true;
        self.cadence = cadence;
        self.next_due = SimTime::ZERO + cadence;
    }

    /// Whether sampling is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The sampling cadence.
    pub fn cadence(&self) -> SimDuration {
        self.cadence
    }

    /// The hot-path gate: true when `now` has crossed the next window
    /// boundary. One flag load and one compare — this is the entire cost
    /// on every un-traced simulated step.
    #[inline]
    pub fn due(&self, now: SimTime) -> bool {
        self.enabled && now >= self.next_due
    }

    /// Emits one row covering every window boundary crossed up to `now`.
    /// `parts` is the machine-wide per-part attribution total (all vCPU
    /// clocks summed); counter deltas come from the registry and the
    /// protocol columns from `proto`, the per-lane state. A no-op unless
    /// [`Timeline::due`].
    pub(crate) fn sample(
        &mut self,
        now: SimTime,
        parts: &[SimDuration; CostPart::COUNT],
        metrics: &MetricsRegistry,
        proto: &[ProtoState],
    ) {
        if !self.due(now) {
            return;
        }
        // The row is stamped with the last boundary <= now; skipped empty
        // windows collapse into it (deltas are since the previous row).
        let mut end = self.next_due;
        while self.next_due <= now {
            end = self.next_due;
            self.next_due += self.cadence;
        }
        self.push_row(end, parts, metrics, proto);
    }

    /// Flushes the final partial window at the end of a run, so activity
    /// after the last boundary is not lost. A no-op when disabled or when
    /// nothing accumulated since the last row.
    pub(crate) fn flush(
        &mut self,
        now: SimTime,
        parts: &[SimDuration; CostPart::COUNT],
        metrics: &MetricsRegistry,
        proto: &[ProtoState],
    ) {
        if !self.enabled {
            return;
        }
        if let Some(last) = self.rows.last() {
            if now <= last.end {
                return;
            }
        }
        let dirty = CostPart::ALL
            .iter()
            .any(|&p| parts[p as usize] != self.prev_parts[p as usize])
            || metrics
                .iter_counters_sorted()
                .any(|(k, n)| n != self.prev_counters.get(&k).copied().unwrap_or(0));
        if dirty {
            self.push_row(now, parts, metrics, proto);
        }
    }

    fn push_row(
        &mut self,
        end: SimTime,
        parts: &[SimDuration; CostPart::COUNT],
        metrics: &MetricsRegistry,
        proto: &[ProtoState],
    ) {
        let mut parts_ps = [0u64; CostPart::COUNT];
        for p in CostPart::ALL {
            let i = p as usize;
            parts_ps[i] = parts[i].as_ps().saturating_sub(self.prev_parts[i].as_ps());
            self.prev_parts[i] = parts[i];
        }
        let mut counters = Vec::new();
        for (key, total) in metrics.iter_counters_sorted() {
            let prev = self.prev_counters.get(&key).copied().unwrap_or(0);
            let delta = total.saturating_sub(prev);
            if delta > 0 {
                counters.push((key, delta));
                self.prev_counters.insert(key, total);
            }
        }
        let ring_depth = proto.iter().map(|p| p.ring_depth).sum();
        let blocked_lanes = proto.iter().filter(|p| p.blocked).count() as u32;
        let health = proto
            .iter()
            .max_by_key(|p| health_rank(p.health))
            .map_or("healthy", |p| p.health);
        if self.rows.len() >= self.max_windows {
            self.dropped += 1;
            return;
        }
        self.rows.push(TimelineRow {
            end,
            parts_ps,
            counters,
            ring_depth,
            blocked_lanes,
            health,
        });
    }

    /// The emitted rows, in time order.
    pub fn rows(&self) -> &[TimelineRow] {
        &self.rows
    }

    /// Number of emitted windows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no window was emitted.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Windows discarded by the retention cap.
    pub fn dropped_windows(&self) -> u64 {
        self.dropped
    }

    /// The columnar export: parallel arrays indexed by window, one column
    /// per part/counter that was ever non-zero, zeros filled elsewhere.
    /// Column order is fixed (declaration order for parts, key order for
    /// counters), so serialization is deterministic.
    pub fn to_json(&self) -> Json {
        let t_ps: Vec<Json> = self
            .rows
            .iter()
            .map(|r| Json::from(r.end.as_ps()))
            .collect();
        let parts = CostPart::ALL
            .iter()
            .filter(|&&p| self.rows.iter().any(|r| r.parts_ps[p as usize] > 0))
            .map(|&p| {
                (
                    p.to_string(),
                    Json::Arr(
                        self.rows
                            .iter()
                            .map(|r| Json::from(r.parts_ps[p as usize]))
                            .collect(),
                    ),
                )
            })
            .collect::<Vec<_>>();
        let keys: BTreeSet<MetricKey> = self
            .rows
            .iter()
            .flat_map(|r| r.counters.iter().map(|&(k, _)| k))
            .collect();
        let counters = keys
            .iter()
            .map(|key| {
                (
                    key.to_string(),
                    Json::Arr(
                        self.rows
                            .iter()
                            .map(|r| {
                                let v = r
                                    .counters
                                    .iter()
                                    .find(|(k, _)| k == key)
                                    .map_or(0, |&(_, n)| n);
                                Json::from(v)
                            })
                            .collect(),
                    ),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("cadence_ps", Json::from(self.cadence.as_ps())),
            ("windows", Json::from(self.rows.len())),
            ("dropped", Json::from(self.dropped)),
            ("t_ps", Json::Arr(t_ps)),
            ("parts_ps", Json::Obj(parts)),
            ("counters", Json::Obj(counters)),
            (
                "ring_depth",
                Json::Arr(self.rows.iter().map(|r| Json::from(r.ring_depth)).collect()),
            ),
            (
                "svt_blocked",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| Json::from(r.blocked_lanes))
                        .collect(),
                ),
            ),
            (
                "health",
                Json::Arr(self.rows.iter().map(|r| Json::from(r.health)).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts_with(part: CostPart, d: SimDuration) -> [SimDuration; CostPart::COUNT] {
        let mut parts = [SimDuration::ZERO; CostPart::COUNT];
        parts[part as usize] = d;
        parts
    }

    #[test]
    fn disabled_sampler_records_nothing() {
        let mut tl = Timeline::new();
        let m = MetricsRegistry::new();
        assert!(!tl.due(SimTime::MAX));
        let proto = [ProtoState {
            ring_depth: 3,
            blocked: true,
            health: "degraded",
        }];
        tl.sample(
            SimTime::from_us(100),
            &parts_with(CostPart::L2Guest, SimDuration::from_us(5)),
            &m,
            &proto,
        );
        tl.flush(
            SimTime::from_us(200),
            &parts_with(CostPart::L2Guest, SimDuration::from_us(9)),
            &m,
            &proto,
        );
        assert!(tl.is_empty());
    }

    #[test]
    fn rows_are_stamped_on_cadence_boundaries() {
        let mut tl = Timeline::new();
        tl.enable_with(SimDuration::from_us(10));
        let m = MetricsRegistry::new();
        assert!(!tl.due(SimTime::from_us(9)));
        assert!(tl.due(SimTime::from_us(10)));
        tl.sample(
            SimTime::from_us(12),
            &parts_with(CostPart::L0Handler, SimDuration::from_us(4)),
            &m,
            &[],
        );
        // Skipping windows 20 and 30 collapses them into the row at 30.
        tl.sample(
            SimTime::from_us(34),
            &parts_with(CostPart::L0Handler, SimDuration::from_us(11)),
            &m,
            &[],
        );
        let ends: Vec<u64> = tl.rows().iter().map(|r| r.end.as_ps()).collect();
        assert_eq!(
            ends,
            vec![SimTime::from_us(10).as_ps(), SimTime::from_us(30).as_ps()]
        );
        assert_eq!(
            tl.rows()[1].parts_ps[CostPart::L0Handler as usize],
            SimDuration::from_us(7).as_ps()
        );
    }

    #[test]
    fn counter_deltas_are_per_window_and_sum_to_totals() {
        let mut tl = Timeline::new();
        tl.enable_with(SimDuration::from_us(10));
        let mut m = MetricsRegistry::new();
        let k = MetricKey::new("vm_exit");
        let parts = [SimDuration::ZERO; CostPart::COUNT];
        m.add(k, 3);
        tl.sample(SimTime::from_us(10), &parts, &m, &[]);
        m.add(k, 4);
        tl.sample(SimTime::from_us(20), &parts, &m, &[]);
        let deltas: Vec<u64> = tl
            .rows()
            .iter()
            .map(|r| {
                r.counters
                    .iter()
                    .find(|(key, _)| *key == k)
                    .map_or(0, |&(_, n)| n)
            })
            .collect();
        assert_eq!(deltas, vec![3, 4]);
        assert_eq!(deltas.iter().sum::<u64>(), m.counter(k));
    }

    #[test]
    fn protocol_state_aggregates_worst_across_lanes() {
        let mut tl = Timeline::new();
        tl.enable();
        let m = MetricsRegistry::new();
        let lane = |ring_depth, blocked, health| ProtoState {
            ring_depth,
            blocked,
            health,
        };
        let proto = [lane(2, false, "healthy"), lane(3, true, "fallen_back")];
        tl.sample(
            SimTime::from_us(10),
            &[SimDuration::ZERO; CostPart::COUNT],
            &m,
            &proto,
        );
        let r = &tl.rows()[0];
        assert_eq!(r.ring_depth, 5);
        assert_eq!(r.blocked_lanes, 1);
        assert_eq!(r.health, "fallen_back");
    }

    #[test]
    fn flush_emits_one_final_partial_window() {
        let mut tl = Timeline::new();
        tl.enable_with(SimDuration::from_us(10));
        let mut m = MetricsRegistry::new();
        let parts = [SimDuration::ZERO; CostPart::COUNT];
        m.inc(MetricKey::new("vm_exit"));
        tl.sample(SimTime::from_us(10), &parts, &m, &[]);
        // Nothing new: flush is a no-op.
        tl.flush(SimTime::from_us(13), &parts, &m, &[]);
        assert_eq!(tl.len(), 1);
        m.inc(MetricKey::new("vm_exit"));
        tl.flush(SimTime::from_us(13), &parts, &m, &[]);
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.rows()[1].end, SimTime::from_us(13));
    }

    #[test]
    fn columnar_json_is_aligned_and_parses() {
        let mut tl = Timeline::new();
        tl.enable_with(SimDuration::from_us(10));
        let mut m = MetricsRegistry::new();
        m.inc(MetricKey::new("b"));
        tl.sample(
            SimTime::from_us(10),
            &parts_with(CostPart::Channel, SimDuration::from_us(1)),
            &m,
            &[],
        );
        m.inc(MetricKey::new("a"));
        tl.sample(
            SimTime::from_us(20),
            &parts_with(CostPart::Channel, SimDuration::from_us(3)),
            &m,
            &[],
        );
        let j = tl.to_json();
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
        assert_eq!(j.get("windows").unwrap().as_i64(), Some(2));
        let t = j.get("t_ps").unwrap().as_arr().unwrap();
        assert_eq!(t.len(), 2);
        // Every column is aligned with t_ps, zeros filled.
        let counters = j.get("counters").unwrap().as_obj().unwrap();
        assert_eq!(counters[0].0, "a");
        assert_eq!(
            counters[0]
                .1
                .as_arr()
                .unwrap()
                .iter()
                .map(|v| v.as_i64().unwrap())
                .collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(
            counters[1]
                .1
                .as_arr()
                .unwrap()
                .iter()
                .map(|v| v.as_i64().unwrap())
                .collect::<Vec<_>>(),
            vec![1, 0]
        );
        let ch = j
            .get("parts_ps")
            .unwrap()
            .get("SVt channel")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(ch.len(), 2);
    }

    #[test]
    fn retention_cap_counts_drops() {
        let mut tl = Timeline::new();
        tl.enable_with(SimDuration::from_us(1));
        tl.max_windows = 2;
        let m = MetricsRegistry::new();
        let parts = [SimDuration::ZERO; CostPart::COUNT];
        for us in [1u64, 2, 3, 4] {
            tl.sample(SimTime::from_us(us), &parts, &m, &[]);
        }
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.dropped_windows(), 2);
    }
}
