//! The simulation clock with cost attribution.
//!
//! Every primitive charged through [`Clock::charge`] advances simulated
//! time and is attributed to the current [`CostPart`] — the same six-part
//! decomposition the paper uses in Table 1 — plus an optional free-form
//! tag (used for the per-exit-reason profiling claims in § 6.2/6.3).

use std::collections::HashMap;
use std::fmt;

use crate::hash::FnvHashMap;
use crate::snap_fields;
use crate::time::{SimDuration, SimTime};

/// Attribution bucket matching Table 1 of the paper, plus buckets for the
/// parts of the system the paper's breakdown does not time (devices, the
/// SW-SVt channel, idling).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CostPart {
    /// Part ⓪ — useful guest work in L2.
    L2Guest,
    /// Part ① — hardware+thunk switches between L2 and L0.
    SwitchL2L0,
    /// Part ② — vmcs02↔vmcs12 transformations.
    Transform,
    /// Part ③ — L0 handler software.
    L0Handler,
    /// Part ④ — switches between L0 and L1.
    SwitchL0L1,
    /// Part ⑤ — L1 handler software (including its own nested traps).
    L1Handler,
    /// Useful guest work in L1 (single-level runs).
    L1Guest,
    /// Native work in L0 (bare-metal runs).
    L0Native,
    /// SW-SVt shared-memory channel communication and waiting.
    Channel,
    /// Device-model service time.
    Device,
    /// Wire/NIC time to the load generator.
    Wire,
    /// CPU idle (waiting for events).
    Idle,
    /// Anything not otherwise attributed.
    #[default]
    Other,
}

impl CostPart {
    /// The six Table 1 rows, in paper order ⓪–⑤.
    pub const TABLE1: [CostPart; 6] = [
        CostPart::L2Guest,
        CostPart::SwitchL2L0,
        CostPart::Transform,
        CostPart::L0Handler,
        CostPart::SwitchL0L1,
        CostPart::L1Handler,
    ];

    /// Every attribution bucket, in declaration order. The clock stores
    /// per-part time in a dense array indexed by discriminant, so this
    /// list must stay in sync with the enum (the `COUNT` assertion below
    /// catches drift at compile time).
    pub const ALL: [CostPart; CostPart::COUNT] = [
        CostPart::L2Guest,
        CostPart::SwitchL2L0,
        CostPart::Transform,
        CostPart::L0Handler,
        CostPart::SwitchL0L1,
        CostPart::L1Handler,
        CostPart::L1Guest,
        CostPart::L0Native,
        CostPart::Channel,
        CostPart::Device,
        CostPart::Wire,
        CostPart::Idle,
        CostPart::Other,
    ];

    /// Number of attribution buckets (the size of the dense time array).
    pub const COUNT: usize = 13;

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

// Every variant must appear in ALL exactly once at its own discriminant,
// otherwise dense indexing would misattribute time.
const _: () = {
    let mut i = 0;
    while i < CostPart::COUNT {
        assert!(CostPart::ALL[i] as usize == i);
        i += 1;
    }
};

crate::snap_enum! {
    "CostPart" => CostPart {
        L2Guest, SwitchL2L0, Transform, L0Handler, SwitchL0L1, L1Handler, L1Guest, L0Native,
        Channel, Device, Wire, Idle, Other
    }
}

impl fmt::Display for CostPart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CostPart::L2Guest => "L2",
            CostPart::SwitchL2L0 => "Switch L2<->L0",
            CostPart::Transform => "Transform vmcs02/vmcs12",
            CostPart::L0Handler => "L0 handler",
            CostPart::SwitchL0L1 => "Switch L0<->L1",
            CostPart::L1Handler => "L1 handler",
            CostPart::L1Guest => "L1",
            CostPart::L0Native => "L0",
            CostPart::Channel => "SVt channel",
            CostPart::Device => "Device",
            CostPart::Wire => "Wire",
            CostPart::Idle => "Idle",
            CostPart::Other => "Other",
        };
        f.write_str(s)
    }
}

/// The simulation clock: current instant, per-part time attribution,
/// per-tag time attribution and named event counters.
///
/// # Examples
///
/// ```
/// use svt_sim::{Clock, CostPart, SimDuration};
///
/// let mut clock = Clock::new();
/// clock.push_part(CostPart::L0Handler);
/// clock.charge(SimDuration::from_ns(150));
/// clock.pop_part(CostPart::L0Handler);
/// assert_eq!(clock.part_time(CostPart::L0Handler), SimDuration::from_ns(150));
/// ```
#[derive(Debug, Default)]
pub struct Clock {
    now: SimTime,
    part_stack: Vec<CostPart>,
    // Dense: one slot per CostPart, indexed by discriminant. `charge` is
    // the hottest function in the simulator (every primitive cost passes
    // through it), so attribution must not pay a map lookup per call.
    part_time: [SimDuration; CostPart::COUNT],
    tag_stack: Vec<&'static str>,
    tag_time: FnvHashMap<&'static str, SimDuration>,
    counters: FnvHashMap<&'static str, u64>,
}

impl Clock {
    /// A clock at boot time with empty attribution.
    pub fn new() -> Self {
        Clock::default()
    }

    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances time by `d`, attributing it to the current part and tag.
    #[inline]
    pub fn charge(&mut self, d: SimDuration) {
        self.now += d;
        let part = self.part_stack.last().copied().unwrap_or(CostPart::Other);
        self.part_time[part.index()] += d;
        if let Some(tag) = self.tag_stack.last() {
            *self.tag_time.entry(tag).or_default() += d;
        }
    }

    /// Advances time by `d`, attributing it to an explicit part regardless
    /// of the current stack (used for asynchronous costs like wire time).
    pub fn charge_as(&mut self, part: CostPart, d: SimDuration) {
        self.push_part(part);
        self.charge(d);
        self.pop_part(part);
    }

    /// Jumps forward to `t`, attributing the gap to [`CostPart::Idle`].
    /// Jumping to the past is a no-op (the event was already due).
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            let gap = t.since(self.now);
            self.now = t;
            self.part_time[CostPart::Idle.index()] += gap;
        }
    }

    /// Enters an attribution part; nested parts shadow outer ones.
    #[inline]
    pub fn push_part(&mut self, part: CostPart) {
        self.part_stack.push(part);
    }

    /// Leaves an attribution part.
    ///
    /// # Panics
    ///
    /// Panics if `part` is not the innermost entered part (push/pop must
    /// nest).
    #[inline]
    pub fn pop_part(&mut self, part: CostPart) {
        let top = self.part_stack.pop();
        assert_eq!(top, Some(part), "mismatched CostPart pop");
    }

    /// Enters a free-form attribution tag (e.g. an exit-reason name).
    pub fn push_tag(&mut self, tag: &'static str) {
        self.tag_stack.push(tag);
    }

    /// Leaves a free-form attribution tag.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is not the innermost entered tag.
    pub fn pop_tag(&mut self, tag: &'static str) {
        let top = self.tag_stack.pop();
        assert_eq!(top, Some(tag), "mismatched tag pop");
    }

    /// Total time attributed to `part` so far.
    #[inline]
    pub fn part_time(&self, part: CostPart) -> SimDuration {
        self.part_time[part.index()]
    }

    /// Total time attributed to `tag` so far.
    pub fn tag_time(&self, tag: &str) -> SimDuration {
        self.tag_time.get(tag).copied().unwrap_or_default()
    }

    /// All tags with attributed time, sorted by descending time.
    pub fn tags_by_time(&self) -> Vec<(&'static str, SimDuration)> {
        let mut v: Vec<_> = self.tag_time.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v
    }

    /// All parts with attributed time, sorted by descending time (used by
    /// report emitters that want the full attribution, not just Table 1).
    pub fn parts_by_time(&self) -> Vec<(CostPart, SimDuration)> {
        let mut v: Vec<_> = CostPart::ALL
            .iter()
            .map(|&p| (p, self.part_time[p.index()]))
            .filter(|(_, d)| !d.is_zero())
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Increments a named counter (e.g. `"vm_exit"`).
    #[inline]
    pub fn count(&mut self, name: &'static str) {
        self.count_by(name, 1);
    }

    /// Adds `n` to a named counter.
    #[inline]
    pub fn count_by(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    /// Current value of a named counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of all counters, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.counters.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Resets attribution and counters but keeps the current instant
    /// (used to discard warm-up iterations).
    pub fn reset_attribution(&mut self) {
        self.part_time = [SimDuration::ZERO; CostPart::COUNT];
        self.tag_time.clear();
        self.counters.clear();
    }

    /// Takes a snapshot of the attribution state for later differencing.
    ///
    /// The snapshot keeps the public `HashMap` shape (the dense array is
    /// an internal representation); only parts with non-zero time appear.
    pub fn snapshot(&self) -> ClockSnapshot {
        ClockSnapshot {
            now: self.now,
            part_time: CostPart::ALL
                .iter()
                .map(|&p| (p, self.part_time[p.index()]))
                .filter(|(_, d)| !d.is_zero())
                .collect(),
            tag_time: self.tag_time.iter().map(|(k, v)| (*k, *v)).collect(),
            counters: self.counters.iter().map(|(k, v)| (*k, *v)).collect(),
        }
    }

    /// Attribution accumulated since `base` was snapshot.
    pub fn since_snapshot(&self, base: &ClockSnapshot) -> ClockSnapshot {
        ClockSnapshot {
            now: self.now,
            part_time: CostPart::ALL
                .iter()
                .map(|&p| {
                    let prev = base.part_time.get(&p).copied().unwrap_or_default();
                    (p, self.part_time[p.index()].saturating_sub(prev))
                })
                .filter(|(_, v)| !v.is_zero())
                .collect(),
            tag_time: self
                .tag_time
                .iter()
                .map(|(k, v)| {
                    let prev = base.tag_time.get(k).copied().unwrap_or_default();
                    (*k, v.saturating_sub(prev))
                })
                .filter(|(_, v)| !v.is_zero())
                .collect(),
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (*k, v - base.counters.get(k).copied().unwrap_or(0)))
                .filter(|(_, v)| *v != 0)
                .collect(),
        }
    }
}

snap_fields! { Clock { now, part_stack, part_time, tag_stack, tag_time, counters } }

/// A frozen view of the clock's attribution state.
#[derive(Debug, Clone, Default)]
pub struct ClockSnapshot {
    /// Instant at which the snapshot was taken.
    pub now: SimTime,
    /// Per-part accumulated time.
    pub part_time: HashMap<CostPart, SimDuration>,
    /// Per-tag accumulated time.
    pub tag_time: HashMap<&'static str, SimDuration>,
    /// Counter values.
    pub counters: HashMap<&'static str, u64>,
}

impl ClockSnapshot {
    /// Time attributed to `part` in this snapshot.
    pub fn part_time(&self, part: CostPart) -> SimDuration {
        self.part_time.get(&part).copied().unwrap_or_default()
    }

    /// Time attributed to `tag` in this snapshot.
    pub fn tag_time(&self, tag: &str) -> SimDuration {
        self.tag_time.get(tag).copied().unwrap_or_default()
    }

    /// Counter value in this snapshot.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All parts with attributed time, sorted by descending time.
    pub fn parts_by_time(&self) -> Vec<(CostPart, SimDuration)> {
        let mut v: Vec<_> = self.part_time.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// All tags with attributed time, sorted by descending time.
    pub fn tags_by_time(&self) -> Vec<(&'static str, SimDuration)> {
        let mut v: Vec<_> = self.tag_time.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v
    }

    /// All counters, sorted by name.
    pub fn counters_sorted(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.counters.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Sum of all attributed (non-idle) time.
    pub fn busy_time(&self) -> SimDuration {
        self.part_time
            .iter()
            .filter(|(p, _)| **p != CostPart::Idle)
            .map(|(_, d)| *d)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_attributes_to_current_part() {
        let mut c = Clock::new();
        c.push_part(CostPart::Transform);
        c.charge(SimDuration::from_ns(100));
        c.pop_part(CostPart::Transform);
        c.charge(SimDuration::from_ns(7));
        assert_eq!(c.part_time(CostPart::Transform), SimDuration::from_ns(100));
        assert_eq!(c.part_time(CostPart::Other), SimDuration::from_ns(7));
        assert_eq!(c.now(), SimTime::from_ns(107));
    }

    #[test]
    fn nested_parts_shadow() {
        let mut c = Clock::new();
        c.push_part(CostPart::L0Handler);
        c.charge(SimDuration::from_ns(10));
        c.push_part(CostPart::Transform);
        c.charge(SimDuration::from_ns(20));
        c.pop_part(CostPart::Transform);
        c.charge(SimDuration::from_ns(5));
        c.pop_part(CostPart::L0Handler);
        assert_eq!(c.part_time(CostPart::L0Handler), SimDuration::from_ns(15));
        assert_eq!(c.part_time(CostPart::Transform), SimDuration::from_ns(20));
    }

    #[test]
    #[should_panic(expected = "mismatched CostPart pop")]
    fn mismatched_pop_panics() {
        let mut c = Clock::new();
        c.push_part(CostPart::L2Guest);
        c.pop_part(CostPart::L1Handler);
    }

    #[test]
    fn advance_to_charges_idle() {
        let mut c = Clock::new();
        c.charge(SimDuration::from_ns(10));
        c.advance_to(SimTime::from_ns(50));
        assert_eq!(c.part_time(CostPart::Idle), SimDuration::from_ns(40));
        // Jumping backwards is a no-op.
        c.advance_to(SimTime::from_ns(1));
        assert_eq!(c.now(), SimTime::from_ns(50));
    }

    #[test]
    fn tags_accumulate_independently() {
        let mut c = Clock::new();
        c.push_part(CostPart::L0Handler);
        c.push_tag("EPT_MISCONFIG");
        c.charge(SimDuration::from_ns(30));
        c.pop_tag("EPT_MISCONFIG");
        c.push_tag("MSR_WRITE");
        c.charge(SimDuration::from_ns(10));
        c.pop_tag("MSR_WRITE");
        c.pop_part(CostPart::L0Handler);
        assert_eq!(c.tag_time("EPT_MISCONFIG"), SimDuration::from_ns(30));
        assert_eq!(c.tag_time("MSR_WRITE"), SimDuration::from_ns(10));
        assert_eq!(c.part_time(CostPart::L0Handler), SimDuration::from_ns(40));
        let by_time = c.tags_by_time();
        assert_eq!(by_time[0].0, "EPT_MISCONFIG");
    }

    #[test]
    fn counters_count() {
        let mut c = Clock::new();
        c.count("vm_exit");
        c.count("vm_exit");
        c.count_by("vmread", 5);
        assert_eq!(c.counter("vm_exit"), 2);
        assert_eq!(c.counter("vmread"), 5);
        assert_eq!(c.counter("missing"), 0);
    }

    #[test]
    fn snapshot_differencing() {
        let mut c = Clock::new();
        c.push_part(CostPart::L2Guest);
        c.charge(SimDuration::from_ns(10));
        let snap = c.snapshot();
        c.charge(SimDuration::from_ns(15));
        c.count("vm_exit");
        c.pop_part(CostPart::L2Guest);
        let d = c.since_snapshot(&snap);
        assert_eq!(d.part_time(CostPart::L2Guest), SimDuration::from_ns(15));
        assert_eq!(d.counter("vm_exit"), 1);
        assert_eq!(d.busy_time(), SimDuration::from_ns(15));
    }

    #[test]
    fn charge_as_is_stack_neutral() {
        let mut c = Clock::new();
        c.push_part(CostPart::L2Guest);
        c.charge_as(CostPart::Wire, SimDuration::from_ns(100));
        c.charge(SimDuration::from_ns(1));
        c.pop_part(CostPart::L2Guest);
        assert_eq!(c.part_time(CostPart::Wire), SimDuration::from_ns(100));
        assert_eq!(c.part_time(CostPart::L2Guest), SimDuration::from_ns(1));
    }

    #[test]
    fn reset_attribution_keeps_time() {
        let mut c = Clock::new();
        c.charge(SimDuration::from_ns(42));
        c.count("x");
        c.reset_attribution();
        assert_eq!(c.now(), SimTime::from_ns(42));
        assert_eq!(c.counter("x"), 0);
        assert_eq!(c.part_time(CostPart::Other), SimDuration::ZERO);
    }
}
