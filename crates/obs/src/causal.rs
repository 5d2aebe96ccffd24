//! Causal event graph and critical-path profiling.
//!
//! Spans answer "how long did each phase take"; they cannot answer "which
//! chain of events — IPI, ring command, reflection — actually bounded this
//! request's latency?". This module records every traced event (span
//! open/close, IPI send/receive, SVt ring enqueue/dequeue, `SVT_BLOCKED`
//! enter/exit, scheduler switch) as a node with a monotonically assigned
//! [`EventId`] and explicit *happens-before* edges:
//!
//! * a program-order edge from the previous event on the same vCPU, and
//! * cross edges where causality jumps lanes — an IPI from its send to its
//!   delivery, a ring command from enqueue to dequeue, a routed machine
//!   event from scheduling to drain.
//!
//! The graph is the simulator's one event stream: the span list
//! ([`CausalGraph::spans`]) and with it the Chrome trace, the flow arrows
//! and the flight recorder's tails are all views of its retained window.
//! On top of it sit two consumers:
//!
//! * a **critical-path extractor** ([`CausalGraph::critical_paths`]): for
//!   each completed request it walks backwards from the request-end event,
//!   always stepping to the latest-finishing predecessor, and attributes
//!   the simulated picoseconds of every hop to a `(vcpu, level, phase)`
//!   bucket. The walk telescopes, so the segment weights of one request
//!   sum *exactly* to its end-to-end latency — a conservation invariant
//!   the test suite checks property-style.
//! * **invariant watchdogs** that run online while events stream in:
//!   unserviced-ring deadline (50 µs), `SVT_BLOCKED` window bound
//!   (20 µs), IPI delivered-exactly-once (within 50 µs), and span-nesting
//!   well-formedness. Violations are counted (and harvested into the
//!   `MetricsRegistry` by `Obs::harvest_watchdogs`); a campaign that must
//!   not see one fails on a non-zero count.

use std::collections::{BTreeMap, VecDeque};

use svt_sim::{SimDuration, SimTime};

use crate::key::ObsLevel;

/// A monotonically assigned causal event id. Ids order events by recording
/// time; predecessors always have smaller ids than their successors.
///
/// Exported from the crate root as `CausalEventId` (the simulator's event
/// queue already owns the bare name `EventId`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    /// The raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

svt_sim::snap_fields! { EventId(_) }

/// Inline happens-before predecessor list.
///
/// An event has at most two predecessors — its program-order edge plus
/// one cross edge — so the list lives inline in the event node and
/// recording never allocates on the steady path. An empty slot holds
/// `EventId(0)`, which no event carries (ids start at 1). Dereferences to
/// `&[EventId]`, so it reads like the `Vec` it replaced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Preds([EventId; 2]);

impl Preds {
    /// A single-predecessor list.
    pub fn one(id: EventId) -> Self {
        let mut p = Preds::default();
        p.push(id);
        p
    }

    /// Appends a predecessor.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds two predecessors (the recording
    /// sites above never produce more).
    #[inline]
    pub fn push(&mut self, id: EventId) {
        let len = self.as_slice().len();
        assert!(len < self.0.len(), "too many preds");
        self.0[len] = id;
    }

    /// The predecessors as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[EventId] {
        let len = self.0.iter().take_while(|id| id.0 != 0).count();
        &self.0[..len]
    }
}

impl std::ops::Deref for Preds {
    type Target = [EventId];

    #[inline]
    fn deref(&self) -> &[EventId] {
        self.as_slice()
    }
}

impl PartialEq<Vec<EventId>> for Preds {
    fn eq(&self, other: &Vec<EventId>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a> IntoIterator for &'a Preds {
    type Item = &'a EventId;
    type IntoIter = std::slice::Iter<'a, EventId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// One node of the causal graph.
#[derive(Debug, Clone)]
pub struct CausalEvent {
    /// Monotonic id; predecessors have strictly smaller ids.
    pub id: EventId,
    /// Phase name attributed on the critical path (e.g. `"l2_exit"`).
    pub phase: &'static str,
    /// vCPU lane the event belongs to.
    pub vcpu: u32,
    /// Virtualization level the phase ran at.
    pub level: ObsLevel,
    /// Whether the node closes a span named `phase` (see
    /// [`CausalGraph::spans`]).
    pub span: bool,
    /// Simulated instant the span began (`at` for every other node).
    pub begin: SimTime,
    /// Simulated instant the event completed.
    pub at: SimTime,
    /// Happens-before predecessors (program order plus cross edges).
    pub preds: Preds,
}

/// One completed span: a named stage with exact begin/end instants, read
/// back from its close node by [`CausalGraph::spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name, e.g. `"l0_handler"`.
    pub name: &'static str,
    /// Virtualization level the stage ran at.
    pub level: ObsLevel,
    /// Simulated begin instant.
    pub begin: SimTime,
    /// Simulated end instant.
    pub end: SimTime,
    /// vCPU the stage ran on (0 on a single-vCPU machine).
    pub vcpu: u32,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.begin)
    }
}

/// A resolved cross-lane edge, ready for Chrome trace flow arrows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowArrow {
    /// Edge kind: `"ipi"`, `"ring"` or `"event"`.
    pub kind: &'static str,
    /// Stable id tying the arrow's two halves together.
    pub id: u64,
    /// Source instant.
    pub from_at: SimTime,
    /// Source vCPU lane.
    pub from_vcpu: u32,
    /// Source level lane.
    pub from_level: ObsLevel,
    /// Destination instant.
    pub to_at: SimTime,
    /// Destination vCPU lane.
    pub to_vcpu: u32,
    /// Destination level lane.
    pub to_level: ObsLevel,
}

/// One critical-path segment: `ps` picoseconds attributed to a
/// `(vcpu, level, phase)` bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// vCPU the segment ran on.
    pub vcpu: u32,
    /// Virtualization level of the attributed phase.
    pub level: ObsLevel,
    /// Phase name (span name, `"run"` for guest execution gaps, ...).
    pub phase: &'static str,
    /// Weight in simulated picoseconds.
    pub ps: u64,
}

/// The extracted critical path of one completed request.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Caller-assigned request id (unique per vCPU).
    pub request: u64,
    /// vCPU the request was served on.
    pub vcpu: u32,
    /// End-to-end simulated latency in picoseconds. Equals the sum of
    /// `segments[i].ps` by construction (conservation).
    pub total_ps: u64,
    /// Segments in walk order, request end first.
    pub segments: Vec<PathSegment>,
}

/// A completed request's anchor events.
#[derive(Debug, Clone)]
struct RequestRecord {
    request: u64,
    vcpu: u32,
    start_id: EventId,
    start_at: SimTime,
    end_id: EventId,
    end_at: SimTime,
}

/// How long after enqueue a ring command may wait for service.
const RING_DEADLINE: SimDuration = SimDuration::from_us(50);
/// How long one `SVT_BLOCKED` window may stay open.
const BLOCKED_BOUND: SimDuration = SimDuration::from_us(20);
/// How long after its send an IPI may wait for delivery.
const IPI_DEADLINE: SimDuration = SimDuration::from_us(50);

/// Watchdog: a ring command serviced (or left pending at finish) later
/// than [`RING_DEADLINE`] after enqueue.
const WATCHDOG_RING_DEADLINE: &str = "watchdog_ring_deadline";
/// Watchdog: an `SVT_BLOCKED` window exceeded [`BLOCKED_BOUND`].
const WATCHDOG_BLOCKED_WINDOW: &str = "watchdog_blocked_window";
/// Watchdog: an IPI was delivered without a matching send.
const WATCHDOG_IPI_DUPLICATE: &str = "watchdog_ipi_duplicate";
/// Watchdog: an IPI send was never delivered within [`IPI_DEADLINE`].
const WATCHDOG_IPI_LOST: &str = "watchdog_ipi_lost";
/// Watchdog: two spans on one vCPU partially overlap (neither nests).
const WATCHDOG_SPAN_NESTING: &str = "watchdog_span_nesting";

/// All watchdog metric names, for harvest and reporting.
pub const WATCHDOGS: [&str; 5] = [
    WATCHDOG_RING_DEADLINE,
    WATCHDOG_BLOCKED_WINDOW,
    WATCHDOG_IPI_DUPLICATE,
    WATCHDOG_IPI_LOST,
    WATCHDOG_SPAN_NESTING,
];

/// The causal event graph: bounded event storage, online watchdogs, and
/// the critical-path extractor.
///
/// Disabled by default; recording costs one branch when off so emission
/// sites stay unconditionally wired in hot paths.
///
/// # Examples
///
/// ```
/// use svt_obs::{CausalGraph, ObsLevel};
/// use svt_sim::SimTime;
///
/// let ns = SimTime::from_ns;
/// let mut g = CausalGraph::new();
/// g.enable();
/// g.request_start(1, ns(0));
/// g.span_close("l2_exit", ObsLevel::L2, ns(10), ns(30));
/// g.span_close("l2_resume", ObsLevel::L2, ns(30), ns(40));
/// g.request_end(1, ns(50));
/// let paths = g.critical_paths();
/// assert_eq!(paths.len(), 1);
/// // Conservation: segments sum exactly to the end-to-end latency.
/// let sum: u64 = paths[0].segments.iter().map(|s| s.ps).sum();
/// assert_eq!(sum, paths[0].total_ps);
/// ```
#[derive(Debug, Clone)]
pub struct CausalGraph {
    enabled: bool,
    next_id: u64,
    cur_vcpu: u32,
    capacity: usize,
    events: VecDeque<CausalEvent>,
    first_id: u64,
    recorded: u64,
    // Dense per-vCPU program-order tails: consulted on every record, so
    // indexed by vcpu rather than tree-searched.
    last_on_vcpu: Vec<Option<EventId>>,
    cross: VecDeque<(&'static str, EventId, EventId)>,
    // Pending sends/enqueues keep their own stamps: the watchdogs must
    // still see them after the ring evicts the node.
    pending_ipi: BTreeMap<u32, VecDeque<(EventId, SimTime)>>,
    pending_ring: BTreeMap<u64, VecDeque<(EventId, SimTime)>>,
    open_blocked: BTreeMap<u32, SimTime>,
    last_span: Vec<Option<(SimTime, SimTime)>>,
    open_requests: BTreeMap<(u32, u64), (EventId, SimTime)>,
    requests: Vec<RequestRecord>,
    violations: BTreeMap<&'static str, u64>,
}

// Only the id-allocation *cursor* is state: retained events and watchdog
// bookkeeping are process-local debug artifacts. Restoring
// the cursor keeps subsequently allocated event ids identical between a
// restored run and its uninterrupted twin.
svt_sim::snap_fields! {
    CausalGraph {
        enabled, next_id, cur_vcpu
    } skip {
        capacity, events, first_id, recorded, last_on_vcpu, cross, pending_ipi, pending_ring,
        open_blocked, last_span, open_requests, requests, violations
    }
}

impl Default for CausalGraph {
    fn default() -> Self {
        CausalGraph::with_capacity(1 << 16)
    }
}

impl CausalGraph {
    /// A disabled graph with the default event capacity (65536).
    pub fn new() -> Self {
        CausalGraph::default()
    }

    /// A disabled graph retaining up to `capacity` events once enabled.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "causal graph needs capacity");
        CausalGraph {
            enabled: false,
            next_id: 1,
            cur_vcpu: 0,
            capacity,
            events: VecDeque::new(),
            first_id: 1,
            recorded: 0,
            last_on_vcpu: Vec::new(),
            cross: VecDeque::new(),
            pending_ipi: BTreeMap::new(),
            pending_ring: BTreeMap::new(),
            open_blocked: BTreeMap::new(),
            last_span: Vec::new(),
            open_requests: BTreeMap::new(),
            requests: Vec::new(),
            violations: BTreeMap::new(),
        }
    }

    /// Starts recording events.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the vCPU lane subsequent events are stamped with.
    pub fn set_vcpu(&mut self, vcpu: u32) {
        self.cur_vcpu = vcpu;
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events recorded since construction (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to ring overflow: recorded minus retained.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.events.len() as u64
    }

    /// Looks up a retained event by id.
    pub fn get(&self, id: EventId) -> Option<&CausalEvent> {
        let idx = id.0.checked_sub(self.first_id)?;
        self.events.get(idx as usize)
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &CausalEvent> {
        self.events.iter()
    }

    fn push(
        &mut self,
        phase: &'static str,
        vcpu: u32,
        level: ObsLevel,
        at: SimTime,
        preds: Preds,
    ) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.recorded += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.first_id += 1;
            // Drop cross edges whose source has been evicted; they can no
            // longer render as arrows or serve the walk.
            while let Some(&(_, from, _)) = self.cross.front() {
                if from.0 >= self.first_id {
                    break;
                }
                self.cross.pop_front();
            }
        }
        self.events.push_back(CausalEvent {
            id,
            phase,
            vcpu,
            level,
            span: false,
            begin: at,
            at,
            preds,
        });
        id
    }

    /// Records a point event on the current vCPU's program order. Returns
    /// `None` when disabled (a single branch — no formatting or
    /// allocation happens before the enabled check).
    #[inline]
    pub fn record(&mut self, phase: &'static str, level: ObsLevel, at: SimTime) -> Option<EventId> {
        self.record_with(phase, level, at, None)
    }

    #[inline]
    fn record_with(
        &mut self,
        phase: &'static str,
        level: ObsLevel,
        at: SimTime,
        extra: Option<EventId>,
    ) -> Option<EventId> {
        if !self.enabled {
            return None;
        }
        let vcpu = self.cur_vcpu;
        let mut preds = Preds::default();
        // Program-order edge; dropped if the predecessor finished *after*
        // this event's stamp (a span recorded out of order), which would
        // break the walk's monotonicity.
        if let Some(prev) = self.last_on_vcpu.get(vcpu as usize).copied().flatten() {
            if self.get(prev).is_some_and(|p| p.at <= at) {
                preds.push(prev);
            }
        }
        if let Some(e) = extra {
            if self.get(e).is_some_and(|p| p.at <= at) && !preds.contains(&e) {
                preds.push(e);
            }
        }
        let id = self.push(phase, vcpu, level, at, preds);
        let lane = vcpu as usize;
        if lane >= self.last_on_vcpu.len() {
            self.last_on_vcpu.resize(lane + 1, None);
        }
        self.last_on_vcpu[lane] = Some(id);
        Some(id)
    }

    /// Records a machine-level routed event *outside* any vCPU's program
    /// order (the wire between lanes). `vcpu` is the destination lane;
    /// `cause` optionally links the event to whatever scheduled it.
    pub fn route(
        &mut self,
        phase: &'static str,
        vcpu: u32,
        at: SimTime,
        cause: Option<EventId>,
    ) -> Option<EventId> {
        if !self.enabled {
            return None;
        }
        let preds = cause
            .filter(|&c| self.get(c).is_some_and(|p| p.at <= at))
            .map(Preds::one)
            .unwrap_or_default();
        Some(self.push(phase, vcpu, ObsLevel::Machine, at, preds))
    }

    /// Records the delivery of a routed event on the current vCPU, with a
    /// cross edge from the `cause` returned by [`CausalGraph::route`].
    pub fn route_recv(
        &mut self,
        phase: &'static str,
        cause: Option<EventId>,
        at: SimTime,
    ) -> Option<EventId> {
        let id = self.record_with(phase, ObsLevel::Machine, at, cause)?;
        if let Some(c) = cause {
            if self.get(c).is_some_and(|p| p.at <= at) {
                self.cross.push_back(("event", c, id));
            }
        }
        Some(id)
    }

    /// Records a completed span as two nodes: an *open* event at `begin`
    /// (phase `"run"` — it bounds the guest-execution gap since the
    /// previous event) and a *close* event at `end` carrying the span
    /// name. Also runs the span-nesting watchdog: a span that partially
    /// overlaps its predecessor on the same vCPU (neither nests within the
    /// other) is a lifecycle bug.
    pub fn span_close(
        &mut self,
        name: &'static str,
        level: ObsLevel,
        begin: SimTime,
        end: SimTime,
    ) {
        if !self.enabled {
            return;
        }
        let vcpu = self.cur_vcpu;
        if let Some((pb, pe)) = self.last_span.get(vcpu as usize).copied().flatten() {
            let overlaps_tail = begin > pb && begin < pe && end > pe;
            let overlaps_head = begin < pb && end > pb && end < pe;
            if overlaps_tail || overlaps_head {
                self.violate(WATCHDOG_SPAN_NESTING);
            }
        }
        let lane = vcpu as usize;
        if lane >= self.last_span.len() {
            self.last_span.resize(lane + 1, None);
        }
        self.last_span[lane] = Some((begin, end));
        // Skip the open node when an inner span was already recorded past
        // `begin` (spans record at completion, innermost first): linking
        // the close straight to the inner event keeps the chain monotone.
        let open_in_order = self
            .last_on_vcpu
            .get(vcpu as usize)
            .copied()
            .flatten()
            .and_then(|p| self.get(p))
            .is_none_or(|p| p.at <= begin);
        if open_in_order {
            self.record_with("run", level, begin, None);
        }
        self.record_with(name, level, end, None);
        // The close node carries the whole span, so the span list is a
        // view of the graph.
        if let Some(close) = self.events.back_mut() {
            close.span = true;
            close.begin = begin;
        }
    }

    /// Records an IPI send toward `to` on the current vCPU's program order
    /// and arms the exactly-once watchdog for its delivery.
    pub fn ipi_send(&mut self, to: u32, at: SimTime) -> Option<EventId> {
        let id = self.record_with("ipi_send", ObsLevel::Machine, at, None)?;
        self.pending_ipi.entry(to).or_default().push_back((id, at));
        Some(id)
    }

    /// Records an IPI delivery on the current vCPU, drawing the cross edge
    /// from the oldest pending send to this vCPU. A delivery without a
    /// pending send is a duplicate (exactly-once violation).
    pub fn ipi_recv(&mut self, at: SimTime) -> Option<EventId> {
        if !self.enabled {
            return None;
        }
        let vcpu = self.cur_vcpu;
        let cause = self
            .pending_ipi
            .entry(vcpu)
            .or_default()
            .pop_front()
            .map(|(id, _)| id);
        if cause.is_none() {
            self.violate(WATCHDOG_IPI_DUPLICATE);
        }
        let id = self.record_with("ipi_recv", ObsLevel::Machine, at, cause)?;
        if let Some(c) = cause {
            if self.get(c).is_some_and(|p| p.at <= at) {
                self.cross.push_back(("ipi", c, id));
            }
        }
        Some(id)
    }

    /// Records a ring command enqueue (phase e.g. `"svt_cmd_enqueue"`) and
    /// arms the unserviced-ring deadline for its dequeue. `ring` keys the
    /// pending queue: callers pack ring kind and lane into it.
    pub fn ring_enqueue(&mut self, phase: &'static str, ring: u64, at: SimTime) -> Option<EventId> {
        let id = self.record_with(phase, ObsLevel::Machine, at, None)?;
        self.pending_ring
            .entry(ring)
            .or_default()
            .push_back((id, at));
        Some(id)
    }

    /// Records a ring command dequeue, drawing the cross edge from the
    /// oldest pending enqueue on `ring` and checking the service deadline.
    pub fn ring_dequeue(&mut self, phase: &'static str, ring: u64, at: SimTime) -> Option<EventId> {
        if !self.enabled {
            return None;
        }
        let pending = self.pending_ring.entry(ring).or_default().pop_front();
        if let Some((_, enq_at)) = pending {
            if at.saturating_since(enq_at) > RING_DEADLINE {
                self.violate(WATCHDOG_RING_DEADLINE);
            }
        }
        let cause = pending.map(|(id, _)| id);
        let id = self.record_with(phase, ObsLevel::Machine, at, cause)?;
        if let Some(c) = cause {
            if self.get(c).is_some_and(|p| p.at <= at) {
                self.cross.push_back(("ring", c, id));
            }
        }
        Some(id)
    }

    /// Records entry into the `SVT_BLOCKED` state on the current vCPU.
    pub fn blocked_enter(&mut self, at: SimTime) -> Option<EventId> {
        let id = self.record_with("svt_blocked", ObsLevel::Machine, at, None)?;
        self.open_blocked.insert(self.cur_vcpu, at);
        Some(id)
    }

    /// Records exit from `SVT_BLOCKED`; a window longer than the bound is
    /// a violation.
    pub fn blocked_exit(&mut self, at: SimTime) -> Option<EventId> {
        if !self.enabled {
            return None;
        }
        if let Some(entered) = self.open_blocked.remove(&self.cur_vcpu) {
            if at.saturating_since(entered) > BLOCKED_BOUND {
                self.violate(WATCHDOG_BLOCKED_WINDOW);
            }
        }
        self.record_with("svt_unblocked", ObsLevel::Machine, at, None)
    }

    /// Records a scheduler switch onto `vcpu` (call after the switch, with
    /// the incoming vCPU's clock).
    pub fn sched_switch(&mut self, vcpu: u32, at: SimTime) -> Option<EventId> {
        self.set_vcpu(vcpu);
        self.record("sched_switch", ObsLevel::Machine, at)
    }

    /// Anchors the start of request `request` on the current vCPU.
    pub fn request_start(&mut self, request: u64, at: SimTime) -> Option<EventId> {
        let id = self.record_with("request_start", ObsLevel::L2, at, None)?;
        self.open_requests
            .insert((self.cur_vcpu, request), (id, at));
        Some(id)
    }

    /// Anchors the end of request `request`; the request becomes eligible
    /// for critical-path extraction. Unmatched ends are ignored.
    pub fn request_end(&mut self, request: u64, at: SimTime) -> Option<EventId> {
        if !self.enabled {
            return None;
        }
        let vcpu = self.cur_vcpu;
        let open = self.open_requests.remove(&(vcpu, request))?;
        let id = self.record_with("request_end", ObsLevel::L2, at, None)?;
        self.requests.push(RequestRecord {
            request,
            vcpu,
            start_id: open.0,
            start_at: open.1,
            end_id: id,
            end_at: at,
        });
        Some(id)
    }

    /// Number of completed (start/end matched) requests.
    pub fn completed_requests(&self) -> usize {
        self.requests.len()
    }

    /// End-of-run sweep: flags ring commands and IPIs still pending past
    /// their deadlines at `now`, and any `SVT_BLOCKED` window still open
    /// past the bound. Idempotent — flagged entries are consumed.
    pub fn finish(&mut self, now: SimTime) {
        if !self.enabled {
            return;
        }
        let stale_rings: Vec<(u64, usize)> = self
            .pending_ring
            .iter()
            .map(|(&ring, q)| {
                let n = q
                    .iter()
                    .filter(|&&(_, at)| now.saturating_since(at) > RING_DEADLINE)
                    .count();
                (ring, n)
            })
            .collect();
        for (ring, n) in stale_rings {
            if n > 0 {
                if let Some(q) = self.pending_ring.get_mut(&ring) {
                    for _ in 0..n {
                        q.pop_front();
                    }
                }
                for _ in 0..n {
                    self.violate(WATCHDOG_RING_DEADLINE);
                }
            }
        }
        let stale_ipis: Vec<(u32, usize)> = self
            .pending_ipi
            .iter()
            .map(|(&to, q)| {
                let n = q
                    .iter()
                    .filter(|&&(_, at)| now.saturating_since(at) > IPI_DEADLINE)
                    .count();
                (to, n)
            })
            .collect();
        for (to, n) in stale_ipis {
            if n > 0 {
                if let Some(q) = self.pending_ipi.get_mut(&to) {
                    for _ in 0..n {
                        q.pop_front();
                    }
                }
                for _ in 0..n {
                    self.violate(WATCHDOG_IPI_LOST);
                }
            }
        }
        let stale_blocked: Vec<u32> = self
            .open_blocked
            .iter()
            .filter(|(_, &entered)| now.saturating_since(entered) > BLOCKED_BOUND)
            .map(|(&v, _)| v)
            .collect();
        for v in stale_blocked {
            self.open_blocked.remove(&v);
            self.violate(WATCHDOG_BLOCKED_WINDOW);
        }
    }

    fn violate(&mut self, name: &'static str) {
        *self.violations.entry(name).or_default() += 1;
    }

    /// Count of violations of one watchdog.
    pub fn violation_count(&self, name: &str) -> u64 {
        self.violations.get(name).copied().unwrap_or(0)
    }

    /// Total violations across all watchdogs.
    pub fn total_violations(&self) -> u64 {
        self.violations.values().sum()
    }

    /// All violation counts, sorted by watchdog name.
    pub fn violations(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.violations.iter().map(|(&k, &v)| (k, v))
    }

    /// The span view: every retained span-close node, oldest first (the
    /// order the spans completed in).
    pub fn spans(&self) -> Vec<Span> {
        self.events
            .iter()
            .filter(|e| e.span)
            .map(|e| Span {
                name: e.phase,
                level: e.level,
                begin: e.begin,
                end: e.at,
                vcpu: e.vcpu,
            })
            .collect()
    }

    /// Cross-lane edges resolved to lane coordinates for Chrome trace
    /// flow arrows. Edges whose endpoints were evicted are skipped.
    pub fn flow_arrows(&self) -> Vec<FlowArrow> {
        self.cross
            .iter()
            .filter_map(|&(kind, from, to)| {
                let f = self.get(from)?;
                let t = self.get(to)?;
                Some(FlowArrow {
                    kind,
                    id: to.0,
                    from_at: f.at,
                    from_vcpu: f.vcpu,
                    from_level: f.level,
                    to_at: t.at,
                    to_vcpu: t.vcpu,
                    to_level: t.level,
                })
            })
            .collect()
    }

    /// Extracts the critical path of every completed request, in
    /// completion order.
    pub fn critical_paths(&self) -> Vec<CriticalPath> {
        self.requests.iter().map(|r| self.extract(r)).collect()
    }

    /// Walks one request's longest-weight causal chain backwards from its
    /// end anchor. At each node the walk steps to the latest-finishing
    /// retained predecessor and attributes the gap to the node's bucket;
    /// the remainder below the start anchor is attributed to the last
    /// node reached. The weights telescope: they always sum exactly to
    /// `end_at - start_at`.
    fn extract(&self, r: &RequestRecord) -> CriticalPath {
        let total_ps = r.end_at.saturating_since(r.start_at).as_ps();
        let mut segments = Vec::new();
        let mut push = |ev: &CausalEvent, ps: u64| {
            if ps > 0 {
                segments.push(PathSegment {
                    vcpu: ev.vcpu,
                    level: ev.level,
                    phase: ev.phase,
                    ps,
                });
            }
        };
        let mut cur = match self.get(r.end_id) {
            Some(e) => e,
            None => {
                return CriticalPath {
                    request: r.request,
                    vcpu: r.vcpu,
                    total_ps,
                    segments,
                }
            }
        };
        loop {
            if cur.id == r.start_id {
                break;
            }
            let pred = cur
                .preds
                .iter()
                .filter_map(|&p| self.get(p))
                .max_by_key(|p| (p.at, p.id));
            match pred {
                Some(p) if p.at > r.start_at || (p.at == r.start_at && p.id >= r.start_id) => {
                    push(cur, cur.at.saturating_since(p.at).as_ps());
                    cur = p;
                }
                _ => {
                    push(cur, cur.at.saturating_since(r.start_at).as_ps());
                    break;
                }
            }
        }
        CriticalPath {
            request: r.request,
            vcpu: r.vcpu,
            total_ps,
            segments,
        }
    }
}

/// Aggregates critical paths into `(vcpu, level, phase) -> ps` buckets,
/// deterministically ordered.
pub fn fold_paths(paths: &[CriticalPath]) -> BTreeMap<(u32, ObsLevel, &'static str), u64> {
    let mut folded = BTreeMap::new();
    for p in paths {
        for s in &p.segments {
            *folded.entry((s.vcpu, s.level, s.phase)).or_default() += s.ps;
        }
    }
    folded
}

/// Renders critical paths as flamegraph folded stacks: one
/// `vcpuN;LEVEL;phase <ps>` line per bucket, sorted.
pub fn folded_stacks(paths: &[CriticalPath]) -> String {
    let mut out = String::new();
    for ((vcpu, level, phase), ps) in fold_paths(paths) {
        out.push_str(&format!("vcpu{vcpu};{};{phase} {ps}\n", level.name()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> SimTime {
        SimTime::from_ns(v)
    }

    #[test]
    fn disabled_graph_records_nothing() {
        let mut g = CausalGraph::new();
        assert!(g.record("x", ObsLevel::L0, ns(1)).is_none());
        g.span_close("s", ObsLevel::L2, ns(0), ns(1));
        assert!(g.is_empty());
        assert_eq!(g.recorded(), 0);
    }

    #[test]
    fn program_order_edges_chain_per_vcpu() {
        let mut g = CausalGraph::new();
        g.enable();
        let a = g.record("a", ObsLevel::L0, ns(1)).unwrap();
        g.set_vcpu(1);
        let b = g.record("b", ObsLevel::L0, ns(2)).unwrap();
        g.set_vcpu(0);
        let c = g.record("c", ObsLevel::L0, ns(3)).unwrap();
        assert!(g.get(a).unwrap().preds.is_empty());
        assert!(g.get(b).unwrap().preds.is_empty());
        assert_eq!(g.get(c).unwrap().preds, vec![a]);
    }

    #[test]
    fn ring_buffer_evicts_and_counts_drops() {
        let mut g = CausalGraph::with_capacity(2);
        g.enable();
        let a = g.record("a", ObsLevel::L0, ns(1)).unwrap();
        g.record("b", ObsLevel::L0, ns(2)).unwrap();
        g.record("c", ObsLevel::L0, ns(3)).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.recorded(), 3);
        assert_eq!(g.dropped(), 1);
        assert!(g.get(a).is_none());
    }

    #[test]
    fn ipi_cross_edge_and_exactly_once() {
        let mut g = CausalGraph::new();
        g.enable();
        let send = g.ipi_send(1, ns(10)).unwrap();
        g.set_vcpu(1);
        let recv = g.ipi_recv(ns(15)).unwrap();
        assert!(g.get(recv).unwrap().preds.contains(&send));
        assert_eq!(g.total_violations(), 0);
        // A second delivery with no matching send is a duplicate.
        g.ipi_recv(ns(20));
        assert_eq!(g.violation_count("watchdog_ipi_duplicate"), 1);
        assert_eq!(g.flow_arrows().len(), 1);
        assert_eq!(g.flow_arrows()[0].kind, "ipi");
    }

    #[test]
    fn lost_ipi_flagged_at_finish() {
        let mut g = CausalGraph::new();
        g.enable();
        g.ipi_send(1, ns(0));
        g.finish(SimTime::from_us(100));
        assert_eq!(g.violation_count("watchdog_ipi_lost"), 1);
        // Idempotent: the flagged send was consumed.
        g.finish(SimTime::from_us(200));
        assert_eq!(g.violation_count("watchdog_ipi_lost"), 1);
    }

    #[test]
    fn late_ring_service_flagged_once() {
        let mut g = CausalGraph::new();
        g.enable();
        g.ring_enqueue("svt_cmd_enqueue", 0, ns(0));
        // Serviced 60 µs later: past the 50 µs deadline.
        g.ring_dequeue("svt_cmd_dequeue", 0, SimTime::from_us(60));
        assert_eq!(g.violation_count("watchdog_ring_deadline"), 1);
        assert_eq!(g.total_violations(), 1);
        // In-deadline service on another lane is clean.
        g.ring_enqueue("svt_cmd_enqueue", 1, SimTime::from_us(61));
        g.ring_dequeue("svt_cmd_dequeue", 1, SimTime::from_us(62));
        assert_eq!(g.total_violations(), 1);
    }

    #[test]
    fn late_ring_service_is_flagged_after_its_enqueue_is_evicted() {
        let mut g = CausalGraph::with_capacity(2);
        g.enable();
        g.ring_enqueue("svt_cmd_enqueue", 0, ns(0));
        for i in 1..=3 {
            g.record("x", ObsLevel::L0, ns(i));
        }
        g.ring_dequeue("svt_cmd_dequeue", 0, SimTime::from_us(60));
        assert_eq!(g.violation_count("watchdog_ring_deadline"), 1);
    }

    #[test]
    fn lost_ipi_is_flagged_after_its_send_is_evicted() {
        let mut g = CausalGraph::with_capacity(2);
        g.enable();
        g.ipi_send(1, ns(0));
        g.record("x", ObsLevel::L0, ns(1));
        g.record("y", ObsLevel::L0, ns(2));
        g.finish(SimTime::from_us(100));
        assert_eq!(g.violation_count("watchdog_ipi_lost"), 1);
    }

    #[test]
    fn blocked_window_bound() {
        let mut g = CausalGraph::new();
        g.enable();
        g.blocked_enter(ns(0));
        g.blocked_exit(SimTime::from_us(5));
        assert_eq!(g.total_violations(), 0);
        g.blocked_enter(SimTime::from_us(10));
        g.blocked_exit(SimTime::from_us(40));
        assert_eq!(g.violation_count("watchdog_blocked_window"), 1);
    }

    #[test]
    fn partial_span_overlap_is_a_violation() {
        let mut g = CausalGraph::new();
        g.enable();
        g.span_close("a", ObsLevel::L0, ns(0), ns(10));
        // Nested (inner recorded after encloser here): fine.
        g.span_close("b", ObsLevel::L0, ns(2), ns(8));
        assert_eq!(g.total_violations(), 0);
        // Partial overlap: starts inside b, ends after it.
        g.span_close("c", ObsLevel::L0, ns(5), ns(12));
        assert_eq!(g.violation_count("watchdog_span_nesting"), 1);
    }

    fn span(name: &'static str, level: ObsLevel, begin: u64, end: u64) -> Span {
        Span {
            name,
            level,
            begin: ns(begin),
            end: ns(end),
            vcpu: 0,
        }
    }

    #[test]
    fn zero_length_span_is_a_span() {
        let mut g = CausalGraph::new();
        g.enable();
        g.sched_switch(3, ns(0));
        g.span_close("svt_degrade", ObsLevel::Machine, ns(5), ns(5));
        let degrade = Span {
            vcpu: 3,
            ..span("svt_degrade", ObsLevel::Machine, 5, 5)
        };
        assert_eq!(g.spans(), vec![degrade]);
    }

    #[test]
    fn outer_span_recorded_after_its_inner_span_keeps_its_begin() {
        let mut g = CausalGraph::new();
        g.enable();
        g.span_close("inner", ObsLevel::L0, ns(2), ns(8));
        g.span_close("outer", ObsLevel::L1, ns(0), ns(10));
        // The outer span's open node was skipped (it would precede the
        // inner close), yet the view still starts it at its own begin.
        assert_eq!(g.len(), 3);
        assert_eq!(
            g.spans(),
            vec![
                span("inner", ObsLevel::L0, 2, 8),
                span("outer", ObsLevel::L1, 0, 10)
            ]
        );
    }

    #[test]
    fn point_events_are_not_spans() {
        let mut g = CausalGraph::new();
        g.enable();
        g.request_start(1, ns(0));
        g.ipi_send(1, ns(1));
        g.ring_enqueue("svt_cmd_enqueue", 0, ns(2));
        g.sched_switch(1, ns(3));
        g.ipi_recv(ns(4));
        g.ring_dequeue("svt_cmd_dequeue", 0, ns(5));
        g.sched_switch(0, ns(6));
        g.request_end(1, ns(7));
        assert_eq!(g.len(), 8);
        assert!(g.spans().is_empty());
        assert!(g.events().all(|e| !e.span && e.begin == e.at));
    }

    #[test]
    fn causal_event_is_64_bytes() {
        assert_eq!(std::mem::size_of::<CausalEvent>(), 64);
    }

    #[test]
    fn critical_path_conserves_latency() {
        let mut g = CausalGraph::new();
        g.enable();
        g.request_start(7, ns(100));
        g.span_close("l2_exit", ObsLevel::L2, ns(120), ns(130));
        g.span_close("l1_handler", ObsLevel::L1, ns(130), ns(160));
        g.span_close("l2_resume", ObsLevel::L2, ns(160), ns(170));
        g.request_end(7, ns(200));
        let paths = g.critical_paths();
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.total_ps, 100_000);
        let sum: u64 = p.segments.iter().map(|s| s.ps).sum();
        assert_eq!(sum, p.total_ps);
        // The handler phase is on the path with its exact weight.
        let handler = p.segments.iter().find(|s| s.phase == "l1_handler").unwrap();
        assert_eq!(handler.ps, 30_000);
        assert_eq!(handler.level, ObsLevel::L1);
    }

    #[test]
    fn critical_path_follows_ipi_across_vcpus() {
        let mut g = CausalGraph::new();
        g.enable();
        // vCPU 0 starts a request, sends an IPI; vCPU 1 computes and the
        // reply path returns via a routed event.
        g.request_start(1, ns(0));
        let _send = g.ipi_send(1, ns(10)).unwrap();
        g.set_vcpu(1);
        g.ipi_recv(ns(25));
        g.span_close("l1_handler", ObsLevel::L1, ns(25), ns(60));
        let reply = g.record("reply", ObsLevel::L1, ns(60));
        let back = g.route("evt_route", 0, ns(60), reply);
        g.set_vcpu(0);
        g.route_recv("evt_drain", back, ns(70));
        g.request_end(1, ns(80));
        let p = &g.critical_paths()[0];
        let sum: u64 = p.segments.iter().map(|s| s.ps).sum();
        assert_eq!(sum, p.total_ps);
        assert_eq!(p.total_ps, 80_000);
        // The path crosses onto vCPU 1 and back.
        assert!(p.segments.iter().any(|s| s.vcpu == 1));
        assert!(p.segments.iter().any(|s| s.vcpu == 0));
        assert_eq!(g.flow_arrows().len(), 2);
    }

    #[test]
    fn folded_stacks_render_buckets() {
        let mut g = CausalGraph::new();
        g.enable();
        g.request_start(1, ns(0));
        g.span_close("l2_exit", ObsLevel::L2, ns(0), ns(10));
        g.request_end(1, ns(10));
        let paths = g.critical_paths();
        let folded = folded_stacks(&paths);
        assert!(folded.contains("vcpu0;L2;l2_exit 10000"));
        let total: u64 = fold_paths(&paths).values().sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn unmatched_request_end_is_ignored() {
        let mut g = CausalGraph::new();
        g.enable();
        assert!(g.request_end(9, ns(5)).is_none());
        assert_eq!(g.completed_requests(), 0);
    }
}
