//! Host-cost self-profiler: where does the *simulator's own* time go?
//!
//! The paper shaves nanoseconds off the simulated trap path; this module
//! attributes the **host** nanoseconds the simulator spends producing each
//! simulated event, so the optimization roadmap (intra-machine parallelism,
//! trap-shape memoization) starts from a measured budget instead of a hunch.
//! Three cooperating pieces:
//!
//! 1. **Scoped wall-time attribution** — [`HostPart`] names the simulator's
//!    own subsystems (event pump, reflection emulation, ring protocol,
//!    causal recording, timeline sampling, metrics, fault rolls). The
//!    machine's hot paths bracket themselves with [`HostProf::enter`] /
//!    [`HostProf::exit`]; at every switch point
//!    the elapsed `Instant` delta is charged to the part on top of the
//!    stack, so the per-part wall columns always sum to the full
//!    `run_begin..run_end` window — nothing is double-counted or lost.
//! 2. **Deterministic allocation attribution** — [`CountingAlloc`] is an
//!    opt-in global-allocator wrapper around the system allocator that
//!    counts allocations and requested bytes in plain thread-locals. The
//!    switch points charge allocation deltas exactly like time deltas.
//!    Unlike wall clock, allocs/event and bytes/event are *byte-identical*
//!    at any `--jobs`, so CI gates on them exactly.
//! 3. **Trap-shape analytics** — every trap folds its decision-relevant
//!    state (exit-reason tag, engine, degrade-FSM health, the VMCS fields
//!    it touches, the L1 exits it takes) into an FNV-1a shape key. The
//!    per-shape counts and mean host cost quantify the memoization
//!    headroom: "X% of traps replay Y distinct shapes".
//!
//! Everything is gated on one `bool` loaded at machine construction
//! ([`set_enabled`]); the disabled path is a single branch per call site
//! and is pinned under the repo-wide <250ns/op observability gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use svt_sim::FnvHashMap;

use crate::json::Json;

// Same FNV-1a constants as `svt_sim::hash` — restated so shape keys are
// self-describing in the report ("64-bit FNV-1a over the fold sequence").
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_fold(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(FNV_PRIME)
}

/// A subsystem of the simulator itself, for host-cost attribution.
///
/// Dense discriminants index flat `[u64; COUNT]` columns, mirroring how
/// `svt_sim::CostPart` attributes *simulated* time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum HostPart {
    /// The run loop itself: vCPU selection, slice bookkeeping, everything
    /// not claimed by a more specific part. Root of the attribution stack.
    Scheduler = 0,
    /// Event-queue pop/push: due-event draining and cross-vCPU routing.
    EventPump = 1,
    /// Guest instruction stepping and direct op execution.
    GuestStep = 2,
    /// Nested trap reflection: the Algorithm 1 emulation (transforms,
    /// injection, L1 handler, validation legs).
    Reflection = 3,
    /// The SW-SVt command-ring protocol (publish/consume/mwait).
    RingProtocol = 4,
    /// Windowed timeline sampling.
    Telemetry = 5,
    /// Causal-graph recording and watchdog finalization.
    Causal = 6,
    /// The trap-latency histogram `observe` each trap ends with, plus, on
    /// a nested trap, the `l2_resume` span close. Counter updates are
    /// not here: each is charged to the part that issues it (mostly
    /// [`HostPart::Reflection`]).
    Metrics = 7,
    /// Fault-plan rolls at protocol edges.
    Faults = 8,
    /// Explicitly-unattributed work charged by callers.
    Other = 9,
    /// Machine construction and boot: guest memory, EPT webs, each
    /// vCPU's nested bootstrap — through the return of the machine
    /// constructor, including every added vCPU.
    MachineBoot = 10,
    /// Workload set-up on a built machine: device attach, service state,
    /// guest programs — from the constructor's return to the first
    /// `run_smp`.
    WorkloadSetup = 11,
    /// Machine teardown after the run window closes: freeing guest
    /// memory, EPT webs and devices. Charged by [`charge_block`].
    Teardown = 12,
}

impl HostPart {
    /// Number of parts (size of the dense columns).
    pub const COUNT: usize = 13;

    /// Every part, in discriminant order.
    pub const ALL: [HostPart; HostPart::COUNT] = [
        HostPart::Scheduler,
        HostPart::EventPump,
        HostPart::GuestStep,
        HostPart::Reflection,
        HostPart::RingProtocol,
        HostPart::Telemetry,
        HostPart::Causal,
        HostPart::Metrics,
        HostPart::Faults,
        HostPart::Other,
        HostPart::MachineBoot,
        HostPart::WorkloadSetup,
        HostPart::Teardown,
    ];

    /// Stable snake_case label used in reports and gate keys.
    pub fn label(self) -> &'static str {
        match self {
            HostPart::Scheduler => "scheduler",
            HostPart::EventPump => "event_pump",
            HostPart::GuestStep => "guest_step",
            HostPart::Reflection => "reflection",
            HostPart::RingProtocol => "ring_protocol",
            HostPart::Telemetry => "telemetry",
            HostPart::Causal => "causal",
            HostPart::Metrics => "metrics",
            HostPart::Faults => "faults",
            HostPart::Other => "other",
            HostPart::MachineBoot => "machine_boot",
            HostPart::WorkloadSetup => "workload_setup",
            HostPart::Teardown => "teardown",
        }
    }
}

// `ALL[i] as usize == i` keeps the dense-array indexing honest.
const _: () = {
    let mut i = 0;
    while i < HostPart::COUNT {
        assert!(HostPart::ALL[i] as usize == i);
        i += 1;
    }
};

impl std::fmt::Display for HostPart {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Running (allocations, requested bytes) totals for the calling thread.
///
/// Monotonic counters; the profiler charges *deltas* between switch
/// points, so only differences matter. Both stay zero unless the process
/// runs on [`CountingAlloc`] as its global allocator.
pub fn thread_alloc_totals() -> (u64, u64) {
    let a = TL_ALLOCS.try_with(Cell::get).unwrap_or(0);
    let b = TL_BYTES.try_with(Cell::get).unwrap_or(0);
    (a, b)
}

#[inline]
fn tl_count(bytes: usize) {
    // `try_with`: the allocator may run during TLS teardown.
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = TL_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// A counting wrapper around the system allocator.
///
/// Opt-in: a crate declares it as the global allocator, and only the
/// processes that link that crate pay for it. `svt-bench` installs it for
/// every bench binary; the root `svt` crate and the library crates do
/// not.
///
/// Counts every allocation (and every growth-realloc) plus the requested
/// byte size in thread-local counters read by [`thread_alloc_totals`].
/// Since the sweep engine runs each grid cell entirely on one worker
/// thread, per-part allocation deltas are exact and independent of
/// `--jobs`.
pub struct CountingAlloc;

// SAFETY: defers all allocation to `System`; the thread-local bookkeeping
// does not allocate and tolerates TLS teardown via `try_with`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tl_count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tl_count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tl_count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

// ---------------------------------------------------------------------------
// Global enable flag + cross-machine aggregator
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<HostAgg>> = Mutex::new(None);

/// Arms (or disarms) host profiling for machines constructed *after* this
/// call. The flag is sampled once per machine at `Obs` construction so the
/// hot path stays a plain `bool` test.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether machines constructed now will profile themselves.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Drains the process-wide aggregate accumulated by every finished
/// machine run since the last drain. `None` if nothing was recorded.
pub fn take_global() -> Option<HostAgg> {
    GLOBAL.lock().unwrap().take()
}

fn merge_global(agg: HostAgg) {
    let mut g = GLOBAL.lock().unwrap();
    match g.as_mut() {
        Some(cur) => cur.merge(&agg),
        None => *g = Some(agg),
    }
}

/// Runs `f` and charges its wall time (and allocation deltas) to `part`
/// directly in the process-wide aggregate, outside any machine window.
/// Covers work a machine cannot attribute itself — chiefly its own
/// teardown, which runs after `run_end` has closed the window. Counts no
/// run and no events, so per-event rates are unaffected. When profiling
/// is disarmed this is the call to `f` plus one atomic load.
pub fn charge_block<T>(part: HostPart, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let (a0, b0) = thread_alloc_totals();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_nanos() as u64;
    let (a1, b1) = thread_alloc_totals();
    let mut agg = HostAgg::default();
    agg.wall_ns[part as usize] = wall;
    agg.allocs[part as usize] = a1 - a0;
    agg.bytes[part as usize] = b1 - b0;
    merge_global(agg);
    out
}

// ---------------------------------------------------------------------------
// Per-machine profiler
// ---------------------------------------------------------------------------

/// Count and total host cost of one trap shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShapeStat {
    /// Traps with this fingerprint.
    pub count: u64,
    /// Total host wall nanoseconds spent on them (not deterministic).
    pub host_ns: u64,
}

/// The per-machine host-cost profiler, carried on the `Obs` bundle.
///
/// Construction samples the global [`set_enabled`] flag; when disabled,
/// every method is a single branch. When enabled, `run_begin`/`run_end`
/// bracket a machine run and the part stack attributes every intervening
/// host nanosecond (and, with [`CountingAlloc`] installed, allocation)
/// to exactly one [`HostPart`]. `run_end` drains the totals into the
/// process-wide aggregate read by [`take_global`].
#[derive(Debug, Clone)]
pub struct HostProf {
    enabled: bool,
    running: bool,
    last: Instant,
    last_allocs: u64,
    last_bytes: u64,
    stack: Vec<HostPart>,
    wall_ns: [u64; HostPart::COUNT],
    allocs: [u64; HostPart::COUNT],
    bytes: [u64; HostPart::COUNT],
    events: u64,
    shape_open: bool,
    shape_acc: u64,
    trap_t0: Instant,
    shapes: FnvHashMap<u64, ShapeStat>,
}

impl Default for HostProf {
    fn default() -> Self {
        HostProf {
            enabled: enabled(),
            running: false,
            last: Instant::now(),
            last_allocs: 0,
            last_bytes: 0,
            stack: Vec::new(),
            wall_ns: [0; HostPart::COUNT],
            allocs: [0; HostPart::COUNT],
            bytes: [0; HostPart::COUNT],
            events: 0,
            shape_open: false,
            shape_acc: FNV_OFFSET,
            trap_t0: Instant::now(),
            shapes: FnvHashMap::default(),
        }
    }
}

impl HostProf {
    /// A profiler armed regardless of the global flag (tests).
    pub fn armed() -> Self {
        HostProf {
            enabled: true,
            ..HostProf::default()
        }
    }

    /// Whether this machine's profiler is armed.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether a `run_begin..run_end` window is currently open.
    #[inline]
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Charges wall/alloc deltas since the last switch point to the part
    /// currently on top of the stack.
    #[inline]
    fn switch_charge(&mut self) {
        let now = Instant::now();
        let (a, b) = thread_alloc_totals();
        let top = *self.stack.last().unwrap_or(&HostPart::Other) as usize;
        self.wall_ns[top] += now.duration_since(self.last).as_nanos() as u64;
        self.allocs[top] += a - self.last_allocs;
        self.bytes[top] += b - self.last_bytes;
        self.last = now;
        self.last_allocs = a;
        self.last_bytes = b;
    }

    /// Opens the attribution window for one machine run. Until
    /// [`run_end`](Self::run_end), all host time is charged to
    /// [`HostPart::Scheduler`] unless a more specific part is entered.
    pub fn run_begin(&mut self) {
        if !self.enabled || self.running {
            return;
        }
        self.running = true;
        self.stack.clear();
        self.stack.push(HostPart::Scheduler);
        self.last = Instant::now();
        let (a, b) = thread_alloc_totals();
        self.last_allocs = a;
        self.last_bytes = b;
    }

    /// Closes the attribution window, tagging it with the simulated
    /// nanoseconds it produced, and drains the totals into the
    /// process-wide aggregate.
    pub fn run_end(&mut self, sim_ns: u64) {
        if !self.running {
            return;
        }
        self.switch_charge();
        self.running = false;
        self.shape_open = false;
        self.stack.clear();
        let mut agg = HostAgg {
            wall_ns: self.wall_ns,
            allocs: self.allocs,
            bytes: self.bytes,
            events: self.events,
            runs: 1,
            sim_ns,
            shapes: std::mem::take(&mut self.shapes),
        };
        // Reset so a second run on the same machine merges only its own
        // deltas.
        self.wall_ns = [0; HostPart::COUNT];
        self.allocs = [0; HostPart::COUNT];
        self.bytes = [0; HostPart::COUNT];
        self.events = 0;
        if agg.events > 0 || agg.total_wall_ns() > 0 {
            merge_global(std::mem::take(&mut agg));
        }
    }

    /// Pushes `part`: subsequent host cost is charged to it until the
    /// matching [`exit`](Self::exit).
    #[inline]
    pub fn enter(&mut self, part: HostPart) {
        if !self.running {
            return;
        }
        self.switch_charge();
        self.stack.push(part);
    }

    /// Ends machine construction: if [`HostPart::MachineBoot`] is the
    /// active part, host cost from here on is charged to
    /// [`HostPart::WorkloadSetup`] instead. Called as the machine
    /// constructor returns.
    pub fn end_machine_boot(&mut self) {
        if self.running && self.stack.last() == Some(&HostPart::MachineBoot) {
            self.switch_charge();
            *self.stack.last_mut().expect("checked above") = HostPart::WorkloadSetup;
        }
    }

    /// Closes the construction window: pops [`HostPart::WorkloadSetup`]
    /// if it is still the active part. Called by the run loop on entry,
    /// so set-up work never bleeds into the run's Scheduler row.
    pub fn end_setup(&mut self) {
        if self.running && self.stack.last() == Some(&HostPart::WorkloadSetup) {
            self.switch_charge();
            self.stack.pop();
        }
    }

    /// Pops `part`, returning attribution to the enclosing part.
    #[inline]
    pub fn exit(&mut self, part: HostPart) {
        if !self.running {
            return;
        }
        self.switch_charge();
        debug_assert_eq!(self.stack.last(), Some(&part));
        if self.stack.last() == Some(&part) {
            self.stack.pop();
        }
    }

    // -- trap-shape analytics -----------------------------------------------

    /// Marks the start of one trap (any engine). Counts the event and
    /// opens the shape fingerprint.
    #[inline]
    pub fn trap_begin(&mut self) {
        if !self.running {
            return;
        }
        self.events += 1;
        self.shape_open = true;
        self.shape_acc = FNV_OFFSET;
        self.trap_t0 = Instant::now();
    }

    /// Folds one word of decision-relevant state into the open shape.
    #[inline]
    pub fn shape_fold(&mut self, word: u64) {
        if !self.shape_open {
            return;
        }
        self.shape_acc = fnv_fold(self.shape_acc, word);
    }

    /// Folds a string (engine name, health, exit tag) into the open shape.
    #[inline]
    pub fn shape_fold_str(&mut self, s: &str) {
        if !self.shape_open {
            return;
        }
        let mut acc = self.shape_acc;
        for &byte in s.as_bytes() {
            acc = fnv_fold(acc, byte as u64);
        }
        self.shape_acc = fnv_fold(acc, 0x5f); // separator: '_'
    }

    /// Folds one VMCS access (id, field index, read/write) into the open
    /// shape. Single guarded call so closed-shape cost is one branch.
    #[inline]
    pub fn shape_fold_vmcs(&mut self, id: u64, field: usize, write: bool) {
        if !self.shape_open {
            return;
        }
        let word = (id << 32) | ((field as u64) << 1) | write as u64;
        self.shape_acc = fnv_fold(self.shape_acc, 0x56c5); // 'V' marker
        self.shape_acc = fnv_fold(self.shape_acc, word);
    }

    /// Closes the trap: records its fingerprint and host cost.
    #[inline]
    pub fn trap_end(&mut self) {
        if !self.shape_open {
            return;
        }
        self.shape_open = false;
        let ns = self.trap_t0.elapsed().as_nanos() as u64;
        let stat = self.shapes.entry(self.shape_acc).or_default();
        stat.count += 1;
        stat.host_ns += ns;
    }
}

// ---------------------------------------------------------------------------
// Aggregate
// ---------------------------------------------------------------------------

/// Process-wide host-cost aggregate over finished machine runs.
///
/// Merging is commutative sums, so the aggregate is identical at any
/// `--jobs`; the wall columns are host-noise, everything else
/// (allocs, bytes, events, shapes) is deterministic for a fixed
/// workload + seed and is what CI gates on exactly.
#[derive(Debug, Clone, Default)]
pub struct HostAgg {
    /// Host wall nanoseconds per part (noisy; gate with bands).
    pub wall_ns: [u64; HostPart::COUNT],
    /// Allocations per part (deterministic; gate exactly).
    pub allocs: [u64; HostPart::COUNT],
    /// Requested bytes per part (deterministic; gate exactly).
    pub bytes: [u64; HostPart::COUNT],
    /// Traps profiled (the per-event denominator).
    pub events: u64,
    /// Machine runs merged in.
    pub runs: u64,
    /// Simulated nanoseconds produced (sum over runs).
    pub sim_ns: u64,
    /// Trap-shape fingerprint -> count + host cost.
    pub shapes: FnvHashMap<u64, ShapeStat>,
}

impl HostAgg {
    /// Folds another aggregate in (commutative, associative).
    pub fn merge(&mut self, other: &HostAgg) {
        for i in 0..HostPart::COUNT {
            self.wall_ns[i] += other.wall_ns[i];
            self.allocs[i] += other.allocs[i];
            self.bytes[i] += other.bytes[i];
        }
        self.events += other.events;
        self.runs += other.runs;
        self.sim_ns += other.sim_ns;
        for (k, v) in &other.shapes {
            let s = self.shapes.entry(*k).or_default();
            s.count += v.count;
            s.host_ns += v.host_ns;
        }
    }

    /// Sum of all attributed wall nanoseconds.
    pub fn total_wall_ns(&self) -> u64 {
        self.wall_ns.iter().sum()
    }

    /// Sum of all attributed allocations.
    pub fn total_allocs(&self) -> u64 {
        self.allocs.iter().sum()
    }

    /// Sum of all attributed requested bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total traps across all shapes (== `events` when every trap closed).
    pub fn shape_total(&self) -> u64 {
        self.shapes.values().map(|s| s.count).sum()
    }

    /// Distinct trap shapes observed.
    pub fn distinct_shapes(&self) -> usize {
        self.shapes.len()
    }

    /// Fraction of traps that replay an already-seen shape:
    /// `1 - distinct/total`. This is the memoization headroom — a repeat
    /// ratio of 0.99 means a shape-keyed cache of `distinct` entries could
    /// serve 99% of traps.
    pub fn repeat_ratio(&self) -> f64 {
        let total = self.shape_total();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.distinct_shapes() as f64 / total as f64
    }

    /// Shapes sorted by (count desc, key asc) — a deterministic top-K.
    pub fn top_shapes(&self, k: usize) -> Vec<(u64, ShapeStat)> {
        let mut v: Vec<(u64, ShapeStat)> = self.shapes.iter().map(|(k, s)| (*k, *s)).collect();
        v.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// The full report section: per-part wall/alloc columns with
    /// per-event and host-per-sim-ns rates, plus shape analytics.
    /// Wall fields are host-noisy; see [`deterministic_json`](Self::deterministic_json).
    pub fn to_json(&self) -> Json {
        let events = self.events.max(1) as f64;
        let sim_ns = self.sim_ns.max(1) as f64;
        let parts = Json::arr(HostPart::ALL.iter().map(|&p| {
            let i = p as usize;
            Json::obj([
                ("part", Json::from(p.label())),
                ("wall_ns", Json::from(self.wall_ns[i])),
                (
                    "wall_ns_per_event",
                    Json::from(self.wall_ns[i] as f64 / events),
                ),
                (
                    "host_ns_per_sim_ns",
                    Json::from(self.wall_ns[i] as f64 / sim_ns),
                ),
                ("allocs", Json::from(self.allocs[i])),
                (
                    "allocs_per_event",
                    Json::from(self.allocs[i] as f64 / events),
                ),
                ("bytes", Json::from(self.bytes[i])),
                ("bytes_per_event", Json::from(self.bytes[i] as f64 / events)),
            ])
        }));
        let top = Json::arr(self.top_shapes(10).into_iter().map(|(key, s)| {
            Json::obj([
                ("shape", Json::from(format!("{key:016x}"))),
                ("count", Json::from(s.count)),
                (
                    "share",
                    Json::from(s.count as f64 / self.shape_total().max(1) as f64),
                ),
                (
                    "mean_host_ns",
                    Json::from(s.host_ns as f64 / s.count.max(1) as f64),
                ),
            ])
        }));
        Json::obj([
            ("events", Json::from(self.events)),
            ("runs", Json::from(self.runs)),
            ("sim_ns", Json::from(self.sim_ns)),
            ("total_wall_ns", Json::from(self.total_wall_ns())),
            ("total_allocs", Json::from(self.total_allocs())),
            ("total_bytes", Json::from(self.total_bytes())),
            (
                "wall_ns_per_event",
                Json::from(self.total_wall_ns() as f64 / events),
            ),
            (
                "host_ns_per_sim_ns",
                Json::from(self.total_wall_ns() as f64 / sim_ns),
            ),
            ("parts", parts),
            ("distinct_shapes", Json::from(self.distinct_shapes())),
            ("shape_total", Json::from(self.shape_total())),
            ("repeat_ratio", Json::from(self.repeat_ratio())),
            ("top_shapes", top),
        ])
    }

    /// Only the deterministic fields (no wall clock, no per-shape host
    /// cost): byte-identical at any `--jobs` and across re-runs, so CI
    /// diffs this exactly. Shapes are emitted sorted by
    /// (count desc, key asc).
    pub fn deterministic_json(&self) -> Json {
        let parts = Json::arr(HostPart::ALL.iter().map(|&p| {
            let i = p as usize;
            Json::obj([
                ("part", Json::from(p.label())),
                ("allocs", Json::from(self.allocs[i])),
                ("bytes", Json::from(self.bytes[i])),
            ])
        }));
        let mut shapes: Vec<(u64, ShapeStat)> = self.shapes.iter().map(|(k, s)| (*k, *s)).collect();
        shapes.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(&b.0)));
        let shapes = Json::arr(shapes.into_iter().map(|(key, s)| {
            Json::obj([
                ("shape", Json::from(format!("{key:016x}"))),
                ("count", Json::from(s.count)),
            ])
        }));
        Json::obj([
            ("events", Json::from(self.events)),
            ("runs", Json::from(self.runs)),
            ("sim_ns", Json::from(self.sim_ns)),
            ("total_allocs", Json::from(self.total_allocs())),
            ("total_bytes", Json::from(self.total_bytes())),
            ("parts", parts),
            ("distinct_shapes", Json::from(self.distinct_shapes())),
            ("shape_total", Json::from(self.shape_total())),
            ("repeat_ratio", Json::from(self.repeat_ratio())),
            ("shapes", shapes),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let mut p = HostProf {
            enabled: false,
            ..HostProf::default()
        };
        p.run_begin();
        assert!(!p.is_running());
        p.enter(HostPart::Reflection);
        p.trap_begin();
        p.shape_fold(7);
        p.trap_end();
        p.exit(HostPart::Reflection);
        p.run_end(1000);
        assert_eq!(p.events, 0);
        assert!(p.shapes.is_empty());
    }

    #[test]
    fn attribution_and_shapes_accumulate() {
        let mut p = HostProf::armed();
        p.run_begin();
        assert!(p.is_running());
        p.enter(HostPart::Reflection);
        p.trap_begin();
        p.shape_fold_str("cpuid");
        p.shape_fold_vmcs(2, 17, false);
        p.trap_end();
        p.exit(HostPart::Reflection);
        p.enter(HostPart::Reflection);
        p.trap_begin();
        p.shape_fold_str("cpuid");
        p.shape_fold_vmcs(2, 17, false);
        p.trap_end();
        p.trap_begin();
        p.shape_fold_str("hlt");
        p.trap_end();
        p.exit(HostPart::Reflection);
        assert_eq!(p.events, 3);
        assert_eq!(p.shapes.len(), 2);
        p.run_end(5_000);
        // Drained into the global aggregate.
        assert_eq!(p.events, 0);
        assert!(p.shapes.is_empty());
        let agg = take_global().expect("run merged");
        assert_eq!(agg.events, 3);
        assert_eq!(agg.runs, 1);
        assert_eq!(agg.sim_ns, 5_000);
        assert_eq!(agg.distinct_shapes(), 2);
        assert_eq!(agg.shape_total(), 3);
        let top = agg.top_shapes(10);
        assert_eq!(top[0].1.count, 2);
        assert!((agg.repeat_ratio() - (1.0 - 2.0 / 3.0)).abs() < 1e-12);
        // Total wall is fully attributed across parts.
        assert!(agg.total_wall_ns() > 0);
        // Deterministic section round-trips through the JSON parser.
        let s = agg.deterministic_json().to_string();
        assert_eq!(Json::parse(&s).unwrap().to_string(), s);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = HostAgg::default();
        a.wall_ns[0] = 10;
        a.allocs[1] = 4;
        a.events = 2;
        a.runs = 1;
        a.sim_ns = 100;
        a.shapes.insert(
            1,
            ShapeStat {
                count: 2,
                host_ns: 8,
            },
        );
        let mut b = HostAgg::default();
        b.wall_ns[0] = 5;
        b.allocs[1] = 1;
        b.events = 1;
        b.runs = 1;
        b.sim_ns = 50;
        b.shapes.insert(
            1,
            ShapeStat {
                count: 1,
                host_ns: 3,
            },
        );
        b.shapes.insert(
            2,
            ShapeStat {
                count: 1,
                host_ns: 9,
            },
        );

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(
            ab.deterministic_json().to_string(),
            ba.deterministic_json().to_string()
        );
        assert_eq!(ab.events, 3);
        assert_eq!(ab.shapes[&1].count, 3);
        assert_eq!(ab.repeat_ratio(), 1.0 - 2.0 / 4.0);
    }
}
