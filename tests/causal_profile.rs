//! The causal event graph end to end: conservation of critical-path
//! weight over randomized SMP schedules, the invariant watchdogs'
//! negative paths, and the profiler's headline claim (SW SVt removes
//! exit/resume time from the request critical path).

use std::cell::RefCell;
use std::rc::Rc;

use svt::arch::{IcrCommand, MSR_X2APIC_EOI, MSR_X2APIC_ICR, VECTOR_IPI};
use svt::core::{smp_machine, SwitchMode};
use svt::hv::{GuestCtx, GuestOp, GuestProgram};
use svt::obs::{fold_paths, CausalGraph, WATCHDOGS};
use svt::sim::{DetRng, SimDuration, SimTime};
use svt::workloads::{App, CausalProfile, RunSpec, DEFAULT_LANE_SEED};

/// A guest issuing a randomized mix of trapping and native operations,
/// wrapping them in causal request anchors and remembering each
/// request's true wall-clock window for the conservation check.
struct RandomGuest {
    rng: DetRng,
    lane: u64,
    n_vcpus: usize,
    requests_left: u64,
    seq: u64,
    cur: Option<u64>,
    ops_left: u32,
    pending_eoi: u32,
    /// `(request key, start, end)` as the guest observed them.
    windows: Rc<RefCell<Vec<(u64, SimTime, SimTime)>>>,
    starts: std::collections::HashMap<u64, SimTime>,
}

impl RandomGuest {
    fn new(
        seed: u64,
        lane: usize,
        n_vcpus: usize,
        requests: u64,
        windows: Rc<RefCell<Vec<(u64, SimTime, SimTime)>>>,
    ) -> Self {
        RandomGuest {
            rng: DetRng::seed(seed ^ (lane as u64).wrapping_mul(0x9e37_79b9)),
            lane: lane as u64,
            n_vcpus,
            requests_left: requests,
            seq: 0,
            cur: None,
            ops_left: 0,
            pending_eoi: 0,
            windows,
            starts: std::collections::HashMap::new(),
        }
    }
}

impl GuestProgram for RandomGuest {
    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> GuestOp {
        if self.pending_eoi > 0 {
            self.pending_eoi -= 1;
            return GuestOp::MsrWrite {
                msr: MSR_X2APIC_EOI,
                value: 0,
            };
        }
        if self.cur.is_none() {
            if self.requests_left == 0 {
                return GuestOp::Done;
            }
            self.requests_left -= 1;
            let key = (self.lane << 32) | self.seq;
            self.seq += 1;
            ctx.obs.causal.request_start(key, ctx.now);
            self.starts.insert(key, ctx.now);
            self.cur = Some(key);
            self.ops_left = 1 + self.rng.below(6) as u32;
        }
        if self.ops_left == 0 {
            let key = self.cur.take().expect("request open");
            ctx.obs.causal.request_end(key, ctx.now);
            let start = self.starts.remove(&key).expect("start recorded");
            self.windows.borrow_mut().push((key, start, ctx.now));
            return self.step(ctx);
        }
        self.ops_left -= 1;
        match self.rng.below(5) {
            0 => GuestOp::Compute(SimDuration::from_ns(50 + self.rng.below(500))),
            1 => GuestOp::Cpuid,
            2 => GuestOp::Vmcall(7),
            3 if self.n_vcpus > 1 => {
                let dest = self.rng.below(self.n_vcpus as u64) as u32;
                GuestOp::MsrWrite {
                    msr: MSR_X2APIC_ICR,
                    value: IcrCommand::fixed(VECTOR_IPI, dest).encode(),
                }
            }
            _ => GuestOp::Cpuid,
        }
    }

    fn interrupt(&mut self, _vector: u8, _ctx: &mut GuestCtx<'_>) {
        self.pending_eoi += 1;
    }

    fn name(&self) -> &'static str {
        "random-guest"
    }
}

/// Conservation: for every completed request, under every engine and
/// every randomized 1–4-vCPU interleaving, the critical path's segment
/// weights sum exactly to the request's end-to-end latency — the walk
/// never loses or double-counts a picosecond, IPI hops included.
#[test]
fn critical_path_weight_is_conserved_over_random_smp_schedules() {
    const REQUESTS: u64 = 8;
    for mode in [SwitchMode::Baseline, SwitchMode::SwSvt, SwitchMode::HwSvt] {
        for n_vcpus in 1..=4usize {
            for seed in [1u64, 42, 1234] {
                let windows = Rc::new(RefCell::new(Vec::new()));
                let mut m = smp_machine(mode, n_vcpus);
                m.obs.causal.enable();
                let mut guests: Vec<RandomGuest> = (0..n_vcpus)
                    .map(|v| RandomGuest::new(seed, v, n_vcpus, REQUESTS, windows.clone()))
                    .collect();
                let mut progs: Vec<&mut dyn GuestProgram> = guests
                    .iter_mut()
                    .map(|g| g as &mut dyn GuestProgram)
                    .collect();
                m.run_smp(&mut progs, SimTime::MAX)
                    .expect("random guests complete");

                let paths = m.obs.causal.critical_paths();
                let windows = windows.borrow();
                assert_eq!(
                    paths.len(),
                    windows.len(),
                    "{mode:?}/{n_vcpus}v/{seed}: every request yields one path"
                );
                assert_eq!(paths.len(), REQUESTS as usize * n_vcpus);
                for p in &paths {
                    let (_, start, end) = windows
                        .iter()
                        .find(|(k, _, _)| *k == p.request)
                        .expect("request anchored by the guest");
                    let latency = end.since(*start).as_ps();
                    let sum: u64 = p.segments.iter().map(|s| s.ps).sum();
                    assert_eq!(
                        sum, latency,
                        "{mode:?}/{n_vcpus}v/{seed}: req {:#x} segments {} != latency {}",
                        p.request, sum, latency
                    );
                    assert_eq!(p.total_ps, latency);
                    assert!(p.segments.iter().all(|s| s.ps > 0), "zero-weight segment");
                }
                // No protocol invariant may trip under any interleaving.
                // (IPIs routed to an already-finished vCPU are dropped by
                // the scheduler and legitimately count as lost.)
                for w in ["watchdog_ring_deadline", "watchdog_blocked_window"] {
                    assert_eq!(
                        m.obs.causal.violation_count(w),
                        0,
                        "{mode:?}/{n_vcpus}v/{seed}: {w}"
                    );
                }
                assert_eq!(m.obs.causal.violation_count("watchdog_ipi_duplicate"), 0);
                assert_eq!(m.obs.causal.violation_count("watchdog_span_nesting"), 0);
            }
        }
    }
}

/// Negative path: a ring command serviced after the deadline trips the
/// unserviced-ring watchdog exactly once — not once per later event, and
/// not again at finish.
#[test]
fn late_ring_command_trips_deadline_watchdog_exactly_once() {
    let mut g = CausalGraph::new();
    g.enable();
    let t0 = SimTime::ZERO + SimDuration::from_us(10);
    g.ring_enqueue("svt_cmd_enqueue", 0, t0);
    // Serviced 100us later: past the 50us deadline.
    g.ring_dequeue("svt_cmd_dequeue", 0, t0 + SimDuration::from_us(100));
    // A healthy command afterwards must not re-trip it.
    let t1 = t0 + SimDuration::from_us(200);
    g.ring_enqueue("svt_cmd_enqueue", 0, t1);
    g.ring_dequeue("svt_cmd_dequeue", 0, t1 + SimDuration::from_us(1));
    g.finish(t1 + SimDuration::from_ms(1));
    assert_eq!(g.violation_count("watchdog_ring_deadline"), 1);
    assert_eq!(g.total_violations(), 1);
}

/// Negative path: an IPI delivered twice off one send trips the
/// exactly-once watchdog exactly once (the duplicate), and a send that
/// is never delivered counts as lost at finish.
#[test]
fn double_delivered_ipi_trips_exactly_once_watchdog() {
    let mut g = CausalGraph::new();
    g.enable();
    let t0 = SimTime::ZERO + SimDuration::from_us(1);
    g.set_vcpu(0);
    g.ipi_send(1, t0);
    g.set_vcpu(1);
    g.ipi_recv(t0 + SimDuration::from_ns(500));
    // The same IPI "arrives" again: no matching send remains.
    g.ipi_recv(t0 + SimDuration::from_ns(700));
    g.finish(t0 + SimDuration::from_us(10));
    assert_eq!(g.violation_count("watchdog_ipi_duplicate"), 1);
    assert_eq!(g.violation_count("watchdog_ipi_lost"), 0);

    // Separately: a send with no delivery is lost once its deadline
    // passes at finish.
    let mut g = CausalGraph::new();
    g.enable();
    g.ipi_send(1, t0);
    g.finish(t0 + SimDuration::from_ms(1));
    assert_eq!(g.violation_count("watchdog_ipi_lost"), 1);
    assert_eq!(g.violation_count("watchdog_ipi_duplicate"), 0);
}

/// Every watchdog name the graph can report is a registered constant —
/// the metrics harvest and the report rows key off these strings.
#[test]
fn watchdog_names_are_registered() {
    assert_eq!(WATCHDOGS.len(), 5);
    for w in WATCHDOGS {
        assert!(w.starts_with("watchdog_"), "{w}");
    }
}

/// The profiler's headline claim, as the acceptance criterion demands:
/// on the serving workload, SW SVt's critical path spends measurably
/// less in exit/resume phases than the baseline's — the ring protocol
/// replaces the L0<->L1 world switches.
#[test]
fn sw_svt_critical_path_has_less_exit_resume_than_baseline() {
    const EXIT_RESUME: [&str; 4] = ["l2_exit", "l2_resume", "l1_entry", "l1_exit"];
    let profile = |mode| {
        let spec = RunSpec {
            app: App::Memcached {
                rate_qps: 2_000.0,
                requests: 60,
            },
            mode,
            arch: svt::arch::ArchId::X86,
            vcpus: 2,
            lane_seed: DEFAULT_LANE_SEED,
        };
        spec.run(CausalProfile::arm, CausalProfile::harvest).1
    };
    let (base, sw) = (profile(SwitchMode::Baseline), profile(SwitchMode::SwSvt));
    assert!(!base.folded.is_empty() && !sw.folded.is_empty());
    assert!(base.events_dropped == 0 && sw.events_dropped == 0);
    let sum = |prof: &CausalProfile| -> u64 {
        fold_paths(&prof.paths)
            .iter()
            .filter(|((_, _, phase), _)| EXIT_RESUME.contains(phase))
            .map(|(_, &ps)| ps)
            .sum()
    };
    let (b, s) = (sum(&base), sum(&sw));
    assert!(b > 0, "baseline shows no exit/resume weight");
    assert!(
        (s as f64) < 0.6 * b as f64,
        "sw-svt exit/resume {s} ps not measurably below baseline {b} ps"
    );
    // Both runs are watchdog-clean.
    assert!(base.violations.is_empty(), "{:?}", base.violations);
    assert!(sw.violations.is_empty(), "{:?}", sw.violations);
}
