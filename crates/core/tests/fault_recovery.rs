//! Negative tests pinning each injected fault kind to exactly one
//! recovery action: one dropped command costs one retransmit, K lost
//! doorbells cost one fallback transition, a duplicated IPI is absorbed
//! by the exactly-once check, and so on. Budget-pinned [`FaultPlan`]s
//! (rate 1.0, budget n) make every count exact rather than statistical.

use svt_arch::{IcrCommand, MSR_X2APIC_EOI, MSR_X2APIC_ICR, VECTOR_IPI};
use svt_core::{nested_machine, smp_machine, SwitchMode, FALLBACK_AFTER, PROBE_EVERY};
use svt_hv::{GuestCtx, GuestOp, GuestProgram, Machine, OpLoop};
use svt_obs::MetricKey;
use svt_sim::{CostPart, FaultKind, FaultPlan, SimDuration, SimTime};

/// A warmed-up single-vCPU SW-SVt machine: the first trap has paired the
/// rings and primed every counter, so later assertions are pure deltas.
fn warm_sw_svt() -> Machine {
    let mut m = nested_machine(SwitchMode::SwSvt);
    run_cpuids(&mut m, 1);
    m
}

fn run_cpuids(m: &mut Machine, n: u64) {
    let mut prog = OpLoop::new(GuestOp::Cpuid, n, 0, SimDuration::ZERO);
    m.run(&mut prog).expect("cpuid loop completes");
}

fn transition_count(m: &Machine, label: &'static str) -> u64 {
    m.obs.metrics.counter(
        MetricKey::new("svt_state_transition")
            .exit(label)
            .reflector("sw-svt"),
    )
}

/// Counter deltas around a faulted run, keyed by row name.
struct Deltas {
    before: Vec<(&'static str, u64)>,
}

/// The command-fault rows are `fault_injected` dimensions (counted where
/// the fault is rolled); every other row is a registry counter name,
/// summed over its dimensions.
const TRACKED: [&str; 11] = [
    "svt_retransmits",
    "svt_timeouts",
    "cmd_drop",
    "cmd_corrupt",
    "cmd_duplicate",
    "svt_duplicates_dropped",
    "svt_protocol_errors",
    "svt_spurious_wakeups",
    "svt_sibling_delays",
    "svt_trap_ring",
    "svt_trap_fallback",
];

impl Deltas {
    fn read(m: &Machine, row: &'static str) -> u64 {
        match row {
            "cmd_drop" | "cmd_corrupt" | "cmd_duplicate" => m
                .obs
                .metrics
                .counter(MetricKey::new("fault_injected").exit(row)),
            name => m.obs.metrics.counter_total(name),
        }
    }

    fn snapshot(m: &Machine) -> Self {
        Deltas {
            before: TRACKED.iter().map(|&n| (n, Self::read(m, n))).collect(),
        }
    }

    fn assert_exact(&self, m: &Machine, expected: &[(&str, u64)]) {
        for &(name, before) in &self.before {
            let got = Self::read(m, name) - before;
            let want = expected
                .iter()
                .find(|&&(n, _)| n == name)
                .map_or(0, |&(_, v)| v);
            assert_eq!(got, want, "counter {name}");
        }
    }
}

#[test]
fn dropped_command_costs_exactly_one_retransmit() {
    let mut m = warm_sw_svt();
    let d = Deltas::snapshot(&m);
    m.faults = FaultPlan::seeded(11)
        .with_rate(FaultKind::CmdDrop, 1.0)
        .with_budget(FaultKind::CmdDrop, 1);
    run_cpuids(&mut m, 1);
    // The dropped command never rings the doorbell: one bounded-wait
    // timeout, one retransmission, and the trap still completes over the
    // ring. The retransmitted command is the only one in the ring, so
    // nothing is dropped as stale.
    d.assert_exact(
        &m,
        &[
            ("cmd_drop", 1),
            ("svt_timeouts", 1),
            ("svt_retransmits", 1),
            ("svt_trap_ring", 1),
        ],
    );
    assert_eq!(transition_count(&m, "healthy->degraded"), 1);
    assert_eq!(transition_count(&m, "degraded->fallen_back"), 0);
    assert_eq!(
        m.obs
            .metrics
            .counter(MetricKey::new("fault_injected").exit("cmd_drop")),
        1
    );
}

#[test]
fn corrupted_command_is_rejected_and_retransmitted_once() {
    let mut m = warm_sw_svt();
    let d = Deltas::snapshot(&m);
    m.faults = FaultPlan::seeded(12)
        .with_rate(FaultKind::CmdCorrupt, 1.0)
        .with_budget(FaultKind::CmdCorrupt, 1);
    run_cpuids(&mut m, 1);
    // The checksum rejects the mangled payload: one protocol error, one
    // retransmission, no timeout (the doorbell itself worked).
    d.assert_exact(
        &m,
        &[
            ("cmd_corrupt", 1),
            ("svt_protocol_errors", 1),
            ("svt_retransmits", 1),
            ("svt_trap_ring", 1),
        ],
    );
    assert_eq!(
        m.obs.metrics.counter(
            MetricKey::new("svt_protocol_errors")
                .exit("corrupt")
                .reflector("sw-svt")
        ),
        1,
        "the rejection reason is dimensioned as 'corrupt'"
    );
}

#[test]
fn duplicated_command_is_absorbed_by_the_sequence_check() {
    let mut m = warm_sw_svt();
    let d = Deltas::snapshot(&m);
    m.faults = FaultPlan::seeded(13)
        .with_rate(FaultKind::CmdDuplicate, 1.0)
        .with_budget(FaultKind::CmdDuplicate, 1);
    run_cpuids(&mut m, 1);
    // The second copy shares the sequence number; the receiver accepts
    // the first and drains the duplicate. No retry, no timeout, no
    // degradation.
    d.assert_exact(
        &m,
        &[
            ("cmd_duplicate", 1),
            ("svt_duplicates_dropped", 1),
            ("svt_trap_ring", 1),
        ],
    );
    assert_eq!(transition_count(&m, "healthy->degraded"), 0);
}

#[test]
fn lost_doorbell_times_out_once_and_retries() {
    let mut m = warm_sw_svt();
    let d = Deltas::snapshot(&m);
    m.faults = FaultPlan::seeded(14)
        .with_rate(FaultKind::DoorbellLost, 1.0)
        .with_budget(FaultKind::DoorbellLost, 1);
    run_cpuids(&mut m, 1);
    // The command landed but the wakeup vanished: the TSC-deadline
    // bounds the wait, the retry resends with a fresh sequence number,
    // and the receiver drops the first (now stale) copy.
    d.assert_exact(
        &m,
        &[
            ("svt_timeouts", 1),
            ("svt_retransmits", 1),
            ("svt_duplicates_dropped", 1),
            ("svt_trap_ring", 1),
        ],
    );
    assert_eq!(transition_count(&m, "healthy->degraded"), 1);
}

#[test]
fn k_consecutive_timeouts_cost_exactly_one_fallback_transition() {
    let mut m = warm_sw_svt();
    let d = Deltas::snapshot(&m);
    // K = 4 (FALLBACK_AFTER): exactly enough lost doorbells to write the
    // channel off within one trap leg.
    const { assert!(FALLBACK_AFTER == 4) };
    m.faults = FaultPlan::seeded(15)
        .with_rate(FaultKind::DoorbellLost, 1.0)
        .with_budget(FaultKind::DoorbellLost, 4);
    run_cpuids(&mut m, 1);
    // Four timeouts, three retransmissions (attempts 2-4), then the leg
    // aborts and the trap is served by the classic world-switch path.
    // The abort drains the four unanswered copies out of the ring so the
    // emptiness watchdog stays honest — counted as dropped duplicates.
    d.assert_exact(
        &m,
        &[
            ("svt_timeouts", 4),
            ("svt_retransmits", 3),
            ("svt_duplicates_dropped", 4),
            ("svt_trap_fallback", 1),
        ],
    );
    assert_eq!(transition_count(&m, "healthy->degraded"), 1);
    assert_eq!(transition_count(&m, "degraded->fallen_back"), 1);

    // The next trap takes the fallback path without touching the ring:
    // no further timeouts (the budget is spent), no ring trap.
    let d2 = Deltas::snapshot(&m);
    run_cpuids(&mut m, 1);
    d2.assert_exact(&m, &[("svt_trap_fallback", 1)]);
}

/// The SW-SVt fallback is the baseline engine: once the channel is
/// written off, a trap that does not probe the ring charges every Table 1
/// part exactly what the same trap charges on a baseline machine.
#[test]
fn fallen_back_trap_costs_exactly_a_baseline_trap() {
    let mut sw = warm_sw_svt();
    sw.faults = FaultPlan::seeded(15)
        .with_rate(FaultKind::DoorbellLost, 1.0)
        .with_budget(FaultKind::DoorbellLost, 4);
    run_cpuids(&mut sw, 1);
    assert_eq!(transition_count(&sw, "degraded->fallen_back"), 1);
    let mut base = nested_machine(SwitchMode::Baseline);
    run_cpuids(&mut base, 1);

    // The first PROBE_EVERY - 1 traps after the write-off do not probe.
    const { assert!(PROBE_EVERY > 1) };
    let d = Deltas::snapshot(&sw);
    let (sw0, base0) = (sw.clock.snapshot(), base.clock.snapshot());
    run_cpuids(&mut sw, 1);
    run_cpuids(&mut base, 1);
    d.assert_exact(&sw, &[("svt_trap_fallback", 1)]);
    let (sw_d, base_d) = (
        sw.clock.since_snapshot(&sw0),
        base.clock.since_snapshot(&base0),
    );
    assert!(base_d.busy_time() > SimDuration::ZERO);
    for part in CostPart::ALL {
        assert_eq!(
            sw_d.part_time(part),
            base_d.part_time(part),
            "{part:?} of a fallen-back SW-SVt trap"
        );
    }
}

#[test]
fn healed_channel_is_repromoted_through_a_probe() {
    let mut m = warm_sw_svt();
    m.faults = FaultPlan::seeded(16)
        .with_rate(FaultKind::DoorbellLost, 1.0)
        .with_budget(FaultKind::DoorbellLost, 4);
    run_cpuids(&mut m, 1); // burns the budget; channel written off
    assert_eq!(transition_count(&m, "degraded->fallen_back"), 1);

    // The fault is gone. Every PROBE_EVERY-th trap probes the ring; the
    // probe succeeds, and HEAL_WINDOW clean traps later the channel is
    // Healthy again — each step one recorded transition.
    let before_ring = m.obs.metrics.counter_total("svt_trap_ring");
    run_cpuids(&mut m, 30);
    assert_eq!(transition_count(&m, "fallen_back->degraded"), 1);
    assert_eq!(transition_count(&m, "degraded->healthy"), 1);
    assert!(
        m.obs.metrics.counter_total("svt_trap_ring") - before_ring >= 9,
        "the probe and the healed traps ride the ring again"
    );
}

#[test]
fn spurious_wakeup_rearms_without_a_retry() {
    let mut m = warm_sw_svt();
    let d = Deltas::snapshot(&m);
    m.faults = FaultPlan::seeded(17)
        .with_rate(FaultKind::DoorbellSpurious, 1.0)
        .with_budget(FaultKind::DoorbellSpurious, 1);
    run_cpuids(&mut m, 1);
    // A premature wake costs one extra wake + re-arm; the command still
    // arrives on the same attempt, so nothing is retried or degraded.
    d.assert_exact(&m, &[("svt_spurious_wakeups", 1), ("svt_trap_ring", 1)]);
    assert_eq!(transition_count(&m, "healthy->degraded"), 0);
}

#[test]
fn sibling_delay_stretches_the_trap_but_needs_no_recovery() {
    let mut faulted = warm_sw_svt();
    let mut clean = warm_sw_svt();
    let d = Deltas::snapshot(&faulted);
    faulted.faults = FaultPlan::seeded(18)
        .with_rate(FaultKind::SiblingDelay, 1.0)
        .with_budget(FaultKind::SiblingDelay, 1);
    run_cpuids(&mut faulted, 1);
    run_cpuids(&mut clean, 1);
    d.assert_exact(&faulted, &[("svt_sibling_delays", 1), ("svt_trap_ring", 1)]);
    // The only effect is time: the delayed sibling finishes the same
    // trap later than its undisturbed twin.
    assert!(
        faulted.clock.now() > clean.clock.now(),
        "a stolen sibling must cost wall-clock time"
    );
}

/// vCPU 0 fires one fixed IPI at vCPU 1, then both spin down. Long tail
/// compute keeps the receiver alive until (re)delivery.
struct IpiOnce {
    sent: bool,
    tail: u32,
    peer: u32,
    pending_eoi: u32,
}

impl IpiOnce {
    fn sender(peer: u32) -> Self {
        IpiOnce {
            sent: false,
            tail: 4,
            peer,
            pending_eoi: 0,
        }
    }

    fn receiver() -> Self {
        IpiOnce {
            sent: true, // nothing to send
            tail: 40,
            peer: 0,
            pending_eoi: 0,
        }
    }
}

impl GuestProgram for IpiOnce {
    fn step(&mut self, _ctx: &mut GuestCtx<'_>) -> GuestOp {
        if self.pending_eoi > 0 {
            self.pending_eoi -= 1;
            return GuestOp::MsrWrite {
                msr: MSR_X2APIC_EOI,
                value: 0,
            };
        }
        if !self.sent {
            self.sent = true;
            return GuestOp::MsrWrite {
                msr: MSR_X2APIC_ICR,
                value: IcrCommand::fixed(VECTOR_IPI, self.peer).encode(),
            };
        }
        if self.tail > 0 {
            self.tail -= 1;
            return GuestOp::Compute(SimDuration::from_us(2));
        }
        GuestOp::Done
    }

    fn interrupt(&mut self, _vector: u8, _ctx: &mut GuestCtx<'_>) {
        self.pending_eoi += 1;
    }

    fn name(&self) -> &'static str {
        "ipi-once"
    }
}

fn run_ipi_pair(plan: FaultPlan) -> Machine {
    let mut m = smp_machine(SwitchMode::SwSvt, 2);
    m.faults = plan;
    m.obs.causal.enable();
    let mut sender = IpiOnce::sender(1);
    let mut receiver = IpiOnce::receiver();
    let mut progs: Vec<&mut dyn GuestProgram> = vec![&mut sender, &mut receiver];
    m.run_smp(&mut progs, SimTime::MAX).expect("pair completes");
    m
}

/// Per-vCPU clocks make `m.clock` see only the last-run vCPU; IPI counts
/// span both ends of the interconnect, so read the machine-wide registry.
fn ipi_total(m: &Machine, name: &'static str) -> u64 {
    m.obs.metrics.counter_total(name)
}

#[test]
fn duplicate_ipi_is_absorbed_by_the_exactly_once_check() {
    let m = run_ipi_pair(
        FaultPlan::seeded(19)
            .with_rate(FaultKind::IpiDuplicate, 1.0)
            .with_budget(FaultKind::IpiDuplicate, 1),
    );
    // Two deliveries of one sequence number: the receiver takes the
    // first, absorbs the second before the APIC or the causal graph see
    // it — so the exactly-once watchdog has nothing to report.
    assert_eq!(ipi_total(&m, "ipi_sent"), 1);
    assert_eq!(ipi_total(&m, "ipi_received"), 1);
    assert_eq!(ipi_total(&m, "ipi_duplicates_absorbed"), 1);
    assert_eq!(m.obs.causal.violation_count("watchdog_ipi_duplicate"), 0);
    assert_eq!(m.obs.causal.violation_count("watchdog_ipi_lost"), 0);
}

#[test]
fn dropped_ipi_is_redelivered_exactly_once() {
    let m = run_ipi_pair(
        FaultPlan::seeded(20)
            .with_rate(FaultKind::IpiDrop, 1.0)
            .with_budget(FaultKind::IpiDrop, 1),
    );
    // The interconnect lost the first copy; the retry layer redelivers
    // the same sequence number one deliver-latency later. The receiver
    // sees exactly one IPI and the lost-IPI watchdog stays silent.
    assert_eq!(ipi_total(&m, "ipi_sent"), 1);
    assert_eq!(ipi_total(&m, "ipi_retransmits"), 1);
    assert_eq!(ipi_total(&m, "ipi_received"), 1);
    assert_eq!(ipi_total(&m, "ipi_duplicates_absorbed"), 0);
    assert_eq!(m.obs.causal.violation_count("watchdog_ipi_lost"), 0);
}

#[test]
fn fault_free_plan_leaves_no_recovery_marks() {
    // The armed-but-never-firing boundary: a plan with rates but zero
    // budget must behave exactly like FaultPlan::none.
    let mut m = warm_sw_svt();
    let d = Deltas::snapshot(&m);
    m.faults = FaultPlan::seeded(21)
        .with_rate(FaultKind::CmdDrop, 1.0)
        .with_budget(FaultKind::CmdDrop, 0);
    run_cpuids(&mut m, 3);
    d.assert_exact(&m, &[("svt_trap_ring", 3)]);
    assert_eq!(m.faults.total_injected(), 0);
}
