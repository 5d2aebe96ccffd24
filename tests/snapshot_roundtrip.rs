//! Round-trip property tests for the machine snapshot subsystem: a
//! snapshot taken between runs, restored into a fresh machine of the
//! same shape, must be **invisible** — continuing the original machine
//! and continuing the restored copy with identical guests produce the
//! same simulated time, the same guest-visible op streams, the same
//! metrics, the same state fingerprint, and byte-identical *next*
//! snapshots. The property is exercised across every switch engine,
//! 1-4 vCPUs, both ISA backends, and random fault plans mid-flight
//! (the plan's RNG streams are part of the state, so injections resume
//! exactly where they left off).
//!
//! The negative half: corrupted, truncated and shape-mismatched blobs
//! must be rejected with typed [`SnapError`]s — never a panic, never a
//! silent partial restore that passes the fingerprint cross-check.
//!
//! Randomised inputs are driven by the in-tree deterministic PRNG so the
//! cases are reproducible and the suite has no external dependencies.

use std::cell::Cell;
use std::rc::Rc;

use svt::arch::ArchId;
use svt::arch::{IcrCommand, MSR_TSC_DEADLINE, MSR_X2APIC_EOI, MSR_X2APIC_ICR, VECTOR_IPI};
use svt::core::{smp_machine_on, SwitchMode};
use svt::hv::{GuestCtx, GuestOp, GuestProgram, Machine};
use svt::sim::{DetRng, FaultKind, FaultPlan, SimDuration, SimTime, SnapError};

const MODES: [SwitchMode; 3] = [SwitchMode::Baseline, SwitchMode::SwSvt, SwitchMode::HwSvt];

/// A deterministic random workload batch, modelled on the chaos-guest
/// from `proptest_faults.rs`: per request, a short burst of compute /
/// cpuid / vmcall / IPI ops drawn from a lane-keyed PRNG, with the
/// timer-armed linger protocol so no lane retires while an IPI may
/// still be in flight toward it. `allow_ipi` turns the IPI arm off for
/// the riscv backend, whose guests don't issue x2APIC ICR writes.
struct BatchGuest {
    rng: DetRng,
    n_vcpus: usize,
    allow_ipi: bool,
    requests_left: u64,
    ops_left: u32,
    pending_eoi: u32,
    tally: [u64; 4], // compute, cpuid, vmcall, ipi
    done_lanes: Rc<Cell<usize>>,
    reported_done: bool,
    margin_left: u32,
    timer_armed: bool,
}

impl BatchGuest {
    fn new(
        seed: u64,
        lane: usize,
        n_vcpus: usize,
        requests: u64,
        allow_ipi: bool,
        done_lanes: Rc<Cell<usize>>,
    ) -> Self {
        BatchGuest {
            rng: DetRng::seed(seed ^ (lane as u64).wrapping_mul(0x9e37_79b9)),
            n_vcpus,
            allow_ipi,
            requests_left: requests,
            ops_left: 0,
            pending_eoi: 0,
            tally: [0; 4],
            done_lanes,
            reported_done: false,
            margin_left: 4,
            timer_armed: false,
        }
    }
}

impl GuestProgram for BatchGuest {
    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> GuestOp {
        if self.pending_eoi > 0 {
            self.pending_eoi -= 1;
            return GuestOp::MsrWrite {
                msr: MSR_X2APIC_EOI,
                value: 0,
            };
        }
        if self.ops_left == 0 {
            if self.requests_left == 0 {
                if !self.reported_done {
                    self.reported_done = true;
                    self.done_lanes.set(self.done_lanes.get() + 1);
                }
                let all_done = self.done_lanes.get() >= self.n_vcpus;
                if all_done && self.margin_left == 0 {
                    return GuestOp::Done;
                }
                if self.timer_armed {
                    self.timer_armed = false;
                    return GuestOp::Hlt;
                }
                self.timer_armed = true;
                if all_done {
                    self.margin_left -= 1;
                }
                return GuestOp::MsrWrite {
                    msr: MSR_TSC_DEADLINE,
                    value: (ctx.now + SimDuration::from_us(200)).as_ps(),
                };
            }
            self.requests_left -= 1;
            self.ops_left = 1 + self.rng.below(5) as u32;
        }
        self.ops_left -= 1;
        match self.rng.below(4) {
            0 => {
                self.tally[0] += 1;
                GuestOp::Compute(SimDuration::from_ns(40 + self.rng.below(400)))
            }
            1 => {
                self.tally[1] += 1;
                GuestOp::Cpuid
            }
            2 => {
                self.tally[2] += 1;
                GuestOp::Vmcall(9)
            }
            _ if self.allow_ipi && self.n_vcpus > 1 => {
                let dest = self.rng.below(self.n_vcpus as u64) as u32;
                self.tally[3] += 1;
                GuestOp::MsrWrite {
                    msr: MSR_X2APIC_ICR,
                    value: IcrCommand::fixed(VECTOR_IPI, dest).encode(),
                }
            }
            _ => {
                self.tally[1] += 1;
                GuestOp::Cpuid
            }
        }
    }

    fn interrupt(&mut self, _vector: u8, _ctx: &mut GuestCtx<'_>) {
        self.pending_eoi += 1;
    }

    fn name(&self) -> &'static str {
        "snapshot-batch-guest"
    }
}

/// Runs one batch of `requests` per lane on `m` and returns the per-lane
/// op tallies. The guests are external to the machine, so "the same
/// remaining programs" means calling this with the same seed on both
/// the continued original and the restored copy.
fn run_batch(
    m: &mut Machine,
    n_vcpus: usize,
    seed: u64,
    requests: u64,
    allow_ipi: bool,
) -> Vec<[u64; 4]> {
    let done_lanes = Rc::new(Cell::new(0));
    let mut guests: Vec<BatchGuest> = (0..n_vcpus)
        .map(|v| BatchGuest::new(seed, v, n_vcpus, requests, allow_ipi, done_lanes.clone()))
        .collect();
    let mut progs: Vec<&mut dyn GuestProgram> = guests
        .iter_mut()
        .map(|g| g as &mut dyn GuestProgram)
        .collect();
    m.run_smp(&mut progs, SimTime::MAX)
        .expect("batch run stays live");
    guests.iter().map(|g| g.tally).collect()
}

/// Draw a random fault plan (same shape as the chaos property tests).
fn random_plan(rng: &mut DetRng) -> FaultPlan {
    let mut plan = FaultPlan::seeded(rng.below(u64::MAX));
    for kind in FaultKind::ALL {
        if rng.chance(0.5) {
            let rate = 0.02 + 0.18 * rng.unit();
            plan = plan.with_rate(kind, rate);
            if rng.chance(0.3) {
                plan = plan.with_budget(kind, rng.range(1, 6));
            }
        }
    }
    if rng.chance(0.5) {
        plan = plan.with_delay(
            SimDuration::from_ns(100 + rng.below(400)),
            SimDuration::from_ns(600 + rng.below(2_000)),
        );
    }
    plan
}

/// One round-trip case: run batch 1, snapshot, restore into a fresh
/// same-shape machine, run an identical batch 2 on both, and require
/// the two futures to be indistinguishable.
fn roundtrip_case(
    arch: ArchId,
    mode: SwitchMode,
    n_vcpus: usize,
    seed1: u64,
    seed2: u64,
    plan: FaultPlan,
    allow_ipi: bool,
) {
    let ctx = format!("{mode:?} x{n_vcpus} on {arch:?} (seeds {seed1:#x}/{seed2:#x})");

    let mut m1 = smp_machine_on(mode, arch, n_vcpus);
    m1.faults = plan;
    run_batch(&mut m1, n_vcpus, seed1, 6, allow_ipi);

    let blob = m1.snapshot();
    let fp_at_snap = m1.state_fingerprint();

    let mut m2 = smp_machine_on(mode, arch, n_vcpus);
    m2.restore(&blob)
        .unwrap_or_else(|e| panic!("restore failed for {ctx}: {e}"));
    assert_eq!(
        m2.state_fingerprint(),
        fp_at_snap,
        "restored fingerprint diverged immediately for {ctx}"
    );
    assert_eq!(
        m2.clock.now(),
        m1.clock.now(),
        "restored clock diverged for {ctx}"
    );

    let a = run_batch(&mut m1, n_vcpus, seed2, 6, allow_ipi);
    let b = run_batch(&mut m2, n_vcpus, seed2, 6, allow_ipi);

    assert_eq!(
        a, b,
        "guest-visible op streams diverged after restore for {ctx}"
    );
    assert_eq!(
        m1.clock.now(),
        m2.clock.now(),
        "simulated time diverged after restore for {ctx}"
    );
    assert_eq!(
        m1.faults.injected_counts(),
        m2.faults.injected_counts(),
        "fault injection trace diverged after restore for {ctx}"
    );
    for name in ["svt_retransmits", "svt_timeouts", "svt_trap_fallback"] {
        assert_eq!(
            m1.obs.metrics.counter_total(name),
            m2.obs.metrics.counter_total(name),
            "metric {name} diverged after restore for {ctx}"
        );
    }
    assert_eq!(
        m1.state_fingerprint(),
        m2.state_fingerprint(),
        "state fingerprint diverged after restore for {ctx}"
    );
    // The strongest form: the *next* snapshot is byte-identical, so a
    // resumed campaign can itself be checkpointed and resumed again
    // without ever forking from the run-through timeline.
    assert_eq!(
        m1.snapshot(),
        m2.snapshot(),
        "next snapshot bytes diverged after restore for {ctx}"
    );
}

/// Restore-then-run equals run-through: every engine, 1-4 vCPUs, random
/// fault plans live across the snapshot point, on the x86 backend.
#[test]
fn snapshot_roundtrip_is_invisible_x86() {
    let mut meta = DetRng::seed(0x5AFE_C0DE);
    for mode in MODES {
        for n_vcpus in 1..=4usize {
            let seed1 = meta.below(u64::MAX);
            let seed2 = meta.below(u64::MAX);
            let plan = random_plan(&mut meta);
            roundtrip_case(ArchId::X86, mode, n_vcpus, seed1, seed2, plan, true);
        }
    }
}

/// The same property on the RISC-V H-extension backend (IPI-free
/// guests: the riscv machine's guests don't issue x2APIC ICR writes).
#[test]
fn snapshot_roundtrip_is_invisible_riscv() {
    let mut meta = DetRng::seed(0x0015_CAFE);
    for mode in MODES {
        for n_vcpus in 1..=4usize {
            let seed1 = meta.below(u64::MAX);
            let seed2 = meta.below(u64::MAX);
            let plan = random_plan(&mut meta);
            roundtrip_case(ArchId::Riscv, mode, n_vcpus, seed1, seed2, plan, false);
        }
    }
}

/// Builds a machine with some history to snapshot in the negative tests.
fn snapshotted_machine() -> (Machine, Vec<u8>) {
    let mut m = smp_machine_on(SwitchMode::SwSvt, ArchId::X86, 2);
    run_batch(&mut m, 2, 0xBADC_0FFE, 5, true);
    let blob = m.snapshot();
    (m, blob)
}

/// Bit rot anywhere in the payload is caught by the envelope checksum
/// before any state is touched; header damage is caught field by field.
/// Every rejection is a typed error — no panics, no partial acceptance.
#[test]
fn corrupted_snapshots_are_rejected_with_typed_errors() {
    let (_m, blob) = snapshotted_machine();

    // A fresh same-shape machine accepts the pristine blob.
    let mut ok = smp_machine_on(SwitchMode::SwSvt, ArchId::X86, 2);
    ok.restore(&blob).expect("pristine blob restores");

    // Flip one bit in the magic.
    let mut bad = blob.clone();
    bad[0] ^= 0x01;
    let mut m = smp_machine_on(SwitchMode::SwSvt, ArchId::X86, 2);
    assert_eq!(m.restore(&bad), Err(SnapError::BadMagic));

    // Flip one bit in the version field.
    let mut bad = blob.clone();
    bad[8] ^= 0x01;
    let mut m = smp_machine_on(SwitchMode::SwSvt, ArchId::X86, 2);
    assert!(
        matches!(m.restore(&bad), Err(SnapError::BadVersion { .. })),
        "version damage must be typed"
    );

    // Flip single bits at several payload offsets: always a checksum
    // mismatch, detected before the payload is interpreted.
    for at in [36, blob.len() / 2, blob.len() - 1] {
        let mut bad = blob.clone();
        bad[at] ^= 0x10;
        let mut m = smp_machine_on(SwitchMode::SwSvt, ArchId::X86, 2);
        assert!(
            matches!(m.restore(&bad), Err(SnapError::ChecksumMismatch { .. })),
            "payload bit-flip at {at} must fail the checksum"
        );
    }

    // Truncation at any point: typed, never a panic or a wild read.
    for cut in [0, 4, 12, 35, 36, blob.len() / 2, blob.len() - 1] {
        let mut m = smp_machine_on(SwitchMode::SwSvt, ArchId::X86, 2);
        let err = m
            .restore(&blob[..cut])
            .expect_err("truncated blob must be rejected");
        assert!(
            matches!(
                err,
                SnapError::UnexpectedEof { .. } | SnapError::BadMagic | SnapError::BadLength { .. }
            ),
            "truncation at {cut} produced unexpected error {err:?}"
        );
    }
}

/// A snapshot carries the machine's fixed shape; restoring into a
/// machine with a different shape is a typed [`SnapError::ShapeMismatch`].
#[test]
fn shape_mismatched_restore_is_rejected() {
    let (_m, blob) = snapshotted_machine();

    // Wrong vCPU count.
    let mut m = smp_machine_on(SwitchMode::SwSvt, ArchId::X86, 3);
    assert!(
        matches!(
            m.restore(&blob),
            Err(SnapError::ShapeMismatch {
                what: "vCPU count",
                ..
            })
        ),
        "vCPU-count mismatch must be typed"
    );

    // Wrong ISA backend.
    let mut m = smp_machine_on(SwitchMode::SwSvt, ArchId::Riscv, 2);
    assert!(
        matches!(
            m.restore(&blob),
            Err(SnapError::ShapeMismatch {
                what: "ISA backend",
                ..
            })
        ),
        "ISA-backend mismatch must be typed"
    );

    // Wrong engine: a Baseline machine has no SW-SVt protocol state to
    // restore into. Whatever field trips first, it must be typed.
    let mut m = smp_machine_on(SwitchMode::Baseline, ArchId::X86, 2);
    assert!(
        m.restore(&blob).is_err(),
        "engine mismatch must be rejected"
    );
}

/// The divergence sentinel samples the state fingerprint on a simulated
/// cadence, so its trace is a pure function of the simulation — the
/// sweep worker count must not show through. This is the cross-check a
/// campaign uses to prove `--jobs N` and `--jobs 1` ran the same
/// machines.
#[test]
fn sentinel_samples_agree_at_any_worker_count() {
    let cells: Vec<(SwitchMode, usize)> = MODES
        .iter()
        .flat_map(|&m| (1..=2usize).map(move |n| (m, n)))
        .collect();
    let run_cell = |i: usize| {
        let (mode, n_vcpus) = cells[i];
        let mut m = smp_machine_on(mode, ArchId::X86, n_vcpus);
        m.faults = FaultPlan::seeded(0xD1CE ^ i as u64).with_rate(FaultKind::CmdDrop, 0.05);
        m.enable_sentinel(SimDuration::from_us(50));
        run_batch(&mut m, n_vcpus, 0xAB5E_ED00 + i as u64, 8, n_vcpus > 1);
        m.sentinel_samples().to_vec()
    };
    let serial = svt::sim::sweep(cells.len(), 1, run_cell);
    let fanned = svt::sim::sweep(cells.len(), 4, run_cell);
    assert_eq!(
        serial, fanned,
        "sentinel fingerprint traces diverged between --jobs 1 and --jobs 4"
    );
    assert!(
        serial.iter().all(|s| !s.is_empty()),
        "every cell must produce sentinel samples for the cross-check to mean anything"
    );
}

/// A restored machine resumes the sentinel cadence exactly where the
/// original left off: continuing both produces identical sample tails.
#[test]
fn sentinel_survives_snapshot_restore() {
    let mut m1 = smp_machine_on(SwitchMode::SwSvt, ArchId::X86, 2);
    m1.enable_sentinel(SimDuration::from_us(50));
    run_batch(&mut m1, 2, 0x5E17_17E1, 6, true);
    let blob = m1.snapshot();

    let mut m2 = smp_machine_on(SwitchMode::SwSvt, ArchId::X86, 2);
    m2.restore(&blob).expect("restore carries the sentinel");
    assert_eq!(m1.sentinel_samples(), m2.sentinel_samples());

    run_batch(&mut m1, 2, 0x7A11_7A11, 6, true);
    run_batch(&mut m2, 2, 0x7A11_7A11, 6, true);
    assert_eq!(
        m1.sentinel_samples(),
        m2.sentinel_samples(),
        "sentinel trace forked after restore"
    );
    assert!(m1.sentinel_samples().len() > 1);
}
