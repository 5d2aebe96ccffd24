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
//! The layout lock: payload FNV-1a hashes of every round-trip case and
//! of a machine with virtio-blk and virtio-net devices are pinned. All
//! 49 are recorded at `SNAP_VERSION` 4, which dropped state nothing
//! reads: each VMCS's dirty list, the APIC delivery and lateness
//! counters, L0's last physical-timer deadline, L1's copy of L2's TSC
//! deadline, the never-written special registers, the virtio devices'
//! kick/IRQ/byte counters, the divergence sentinel and the schedule
//! trace. A change that moves any byte must bump the version instead; a
//! failing lock names every moved case and prints the table to paste.
//!
//! Randomised inputs are driven by the in-tree deterministic PRNG so the
//! cases are reproducible and the suite has no external dependencies.

use std::cell::Cell;
use std::rc::Rc;

use svt::arch::ArchId;
use svt::arch::{IcrCommand, MSR_TSC_DEADLINE, MSR_X2APIC_EOI, MSR_X2APIC_ICR, VECTOR_IPI};
use svt::core::{nested_machine, smp_machine_on, SwitchMode};
use svt::hv::{GuestCtx, GuestOp, GuestProgram, Machine};
use svt::sim::snapshot::{fnv1a, open, seal, SNAP_VERSION};
use svt::sim::{DetRng, FaultKind, FaultPlan, SimDuration, SimTime, SnapError};

const MODES: [SwitchMode; 3] = [SwitchMode::Baseline, SwitchMode::SwSvt, SwitchMode::HwSvt];

/// Payload hashes `(first snapshot, next snapshot)` of the x86 round-trip
/// cases, indexed `[mode][vCPUs - 1]` in [`MODES`] order.
const LAYOUT_X86: [[(u64, u64); 4]; 3] = [
    [
        (0x315e_6902_8334_3d3a, 0x1927_2afa_adf0_5d62),
        (0xca16_7e86_d17e_8aef, 0x5682_d22a_4353_b51d),
        (0xd085_28fe_e4f8_4097, 0xe92f_3e7a_0867_a5ff),
        (0xa328_2438_3d3f_d95d, 0x29d1_757f_9980_1885),
    ],
    [
        (0xcfd7_a085_80e5_e389, 0x182b_f15f_3fec_1b46),
        (0xa22d_15b3_2cf6_1c83, 0x3094_8989_9d6e_33ba),
        (0xaa53_7e61_60a7_7b40, 0x6085_a557_2c38_85be),
        (0x58df_7f74_5227_d40f, 0x14a6_47bc_df71_2ca0),
    ],
    [
        (0x6aef_a900_2b51_6130, 0xaf4e_70d2_1aa4_2a9c),
        (0x9d77_0008_bef0_fab4, 0x9459_5f47_2ca2_6b5b),
        (0x12e5_d452_5f03_b823, 0x055c_7b1f_ccaf_8f85),
        (0x13ec_d6ac_0a31_a72f, 0x026e_0ec7_df3c_8172),
    ],
];

/// As [`LAYOUT_X86`], for the riscv round-trip cases.
const LAYOUT_RISCV: [[(u64, u64); 4]; 3] = [
    [
        (0x588c_a26c_e24f_5fc7, 0x379b_1fb5_a46b_14e9),
        (0x730e_d1fb_b669_a33c, 0x2f39_3c8f_b2ac_30a9),
        (0x7d66_2cd1_ea2d_f4e0, 0x85e5_6baf_180d_55a5),
        (0x7ada_3fbf_40f6_1fd7, 0x350a_cca1_0f43_ed37),
    ],
    [
        (0x62c6_d786_5b80_3028, 0xf447_6d62_8ed6_cecc),
        (0x7fc8_ea88_b7ae_2f0f, 0xffbb_0402_b209_e57c),
        (0x0ffc_cc6a_2840_5c26, 0xcf49_057d_3c75_e682),
        (0x1c7f_a8ff_7c85_8e05, 0xfba8_714c_e338_2ec0),
    ],
    [
        (0x7262_1f33_9d80_1756, 0x7d7a_7749_afad_cd4e),
        (0xfc11_be9c_8db2_2b00, 0xb246_c514_e818_a9de),
        (0xd5d5_34fe_5edf_457b, 0x7024_be2b_b55e_622f),
        (0x966d_3891_d943_0732, 0x18af_6da4_0021_5ee0),
    ],
];

/// Payload hash of the device machine's snapshot (see
/// [`virtio_devices_round_trip_with_a_locked_layout`]).
const LAYOUT_DEVICE: u64 = 0xca47_2a84_540d_f544;

/// FNV-1a of a sealed blob's payload (the bytes after the 36-byte
/// envelope header).
fn payload_hash(blob: &[u8]) -> u64 {
    fnv1a(open(blob, SNAP_VERSION).expect("sealed blob").1)
}

/// A hash spelled the way the layout tables spell it.
fn hex(h: u64) -> String {
    let s = format!("{h:016x}");
    format!("0x{}_{}_{}_{}", &s[..4], &s[4..8], &s[8..12], &s[12..])
}

/// Fails once if any case's hashes in `got` moved from `pinned`, naming
/// every moved case and printing the whole observed table as a
/// paste-ready `name` literal, so a deliberate re-pin is one paste.
fn check_layout(name: &str, pinned: &[[(u64, u64); 4]; 3], got: &[[(u64, u64); 4]; 3]) {
    let mut moved = String::new();
    let mut table = format!("const {name}: [[(u64, u64); 4]; 3] = [\n");
    for (m, mode) in MODES.iter().enumerate() {
        table.push_str("    [\n");
        for v in 0..4 {
            let (want, have) = (pinned[m][v], got[m][v]);
            if want != have {
                moved.push_str(&format!(
                    "  {mode:?} x{}: ({}, {}) -> ({}, {})\n",
                    v + 1,
                    hex(want.0),
                    hex(want.1),
                    hex(have.0),
                    hex(have.1)
                ));
            }
            table.push_str(&format!("        ({}, {}),\n", hex(have.0), hex(have.1)));
        }
        table.push_str("    ],\n");
    }
    table.push_str("];");
    assert!(
        moved.is_empty(),
        "{name} layout moved; bump SNAP_VERSION and re-pin:\n{moved}{table}"
    );
}

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
/// the two futures to be indistinguishable. Returns the payload hashes
/// of the first and the next snapshot for the layout lock.
fn roundtrip_case(
    arch: ArchId,
    mode: SwitchMode,
    n_vcpus: usize,
    seed1: u64,
    seed2: u64,
    plan: FaultPlan,
    allow_ipi: bool,
) -> (u64, u64) {
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
    // restored machine can itself be snapshotted and restored again
    // without ever forking from the run-through timeline.
    let next = m1.snapshot();
    assert_eq!(
        next,
        m2.snapshot(),
        "next snapshot bytes diverged after restore for {ctx}"
    );
    (payload_hash(&blob), payload_hash(&next))
}

/// Restore-then-run equals run-through: every engine, 1-4 vCPUs, random
/// fault plans live across the snapshot point, on the x86 backend.
#[test]
fn snapshot_roundtrip_is_invisible_x86() {
    let mut meta = DetRng::seed(0x5AFE_C0DE);
    let mut got = [[(0, 0); 4]; 3];
    for (m, mode) in MODES.into_iter().enumerate() {
        for n_vcpus in 1..=4usize {
            let seed1 = meta.below(u64::MAX);
            let seed2 = meta.below(u64::MAX);
            let plan = random_plan(&mut meta);
            got[m][n_vcpus - 1] =
                roundtrip_case(ArchId::X86, mode, n_vcpus, seed1, seed2, plan, true);
        }
    }
    check_layout("LAYOUT_X86", &LAYOUT_X86, &got);
}

/// The same property on the RISC-V H-extension backend (IPI-free
/// guests: the riscv machine's guests don't issue x2APIC ICR writes).
#[test]
fn snapshot_roundtrip_is_invisible_riscv() {
    let mut meta = DetRng::seed(0x0015_CAFE);
    let mut got = [[(0, 0); 4]; 3];
    for (m, mode) in MODES.into_iter().enumerate() {
        for n_vcpus in 1..=4usize {
            let seed1 = meta.below(u64::MAX);
            let seed2 = meta.below(u64::MAX);
            let plan = random_plan(&mut meta);
            got[m][n_vcpus - 1] =
                roundtrip_case(ArchId::Riscv, mode, n_vcpus, seed1, seed2, plan, false);
        }
    }
    check_layout("LAYOUT_RISCV", &LAYOUT_RISCV, &got);
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

/// A cell's final state fingerprint is a pure function of the
/// simulation, so the sweep worker count must not show through: every
/// cell of a fault-injected campaign folds to the same fingerprint at
/// `--jobs 1` and `--jobs 4`.
#[test]
fn state_fingerprints_agree_at_any_worker_count() {
    let cells: Vec<(SwitchMode, usize)> = MODES
        .iter()
        .flat_map(|&m| (1..=2usize).map(move |n| (m, n)))
        .collect();
    let run_cell = |i: usize| {
        let (mode, n_vcpus) = cells[i];
        let mut m = smp_machine_on(mode, ArchId::X86, n_vcpus);
        m.faults = FaultPlan::seeded(0xD1CE ^ i as u64).with_rate(FaultKind::CmdDrop, 0.05);
        let fresh = m.state_fingerprint();
        run_batch(&mut m, n_vcpus, 0xAB5E_ED00 + i as u64, 8, n_vcpus > 1);
        (fresh, m.state_fingerprint())
    };
    let serial = svt::sim::sweep(cells.len(), 1, run_cell);
    let fanned = svt::sim::sweep(cells.len(), 4, run_cell);
    assert_eq!(
        serial, fanned,
        "state fingerprints diverged between --jobs 1 and --jobs 4"
    );
    assert!(
        serial.iter().all(|(fresh, last)| fresh != last),
        "every cell's run must move its fingerprint for the cross-check to mean anything"
    );
}

/// The first index of `pattern` in `haystack`.
fn find(haystack: &[u8], pattern: &[u8]) -> usize {
    haystack
        .windows(pattern.len())
        .position(|w| w == pattern)
        .expect("pattern present in payload")
}

/// A nested SW-SVt machine with a virtio-net (stream peer) and a
/// virtio-blk device.
fn device_machine() -> Machine {
    use svt::virtio::{NetConfig, VirtioNet, Virtqueue};
    use svt::workloads::{attach_blk_for, layout, QUEUE_SIZE};
    let mut m = nested_machine(SwitchMode::SwSvt);
    let lane = layout::lane(0);
    let cfg = NetConfig {
        mmio_base: lane.net_mmio,
        ack_coalesce: 4,
    };
    let net = VirtioNet::new(cfg, &m.cost, Virtqueue::new(lane.tx_queue, QUEUE_SIZE));
    m.add_device_for(Box::new(net), 0);
    attach_blk_for(&mut m, 0);
    m
}

/// Both virtio devices carry their full state. After a disk write run
/// (RAM-disk sectors resident) and a stream cut off mid-flight, the
/// snapshot has the locked layout, restores into a fresh machine, and
/// re-snapshots to the same bytes.
#[test]
fn virtio_devices_round_trip_with_a_locked_layout() {
    use svt::workloads::{DiskBench, DiskMode, StreamSender};
    let mut m = device_machine();
    let cost = m.cost.clone();
    let mut disk = DiskBench::new(&cost, DiskMode::Bandwidth { qd: 4 }, true, 4096, 24);
    m.run(&mut disk).expect("disk run completes");
    let mut sender = StreamSender::new(&cost, 16_384, 8, 40);
    let mid = m.clock.now() + SimDuration::from_us(60);
    m.run_until(&mut sender, mid).expect("stream runs");
    let blob = m.snapshot();

    let mut twin = device_machine();
    twin.restore(&blob).expect("device machine restores");
    assert_eq!(twin.state_fingerprint(), m.state_fingerprint());
    assert_eq!(twin.snapshot(), blob, "re-snapshot after restore differs");
    let got = payload_hash(&blob);
    assert!(
        got == LAYOUT_DEVICE,
        "device layout moved from {}; bump SNAP_VERSION and re-pin:\nconst LAYOUT_DEVICE: u64 = {};",
        hex(LAYOUT_DEVICE),
        hex(got)
    );
}

/// A device payload whose pending table claims 2^50 elements decodes to
/// a typed error, not an allocation abort: one virtio-net TX ack with
/// 2^50 heads, one virtio-blk request with 2^50 data buffers.
#[test]
fn hostile_counts_in_device_payloads_are_typed_errors() {
    use svt::sim::snapshot::{from_bytes, to_bytes};
    use svt::sim::CostModel;
    use svt::virtio::{BlkConfig, NetConfig, VirtioBlk, VirtioNet, Virtqueue};
    use svt::workloads::{layout, QUEUE_SIZE};
    let cost = CostModel::default();
    let lane = layout::lane(0);
    let net = || {
        let cfg = NetConfig {
            mmio_base: lane.net_mmio,
            ack_coalesce: 4,
        };
        VirtioNet::new(cfg, &cost, Virtqueue::new(lane.tx_queue, QUEUE_SIZE))
    };
    let blk = || {
        let cfg = BlkConfig {
            mmio_base: lane.blk_mmio,
        };
        VirtioBlk::new(cfg, &cost, Virtqueue::new(lane.blk_queue, QUEUE_SIZE))
    };
    // Splices one pending entry, `entry`, into an empty pending table whose
    // count sits at byte `at`.
    let splice = |bytes: &[u8], at: usize, entry: &[u8]| {
        assert_eq!(
            &bytes[at..at + 8],
            &0u64.to_le_bytes(),
            "empty pending table"
        );
        let mut out = bytes[..at].to_vec();
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(entry);
        out.extend_from_slice(&bytes[at + 8..]);
        out
    };
    let huge = (1u64 << 50).to_le_bytes();

    // MMIO base, one 18-byte queue, wire horizon, next token.
    let mut tx_ack = 7u64.to_le_bytes().to_vec();
    tx_ack.extend_from_slice(&huge);
    let hostile = splice(&to_bytes(&net()), 8 + 18 + 8 + 8, &tx_ack);
    assert!(matches!(
        from_bytes(&mut net(), &hostile),
        Err(SnapError::UnexpectedEof { .. })
    ));

    // MMIO base, one queue, empty RAM disk, media horizon, next token.
    let mut req = 7u64.to_le_bytes().to_vec();
    req.extend_from_slice(&3u16.to_le_bytes());
    req.push(1);
    req.extend_from_slice(&0u64.to_le_bytes());
    req.extend_from_slice(&huge);
    let hostile = splice(&to_bytes(&blk()), 8 + 18 + 8 + 8 + 8, &req);
    assert!(matches!(
        from_bytes(&mut blk(), &hostile),
        Err(SnapError::UnexpectedEof { .. })
    ));
}

/// An open-loop ETC load generator on a 1-vCPU SW-SVt machine.
fn loadgen_machine() -> (Machine, Rc<std::cell::RefCell<svt::workloads::LoadStats>>) {
    use svt::workloads::{attach_loadgen_for_seeded, ArrivalMode, EtcSource};
    let mut m = nested_machine(SwitchMode::SwSvt);
    let stats = attach_loadgen_for_seeded(
        &mut m,
        0,
        ArrivalMode::OpenLoop {
            mean_interarrival: SimDuration::from_us(80),
        },
        200,
        Box::new(EtcSource::new(100_000)),
        5,
    );
    (m, stats)
}

/// Serves the load generator's requests with a memcached-style server
/// until `until`.
fn serve(m: &mut Machine, until: SimTime) {
    use svt::workloads::{KvService, RrServer, ServerConfig};
    let mut cfg = ServerConfig::rr_on_lane(&m.cost, u64::MAX, 0);
    cfg.timer_rearm_every = 4;
    cfg.replenish_every = 2;
    let mut server = RrServer::new(cfg, Box::new(KvService::new(50_000)));
    m.run_until(&mut server, until).expect("server runs");
}

/// A load generator's statistics, stream position and in-flight arrivals
/// are machine state: a machine snapshotted mid-run restores with the
/// same counts and latencies and re-snapshots to the same bytes.
#[test]
fn loadgen_state_survives_restore() {
    let (mut m1, stats1) = loadgen_machine();
    serve(&mut m1, SimTime::ZERO + SimDuration::from_ms(3));
    let blob = m1.snapshot();

    let (mut m2, stats2) = loadgen_machine();
    m2.restore(&blob).expect("loadgen machine restores");
    let (a, b) = (stats1.borrow(), stats2.borrow());
    assert!(
        a.sent > a.completed && a.completed > 0,
        "snapshot is mid-run"
    );
    assert_eq!(
        (a.sent, a.completed, a.dropped, a.first_send, a.last_reply),
        (b.sent, b.completed, b.dropped, b.first_send, b.last_reply)
    );
    assert_eq!(a.latency.samples(), b.latency.samples());
    assert_eq!(m2.snapshot(), blob, "re-snapshot after restore differs");
}

/// The fingerprint folds everything a snapshot stores, engine and device
/// sub-payloads included: one flipped state byte inside either, re-sealed
/// under the original fingerprint, fails restore.
#[test]
fn fingerprint_covers_engine_and_device_state() {
    use svt::hv::OpLoop;
    use svt::sim::snapshot::to_bytes;
    use svt::workloads::{layout, QUEUE_SIZE};
    fn tamper(blob: &[u8], at: impl Fn(&[u8]) -> usize) -> Vec<u8> {
        let (fp, payload) = open(blob, SNAP_VERSION).unwrap();
        let mut bad = payload.to_vec();
        let i = at(payload);
        assert_eq!(bad[i], 1, "the flipped flag is set");
        bad[i] = 0;
        seal(SNAP_VERSION, fp, bad)
    }

    // HW SVt after 5 cpuids: the engine's name, then its two-byte
    // sub-payload (context count, `initialized`).
    let mut m = nested_machine(SwitchMode::HwSvt);
    let mut cpuids = OpLoop::new(GuestOp::Cpuid, 5, 0, SimDuration::ZERO);
    m.run(&mut cpuids).expect("cpuid never blocks");
    let mut engine = to_bytes(&"hw-svt");
    engine.extend_from_slice(&2u64.to_le_bytes());
    let bad = tamper(&m.snapshot(), |p| find(p, &engine) + engine.len() + 1);
    let mut fresh = nested_machine(SwitchMode::HwSvt);
    assert!(matches!(
        fresh.restore(&bad),
        Err(SnapError::FingerprintMismatch { .. })
    ));

    // A mid-run load generator: its sub-payload opens with the (empty)
    // request-source payload and the TX queue's geometry, and ends with
    // the `started` flag.
    let (mut m, _) = loadgen_machine();
    serve(&mut m, SimTime::ZERO + SimDuration::from_ms(1));
    let mut head = 0u64.to_le_bytes().to_vec();
    head.extend_from_slice(&layout::lane(0).tx_queue.0.to_le_bytes());
    head.extend_from_slice(&QUEUE_SIZE.to_le_bytes());
    let bad = tamper(&m.snapshot(), |p| {
        let start = find(p, &head);
        let len = u64::from_le_bytes(p[start - 8..start].try_into().unwrap());
        start + len as usize - 1
    });
    let (mut fresh, _) = loadgen_machine();
    assert!(matches!(
        fresh.restore(&bad),
        Err(SnapError::FingerprintMismatch { .. })
    ));
}
