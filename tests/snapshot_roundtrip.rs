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
//! of a machine with virtio-blk and virtio-net devices are pinned. The
//! baseline and HW-SVt cases keep the values recorded at `SNAP_VERSION`
//! 2, which dropped the clock's counter section from the machine
//! payload. The SW-SVt cases and the device machine are recorded at
//! version 3, which dropped the SW-SVt engine's per-trap flags, its
//! unread counters and its degradation-policy constants, and the
//! virtio-net echo peer's state (RX queue, reply deliveries, drop
//! count). A change that moves any byte must bump the version instead.
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
        (0x52d8_40f3_2a0c_e0a3, 0x0ddb_4fae_3f3e_35f9),
        (0x30ad_fa4c_67cb_0ea4, 0x1013_3fee_65a6_4919),
        (0x5019_8e4e_4459_574b, 0xdad9_960f_10fa_ae70),
        (0x6f06_eb36_3709_efb4, 0xe48c_940f_6d35_c0e8),
    ],
    [
        (0xb523_6c30_d94e_57fb, 0xd760_36b1_0de1_6e32),
        (0x7ba5_33c3_916b_f41d, 0x712d_a565_c601_db5b),
        (0x8dae_d0b2_69d4_3cf0, 0x50f6_320b_2bbf_2fe0),
        (0xbc96_2cb9_9fbe_9b7d, 0x3d25_2ced_4b38_c3fe),
    ],
    [
        (0x62b0_00ed_e29b_5c09, 0xf108_6e60_bf26_12c9),
        (0x0e05_03b4_6e20_31da, 0xf795_f421_82a1_298d),
        (0x074a_49b1_ccdf_1863, 0x3de6_ff39_fab6_ff02),
        (0xdee9_466f_c67a_dd73, 0x92e0_e1d4_3294_7222),
    ],
];

/// As [`LAYOUT_X86`], for the riscv round-trip cases.
const LAYOUT_RISCV: [[(u64, u64); 4]; 3] = [
    [
        (0xe633_cbba_9627_82be, 0xbccf_5d74_b0fb_ef1c),
        (0xb25b_396c_b616_06fa, 0x6958_c8ca_1ea7_fdfd),
        (0x1bca_18b1_eafc_d6ad, 0xffee_713b_eeae_7c88),
        (0xa2ba_58a6_a785_13f7, 0x8885_8f4a_616e_e955),
    ],
    [
        (0x543e_113c_ac21_ee28, 0xedc2_4bab_639e_9ad5),
        (0xae21_93d1_08b0_05f4, 0x4cfe_64d0_dbd6_4986),
        (0x3a88_e6ba_d3fa_75d6, 0x0b84_ac0e_aa80_8b90),
        (0x863c_a7c1_2e81_b5cb, 0x18f5_26c0_a7da_a85a),
    ],
    [
        (0x8507_6ca4_79c2_b637, 0xe049_33a9_bb5d_1e7b),
        (0xc3f8_9900_547c_60da, 0x8980_bf4e_27e5_a50c),
        (0x8eb2_bb2d_d385_053e, 0x7f71_0c44_3d59_7a32),
        (0xbecd_5ba6_8abc_3224, 0xdc7d_2a4b_c0da_a6d0),
    ],
];

/// FNV-1a of a sealed blob's payload (the bytes after the 36-byte
/// envelope header).
fn payload_hash(blob: &[u8]) -> u64 {
    fnv1a(open(blob, SNAP_VERSION).expect("sealed blob").1)
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
/// the two futures to be indistinguishable.
#[allow(clippy::too_many_arguments)]
fn roundtrip_case(
    arch: ArchId,
    mode: SwitchMode,
    n_vcpus: usize,
    seed1: u64,
    seed2: u64,
    plan: FaultPlan,
    allow_ipi: bool,
    layout: (u64, u64),
) {
    let ctx = format!("{mode:?} x{n_vcpus} on {arch:?} (seeds {seed1:#x}/{seed2:#x})");

    let mut m1 = smp_machine_on(mode, arch, n_vcpus);
    m1.faults = plan;
    run_batch(&mut m1, n_vcpus, seed1, 6, allow_ipi);

    let blob = m1.snapshot();
    let fp_at_snap = m1.state_fingerprint();
    assert_eq!(
        payload_hash(&blob),
        layout.0,
        "first snapshot layout moved for {ctx}"
    );

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
    assert_eq!(
        payload_hash(&next),
        layout.1,
        "next snapshot layout moved for {ctx}"
    );
}

/// Restore-then-run equals run-through: every engine, 1-4 vCPUs, random
/// fault plans live across the snapshot point, on the x86 backend.
#[test]
fn snapshot_roundtrip_is_invisible_x86() {
    let mut meta = DetRng::seed(0x5AFE_C0DE);
    for (m, mode) in MODES.into_iter().enumerate() {
        for n_vcpus in 1..=4usize {
            let seed1 = meta.below(u64::MAX);
            let seed2 = meta.below(u64::MAX);
            let plan = random_plan(&mut meta);
            let layout = LAYOUT_X86[m][n_vcpus - 1];
            roundtrip_case(ArchId::X86, mode, n_vcpus, seed1, seed2, plan, true, layout);
        }
    }
}

/// The same property on the RISC-V H-extension backend (IPI-free
/// guests: the riscv machine's guests don't issue x2APIC ICR writes).
#[test]
fn snapshot_roundtrip_is_invisible_riscv() {
    let mut meta = DetRng::seed(0x0015_CAFE);
    for (m, mode) in MODES.into_iter().enumerate() {
        for n_vcpus in 1..=4usize {
            let seed1 = meta.below(u64::MAX);
            let seed2 = meta.below(u64::MAX);
            let plan = random_plan(&mut meta);
            let layout = LAYOUT_RISCV[m][n_vcpus - 1];
            roundtrip_case(
                ArchId::Riscv,
                mode,
                n_vcpus,
                seed1,
                seed2,
                plan,
                false,
                layout,
            );
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
    assert_eq!(
        payload_hash(&blob),
        0x5558_8f34_42de_c7b2,
        "device layout moved"
    );

    let mut twin = device_machine();
    twin.restore(&blob).expect("device machine restores");
    assert_eq!(twin.state_fingerprint(), m.state_fingerprint());
    assert_eq!(twin.snapshot(), blob, "re-snapshot after restore differs");
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
