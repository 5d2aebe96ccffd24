//! The arch-layer refactor's two load-bearing claims, as tests.
//!
//! **x86 is byte-frozen.** The `tests/golden/` files were generated at
//! the pre-refactor tree (`cargo run -p svt-bench --example golden_gen`);
//! regenerating the same grids through the arch-neutral call paths must
//! reproduce them byte for byte — the x86 backend is now "one backend
//! among N" without a single report byte moving. The builders here are
//! the ones the binaries' `--json` flag writes through, so equality of
//! `to_json().pretty()` is equality of the emitted files.
//!
//! **riscv is the same grid, deterministic.** The H-extension backend
//! runs the same Fig. 6 grid through the same sweep engine and
//! `fig6_report`, so its reports must also merge byte-identically at any
//! worker count and carry the same sections. Binaries without a riscv
//! path refuse it loudly, as every binary refuses a malformed flag value.

use svt_arch::ArchId;
use svt_bench::{
    ablations, ablations_report, cost_model_json, faults_campaign, faults_report, fig10_report,
    fig10_rows, fig6_report, fig7_report, fig9_report, smp_report, smp_series, FAULTS_DEFAULT_SEED,
    FAULTS_MODES, SERVE_RATE_QPS,
};
use svt_core::SwitchMode;
use svt_obs::Json;
use svt_sim::CostModel;
use svt_workloads::{fig6_grid, fig7, table1, tpcc_tpm, DEFAULT_LANE_SEED};

/// Byte-compares a freshly built report against a committed golden file.
fn assert_matches_golden(report: &svt_obs::RunReport, golden: &str, name: &str) {
    let fresh = report.to_json().pretty();
    assert_eq!(
        fresh, golden,
        "{name}: x86 report bytes drifted from the pre-refactor golden file \
         (tests/golden/{name}_x86.json); if the change is intentional, regenerate \
         with `cargo run -p svt-bench --example golden_gen` and commit the diff"
    );
}

#[test]
fn x86_fig6_report_matches_pre_refactor_golden_bytes() {
    let report = fig6_report(&fig6_grid(ArchId::X86, 30, 1, None), DEFAULT_LANE_SEED);
    assert_matches_golden(&report, include_str!("golden/fig6_x86.json"), "fig6");
}

#[test]
fn x86_smp_report_matches_pre_refactor_golden_bytes() {
    let series = smp_series(
        ArchId::X86,
        &[1, 2],
        SERVE_RATE_QPS,
        60,
        DEFAULT_LANE_SEED,
        1,
        None,
    );
    let report = smp_report(ArchId::X86, &series, DEFAULT_LANE_SEED);
    assert_matches_golden(&report, include_str!("golden/smp_x86.json"), "smp");
}

#[test]
fn x86_faults_report_matches_pre_refactor_golden_bytes() {
    let cells = faults_campaign(
        &FAULTS_MODES,
        &[0.0, 0.05],
        60,
        FAULTS_DEFAULT_SEED,
        1,
        None,
    );
    let report = faults_report(&cells, FAULTS_DEFAULT_SEED);
    assert_matches_golden(&report, include_str!("golden/faults_x86.json"), "faults");
}

/// The ablations pin the engines no other golden covers: two-context
/// HW SVt, level bypass and the SW-SVt wait-mechanism and placement
/// variants.
#[test]
fn x86_ablations_report_matches_golden_bytes() {
    let report = ablations_report(&ablations());
    assert_matches_golden(
        &report,
        include_str!("golden/ablations_x86.json"),
        "ablations",
    );
}

/// Fig. 7 pins the RR and STREAM NICs and virtio-blk reads and writes
/// under all three engines.
#[test]
fn x86_fig7_report_matches_golden_bytes() {
    assert_matches_golden(
        &fig7_report(&fig7(8)),
        include_str!("golden/fig7_x86.json"),
        "fig7",
    );
}

/// Fig. 9 pins the TPC-C server with its WAL on virtio-blk.
#[test]
fn x86_fig9_report_matches_golden_bytes() {
    let tpm = |mode| tpcc_tpm(mode, 60, DEFAULT_LANE_SEED);
    let report = fig9_report(
        tpm(SwitchMode::Baseline),
        tpm(SwitchMode::SwSvt),
        60,
        DEFAULT_LANE_SEED,
    );
    assert_matches_golden(&report, include_str!("golden/fig9_x86.json"), "fig9");
}

/// Fig. 10 pins the video player's chunk reads off virtio-blk. 15 s is
/// the shortest playback at which the two engines drop different frame
/// counts at 120 FPS; at 5 s neither drops one.
#[test]
fn x86_fig10_report_matches_golden_bytes() {
    assert_matches_golden(
        &fig10_report(&fig10_rows(15), 15),
        include_str!("golden/fig10_x86.json"),
        "fig10",
    );
}

#[test]
fn riscv_fig6_report_is_byte_identical_across_worker_counts() {
    let report = |jobs| {
        fig6_report(&fig6_grid(ArchId::Riscv, 20, jobs, None), DEFAULT_LANE_SEED)
            .to_json()
            .pretty()
    };
    assert_eq!(
        report(1),
        report(4),
        "riscv fig6 report drifted between --jobs 1 and --jobs 4"
    );
}

/// The riscv Fig. 6 report carries what the x86 one does: the Table 1
/// split of one nested trap, which sums to the L2 bar, with part ⑤ (the
/// L1 handler, which pays for the missing vs-CSR shadowing) above x86's;
/// the observed exit attribution; the backend's name and cost model; and
/// no paper value, since the paper measured x86 only. Its title names
/// the trap the riscv probe takes.
#[test]
fn riscv_fig6_report_splits_the_nested_trap_into_table1_parts() {
    let grid = fig6_grid(ArchId::Riscv, 20, 2, None);
    assert_eq!(grid.table1.len(), 6);
    let parts: f64 = grid.table1.iter().map(|r| r.time_us).sum();
    let l2 = grid.bars[2].time_us;
    assert!(
        ((parts - l2) / l2).abs() < 1e-9,
        "riscv parts sum to {parts} us, the L2 bar is {l2} us"
    );
    let x86 = table1(ArchId::X86, 20);
    assert!(
        grid.table1[5].time_us > x86[5].time_us,
        "riscv L1 handler {} us not above x86's {} us",
        grid.table1[5].time_us,
        x86[5].time_us
    );

    let report = fig6_report(&grid, DEFAULT_LANE_SEED);
    assert_eq!(report.name, "fig6");
    assert_eq!(
        report.title,
        "Execution time of a virtual-instruction trap (Fig. 6 on riscv)"
    );
    let arch = report.results.iter().find(|(k, _)| k == "arch");
    assert_eq!(arch.map(|(_, v)| v), Some(&Json::from("riscv")));
    assert_eq!(
        report.cost_model.as_ref().map(Json::pretty),
        Some(cost_model_json(&CostModel::cva6()).pretty())
    );
    assert_eq!(report.parts.len(), 6);
    assert!(report.parts.iter().all(|p| p.paper_us.is_none()));
    assert!(
        report.exit_reasons.iter().any(|e| e.reason == "VIRT_INSTR"),
        "{:?}",
        report.exit_reasons
    );
    assert!(report.metrics.is_some());
}

#[test]
fn riscv_smp_report_is_byte_identical_across_worker_counts() {
    let series = |jobs| {
        smp_series(
            ArchId::Riscv,
            &[1, 2],
            SERVE_RATE_QPS,
            40,
            DEFAULT_LANE_SEED,
            jobs,
            None,
        )
    };
    let (a, b) = (series(1), series(4));
    assert_eq!(
        smp_report(ArchId::Riscv, &a, DEFAULT_LANE_SEED)
            .to_json()
            .pretty(),
        smp_report(ArchId::Riscv, &b, DEFAULT_LANE_SEED)
            .to_json()
            .pretty()
    );
}

/// The riscv Fig. 6 bars carry the paper's qualitative result onto the
/// second backend: both SVt engines beat the baseline, and the bars are
/// deterministic across worker counts.
#[test]
fn riscv_bars_show_svt_speedups_and_merge_deterministically() {
    let a = fig6_grid(ArchId::Riscv, 20, 1, None).bars;
    let b = fig6_grid(ArchId::Riscv, 20, 4, None).bars;
    assert_eq!(a, b);
    let bar = |label: &str| a.iter().find(|x| x.label == label).unwrap();
    assert!(
        bar("SW SVt").speedup > 1.0,
        "SW SVt must beat the riscv baseline, got {:.3}x",
        bar("SW SVt").speedup
    );
    assert!(
        bar("HW SVt").speedup > 1.0,
        "HW SVt must beat the riscv baseline, got {:.3}x",
        bar("HW SVt").speedup
    );
}

/// A binary whose figure only exists on x86 does not declare `--arch`, so
/// it refuses the flag with a nonzero exit instead of exiting 0 having run
/// nothing.
#[test]
fn x86_only_bins_reject_other_backends() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fig7"))
        .args(["--arch", "riscv"])
        .output()
        .expect("fig7 starts");
    assert_eq!(out.status.code(), Some(2), "fig7 --arch riscv: {out:?}");
    assert!(
        out.stdout.is_empty(),
        "fig7 ran before rejecting the backend"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("--arch"));
}

/// A malformed flag value, a mistyped flag or an out-of-range positional
/// exits 2 before anything runs, naming what it refused, instead of
/// silently running the default campaign or panicking.
#[test]
fn malformed_flag_values_exit_2() {
    let faults = env!("CARGO_BIN_EXE_faults");
    let profile = env!("CARGO_BIN_EXE_profile");
    for (bin, args, named) in [
        (faults, &["--smoke", "--seed=abc"][..], "--seed"),
        (faults, &["--smok", "--help"], "--smok"),
        (env!("CARGO_BIN_EXE_fig6"), &["--jobs", "0"], "--jobs"),
        (env!("CARGO_BIN_EXE_fig7"), &["0"], "scale"),
        (
            env!("CARGO_BIN_EXE_timeline"),
            &["0", "--smoke"],
            "cadence_us",
        ),
        (env!("CARGO_BIN_EXE_hostprof"), &["0"], "requests"),
        (profile, &["foo", "--smoke"], "memcached, tpcc, all"),
        (profile, &["memcached", "0", "--smoke"], "vcpus"),
        (profile, &["memcached", "17", "--smoke"], "from 1 to 16"),
    ] {
        let out = std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("bench binary starts");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{bin} ran before refusing {args:?}");
        assert!(err.contains(named) && !err.contains("panicked"), "{err}");
    }
}
