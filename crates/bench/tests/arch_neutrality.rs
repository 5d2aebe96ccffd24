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
//! **riscv is deterministic.** The H-extension backend runs through the
//! same sweep engine, so its reports must also merge byte-identically at
//! any worker count. Binaries without a riscv path refuse it loudly, as
//! every binary refuses a malformed flag value.

use svt_arch::ArchId;
use svt_bench::{
    faults_campaign, faults_report, fig6_report, riscv_grid, riscv_report, smp_report, smp_series,
    FAULTS_DEFAULT_SEED, FAULTS_MODES, SERVE_RATE_QPS,
};
use svt_core::SwitchMode;
use svt_workloads::{fig6_bars, fig6_grid, DEFAULT_LANE_SEED};

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
    let report = fig6_report(&fig6_grid(30, 1, None), DEFAULT_LANE_SEED);
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

#[test]
fn riscv_report_is_byte_identical_across_worker_counts() {
    let a = riscv_grid(20, 40, DEFAULT_LANE_SEED, 1, None);
    let b = riscv_grid(20, 40, DEFAULT_LANE_SEED, 4, None);
    assert_eq!(a, b, "riscv grid drifted between --jobs 1 and --jobs 4");
    assert_eq!(
        riscv_report(&a, DEFAULT_LANE_SEED).to_json().pretty(),
        riscv_report(&b, DEFAULT_LANE_SEED).to_json().pretty()
    );
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

/// The riscv fig6-style bars carry the paper's qualitative result onto
/// the second backend: both SVt engines beat the baseline, and the bars
/// are deterministic across worker counts.
#[test]
fn riscv_bars_show_svt_speedups_and_merge_deterministically() {
    let a = fig6_bars(ArchId::Riscv, 20, 1, None);
    let b = fig6_bars(ArchId::Riscv, 20, 4, None);
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
    // A memcached pass through every engine completes watchdog-clean on
    // the new backend (the ci.sh riscv smoke runs this same grid).
    let grid = riscv_grid(20, 40, DEFAULT_LANE_SEED, 2, None);
    assert_eq!(grid.memcached.len(), SwitchMode::ALL.len());
    for (mode, p) in &grid.memcached {
        assert!(p.completed > 0, "{mode}: no requests completed on riscv");
    }
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
