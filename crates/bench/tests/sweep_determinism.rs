//! The sweep contract, end to end: `--jobs 1` and `--jobs N` produce
//! byte-identical merged run reports.
//!
//! The binaries and these tests share the grid runners and report
//! builders in `svt_bench::runs`, so equality of the built reports'
//! pretty-printed JSON is exactly the equality of the bytes the binaries
//! write through `--json`. (The per-cell workloads are deterministic
//! pure functions of their configuration; the sweep engine merges in
//! grid order regardless of worker completion order — see the ordering
//! property tests in `svt_sim::sweep`.)

use svt_arch::ArchId;
use svt_bench::{
    faults_campaign, faults_report, fig6_report, smp_report, smp_series, timeline_cells,
    timeline_report, timelines_json, FAULTS_DEFAULT_SEED, FAULTS_MODES, SERVE_RATE_QPS,
};
use svt_obs::DEFAULT_TIMELINE_CADENCE;
use svt_workloads::{fig6_grid, DEFAULT_LANE_SEED};

#[test]
fn fig6_report_is_byte_identical_across_worker_counts() {
    let a = fig6_report(&fig6_grid(ArchId::X86, 30, 1, None), DEFAULT_LANE_SEED);
    let b = fig6_report(&fig6_grid(ArchId::X86, 30, 4, None), DEFAULT_LANE_SEED);
    assert_eq!(a.to_json().pretty(), b.to_json().pretty());
}

#[test]
fn smp_report_is_byte_identical_across_worker_counts() {
    let report = |jobs| {
        let series = smp_series(
            ArchId::X86,
            &[1, 2],
            SERVE_RATE_QPS,
            60,
            DEFAULT_LANE_SEED,
            jobs,
            None,
        );
        smp_report(ArchId::X86, &series, DEFAULT_LANE_SEED)
            .to_json()
            .pretty()
    };
    assert_eq!(report(1), report(4));
}

/// The tentpole determinism claim: the windowed timeline export — every
/// sampled counter delta, part attribution, ring depth and health state
/// — merges byte-identically at any worker count, including the armed
/// fault-injecting cell whose flight recorder trips mid-run.
#[test]
fn timeline_export_is_byte_identical_across_worker_counts() {
    let a = timeline_cells(60, DEFAULT_LANE_SEED, DEFAULT_TIMELINE_CADENCE, false, 1);
    let b = timeline_cells(60, DEFAULT_LANE_SEED, DEFAULT_TIMELINE_CADENCE, false, 4);
    assert_eq!(
        timelines_json(&a).pretty(),
        timelines_json(&b).pretty(),
        "timeline export differs between --jobs 1 and --jobs 4"
    );
    // The full run report (summaries + embedded timelines and flight
    // dumps) must agree too.
    assert_eq!(
        timeline_report(&a, DEFAULT_LANE_SEED, DEFAULT_TIMELINE_CADENCE)
            .to_json()
            .pretty(),
        timeline_report(&b, DEFAULT_LANE_SEED, DEFAULT_TIMELINE_CADENCE)
            .to_json()
            .pretty()
    );
    // And the armed cell must actually have exercised the recorder, or
    // the equality above proves less than it claims.
    assert!(a.last().unwrap().telemetry.flight_trips > 0);
}

#[test]
fn faults_report_is_byte_identical_across_worker_counts() {
    let rates = [0.0, 0.05];
    let a = faults_campaign(&FAULTS_MODES, &rates, 60, FAULTS_DEFAULT_SEED, 1, None);
    let b = faults_campaign(&FAULTS_MODES, &rates, 60, FAULTS_DEFAULT_SEED, 4, None);
    assert_eq!(
        faults_report(&a, FAULTS_DEFAULT_SEED).to_json().pretty(),
        faults_report(&b, FAULTS_DEFAULT_SEED).to_json().pretty()
    );
}
