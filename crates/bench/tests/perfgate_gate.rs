//! The perf-regression gate, end to end against real hostprof reports.
//!
//! The gate's unit tests (in `svt_bench::gate`) cover the band math on
//! minimal synthetic documents; these run it against a small converged
//! campaign serialized through `hostprof_report` — the path the perfgate
//! and the committed baseline take — so a report-schema change that
//! breaks the gate's field lookups fails here, not in CI's shell step.
//! The campaign is measured once and shared: the profiler's armed flag
//! and drain queue are process globals.

use std::sync::OnceLock;

use svt_arch::ArchId;
use svt_bench::{
    delta_table, gate_hostprof, gate_passes, hostprof_converged, hostprof_report, hostprof_setup,
    GateError, HostprofConverged, WALL_BAND,
};
use svt_obs::{HostPart, Json};
use svt_workloads::DEFAULT_LANE_SEED;

/// A small converged campaign at `--jobs 1`, measured as perfgate does.
fn campaign() -> &'static HostprofConverged {
    static RUN: OnceLock<HostprofConverged> = OnceLock::new();
    RUN.get_or_init(|| hostprof_converged(ArchId::X86, 10, DEFAULT_LANE_SEED, Some(1)))
}

fn doc(run: &HostprofConverged) -> Json {
    hostprof_report(run, ArchId::X86, DEFAULT_LANE_SEED).to_json()
}

#[test]
fn a_real_report_gates_clean_against_itself() {
    let report = doc(campaign());
    assert_eq!(
        hostprof_setup(&report),
        Ok((ArchId::X86, DEFAULT_LANE_SEED, 1))
    );
    let deltas = gate_hostprof(&report, &report).expect("well-formed reports");
    assert!(gate_passes(&deltas), "{}", delta_table(&deltas));
    assert_eq!(deltas.len(), 32, "31 exact rows plus the wall row");
    let wall = deltas.last().unwrap();
    assert_eq!(
        (wall.metric, wall.ratio, wall.band),
        ("wall_ns_per_event", 1.0, WALL_BAND)
    );

    // The converged record sits under `results`, and the mean's parts
    // still sum to its total.
    let results = report.get("results").unwrap();
    let reps = results.get("repetitions").and_then(Json::as_i64).unwrap();
    assert!((5..=50).contains(&reps), "{reps} repetitions");
    assert!(results.get("converged").and_then(Json::as_bool).is_some());
    let cis = results.get("wall_rel_ci2").unwrap();
    assert!(cis.get("total").and_then(Json::as_f64).unwrap() >= 0.0);
    assert!(cis.get("reflection").and_then(Json::as_f64).is_some());
    let hp = report.get("hostprof").unwrap();
    let parts: i64 = hp
        .get("parts")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|p| p.get("wall_ns").and_then(Json::as_i64).unwrap())
        .sum();
    assert_eq!(Some(parts), hp.get("total_wall_ns").and_then(Json::as_i64));
}

#[test]
fn a_2x_faster_baseline_fails_only_the_wall_row() {
    let mut fast = campaign().clone();
    for w in &mut fast.mean.agg.wall_ns {
        *w /= 2;
    }
    let deltas = gate_hostprof(&doc(&fast), &doc(campaign())).expect("well-formed reports");
    let bad: Vec<_> = deltas.iter().filter(|d| !d.ok).collect();
    assert_eq!(bad.len(), 1, "{}", delta_table(&deltas));
    assert_eq!(bad[0].metric, "wall_ns_per_event");
    assert!((bad[0].ratio - 2.0).abs() < 1e-3, "{}", bad[0]);
}

#[test]
fn one_extra_allocation_fails_the_total_and_its_part() {
    let mut drifted = campaign().clone();
    drifted.mean.agg.allocs[HostPart::Reflection as usize] += 1;
    let deltas = gate_hostprof(&doc(&drifted), &doc(campaign())).expect("well-formed reports");
    let bad: Vec<_> = deltas
        .iter()
        .filter(|d| !d.ok)
        .map(|d| (d.name.as_str(), d.metric))
        .collect();
    assert_eq!(
        bad,
        [("hostprof", "total_allocs"), ("reflection", "allocs")],
        "{}",
        delta_table(&deltas)
    );
}

#[test]
fn a_baseline_without_its_campaign_setup_is_a_typed_error() {
    for key in ["seed", "jobs", "arch"] {
        let mut report = hostprof_report(campaign(), ArchId::X86, DEFAULT_LANE_SEED);
        report.results.retain(|(k, _)| k != key);
        assert_eq!(
            hostprof_setup(&report.to_json()),
            Err(GateError {
                what: "baseline results".to_string(),
                field: key.to_string()
            })
        );
    }
}

/// The campaign comes from the baseline, so the deleted knobs refuse to
/// run rather than being silently ignored.
#[test]
fn perfgate_refuses_campaign_flags() {
    for args in [["--seed", "7"], ["--jobs", "2"], ["--arch", "riscv"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfgate"))
            .args(args)
            .output()
            .expect("perfgate starts");
        assert_eq!(out.status.code(), Some(2), "perfgate {args:?}: {out:?}");
        assert!(
            out.stdout.is_empty(),
            "perfgate {args:?} ran before refusing"
        );
    }
}
