//! The perf-regression gate, end to end against real report documents.
//!
//! The gate's unit tests (in `svt_bench::gate`) cover the band math on
//! minimal synthetic documents; these tests run it against the *actual*
//! report shapes the binaries emit — a fresh selfperf run serialized
//! through `selfperf_report` and a fresh fig6 run through `fig6_report`
//! — so a report-schema change that silently breaks the gate's field
//! lookups fails here, not in CI's shell step.

use svt_bench::{
    delta_table, fig6_report, gate_fig6, gate_passes, gate_selfperf, selfperf_report,
    selfperf_rows, GateBands,
};
use svt_obs::Json;
use svt_workloads::{fig6_grid, DEFAULT_LANE_SEED};

/// Halves every `ns_per_event_*` in a selfperf document (and doubles the
/// matching `events_per_sec_*`), producing a baseline that makes the
/// *unmodified* fresh run look like a 2× regression.
fn doctor_2x_faster(doc: &Json) -> Json {
    fn walk(j: &Json) -> Json {
        match j {
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| {
                        let v = match (k.as_str(), v) {
                            (k2, Json::Num(n)) if k2.starts_with("ns_per_event") => {
                                Json::Num(n / 2.0)
                            }
                            (k2, Json::Num(n)) if k2.starts_with("events_per_sec") => {
                                Json::Num(n * 2.0)
                            }
                            _ => walk(v),
                        };
                        (k.clone(), v)
                    })
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.iter().map(walk).collect()),
            other => other.clone(),
        }
    }
    walk(doc)
}

#[test]
fn gate_passes_when_fresh_equals_baseline_and_fails_on_synthetic_2x_regression() {
    // One smoke-sized measurement serves as both baseline and fresh run:
    // identical documents must pass with every ratio at exactly 1.0.
    let rows = selfperf_rows(true, DEFAULT_LANE_SEED, Some(2), None);
    let doc = selfperf_report(&rows, DEFAULT_LANE_SEED, 2).to_json();
    let bands = GateBands::default();

    let deltas = gate_selfperf(&doc, &doc, &bands).expect("well-formed reports");
    assert!(gate_passes(&deltas), "{}", delta_table(&deltas));
    // Speedup rows are only gated where the measurement was meaningful
    // (multi-worker run on a multi-core host); single-core CI hosts gate
    // two metrics per workload, not three.
    let speedup_rows = rows.iter().filter(|r| r.speedup_meaningful()).count();
    assert_eq!(
        deltas.len(),
        3 * 2 + speedup_rows,
        "ns/trap + ev/s per workload, plus meaningful speedups"
    );
    for d in &deltas {
        assert!((d.ratio - 1.0).abs() < 1e-12, "{d}");
    }

    // The negative test: against a baseline that claims to be 2x faster,
    // the same fresh run is a 2x ns/trap regression and must fail.
    let fast_baseline = doctor_2x_faster(&doc);
    let deltas = gate_selfperf(&fast_baseline, &doc, &bands).expect("well-formed reports");
    assert!(!gate_passes(&deltas), "a 2x regression slipped the gate");
    let bad: Vec<_> = deltas.iter().filter(|d| !d.ok).collect();
    assert_eq!(bad.len(), 3 * 2, "ns/trap and events/sec fail per workload");
    for d in &bad {
        assert!((d.ratio - 2.0).abs() < 1e-9, "{d}");
    }
}

#[test]
fn fig6_gate_accepts_a_rerun_and_rejects_a_doctored_speedup() {
    let fresh = fig6_report(&fig6_grid(30, 2, None), DEFAULT_LANE_SEED).to_json();
    let bands = GateBands::default();

    // The simulation is deterministic: a rerun gates clean against itself.
    let rerun = fig6_report(&fig6_grid(30, 1, None), DEFAULT_LANE_SEED).to_json();
    let deltas = gate_fig6(&fresh, &rerun, &bands).expect("well-formed reports");
    assert!(gate_passes(&deltas), "{}", delta_table(&deltas));

    // Nudge one committed speedup by more than the drift band.
    let doctored = match &fresh {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| {
                    if k == "speedups" {
                        let Json::Arr(rows) = v else { unreachable!() };
                        let mut rows = rows.clone();
                        let Json::Obj(row) = &mut rows[0] else {
                            unreachable!()
                        };
                        for (rk, rv) in row.iter_mut() {
                            if rk == "speedup" {
                                let Json::Num(n) = rv else { unreachable!() };
                                *rv = Json::Num(*n + 1e-6);
                            }
                        }
                        (k.clone(), Json::Arr(rows))
                    } else {
                        (k.clone(), v.clone())
                    }
                })
                .collect(),
        ),
        _ => unreachable!(),
    };
    let deltas = gate_fig6(&doctored, &rerun, &bands).expect("well-formed reports");
    assert!(
        !gate_passes(&deltas),
        "a simulated-speedup drift slipped the gate"
    );
}
