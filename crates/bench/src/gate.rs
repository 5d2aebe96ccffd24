//! The perf-regression gate: diff a fresh hostprof campaign against the
//! committed `BENCH_hostprof.json` baseline.
//!
//! Two kinds of comparison, with deliberately different bands:
//!
//! * **Deterministic counters** — profiled events, total and
//!   per-subsystem allocation and byte counts, and the trap-shape census
//!   are pure functions of workload + seed and must match **exactly**
//!   (band 0): any drift is a behavior change — an allocation added to a
//!   hot path, a trap taking a different emulation path.
//! * **Wall-clock** — host ns/event, the mean of a campaign repeated until
//!   its 2σ CI converges, may regress up to [`WALL_BAND`] before the gate
//!   fails. Convergence removes sampling noise but not host phases (a
//!   shared host drifts by up to a third between processes), so this row
//!   is a gross tripwire: a 2× regression fails unless the fresh run lands
//!   in a host phase more than 10% faster than the baseline's, and
//!   10%-level claims belong to the `benchmark/` package's pairwise rule.
//!
//! Ratios are fresh-vs-baseline on the same metric, so they only mean
//! something when the baseline was produced on comparable hardware.

use std::fmt;

use svt_arch::ArchId;
use svt_obs::Json;

/// Maximum allowed regression ratio of the converged wall-clock row
/// (fresh-worse-than-baseline factor).
pub const WALL_BAND: f64 = 1.8;

/// One gated metric: baseline vs fresh, the regression ratio (or drift),
/// the band it was held to, and the verdict.
#[derive(Debug, Clone)]
pub struct WorkloadDelta {
    /// Row name (`hostprof` for campaign totals, else the subsystem).
    pub name: String,
    /// Metric compared.
    pub metric: &'static str,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// Regression ratio (wall-clock, ≥ 1 means fresh is worse) or
    /// absolute drift (exact counters).
    pub ratio: f64,
    /// The band `ratio` was held to.
    pub band: f64,
    /// Whether the metric stayed inside its band.
    pub ok: bool,
}

impl WorkloadDelta {
    fn exact(name: &str, metric: &'static str, baseline: f64, fresh: f64) -> Self {
        WorkloadDelta {
            name: name.to_string(),
            metric,
            baseline,
            fresh,
            ratio: (fresh - baseline).abs(),
            band: 0.0,
            ok: fresh == baseline,
        }
    }
}

impl fmt::Display for WorkloadDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} {:<22} {:>14.4} {:>14.4} {:>8.3} {:>8.3} {}",
            self.name,
            self.metric,
            self.baseline,
            self.fresh,
            self.ratio,
            self.band,
            if self.ok { "ok" } else { "FAIL" }
        )
    }
}

/// Renders the per-metric delta table the gate prints (and CI shows on
/// failure).
pub fn delta_table(deltas: &[WorkloadDelta]) -> String {
    let mut out = format!(
        "{:<16} {:<22} {:>14} {:>14} {:>8} {:>8} status\n",
        "workload", "metric", "baseline", "fresh", "ratio", "band"
    );
    for d in deltas {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// A field of a hostprof report the gate reads that is absent or
/// malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateError {
    /// Which document and object (`baseline results`, ...).
    pub what: String,
    /// The field.
    pub field: String,
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: missing or malformed `{}`", self.what, self.field)
    }
}

impl std::error::Error for GateError {}

fn missing(what: &str, key: &str) -> GateError {
    GateError {
        what: what.to_string(),
        field: key.to_string(),
    }
}

/// `obj[key]` read through `as_t`, or a [`GateError`] naming `what`.
fn get<'a, T>(
    obj: &'a Json,
    key: &str,
    what: &str,
    as_t: fn(&'a Json) -> Option<T>,
) -> Result<T, GateError> {
    obj.get(key)
        .and_then(as_t)
        .ok_or_else(|| missing(what, key))
}

fn section(j: &Json) -> Option<&Json> {
    j.as_obj().map(|_| j)
}

/// The campaign a hostprof baseline was measured on — ISA backend, seed
/// and sweep worker count, read from its `results` — so the fresh run
/// repeats exactly that campaign.
///
/// # Errors
///
/// [`GateError`] when any of the three is absent or malformed (an
/// unknown backend included).
pub fn hostprof_setup(baseline: &Json) -> Result<(ArchId, u64, usize), GateError> {
    let what = "baseline results";
    let results = get(baseline, "results", "baseline", section)?;
    let arch = get(results, "arch", what, |j| {
        j.as_str().and_then(ArchId::parse)
    })?;
    let seed = get(results, "seed", what, Json::as_i64)? as u64;
    let jobs = get(results, "jobs", what, Json::as_i64)? as usize;
    Ok((arch, seed, jobs))
}

/// Gates a fresh hostprof report against the committed baseline: 31
/// exact rows (events, total and per-part allocs and bytes, and the shape
/// census) plus `wall_ns_per_event` held to [`WALL_BAND`].
///
/// Returns the full delta table (pass and fail rows alike) so callers can
/// print it.
///
/// # Errors
///
/// [`GateError`] for a malformed report, or a fresh run missing a part
/// the baseline gates.
pub fn gate_hostprof(baseline: &Json, fresh: &Json) -> Result<Vec<WorkloadDelta>, GateError> {
    let bh = get(baseline, "hostprof", "baseline", section)?;
    let fh = get(fresh, "hostprof", "fresh", section)?;
    let mut deltas = Vec::new();
    for metric in [
        "events",
        "total_allocs",
        "total_bytes",
        "distinct_shapes",
        "shape_total",
    ] {
        let bv = get(bh, metric, "baseline hostprof", Json::as_f64)?;
        let fv = get(fh, metric, "fresh hostprof", Json::as_f64)?;
        deltas.push(WorkloadDelta::exact("hostprof", metric, bv, fv));
    }
    let fresh_parts = get(fh, "parts", "fresh hostprof", Json::as_arr)?;
    for b in get(bh, "parts", "baseline hostprof", Json::as_arr)? {
        let name = get(b, "part", "baseline hostprof part", Json::as_str)?;
        let f = fresh_parts
            .iter()
            .find(|r| r.get("part").and_then(Json::as_str) == Some(name))
            .ok_or_else(|| missing("fresh hostprof parts", name))?;
        for metric in ["allocs", "bytes"] {
            let bv = get(b, metric, &format!("baseline part `{name}`"), Json::as_f64)?;
            let fv = get(f, metric, &format!("fresh part `{name}`"), Json::as_f64)?;
            deltas.push(WorkloadDelta::exact(name, metric, bv, fv));
        }
    }
    let bv = get(bh, "wall_ns_per_event", "baseline hostprof", Json::as_f64)?;
    let fv = get(fh, "wall_ns_per_event", "fresh hostprof", Json::as_f64)?;
    deltas.push(WorkloadDelta {
        name: "hostprof".to_string(),
        metric: "wall_ns_per_event",
        baseline: bv,
        fresh: fv,
        ratio: fv / bv,
        band: WALL_BAND,
        ok: fv / bv <= WALL_BAND,
    });
    Ok(deltas)
}

/// Whether every delta stayed inside its band.
pub fn gate_passes(deltas: &[WorkloadDelta]) -> bool {
    deltas.iter().all(|d| d.ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hostprof_doc(allocs: f64, wall_ns_per_event: f64) -> Json {
        Json::obj([(
            "hostprof",
            Json::obj([
                ("events", Json::Num(100.0)),
                ("total_allocs", Json::Num(allocs)),
                ("total_bytes", Json::Num(4096.0)),
                ("distinct_shapes", Json::Num(5.0)),
                ("shape_total", Json::Num(100.0)),
                ("wall_ns_per_event", Json::Num(wall_ns_per_event)),
                (
                    "parts",
                    Json::Arr(vec![Json::obj([
                        ("part", Json::from("reflection")),
                        ("allocs", Json::Num(allocs)),
                        ("bytes", Json::Num(4096.0)),
                    ])]),
                ),
            ]),
        )])
    }

    #[test]
    fn hostprof_identical_runs_and_wall_noise_pass() {
        let base = hostprof_doc(480.0, 3000.0);
        let deltas = gate_hostprof(&base, &base).unwrap();
        assert!(gate_passes(&deltas), "{}", delta_table(&deltas));
        // Wall noise inside the 1.8x band passes; the counters still
        // matched exactly.
        let noisy = hostprof_doc(480.0, 4500.0);
        let deltas = gate_hostprof(&base, &noisy).unwrap();
        assert!(gate_passes(&deltas), "{}", delta_table(&deltas));
    }

    #[test]
    fn hostprof_single_alloc_drift_fails() {
        // The alloc counters are deterministic, so even one extra
        // allocation trips the exact (band-0) comparison.
        let base = hostprof_doc(480.0, 3000.0);
        let drifted = hostprof_doc(481.0, 3000.0);
        let deltas = gate_hostprof(&base, &drifted).unwrap();
        assert!(!gate_passes(&deltas));
        let bad: Vec<_> = deltas.iter().filter(|d| !d.ok).collect();
        assert_eq!(bad.len(), 2, "total and per-part allocs both trip");
        assert!(bad.iter().all(|d| d.band == 0.0));
    }

    #[test]
    fn hostprof_2x_wall_regression_fails() {
        let base = hostprof_doc(480.0, 3000.0);
        let slow = hostprof_doc(480.0, 6000.0);
        let deltas = gate_hostprof(&base, &slow).unwrap();
        assert!(!gate_passes(&deltas));
        let bad: Vec<_> = deltas.iter().filter(|d| !d.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].metric, "wall_ns_per_event");
    }

    #[test]
    fn missing_fresh_workload_is_an_error() {
        let base = hostprof_doc(480.0, 3000.0);
        let fresh = Json::parse(&base.to_string().replace("reflection", "event_pump")).unwrap();
        let err = gate_hostprof(&base, &fresh).unwrap_err();
        assert_eq!(err, missing("fresh hostprof parts", "reflection"));
        let err = gate_hostprof(&base, &Json::obj([("hostprof", Json::Null)])).unwrap_err();
        assert_eq!(err.to_string(), "fresh: missing or malformed `hostprof`");
    }

    #[test]
    fn delta_table_renders_every_row_with_verdicts() {
        let base = hostprof_doc(480.0, 3000.0);
        let deltas = gate_hostprof(&base, &hostprof_doc(480.0, 6000.0)).unwrap();
        let table = delta_table(&deltas);
        assert_eq!(table.lines().count(), 1 + deltas.len());
        assert!(table.contains("workload"));
        assert!(table.contains("FAIL"));
        assert!(table.contains("wall_ns_per_event"));
        assert!(table.contains("reflection"));
    }
}
