//! perfgate: the perf-regression gate.
//!
//! Re-runs the hostprof campaign the committed `BENCH_hostprof.json`
//! baseline records — same ISA backend, seed and worker count, read from
//! its `results` — and diffs the fresh report against it:
//!
//! * allocation and byte counters (total and per subsystem), profiled
//!   events and the trap-shape census must match **exactly** (band 0) —
//!   this bin installs the counting allocator, and the counters are
//!   deterministic at any `--jobs`, so any drift means the hot path's
//!   allocation behavior changed;
//! * host ns/event, the mean of campaigns repeated until the paper's 1%
//!   convergence rule is met (or 50 ran), may regress up to
//!   [`svt_bench::WALL_BAND`] before the gate fails — a gross tripwire
//!   against the baseline's host phase (see `svt_bench::gate`).
//!
//! Exits nonzero (after printing the delta table) when any metric leaves
//! its band, so `scripts/ci.sh` can gate on it. The baseline decides the
//! campaign, so `--seed`, `--jobs` and `--arch` are not declared and are
//! refused like any other flag this bin does not read.

use std::path::PathBuf;
use std::process::exit;

use svt_bench::{
    delta_table, gate_hostprof, gate_passes, hostprof_converged, hostprof_report, hostprof_setup,
    print_header, rule, BenchCli, CliSpec, Flag, WALL_BAND,
};
use svt_obs::Json;

// The allocation columns the gate holds to exact bands only count with
// the counting allocator installed, exactly as in the hostprof bin that
// produced the committed baseline.
#[global_allocator]
static ALLOC: svt_obs::CountingAlloc = svt_obs::CountingAlloc;

/// Requests per lane of the hostprof campaign — always the full count,
/// matching the committed baseline (the alloc counters are
/// request-exact).
const HOSTPROF_REQUESTS: u64 = 120;

fn fail(msg: impl std::fmt::Display, code: i32) -> ! {
    eprintln!("error: {msg}");
    exit(code);
}

const CLI: CliSpec = CliSpec {
    bin: "perfgate",
    args: &[("baseline", "default BENCH_hostprof.json")],
    flags: &[Flag::Json],
};

fn main() {
    let cli = BenchCli::parse(&CLI);
    let path = PathBuf::from(cli.positional(0).unwrap_or("BENCH_hostprof.json"));

    print_header("perfgate - fresh hostprof campaign vs committed baseline");
    println!("bands: counters exact, converged wall_ns_per_event <= {WALL_BAND:.2}x");
    println!("baseline: {}", path.display());
    rule();

    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(format!("reading {} failed: {e}", path.display()), 1));
    let baseline = Json::parse(&text)
        .unwrap_or_else(|e| fail(format!("parsing {} failed: {e:?}", path.display()), 1));
    let (arch, seed, jobs) = hostprof_setup(&baseline).unwrap_or_else(|e| fail(e, 1));
    let fresh = hostprof_converged(arch, HOSTPROF_REQUESTS, seed, Some(jobs));
    let report = hostprof_report(&fresh, arch, seed).to_json();
    println!(
        "fresh: arch {arch}, seed {seed}, --jobs {jobs}: {}",
        fresh.describe()
    );
    let deltas = gate_hostprof(&baseline, &report).unwrap_or_else(|e| fail(e, 1));

    print!("{}", delta_table(&deltas));
    rule();

    if let Some(path) = &cli.json {
        let doc = Json::obj([
            ("kind", Json::from("svt-perfgate")),
            ("wall_band", Json::Num(WALL_BAND)),
            ("pass", Json::from(gate_passes(&deltas))),
            (
                "deltas",
                Json::arr(deltas.iter().map(|d| {
                    Json::obj([
                        ("name", Json::Str(d.name.clone())),
                        ("metric", Json::from(d.metric)),
                        ("baseline", Json::Num(d.baseline)),
                        ("fresh", Json::Num(d.fresh)),
                        ("ratio", Json::Num(d.ratio)),
                        ("band", Json::Num(d.band)),
                        ("ok", Json::from(d.ok)),
                    ])
                })),
            ),
        ]);
        cli.emit_json("perfgate result", path, &doc);
    }

    if gate_passes(&deltas) {
        println!("perfgate: PASS ({} metrics in band)", deltas.len());
    } else {
        let bad = deltas.iter().filter(|d| !d.ok).count();
        println!("perfgate: FAIL ({bad} metric(s) out of band)");
        exit(1);
    }
}
