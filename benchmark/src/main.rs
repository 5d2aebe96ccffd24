//! `svt-benchmark`: host and simulated performance of the SVt simulator,
//! end to end and per layer.
//!
//! ```text
//! svt-benchmark --workload <name> [--seed n] [--seconds s] [--trace 0|1]
//!               [--rounds n] [--spans out.json]
//! svt-benchmark summarize < results.jsonl
//! ```
//!
//! One process, one thread, closed loop over rounds: a round is one pass
//! over the workload's cell grid, and each cell builds, loads, runs and
//! drops one simulated machine. After the library cross-check and one
//! untimed warm-up round, rounds repeat until `--seconds` have passed, or
//! exactly `--rounds` times.
//! `--trace 1` adds [`TRACE_ROUNDS`] rounds with the host profiler armed
//! and reports the per-layer metrics. Every metric prints as
//! `name value unit`; the last line is one JSON object with the verdict
//! and the mode's metrics. The exit code is 0 only if no cell failed.
//!
//! `summarize` reads such JSON lines (one per run) and prints each
//! metric's median, quartiles and quartile spread over the runs.

mod cells;
mod stats;

use std::io::BufRead;
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use cells::{
    run_cell, Interval, Kind, Outcome, PhaseLog, Role, Stopwatch, Workload, BOOT, COUNTERS,
    FALLBACK_TRAPS, HV_TEARDOWN, PHASES, REQUEST_COUNTERS, RING_TRAPS, RUN, SETUP, SIM_PARTS,
    TRAPS, WL_TEARDOWN,
};
use svt_obs::{HostPart, Json};

#[global_allocator]
static ALLOC: svt_obs::CountingAlloc = svt_obs::CountingAlloc;

/// Rounds of the traced run.
const TRACE_ROUNDS: usize = 10;
const DEFAULT_SECONDS: f64 = 10.0;

/// The paper's x86 Fig-6 speedups (held out: Table 1's parts are the
/// calibration inputs) and the bands a correct run stays inside.
const PAPER_SW_GAIN: f64 = 1.23;
const PAPER_HW_GAIN: f64 = 1.94;
const SW_BAND: RangeInclusive<f64> = 1.15..=1.35;
const HW_BAND: RangeInclusive<f64> = 1.8..=2.1;

/// Per-layer values that do not apply to a workload read this.
const NOT_APPLICABLE: f64 = -1.0;

/// The in-run host-profiler parts reported by the traced run. Its boot
/// and teardown parts are left out: the benchmark's own phase timings
/// replace them.
const HOSTPROF_PARTS: [(&str, HostPart); 9] = [
    ("hv.reflection_ms", HostPart::Reflection),
    ("hv.scheduler_ms", HostPart::Scheduler),
    ("hv.guest_step_ms", HostPart::GuestStep),
    ("virtio.event_pump_ms", HostPart::EventPump),
    ("core.ring_protocol_ms", HostPart::RingProtocol),
    ("sim.faults_ms", HostPart::Faults),
    ("obs.metrics_ms", HostPart::Metrics),
    ("obs.causal_ms", HostPart::Causal),
    ("obs.telemetry_ms", HostPart::Telemetry),
];

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: Option<usize>,
    spans: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = svt_workloads::DEFAULT_LANE_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut rounds = None;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(cells::workload(value).ok_or_else(|| {
                    format!(
                        "unknown workload {value:?}; one of {}",
                        cells::WORKLOADS.join(", ")
                    )
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--rounds" => {
                rounds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or_else(|| bad("a positive integer"))?,
                )
            }
            "--spans" => spans = Some(value.to_string()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if spans.is_some() && !trace {
        return Err("--spans needs --trace 1".into());
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        rounds,
        spans,
    })
}

/// One timed pass over the grid.
struct Round {
    span: Interval,
    cells: Vec<Interval>,
    phases: Vec<[Interval; PHASES.len()]>,
    traps: u64,
}

/// Runs every cell once; a panicking cell yields `None` and the round
/// goes on.
fn run_round(w: &Workload, seed: u64, clock: Stopwatch) -> (Round, Vec<Option<Outcome>>) {
    let mut cells = Vec::with_capacity(w.cells.len());
    let mut phases = Vec::with_capacity(w.cells.len());
    let (outcomes, span) = clock.time(|| {
        w.cells
            .iter()
            .map(|cell| {
                let mut log = PhaseLog::new(clock);
                let (out, iv) = clock.time(|| {
                    catch_unwind(AssertUnwindSafe(|| run_cell(cell, seed, &mut log))).ok()
                });
                cells.push(iv);
                phases.push(log.phases);
                out
            })
            .collect::<Vec<_>>()
    });
    let traps = outcomes.iter().flatten().map(|o| o.counts[TRAPS]).sum();
    let round = Round {
        span,
        cells,
        phases,
        traps,
    };
    (round, outcomes)
}

/// SW and HW SVt gains over the baseline from one round's outcomes; `None`
/// where the workload has no such cell or it failed.
fn gains(w: &Workload, outcomes: &[Option<Outcome>]) -> (Option<f64>, Option<f64>) {
    let headline = |role| {
        w.cells
            .iter()
            .zip(outcomes)
            .find(|(c, _)| c.role == role)
            .and_then(|(_, o)| o.as_ref())
            .map(|o| o.headline(w.gain_by_throughput))
    };
    let base = headline(Role::Base);
    let gain = |role| {
        let (b, x) = (base?, headline(role)?);
        Some(if w.gain_by_throughput { x / b } else { b / x })
    };
    (gain(Role::Sw), gain(Role::Hw))
}

/// Whether the workload's gains are the x86 Fig-6 bars, which the paper
/// reports and the calibration bands constrain.
fn is_fig6(w: &Workload) -> bool {
    w.cells
        .iter()
        .any(|c| c.role == Role::Sw && matches!(c.kind, Kind::Cpuid { .. }))
}

/// Per-cell verdicts: every later round must reproduce the warm-up
/// round, which must match the library's own runners (and, for Fig 6,
/// the paper's bands).
struct Checker {
    expected: Vec<Option<Outcome>>,
    valid: Vec<bool>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(w: &Workload, seed: u64, warm: Vec<Option<Outcome>>) -> Checker {
        let (sw, hw) = gains(w, &warm);
        let in_bands = !is_fig6(w)
            || (sw.is_some_and(|g| SW_BAND.contains(&g))
                && hw.is_some_and(|g| HW_BAND.contains(&g)));
        let valid = w
            .cells
            .iter()
            .zip(&warm)
            .map(|(cell, out)| {
                let Some(out) = out else { return false };
                let banded = matches!(cell.role, Role::Sw | Role::Hw) && is_fig6(w);
                let lib = catch_unwind(|| cells::matches_library(cell, seed, out)).unwrap_or(false);
                if !lib {
                    eprintln!("{}: cell {cell:?} differs from the library runner", w.name);
                }
                lib && (in_bands || !banded)
            })
            .collect();
        let mut checker = Checker {
            expected: Vec::new(),
            valid,
            attempted: 0,
            failed: 0,
        };
        // The warm-up round is attempted too, and is its own reference.
        checker.check(&warm);
        checker.expected = warm;
        checker
    }

    fn check(&mut self, outcomes: &[Option<Outcome>]) {
        for (c, out) in outcomes.iter().enumerate() {
            self.attempted += 1;
            let ok = self.valid[c]
                && out.as_ref().is_some_and(|o| o.watchdog_violations == 0)
                && (self.expected.is_empty() || *out == self.expected[c]);
            if !ok {
                self.failed += 1;
            }
        }
    }
}

/// Runs rounds until `done(rounds so far, seconds since start)`.
fn run_rounds(
    w: &Workload,
    seed: u64,
    clock: Stopwatch,
    checker: &mut Checker,
    done: impl Fn(usize, f64) -> bool,
) -> Vec<Round> {
    let t0 = std::time::Instant::now();
    let mut rounds = Vec::new();
    while !done(rounds.len(), t0.elapsed().as_secs_f64()) {
        let (round, outcomes) = run_round(w, seed, clock);
        checker.check(&outcomes);
        rounds.push(round);
    }
    rounds
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn round_ms(rounds: &[Round]) -> Vec<f64> {
    stats::sorted(
        &rounds
            .iter()
            .map(|r| r.span.ns() as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
}

/// Median over rounds of `f` summed over the round's cells.
fn per_round_median(rounds: &[Round], f: impl Fn(&[Interval; PHASES.len()]) -> f64) -> f64 {
    let per_round: Vec<f64> = rounds
        .iter()
        .map(|r| r.phases.iter().map(&f).sum())
        .collect();
    stats::median(&per_round)
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The end-to-end metrics of the timed rounds.
fn end_to_end(rounds: &[Round]) -> Vec<Metric> {
    let traps_per_s: Vec<f64> = rounds
        .iter()
        .map(|r| r.traps as f64 / (r.span.ns() as f64 / 1e9))
        .collect();
    vec![
        metric("traps_per_s", stats::median(&traps_per_s), "traps/s"),
        metric(
            "round_ms_p50",
            stats::nearest_rank(&round_ms(rounds), 0.5),
            "ms",
        ),
        metric(
            "setup_s",
            per_round_median(rounds, |p| (p[BOOT].ns() + p[SETUP].ns()) as f64) / 1e9,
            "s",
        ),
        metric("peak_rss_mb", peak_rss_mib(), "MiB"),
    ]
}

/// The simulated-result metrics, from the warm-up round's outcomes.
fn simulated(w: &Workload, outcomes: &[Option<Outcome>]) -> Vec<Metric> {
    let (sw, hw) = gains(w, outcomes);
    let err = match (sw, hw) {
        (Some(sw), Some(hw)) if is_fig6(w) => {
            100.0
                * (sw / PAPER_SW_GAIN - 1.0)
                    .abs()
                    .max((hw / PAPER_HW_GAIN - 1.0).abs())
        }
        _ => NOT_APPLICABLE,
    };
    vec![
        metric("sim_sw_gain", sw.unwrap_or(NOT_APPLICABLE), "x"),
        metric("sim_hw_gain", hw.unwrap_or(NOT_APPLICABLE), "x"),
        metric("sim_err_pct", err, "%"),
    ]
}

/// Deterministic work counts per round, and simulated ns per trap over
/// the x86 nested cells.
fn counts(w: &Workload, outcomes: &[Option<Outcome>]) -> Vec<Metric> {
    let present = || outcomes.iter().flatten();
    let mut out: Vec<Metric> = COUNTERS
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            metric(
                name,
                present().map(|o| o.counts[i]).sum::<u64>() as f64,
                "count",
            )
        })
        .collect();
    out.extend(REQUEST_COUNTERS.iter().enumerate().map(|(i, name)| {
        metric(
            name,
            present().map(|o| o.requests[i]).sum::<u64>() as f64,
            "count",
        )
    }));
    let total = |i: usize| present().map(|o| o.counts[i]).sum::<u64>() as f64;
    let (ring, fallback) = (total(RING_TRAPS), total(FALLBACK_TRAPS));
    let ratio = if ring + fallback > 0.0 {
        ring / (ring + fallback)
    } else {
        1.0
    };
    out.push(metric("core.ring_ratio", ratio, "ratio"));
    let l2: Vec<&Outcome> = w
        .cells
        .iter()
        .zip(outcomes)
        .filter(|(c, _)| c.is_x86_l2())
        .filter_map(|(_, o)| o.as_ref())
        .collect();
    let l2_traps = l2.iter().map(|o| o.counts[TRAPS]).sum::<u64>().max(1) as f64;
    out.extend(SIM_PARTS.iter().enumerate().map(|(i, (name, _))| {
        let ns: f64 = l2.iter().map(|o| o.sim_parts[i].as_ns()).sum();
        metric(name, ns / l2_traps, "ns/trap")
    }));
    out
}

/// Per-layer host costs of the timed (untraced) rounds.
fn layer_costs(rounds: &[Round]) -> Vec<Metric> {
    let ms = |phase: usize| per_round_median(rounds, |p| p[phase].ns() as f64) / 1e6;
    let allocs = |phase: usize| per_round_median(rounds, |p| p[phase].allocs as f64);
    let bytes = |phase: usize| per_round_median(rounds, |p| p[phase].bytes as f64);
    let traps = rounds.iter().map(|r| r.traps).sum::<u64>().max(1) as f64;
    let run_total = |f: fn(&Interval) -> u64| {
        rounds
            .iter()
            .flat_map(|r| &r.phases)
            .map(|p| f(&p[RUN]))
            .sum::<u64>() as f64
            / traps
    };
    vec![
        metric("core.boot_ms", ms(BOOT), "ms"),
        metric("core.boot_allocs", allocs(BOOT), "allocs"),
        metric("core.boot_bytes", bytes(BOOT), "B"),
        metric("workloads.setup_ms", ms(SETUP), "ms"),
        metric("workloads.setup_allocs", allocs(SETUP), "allocs"),
        metric("workloads.setup_bytes", bytes(SETUP), "B"),
        metric("workloads.teardown_ms", ms(WL_TEARDOWN), "ms"),
        metric("hv.teardown_ms", ms(HV_TEARDOWN), "ms"),
        metric("hv.run_ms", ms(RUN), "ms"),
        metric("hv.ns_per_trap", run_total(Interval::ns), "ns/trap"),
        metric(
            "hv.run_allocs_per_trap",
            run_total(|i| i.allocs),
            "allocs/trap",
        ),
        metric("hv.run_bytes_per_trap", run_total(|i| i.bytes), "B/trap"),
    ]
}

/// One recorded span of the traced run.
struct Span {
    name: &'static str,
    iv: Interval,
    parent: Option<usize>,
    cell: Option<usize>,
}

/// The traced rounds as `round > cell > phase` spans.
fn spans_of(rounds: &[Round]) -> Vec<Span> {
    let mut spans = Vec::new();
    for r in rounds {
        let round = spans.len();
        spans.push(Span {
            name: "round",
            iv: r.span,
            parent: None,
            cell: None,
        });
        for (c, (iv, phases)) in r.cells.iter().zip(&r.phases).enumerate() {
            let cell = spans.len();
            spans.push(Span {
                name: "cell",
                iv: *iv,
                parent: Some(round),
                cell: Some(c),
            });
            spans.extend(PHASES.iter().zip(phases).map(|(name, iv)| Span {
                name,
                iv: *iv,
                parent: Some(cell),
                cell: Some(c),
            }));
        }
    }
    spans
}

/// Self time of every span: its duration minus what its children cover.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.iv.start_ns, s.iv.end_ns));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, ch)| stats::self_ns((s.iv.start_ns, s.iv.end_ns), ch))
        .collect()
}

fn write_spans(path: &str, spans: &[Span], self_ns: &[u64]) -> Result<(), String> {
    let opt = |v: Option<usize>| v.map_or(Json::Null, Json::from);
    let doc = Json::obj([(
        "spans",
        Json::arr(spans.iter().zip(self_ns).map(|(s, &own)| {
            Json::obj([
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.iv.start_ns)),
                ("end_ns", Json::from(s.iv.end_ns)),
                ("self_ns", Json::from(own)),
                ("parent", opt(s.parent)),
                ("cell", opt(s.cell)),
            ])
        })),
    )]);
    std::fs::write(path, doc.pretty()).map_err(|e| format!("--spans {path}: {e}"))
}

/// Per-layer metrics of the traced rounds: the host profiler's in-run
/// split, trap shapes, tracing overhead and span coverage.
fn traced(
    rounds: &[Round],
    agg: &svt_obs::HostAgg,
    untraced_p50: f64,
    spans: &[Span],
    self_ns: &[u64],
) -> Vec<Metric> {
    let n = rounds.len() as f64;
    let mut out: Vec<Metric> = HOSTPROF_PARTS
        .iter()
        .map(|&(name, part)| metric(name, agg.wall_ns[part as usize] as f64 / n / 1e6, "ms"))
        .collect();
    out.push(metric(
        "hv.trap_shapes",
        agg.distinct_shapes() as f64,
        "count",
    ));
    out.push(metric("hv.shape_repeat_ratio", agg.repeat_ratio(), "ratio"));
    let p50 = stats::nearest_rank(&round_ms(rounds), 0.5);
    out.push(metric(
        "bench.trace_overhead_pct",
        100.0 * (p50 / untraced_p50 - 1.0),
        "%",
    ));
    let (covered, total) = spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == "cell")
        .fold((0u64, 0u64), |(c, t), (s, &own)| {
            (c + s.iv.ns() - own, t + s.iv.ns())
        });
    out.push(metric(
        "bench.span_coverage",
        covered as f64 / total.max(1) as f64,
        "ratio",
    ));
    out
}

fn run(opts: &Opts) -> Result<ExitCode, String> {
    let w = &opts.workload;
    let clock = Stopwatch::new();
    // Untimed: the warm-up round, then the library cross-check.
    let (_, warm) = run_round(w, opts.seed, clock);
    let mut checker = Checker::new(w, opts.seed, warm);
    let seconds = opts.seconds;
    let timed = match opts.rounds {
        Some(n) => run_rounds(w, opts.seed, clock, &mut checker, |r, _| r >= n),
        None => run_rounds(w, opts.seed, clock, &mut checker, |_, t| t >= seconds),
    };
    let e2e = end_to_end(&timed);
    // Simulated results and counts are printed in both modes; the traced
    // run reports them with the per-layer metrics.
    let mut results = simulated(w, &checker.expected);
    results.extend(counts(w, &checker.expected));
    let (shown, reported) = if opts.trace {
        svt_obs::hostprof::set_enabled(true);
        let _ = svt_obs::hostprof::take_global();
        let rounds = run_rounds(w, opts.seed, clock, &mut checker, |r, _| r >= TRACE_ROUNDS);
        svt_obs::hostprof::set_enabled(false);
        let agg = svt_obs::hostprof::take_global().unwrap_or_default();
        let spans = spans_of(&rounds);
        let self_ns = self_times(&spans);
        if let Some(path) = &opts.spans {
            write_spans(path, &spans, &self_ns)?;
        }
        let untraced_p50 = stats::nearest_rank(&round_ms(&timed), 0.5);
        let mut layers = layer_costs(&timed);
        layers.extend(traced(&rounds, &agg, untraced_p50, &spans, &self_ns));
        layers.extend(results);
        (e2e, layers)
    } else {
        (results, e2e)
    };
    let fail_ratio = checker.failed as f64 / checker.attempted as f64;
    println!("workload {} seed {}", w.name, opts.seed);
    println!("rounds {} count", timed.len());
    // Printed, not gated: host noise moves the tail more than any bound
    // could hold.
    match stats::tail_percentile(&round_ms(&timed), 0.9) {
        Some(p90) => println!("round_ms_p90 {p90} ms"),
        None => println!("round_ms_p90 n/a ms"),
    }
    for m in shown.iter().chain(&reported) {
        if m.value == NOT_APPLICABLE && m.name.starts_with("sim_") {
            println!("{} n/a {}", m.name, m.unit);
        } else {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
    }
    println!("fail_ratio {fail_ratio} ratio");
    let correct = checker.failed == 0;
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(checker.attempted)),
        ("failed", Json::from(checker.failed)),
        (
            "metrics",
            Json::obj(reported.iter().filter(|m| m.value.is_finite()).map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })),
        ),
    ]);
    println!("{result}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Reads result lines from stdin and prints, per metric, the run count,
/// median, quartiles and the quartile spread as a share of the median.
fn summarize() -> Result<ExitCode, String> {
    let mut names: Vec<(String, String)> = Vec::new();
    let mut values: Vec<Vec<f64>> = Vec::new();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let Some(metrics) = Json::parse(line.trim())
            .ok()
            .and_then(|j| j.get("metrics").cloned())
        else {
            continue;
        };
        for (name, m) in metrics.as_obj().unwrap_or_default() {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            let i = match names.iter().position(|(n, _)| n == name) {
                Some(i) => i,
                None => {
                    names.push((name.clone(), unit));
                    values.push(Vec::new());
                    names.len() - 1
                }
            };
            values[i].push(value);
        }
    }
    println!("metric runs median q1 q3 spread unit");
    for ((name, unit), v) in names.iter().zip(&values) {
        match stats::quartiles(v) {
            Some([q1, q2, q3]) => {
                println!(
                    "{name} {} {q2} {q1} {q3} {:.4} {unit}",
                    v.len(),
                    (q3 - q1) / q2
                )
            }
            None => println!("{name} {} {} - - - {unit}", v.len(), v[0]),
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("summarize") {
        summarize()
    } else {
        parse_opts(&args).and_then(|opts| run(&opts))
    };
    result.unwrap_or_else(|e| {
        eprintln!("svt-benchmark: {e}");
        ExitCode::from(2)
    })
}
