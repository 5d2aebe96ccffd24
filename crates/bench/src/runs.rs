//! Sweep-based grid runners and report builders shared by the benchmark
//! binaries and the determinism tests.
//!
//! Each runner fans its grid of independent machine configurations
//! across the sim crate's parallel sweep engine ([`svt_sim::sweep`]) and
//! merges in grid order, so a given configuration produces the same
//! merged results — and therefore byte-identical [`RunReport`] JSON —
//! at any worker count. The report builders live here too, so a binary
//! and a test assembling the same grid emit the same bytes.

use std::hint::black_box;
use std::time::Instant;

use svt_arch::ArchId;
use svt_core::{
    machine_with, BypassReflector, HwSvtReflector, SwSvtReflector, SwitchMode, WaitMode,
};
use svt_hv::{GuestOp, Level, Machine, MachineConfig, OpLoop};
use svt_obs::{ExitRow, HostAgg, HostPart, Json, PartRow, RunReport, SpeedupRow};
use svt_sim::{FaultPlan, Placement, SimDuration};
use svt_stats::{filter_outliers, Convergence, Summary};
use svt_workloads::{
    memcached_chaos, memcached_smp_counted_seeded, video_playback, App, ChaosPoint, Fig6Grid,
    IoRow, RunSpec, SmpPoint, TelemetryOpts, TelemetryPoint, DEFAULT_LANE_SEED,
};

use crate::{backend_report, cost_model_json, machine_json, paper_report};

/// vCPU counts of the SMP scaling sweep.
pub const SMP_VCPU_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Offered per-lane load of the serving sweeps, queries/second.
pub const SERVE_RATE_QPS: f64 = 2_000.0;

/// Requests per lane of the full SMP scaling sweep.
pub const SMP_REQUESTS: u64 = 150;

/// vCPUs of every fault-campaign cell.
pub const FAULTS_N_VCPUS: usize = 2;

/// Default fault-plan seed of the chaos campaign.
pub const FAULTS_DEFAULT_SEED: u64 = 0xC4A0_5EED;

/// The engines the chaos campaign compares.
pub const FAULTS_MODES: [SwitchMode; 2] = [SwitchMode::Baseline, SwitchMode::SwSvt];

/// The report's name for an engine's speedup row: `sw_svt`/`hw_svt`
/// followed by `suffix`.
fn speedup_name(label: &str, suffix: &str) -> String {
    match label {
        "SW SVt" => format!("sw_svt{suffix}"),
        "HW SVt" => format!("hw_svt{suffix}"),
        other => other.to_string(),
    }
}

/// One serving point as the report's JSON object.
fn smp_point_json(p: &SmpPoint) -> Json {
    Json::obj([
        ("n_vcpus", Json::Num(p.n_vcpus as f64)),
        ("completed", Json::Num(p.completed as f64)),
        ("throughput_rps", Json::Num(p.throughput)),
        ("avg_ns", Json::Num(p.avg_ns)),
        ("p99_ns", Json::Num(p.p99_ns)),
    ])
}

/// Builds the Fig. 6 run report from a computed grid (see
/// [`svt_workloads::fig6_grid`]) on either backend: the Table 1 parts,
/// the observed exit attribution, the metrics export, a speedup row per
/// bar that beats the baseline L2, and the bars. The paper measured x86
/// only, so other backends' parts carry no `paper_us`. The
/// micro-benchmark is load-free, so the report records
/// [`DEFAULT_LANE_SEED`] as its seed.
pub fn fig6_report(grid: &Fig6Grid) -> RunReport {
    // The probe traps as `cpuid` on x86 and as a virtual-instruction
    // trap on riscv (`ArchId::cpuid_exit`).
    let title = match grid.arch {
        ArchId::X86 => "Execution time of a cpuid instruction (Fig. 6)",
        ArchId::Riscv => "Execution time of a virtual-instruction trap (Fig. 6 on riscv)",
    };
    let mut report = backend_report("fig6", title, grid.arch, DEFAULT_LANE_SEED);
    for row in &grid.table1 {
        report.parts.push(PartRow {
            part: row.part as u32,
            label: row.label.clone(),
            time_us: row.time_us,
            paper_us: (grid.arch == ArchId::X86).then_some(row.paper_us),
        });
    }
    for e in &grid.exits {
        report.exit_reasons.push(ExitRow {
            reason: e.reason.to_string(),
            time_ns: e.time_ns,
            count: e.count,
        });
    }
    report.metrics = Some(grid.metrics.clone());
    for b in &grid.bars {
        if b.speedup > 1.0 {
            report.speedups.push(SpeedupRow {
                name: speedup_name(b.label, ""),
                speedup: b.speedup,
            });
        }
    }
    report.results.push((
        "bars".to_string(),
        Json::Arr(
            grid.bars
                .iter()
                .map(|b| {
                    Json::obj([
                        ("label", Json::from(b.label)),
                        ("time_us", Json::Num(b.time_us)),
                        ("speedup", Json::Num(b.speedup)),
                    ])
                })
                .collect(),
        ),
    ));
    report
}

/// Builds the Fig. 7 run report from the six I/O rows of
/// [`svt_workloads::fig7`]: an SW and an HW speedup row per benchmark,
/// and each row's baseline beside the paper's.
pub fn fig7_report(rows: &[IoRow]) -> RunReport {
    let mut report = paper_report(
        "fig7",
        "Speedup of SVt on I/O subsystems (Fig. 7)",
        DEFAULT_LANE_SEED,
    );
    let mut bench_rows = Vec::new();
    for r in rows {
        report.speedups.push(SpeedupRow {
            name: format!("{}/sw_svt", r.name),
            speedup: r.sw_speedup,
        });
        report.speedups.push(SpeedupRow {
            name: format!("{}/hw_svt", r.name),
            speedup: r.hw_speedup,
        });
        bench_rows.push(Json::obj([
            ("name", Json::from(r.name)),
            ("unit", Json::from(r.unit)),
            ("baseline", Json::Num(r.baseline)),
            ("sw_speedup", Json::Num(r.sw_speedup)),
            ("hw_speedup", Json::Num(r.hw_speedup)),
            ("paper_baseline", Json::Num(r.paper.0)),
            ("paper_sw_speedup", Json::Num(r.paper.1)),
            ("paper_hw_speedup", Json::Num(r.paper.2)),
        ]));
    }
    report
        .results
        .push(("benchmarks".to_string(), Json::Arr(bench_rows)));
    report
}

/// The paper's Fig. 9 baseline TPC-C throughput, transactions/minute.
pub const FIG9_PAPER_TPM: f64 = 6370.0;

/// The paper's Fig. 9 SW-SVt speedup.
pub const FIG9_PAPER_SPEEDUP: f64 = 1.18;

/// Builds the Fig. 9 run report from the baseline and SW-SVt throughputs
/// ([`svt_workloads::tpcc_tpm`]) of a `txns`-transaction run at `seed`.
pub fn fig9_report(baseline: f64, svt: f64, txns: u64, seed: u64) -> RunReport {
    let mut report = paper_report("fig9", "TPC-C throughput (Fig. 9)", seed);
    report.speedups.push(SpeedupRow {
        name: "sw_svt/tpcc_tpm".to_string(),
        speedup: svt / baseline,
    });
    report.results.push((
        "throughput_tpm".to_string(),
        Json::obj([
            ("baseline", Json::Num(baseline)),
            ("sw_svt", Json::Num(svt)),
            ("paper_baseline", Json::Num(FIG9_PAPER_TPM)),
            ("paper_speedup", Json::Num(FIG9_PAPER_SPEEDUP)),
            ("txns", Json::from(txns)),
        ]),
    ));
    report
}

/// One Fig. 10 frame rate: dropped frames under each engine, scaled to
/// the paper's 5-minute playback, beside the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig10Row {
    /// Frames per second.
    pub fps: u32,
    /// Baseline drops over 5 minutes.
    pub baseline_drops: u64,
    /// SW-SVt drops over 5 minutes.
    pub sw_svt_drops: u64,
    /// The paper's (baseline, SVt) drops.
    pub paper: (u64, u64),
}

/// Plays `secs` seconds (a divisor of 300) at each of Fig. 10's frame
/// rates under the baseline and SW SVt.
pub fn fig10_rows(secs: u64) -> Vec<Fig10Row> {
    let scale = 300 / secs;
    [(24u32, 0u64, 0u64), (60, 3, 0), (120, 40, 26)]
        .into_iter()
        .map(|(fps, pb, ps)| Fig10Row {
            fps,
            baseline_drops: video_playback(SwitchMode::Baseline, fps, secs).dropped * scale,
            sw_svt_drops: video_playback(SwitchMode::SwSvt, fps, secs).dropped * scale,
            paper: (pb, ps),
        })
        .collect()
}

/// Builds the Fig. 10 run report from [`fig10_rows`] of a `secs`-second
/// playback.
pub fn fig10_report(rows: &[Fig10Row], secs: u64) -> RunReport {
    let mut report = paper_report(
        "fig10",
        "Video-playback dropped frames (Fig. 10)",
        DEFAULT_LANE_SEED,
    );
    let rows = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("fps", Json::from(r.fps as u64)),
                ("baseline_drops", Json::from(r.baseline_drops)),
                ("sw_svt_drops", Json::from(r.sw_svt_drops)),
                ("paper_baseline_drops", Json::from(r.paper.0)),
                ("paper_svt_drops", Json::from(r.paper.1)),
            ])
        })
        .collect();
    report
        .results
        .push(("frame_rates".to_string(), Json::Arr(rows)));
    report
        .results
        .push(("playback_secs".to_string(), Json::from(secs)));
    report
}

/// Runs the SMP scaling sweep — every [`SwitchMode`] at every vCPU count
/// on the `arch` backend — as one `modes × counts` grid across `jobs`
/// workers, returning one point series per mode in mode order.
pub fn smp_series(
    arch: ArchId,
    vcpu_counts: &[usize],
    rate_qps: f64,
    requests: u64,
    seed: u64,
    jobs: usize,
) -> Vec<(SwitchMode, Vec<SmpPoint>)> {
    let modes = SwitchMode::ALL;
    let points = svt_sim::sweep(modes.len() * vcpu_counts.len(), jobs, |i| {
        let spec = RunSpec {
            app: App::Memcached { rate_qps, requests },
            mode: modes[i / vcpu_counts.len()],
            arch,
            vcpus: vcpu_counts[i % vcpu_counts.len()],
            lane_seed: seed,
        };
        spec.run(|_| {}, |_| ()).0
    });
    modes
        .iter()
        .zip(points.chunks(vcpu_counts.len()))
        .map(|(&mode, chunk)| (mode, chunk.to_vec()))
        .collect()
}

/// Builds the SMP scaling run report from a merged series (the first
/// series must be the baseline, as [`smp_series`] returns it). The
/// embedded cost model is the backend's, and non-x86 reports record the
/// backend under `arch` (the x86 report's bytes are exactly the
/// pre-arch-layer ones).
pub fn smp_report(arch: ArchId, series: &[(SwitchMode, Vec<SmpPoint>)], seed: u64) -> RunReport {
    let mut report = backend_report(
        "smp",
        "Sharded memcached scaling over 1-8 vCPUs",
        arch,
        seed,
    );
    let baseline = &series[0].1;
    for (mode, points) in series {
        if *mode != SwitchMode::Baseline {
            // Mean throughput gain over the baseline across the sweep.
            let gain: f64 = points
                .iter()
                .zip(baseline)
                .map(|(p, b)| p.throughput / b.throughput)
                .sum::<f64>()
                / points.len() as f64;
            report.speedups.push(SpeedupRow {
                name: speedup_name(mode.label(), "_smp"),
                speedup: gain,
            });
        }
        report.results.push((
            format!("scaling_{}", mode.label().replace(' ', "_").to_lowercase()),
            Json::Arr(points.iter().map(smp_point_json).collect()),
        ));
    }
    report
}

/// One cell of the fault-injection campaign.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// The reflection engine under test.
    pub mode: SwitchMode,
    /// Per-site fault probability of this cell's plan.
    pub rate: f64,
    /// Everything the chaos run reported.
    pub point: ChaosPoint,
}

/// Runs the `modes × rates` fault campaign across `jobs` workers. Cells
/// merge in grid order (mode-major). Every cell must finish with silent
/// causal watchdogs: injected faults may cost time, never correctness.
///
/// # Panics
///
/// Panics if any cell reports a watchdog violation.
pub fn faults_campaign(
    modes: &[SwitchMode],
    rates: &[f64],
    requests: u64,
    seed: u64,
    jobs: usize,
) -> Vec<FaultCell> {
    let cells = svt_sim::sweep(modes.len() * rates.len(), jobs, |i| {
        let rate = rates[i % rates.len()];
        let plan = if rate == 0.0 {
            FaultPlan::none()
        } else {
            FaultPlan::uniform(seed, rate)
        };
        memcached_chaos(
            modes[i / rates.len()],
            FAULTS_N_VCPUS,
            SERVE_RATE_QPS,
            requests,
            plan,
        )
    });
    let cells: Vec<FaultCell> = cells
        .into_iter()
        .enumerate()
        .map(|(i, point)| FaultCell {
            mode: modes[i / rates.len()],
            rate: rates[i % rates.len()],
            point,
        })
        .collect();
    for c in &cells {
        assert_eq!(
            c.point.watchdog_violations(),
            0,
            "{} at rate {}: watchdogs fired: {:?}",
            c.mode.label(),
            c.rate,
            c.point.watchdogs
        );
    }
    cells
}

/// Builds the chaos-campaign run report from merged cells.
pub fn faults_report(cells: &[FaultCell], seed: u64) -> RunReport {
    let mut report = paper_report(
        "faults",
        "Fault-rate sweep: injection, recovery and degradation per engine",
        seed,
    );
    report.results.push((
        "campaign".to_string(),
        Json::Arr(
            cells
                .iter()
                .map(|c| fault_cell_json(c.mode, c.rate, &c.point))
                .collect(),
        ),
    ));
    report
}

// ----------------------------------------------------------------------
// The hostprof campaign (the `hostprof` binary, the perfgate, the gate
// tests and the shape-stability test).
// ----------------------------------------------------------------------

/// vCPUs of every hostprof-campaign cell (the paper's mid-size machine).
pub const HOSTPROF_N_VCPUS: usize = 4;

/// One host-profiled campaign: the aggregate plus the independently
/// measured sweep wall-clock it must explain.
#[derive(Debug, Clone)]
pub struct HostprofRun {
    /// The merged per-subsystem aggregate (deterministic counters +
    /// host-noisy wall columns).
    pub agg: HostAgg,
    /// Wall-clock of the whole sweep, measured *outside* the profiler —
    /// the denominator of the attribution-coverage check.
    pub wall_ns: u64,
    /// Grid cells swept (one per engine).
    pub cells: usize,
    /// Workers the sweep actually used.
    pub jobs: usize,
    /// Requests the grid completed (the workload-level denominator;
    /// `agg.events` counts the profiled traps themselves).
    pub completed: u64,
}

impl HostprofRun {
    /// Fraction of the sweep's worker time (wall-clock × workers used)
    /// the attribution rows explain: each worker's machine runs are timed
    /// on that worker's thread, so their sum is bounded by the workers'
    /// combined time, not by one wall-clock. The un-attributed remainder
    /// is sweep-engine overhead (thread spawn, work claiming, result
    /// merging) and idle workers outside any machine run.
    pub fn coverage(&self) -> f64 {
        let worker_ns = self.wall_ns * self.jobs as u64;
        self.agg.total_wall_ns() as f64 / worker_ns.max(1) as f64
    }
}

/// Runs the smp workload grid (all three engines) with the host-cost
/// profiler armed and returns the drained aggregate. The deterministic
/// fields of the result (allocs, bytes, events, shapes) are identical at
/// any `jobs` and for a fixed `arch`+`seed`; the wall columns are host
/// noise. Allocation columns are all-zero unless the process runs on
/// [`svt_obs::CountingAlloc`], which `svt-bench` installs.
///
/// # Panics
///
/// Panics if no profiled machine run finished (the profiler was disarmed
/// concurrently, or the workload ran no machine).
pub fn hostprof_campaign(
    arch: ArchId,
    requests: u64,
    seed: u64,
    jobs: Option<usize>,
) -> HostprofRun {
    let cells = SwitchMode::ALL.len();
    let jobs = svt_sim::resolve_jobs_for(jobs, cells);
    // Warm one cell unprofiled: lazy init and cold caches would otherwise
    // land in the first cell's attribution.
    black_box(memcached_smp_counted_seeded(
        SwitchMode::ALL[0],
        HOSTPROF_N_VCPUS,
        SERVE_RATE_QPS,
        requests.min(20),
        seed,
    ));
    svt_obs::hostprof::set_enabled(true);
    let _ = svt_obs::hostprof::take_global();
    let start = Instant::now();
    let completed: u64 = svt_sim::sweep(cells, jobs, |i| {
        let spec = RunSpec {
            app: App::Memcached {
                rate_qps: SERVE_RATE_QPS,
                requests,
            },
            mode: SwitchMode::ALL[i],
            arch,
            vcpus: HOSTPROF_N_VCPUS,
            lane_seed: seed,
        };
        black_box(spec.run(|_| {}, |_| ()).0.completed)
    })
    .iter()
    .sum();
    let wall_ns = start.elapsed().as_nanos() as u64;
    svt_obs::hostprof::set_enabled(false);
    let agg = svt_obs::hostprof::take_global()
        .expect("hostprof campaign finished without a profiled machine run");
    HostprofRun {
        agg,
        wall_ns,
        cells,
        jobs,
        completed,
    }
}

/// Relative half-width of the 2σ confidence interval at which
/// [`hostprof_converged`] stops repeating: the paper's §6 rule.
const HOSTPROF_REL_TOL: f64 = 0.01;

/// A hostprof campaign repeated until its wall clock converges.
#[derive(Debug, Clone)]
pub struct HostprofConverged {
    /// The mean campaign: the deterministic counters every repetition
    /// reproduced, with the wall columns (per part, per shape and the
    /// sweep's) averaged over the repetitions, so the parts still sum to
    /// the total.
    pub mean: HostprofRun,
    /// Each repetition's per-part wall nanoseconds.
    pub walls: Vec<[u64; HostPart::COUNT]>,
    /// Whether the 2σ CI of the 4σ-filtered total came within 1% of its
    /// mean before the repetition cap.
    pub converged: bool,
}

impl HostprofConverged {
    /// Relative half-width of the 2σ confidence interval of the mean wall
    /// time of `part`, or of the total when `None`.
    pub fn rel_ci2(&self, part: Option<HostPart>) -> f64 {
        let samples: Vec<f64> = self
            .walls
            .iter()
            .map(|w| part.map_or(w.iter().sum(), |p| w[p as usize]) as f64)
            .collect();
        Summary::of(&samples).rel_ci2()
    }

    /// One line naming the repetitions, the total's CI and the verdict.
    pub fn describe(&self) -> String {
        format!(
            "mean of {} campaigns, total wall ±{:.1}% (2σ), 1% rule {}",
            self.walls.len(),
            100.0 * self.rel_ci2(None),
            if self.converged { "met" } else { "not met" }
        )
    }
}

/// Repeats [`hostprof_campaign`] until its total wall time converges
/// under [`Convergence`] at 1% (at least 5 and at most 50 campaigns) and
/// averages the wall columns. The `hostprof` bin and the perfgate both
/// measure through here, so a baseline and a fresh run are measured the
/// same way.
///
/// # Panics
///
/// Panics if a repetition's deterministic counters differ from the
/// first's: that is a determinism bug, not noise.
pub fn hostprof_converged(
    arch: ArchId,
    requests: u64,
    seed: u64,
    jobs: Option<usize>,
) -> HostprofConverged {
    let mut conv = Convergence::new(HOSTPROF_REL_TOL, 5, 50);
    let mut runs: Vec<HostprofRun> = Vec::new();
    while !conv.converged() {
        let run = hostprof_campaign(arch, requests, seed, jobs);
        if let Some(first) = runs.first() {
            assert_eq!(
                first.agg.deterministic_json().pretty(),
                run.agg.deterministic_json().pretty(),
                "hostprof repetition {} drifted from the first",
                runs.len()
            );
        }
        conv.push(run.agg.total_wall_ns() as f64);
        runs.push(run);
    }
    let mean_of =
        |f: &dyn Fn(&HostprofRun) -> u64| runs.iter().map(f).sum::<u64>() / runs.len() as u64;
    let mut mean = runs[0].clone();
    mean.wall_ns = mean_of(&|r| r.wall_ns);
    mean.agg.wall_ns = std::array::from_fn(|i| mean_of(&|r| r.agg.wall_ns[i]));
    for (key, shape) in &mut mean.agg.shapes {
        shape.host_ns = mean_of(&|r| r.agg.shapes[key].host_ns);
    }
    let filtered = filter_outliers(conv.samples(), 4.0);
    HostprofConverged {
        mean,
        walls: runs.iter().map(|r| r.agg.wall_ns).collect(),
        converged: Summary::of(&filtered).rel_ci2() <= HOSTPROF_REL_TOL,
    }
}

/// Builds the hostprof run report: identity, campaign geometry, the
/// coverage check, the convergence record (repetitions, whether the 1%
/// rule was met, and the relative 2σ CI of the total and of every part
/// with wall time), and the full `hostprof` section of the mean campaign.
pub fn hostprof_report(c: &HostprofConverged, arch: ArchId, seed: u64) -> RunReport {
    let run = &c.mean;
    let mut report = RunReport::new(
        "hostprof",
        "Host-cost self-profile: per-subsystem wall/alloc attribution + trap shapes",
    );
    report.machine = Some(machine_json());
    report.cost_model = Some(cost_model_json(&arch.cost_model()));
    let mut cis = vec![("total".to_string(), Json::from(c.rel_ci2(None)))];
    for p in HostPart::ALL {
        if run.agg.wall_ns[p as usize] > 0 {
            cis.push((p.label().to_string(), Json::from(c.rel_ci2(Some(p)))));
        }
    }
    report.results.extend(
        [
            ("arch", Json::from(arch.label())),
            ("seed", Json::from(seed)),
            ("cells", Json::from(run.cells)),
            ("jobs", Json::from(run.jobs)),
            ("completed_requests", Json::from(run.completed)),
            ("sweep_wall_ns", Json::from(run.wall_ns)),
            ("coverage", Json::from(run.coverage())),
            ("repetitions", Json::from(c.walls.len())),
            ("converged", Json::from(c.converged)),
            ("wall_rel_ci2", Json::Obj(cis)),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    report.hostprof = Some(run.agg.to_json());
    report
}

// ----------------------------------------------------------------------
// The timeline sweep (the `timeline` binary and its determinism test).
// ----------------------------------------------------------------------

/// vCPUs of every timeline-sweep cell.
pub const TIMELINE_N_VCPUS: usize = 2;

/// Fault rate of the timeline sweep's armed SW-SVt cell (the chaos
/// smoke's committed operating point, which forces `FallenBack`).
pub const TIMELINE_FAULT_RATE: f64 = 0.05;

/// One cell of the timeline sweep.
#[derive(Debug, Clone)]
pub struct TimelineCell {
    /// Stable cell name (`baseline`, `sw_svt`, `hw_svt`, `sw_svt_faulted`).
    pub name: String,
    /// The serving result.
    pub point: SmpPoint,
    /// The telemetry products.
    pub telemetry: TelemetryPoint,
}

/// Runs the timeline sweep: every engine fault-free plus the armed
/// SW-SVt cell, each with the windowed sampler and flight recorder on,
/// fanned across `jobs` workers and merged in grid order.
pub fn timeline_cells(
    requests: u64,
    seed: u64,
    cadence: SimDuration,
    dump_on_exit: bool,
    jobs: usize,
) -> Vec<TimelineCell> {
    let n = SwitchMode::ALL.len() + 1;
    let opts = TelemetryOpts {
        cadence,
        dump_on_exit,
    };
    svt_sim::sweep(n, jobs, |i| {
        let (name, mode, plan) = if i < SwitchMode::ALL.len() {
            let mode = SwitchMode::ALL[i];
            let name = mode.label().replace(' ', "_").to_lowercase();
            (name, mode, FaultPlan::none())
        } else {
            (
                "sw_svt_faulted".to_string(),
                SwitchMode::SwSvt,
                FaultPlan::uniform(seed, TIMELINE_FAULT_RATE),
            )
        };
        let spec = RunSpec {
            app: App::Memcached {
                rate_qps: SERVE_RATE_QPS,
                requests,
            },
            mode,
            arch: ArchId::X86,
            vcpus: TIMELINE_N_VCPUS,
            lane_seed: DEFAULT_LANE_SEED,
        };
        let (point, telemetry) = spec.run(
            |m| {
                m.faults = plan;
                opts.arm(m);
            },
            |m| TelemetryPoint::harvest(m, &opts),
        );
        TimelineCell {
            name,
            point,
            telemetry,
        }
    })
}

/// Builds the timeline run report from merged cells: per-cell summary
/// rows plus the full columnar timelines (and flight dumps, when a cell
/// tripped) under `results`.
pub fn timeline_report(cells: &[TimelineCell], seed: u64, cadence: SimDuration) -> RunReport {
    let mut report = paper_report(
        "timeline",
        "Windowed time-series telemetry across engines (plus an armed SW-SVt cell)",
        seed,
    );
    report
        .results
        .push(("cadence_ps".to_string(), Json::from(cadence.as_ps())));
    report.results.push((
        "cells".to_string(),
        Json::Arr(
            cells
                .iter()
                .map(|c| {
                    let p = &c.telemetry;
                    Json::obj([
                        ("name", Json::Str(c.name.clone())),
                        ("traps", Json::from(p.traps)),
                        ("windows", Json::from(p.windows as u64)),
                        ("throughput_rps", Json::Num(c.point.throughput)),
                        ("total_injected", Json::from(p.total_injected)),
                        ("fallback_traps", Json::from(p.fallback_traps)),
                        ("flight_trips", Json::from(p.flight_trips)),
                        ("watchdog_violations", Json::from(p.watchdog_violations)),
                    ])
                })
                .collect(),
        ),
    ));
    for c in cells {
        report
            .results
            .push((format!("{}/timeline", c.name), c.telemetry.timeline.clone()));
        if let Some(dump) = &c.telemetry.flight {
            report
                .results
                .push((format!("{}/flight", c.name), dump.clone()));
        }
    }
    report
}

/// The merged timeline export the `--timeline` flag writes: one columnar
/// timeline per cell, keyed by cell name.
pub fn timelines_json(cells: &[TimelineCell]) -> Json {
    Json::Obj(
        cells
            .iter()
            .map(|c| (c.name.clone(), c.telemetry.timeline.clone()))
            .collect(),
    )
}

/// One campaign cell as the report's JSON object.
fn fault_cell_json(mode: SwitchMode, rate: f64, p: &ChaosPoint) -> Json {
    let pairs = |kv: &[(&'static str, u64)]| {
        Json::obj(
            kv.iter()
                .map(|&(k, n)| (k, Json::from(n)))
                .collect::<Vec<_>>(),
        )
    };
    Json::obj([
        ("engine", Json::Str(mode.label().to_string())),
        ("fault_rate", Json::Num(rate)),
        ("seed", Json::from(p.seed)),
        ("throughput_rps", Json::Num(p.point.throughput)),
        ("avg_ns", Json::Num(p.point.avg_ns)),
        ("p99_ns", Json::Num(p.point.p99_ns)),
        ("completed", Json::from(p.point.completed)),
        ("injected", pairs(&p.injected)),
        ("total_injected", Json::from(p.total_injected)),
        ("retransmits", Json::from(p.retransmits)),
        ("timeouts", Json::from(p.timeouts)),
        ("duplicates_dropped", Json::from(p.duplicates_dropped)),
        ("protocol_errors", Json::from(p.protocol_errors)),
        ("ipi_retransmits", Json::from(p.ipi_retransmits)),
        (
            "ipi_duplicates_absorbed",
            Json::from(p.ipi_duplicates_absorbed),
        ),
        ("transitions", pairs(&p.transitions)),
        ("ring_traps", Json::from(p.ring_traps)),
        ("fallback_traps", Json::from(p.fallback_traps)),
        ("resume_fallbacks", Json::from(p.resume_fallbacks)),
        ("fallback_rate", Json::Num(p.fallback_rate())),
        ("watchdogs", pairs(&p.watchdogs)),
    ])
}

// ----------------------------------------------------------------------
// The design-choice ablations (the `ablations` binary and its golden).
// ----------------------------------------------------------------------

/// One ablation: its report key, its printed heading and one
/// `(label, µs per nested cpuid)` row per variant.
#[derive(Debug, Clone)]
pub struct AblationSection {
    /// Key of the section under the report's `results`.
    pub name: &'static str,
    /// Heading the binary prints above the rows.
    pub title: &'static str,
    /// One row per variant, in print order.
    pub rows: Vec<(String, f64)>,
}

/// Mean busy time of one nested cpuid over `iters` traps, after a
/// one-trap warm-up.
fn ablation_cpuid_us(mut m: Machine, iters: u64) -> f64 {
    let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
    m.run(&mut warm).expect("cpuid runs");
    let base = m.clock.snapshot();
    let mut prog = OpLoop::new(GuestOp::Cpuid, iters, 0, SimDuration::ZERO);
    m.run(&mut prog).expect("cpuid runs");
    m.clock.since_snapshot(&base).busy_time().as_us() / iters as f64
}

/// Runs the five design-choice ablations DESIGN.md calls out — VMCS
/// shadowing, the SW-SVt wait mechanism and thread placement, HW-SVt
/// context multiplexing and the design-point spectrum up to level
/// bypass — at 100 nested cpuids per variant.
pub fn ablations() -> Vec<AblationSection> {
    let l2 = || MachineConfig::at_level(Level::L2);
    let cpuid = |m| ablation_cpuid_us(m, 100);
    let sw =
        |wait, p| Machine::with_reflector(l2(), Box::new(SwSvtReflector::with_channel(wait, p)));
    let shadowing = [("shadowing on", true), ("shadowing off", false)]
        .into_iter()
        .map(|(label, on)| {
            let mut cfg = l2();
            cfg.shadowing = on;
            (label.to_string(), cpuid(Machine::baseline(cfg)))
        })
        .collect();
    let wait = [
        ("mwait", WaitMode::Mwait),
        ("polling", WaitMode::Poll),
        ("mutex", WaitMode::Mutex),
    ]
    .into_iter()
    .map(|(label, w)| (label.to_string(), cpuid(sw(w, Placement::SmtSibling))))
    .collect();
    let placement = Placement::ALL_REMOTE
        .into_iter()
        .map(|p| (p.to_string(), cpuid(sw(WaitMode::Mwait, p))))
        .collect();
    let contexts = [3u8, 2]
        .into_iter()
        .map(|n| {
            let m = Machine::with_reflector(l2(), Box::new(HwSvtReflector::with_contexts(n)));
            (format!("{n} contexts"), cpuid(m))
        })
        .collect();
    let mut spectrum: Vec<(String, f64)> = SwitchMode::ALL
        .into_iter()
        .map(|mode| (mode.label().to_string(), cpuid(machine_with(mode, l2()))))
        .collect();
    let bypass = Machine::with_reflector(l2(), Box::new(BypassReflector::new()));
    spectrum.push(("Bypass".to_string(), cpuid(bypass)));
    vec![
        AblationSection {
            name: "vmcs_shadowing",
            title: "[1] VMCS shadowing (baseline nested cpuid)",
            rows: shadowing,
        },
        AblationSection {
            name: "channel_wait",
            title: "[2] SW SVt channel wait mechanism (SMT placement)",
            rows: wait,
        },
        AblationSection {
            name: "placement",
            title: "[3] SW SVt thread placement (mwait channel)",
            rows: placement,
        },
        AblationSection {
            name: "context_multiplexing",
            title: "[4] SVt context multiplexing (3.1: fewer contexts than levels)",
            rows: contexts,
        },
        AblationSection {
            name: "design_spectrum",
            title: "[5] Design-point spectrum (single-level HW .. full nested HW)",
            rows: spectrum,
        },
    ]
}

/// Builds the ablations run report: one `{label, cpuid_us}` array per
/// section under `results`.
pub fn ablations_report(sections: &[AblationSection]) -> RunReport {
    let mut report = paper_report(
        "ablations",
        "Design-choice ablations (DESIGN.md)",
        DEFAULT_LANE_SEED,
    );
    for s in sections {
        let rows = s
            .rows
            .iter()
            .map(|(label, us)| {
                Json::obj([
                    ("label", Json::from(label.as_str())),
                    ("cpuid_us", Json::Num(*us)),
                ])
            })
            .collect();
        report.results.push((s.name.to_string(), Json::Arr(rows)));
    }
    report
}
