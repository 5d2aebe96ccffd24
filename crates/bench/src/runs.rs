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
use svt_core::SwitchMode;
use svt_hv::Level;
use svt_obs::{ExitRow, HostAgg, Json, PartRow, RunReport, SpeedupRow};
use svt_sim::checkpoint::{self, Checkpoint};
use svt_sim::{CostModel, FaultPlan, SimDuration};
use svt_workloads::{
    cpuid_counted, fig6_bars, memcached_chaos, memcached_smp_counted_seeded, App, ChaosPoint,
    Fig6Bar, Fig6Grid, RunSpec, SmpPoint, TelemetryOpts, TelemetryPoint, DEFAULT_LANE_SEED,
};

use crate::{cost_model_json, machine_json};

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

/// Adds Fig. 6-style bars to a report: a speedup row per bar that beats
/// the baseline L2, and the `bars` result.
fn push_bars(report: &mut RunReport, bars: &[Fig6Bar]) {
    for b in bars {
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
            bars.iter()
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
/// [`svt_workloads::fig6_grid`]). `seed` is recorded for
/// reproducibility; the micro-benchmark itself is load-free.
pub fn fig6_report(grid: &Fig6Grid, seed: u64) -> RunReport {
    let mut report = RunReport::new("fig6", "Execution time of a cpuid instruction (Fig. 6)");
    report.machine = Some(machine_json());
    report.cost_model = Some(cost_model_json(&CostModel::default()));
    report.results.push(("seed".to_string(), Json::from(seed)));
    for row in &grid.table1 {
        report.parts.push(PartRow {
            part: row.part as u32,
            label: row.label.clone(),
            time_us: row.time_us,
            paper_us: Some(row.paper_us),
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
    push_bars(&mut report, &grid.bars);
    report
}

/// vCPUs of the riscv report's memcached cells (CVA6 is a small in-order
/// core; a modest guest keeps the smoke quick).
pub const RISCV_SMP_VCPUS: usize = 2;

/// The bars and memcached points of the riscv backend report, computed
/// as one parallel sweep each and merged in grid order — byte-identical
/// output at any `jobs`.
#[derive(Debug, Clone, PartialEq)]
pub struct RiscvGrid {
    /// The five Fig. 6-style bars on the H-extension backend.
    pub bars: Vec<Fig6Bar>,
    /// One memcached point per engine, in [`SwitchMode::ALL`] order.
    pub memcached: Vec<(SwitchMode, SmpPoint)>,
}

/// Runs the riscv backend's fig6-style grid: the cpuid-analogue
/// (virtual-instruction trap) micro-benchmark bars plus memcached
/// through every engine, all on [`ArchId::Riscv`] with the
/// CVA6-calibrated cost model. With a checkpoint, the bar cells journal
/// under the `bars` scope and the memcached cells under `memcached`, and
/// `(ckpt, true)` resumes from the journal.
pub fn riscv_grid(
    iters: u64,
    requests: u64,
    seed: u64,
    jobs: usize,
    ckpt: Option<(&Checkpoint, bool)>,
) -> RiscvGrid {
    let bars = fig6_bars(ArchId::Riscv, iters, jobs, ckpt);
    let points = checkpoint::sweep(ckpt, "memcached", SwitchMode::ALL.len(), jobs, |i| {
        let spec = RunSpec {
            app: App::Memcached {
                rate_qps: SERVE_RATE_QPS,
                requests,
            },
            mode: SwitchMode::ALL[i],
            arch: ArchId::Riscv,
            vcpus: RISCV_SMP_VCPUS,
            lane_seed: seed,
        };
        spec.run(|_| {}, |_| ()).0
    });
    let memcached = SwitchMode::ALL.into_iter().zip(points).collect();
    RiscvGrid { bars, memcached }
}

/// Builds the riscv backend run report: Fig. 6-style speedup bars (the
/// paper's figure has no riscv column, so no `paper_us` reference) plus
/// the per-engine memcached throughputs, with the CVA6 cost model
/// embedded where the x86 reports embed the calibrated VT-x model.
pub fn riscv_report(grid: &RiscvGrid, seed: u64) -> RunReport {
    let mut report = RunReport::new(
        "fig6-riscv",
        "Trap-and-emulate latency and memcached on the RISC-V H-extension backend",
    );
    report.machine = Some(machine_json());
    report.cost_model = Some(cost_model_json(&CostModel::cva6()));
    report
        .results
        .push(("arch".to_string(), Json::from(ArchId::Riscv.label())));
    report.results.push(("seed".to_string(), Json::from(seed)));
    push_bars(&mut report, &grid.bars);
    let baseline = grid.memcached[0].1.throughput;
    for (mode, p) in &grid.memcached {
        if *mode != SwitchMode::Baseline {
            report.speedups.push(SpeedupRow {
                name: speedup_name(mode.label(), "_memcached"),
                speedup: p.throughput / baseline,
            });
        }
        report.results.push((
            format!(
                "memcached_{}",
                mode.label().replace(' ', "_").to_lowercase()
            ),
            smp_point_json(p),
        ));
    }
    report
}

/// Runs the SMP scaling sweep — every [`SwitchMode`] at every vCPU count
/// on the `arch` backend — as one `modes × counts` grid across `jobs`
/// workers, returning one point series per mode in mode order. With a
/// checkpoint, each cell journals under the `smp` scope as it completes,
/// and `(ckpt, true)` resumes from the journal, recomputing only the
/// missing or corrupted cells.
pub fn smp_series(
    arch: ArchId,
    vcpu_counts: &[usize],
    rate_qps: f64,
    requests: u64,
    seed: u64,
    jobs: usize,
    ckpt: Option<(&Checkpoint, bool)>,
) -> Vec<(SwitchMode, Vec<SmpPoint>)> {
    let modes = SwitchMode::ALL;
    let points = checkpoint::sweep(ckpt, "smp", modes.len() * vcpu_counts.len(), jobs, |i| {
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
    let mut report = RunReport::new("smp", "Sharded memcached scaling over 1-8 vCPUs");
    report.machine = Some(machine_json());
    report.cost_model = Some(cost_model_json(&arch.cost_model()));
    if arch != ArchId::X86 {
        report
            .results
            .push(("arch".to_string(), Json::from(arch.label())));
    }
    report.results.push(("seed".to_string(), Json::from(seed)));
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
/// With a checkpoint, each cell journals under the `faults` scope as it
/// completes, and `(ckpt, true)` resumes from the journal. Watchdog
/// verdicts are part of the journaled payload, so replayed cells
/// re-assert the zero-violation contract exactly as fresh ones do.
///
/// # Panics
///
/// Panics if any cell (fresh or replayed) reports a watchdog violation.
pub fn faults_campaign(
    modes: &[SwitchMode],
    rates: &[f64],
    requests: u64,
    seed: u64,
    jobs: usize,
    ckpt: Option<(&Checkpoint, bool)>,
) -> Vec<FaultCell> {
    let cells = checkpoint::sweep(ckpt, "faults", modes.len() * rates.len(), jobs, |i| {
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
    let mut report = RunReport::new(
        "faults",
        "Fault-rate sweep: injection, recovery and degradation per engine",
    );
    report.machine = Some(machine_json());
    report.cost_model = Some(cost_model_json(&CostModel::default()));
    report.results.push(("seed".to_string(), Json::from(seed)));
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
// The selfperf measurement grids (shared by the selfperf binary and the
// perfgate regression gate, which re-runs them fresh).
// ----------------------------------------------------------------------

/// The Fig. 6 cells of the selfperf workload, as in the figure's sweep.
pub const SELFPERF_FIG6_GRID: [(Level, SwitchMode); 5] = [
    (Level::L0, SwitchMode::Baseline),
    (Level::L1, SwitchMode::Baseline),
    (Level::L2, SwitchMode::Baseline),
    (Level::L2, SwitchMode::SwSvt),
    (Level::L2, SwitchMode::HwSvt),
];

/// vCPUs of the selfperf SMP workload (the paper's mid-size machine).
pub const SELFPERF_SMP_VCPUS: usize = 4;

/// Fault rates of the selfperf chaos workload cells.
pub const SELFPERF_FAULT_RATES: [f64; 2] = [0.0, 0.05];

/// One measured selfperf workload: the grid run at `--jobs 1` and at the
/// per-workload clamped worker count, wall-clock timed.
#[derive(Debug, Clone, Default)]
pub struct SelfperfRow {
    /// Workload name (`fig6`, `smp`, `faults`).
    pub name: &'static str,
    /// Grid cells the workload sweeps.
    pub cells: usize,
    /// Workers the parallel pass actually used ([`svt_sim::resolve_jobs_for`]
    /// clamps the request to the cell count).
    pub jobs: usize,
    /// Simulated traps the grid served (identical at both worker counts).
    pub traps: u64,
    /// Wall-clock of the `--jobs 1` pass, nanoseconds.
    pub wall_ns_j1: f64,
    /// Wall-clock of the parallel pass, nanoseconds.
    pub wall_ns_jn: f64,
}

impl SelfperfRow {
    /// Host events/second at the given pass's wall-clock.
    pub fn events_per_sec(&self, wall_ns: f64) -> f64 {
        self.traps as f64 * 1e9 / wall_ns
    }

    /// Host nanoseconds per simulated trap at the given pass's wall-clock.
    pub fn ns_per_event(&self, wall_ns: f64) -> f64 {
        wall_ns / self.traps as f64
    }

    /// Parallel speedup of the jN pass over the j1 pass.
    pub fn speedup(&self) -> f64 {
        self.wall_ns_j1 / self.wall_ns_jn
    }

    /// Whether [`SelfperfRow::speedup`] measures anything: comparing a
    /// 1-worker pass against an N-worker pass is pure noise when the
    /// parallel pass also ran one worker (single-core host, or a
    /// one-cell grid). Consumers must not read a ~0.98x "slowdown" on
    /// such hosts as a regression.
    pub fn speedup_meaningful(&self) -> bool {
        self.jobs > 1 && svt_sim::host_parallelism() > 1
    }
}

// Wall-clock columns journal too: a resumed selfperf replays the measured
// times of the completed workloads rather than re-measuring them.
svt_sim::snap_fields! { SelfperfRow { name, cells, jobs, traps, wall_ns_j1, wall_ns_jn } }

/// Runs one workload grid at `--jobs 1` and at the `jobs` request
/// clamped to the grid, timing each pass. The per-cell trap counts must
/// merge identically at both worker counts — a drift means the sweep
/// engine broke determinism.
///
/// # Panics
///
/// Panics if the merged trap counts differ between the passes or the
/// workload serves no traps.
fn selfperf_measure<F>(name: &'static str, cells: usize, jobs: Option<usize>, f: F) -> SelfperfRow
where
    F: Fn(usize) -> u64 + Sync,
{
    let jobs_n = svt_sim::resolve_jobs_for(jobs, cells);
    // Warm one cell outside the timed region (lazy init, allocator,
    // cold caches).
    black_box(f(0));
    let start = Instant::now();
    let traps_j1: u64 = svt_sim::sweep(cells, 1, &f).iter().sum();
    let wall_ns_j1 = start.elapsed().as_nanos() as f64;
    let start = Instant::now();
    let traps_jn: u64 = svt_sim::sweep(cells, jobs_n, &f).iter().sum();
    let wall_ns_jn = start.elapsed().as_nanos() as f64;
    assert_eq!(
        traps_j1, traps_jn,
        "{name}: merged trap count drifted across worker counts"
    );
    assert!(traps_j1 > 0, "{name}: workload served no traps");
    SelfperfRow {
        name,
        cells,
        jobs: jobs_n,
        traps: traps_j1,
        wall_ns_j1,
        wall_ns_jn,
    }
}

/// Runs the three selfperf workload grids (fig6, smp, faults) and
/// returns the measured rows. `jobs` is the `--jobs` request; each
/// workload clamps it to its own cell count. With a checkpoint, each
/// measured workload row journals under the `selfperf` scope as it
/// completes, and `(ckpt, true)` replays completed rows (including their
/// wall-clock columns) instead of re-measuring them.
pub fn selfperf_rows(
    smoke: bool,
    seed: u64,
    jobs: Option<usize>,
    ckpt: Option<(&Checkpoint, bool)>,
) -> Vec<SelfperfRow> {
    let fig6_iters: u64 = if smoke { 50 } else { 200 };
    let smp_requests: u64 = if smoke { 60 } else { 150 };
    let faults_requests: u64 = if smoke { 60 } else { 100 };
    let faults_cells = FAULTS_MODES.len() * SELFPERF_FAULT_RATES.len();
    // The journaled unit is a whole measured workload, measured one at a
    // time: checkpointing *inside* the timed sweeps would poison the
    // wall-clock columns they exist to measure.
    checkpoint::sweep(ckpt, "selfperf", 3, 1, |w| match w {
        0 => selfperf_measure("fig6", SELFPERF_FIG6_GRID.len(), jobs, |i| {
            let (level, mode) = SELFPERF_FIG6_GRID[i];
            cpuid_counted(level, mode, fig6_iters).1
        }),
        1 => selfperf_measure("smp", SwitchMode::ALL.len(), jobs, |i| {
            memcached_smp_counted_seeded(
                SwitchMode::ALL[i],
                SELFPERF_SMP_VCPUS,
                SERVE_RATE_QPS,
                smp_requests,
                seed,
            )
            .1
        }),
        _ => selfperf_measure("faults", faults_cells, jobs, |i| {
            let rate = SELFPERF_FAULT_RATES[i % SELFPERF_FAULT_RATES.len()];
            let plan = if rate == 0.0 {
                FaultPlan::none()
            } else {
                FaultPlan::uniform(FAULTS_DEFAULT_SEED, rate)
            };
            memcached_chaos(
                FAULTS_MODES[i / SELFPERF_FAULT_RATES.len()],
                FAULTS_N_VCPUS,
                SERVE_RATE_QPS,
                faults_requests,
                plan,
            )
            .traps
        }),
    })
}

/// Builds the selfperf run report from measured rows. `jobs_requested`
/// is the resolved `--jobs` value before per-workload clamping; each
/// workload row records the workers it actually used.
pub fn selfperf_report(rows: &[SelfperfRow], seed: u64, jobs_requested: usize) -> RunReport {
    let mut report = RunReport::new(
        "selfperf",
        "Wall-clock self-benchmark: host cost of regenerating the simulation",
    );
    report.results.push(("seed".to_string(), Json::from(seed)));
    report.results.push((
        "host_parallelism".to_string(),
        Json::from(svt_sim::host_parallelism() as u64),
    ));
    report.results.push((
        "jobs_parallel".to_string(),
        Json::from(jobs_requested as u64),
    ));
    report.results.push((
        "workloads".to_string(),
        Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("name", Json::from(r.name)),
                        ("cells", Json::from(r.cells as u64)),
                        ("jobs", Json::from(r.jobs as u64)),
                        ("sim_traps", Json::from(r.traps)),
                        ("wall_ns_jobs1", Json::Num(r.wall_ns_j1)),
                        ("wall_ns_jobsn", Json::Num(r.wall_ns_jn)),
                        (
                            "events_per_sec_jobs1",
                            Json::Num(r.events_per_sec(r.wall_ns_j1)),
                        ),
                        (
                            "events_per_sec_jobsn",
                            Json::Num(r.events_per_sec(r.wall_ns_jn)),
                        ),
                        (
                            "ns_per_event_jobs1",
                            Json::Num(r.ns_per_event(r.wall_ns_j1)),
                        ),
                        (
                            "ns_per_event_jobsn",
                            Json::Num(r.ns_per_event(r.wall_ns_jn)),
                        ),
                        ("speedup", Json::Num(r.speedup())),
                        ("speedup_meaningful", Json::from(r.speedup_meaningful())),
                    ])
                })
                .collect(),
        ),
    ));
    report
}

// ----------------------------------------------------------------------
// The hostprof campaign (the `hostprof` binary, the perfgate hostprof
// stage, and the shape-stability test).
// ----------------------------------------------------------------------

/// vCPUs of every hostprof-campaign cell (the selfperf smp shape).
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
    /// Fraction of the sweep's wall-clock the attribution rows explain.
    /// The un-attributed remainder is sweep-engine overhead (thread
    /// spawn, work claiming, result merging) outside any machine run.
    pub fn coverage(&self) -> f64 {
        self.agg.total_wall_ns() as f64 / self.wall_ns.max(1) as f64
    }
}

/// Runs the smp workload grid (all three engines) with the host-cost
/// profiler armed and returns the drained aggregate. The deterministic
/// fields of the result (allocs, bytes, events, shapes) are identical at
/// any `jobs` and for a fixed `arch`+`seed`; the wall columns are host
/// noise. Allocation columns are all-zero unless the calling binary
/// installs [`svt_obs::CountingAlloc`].
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

/// Builds the hostprof run report: identity, campaign geometry, the
/// coverage check, and the full `hostprof` section.
pub fn hostprof_report(run: &HostprofRun, arch: ArchId, seed: u64) -> RunReport {
    let mut report = RunReport::new(
        "hostprof",
        "Host-cost self-profile: per-subsystem wall/alloc attribution + trap shapes",
    );
    report.machine = Some(machine_json());
    report.cost_model = Some(cost_model_json(&arch.cost_model()));
    report
        .results
        .push(("arch".to_string(), Json::from(arch.label())));
    report.results.push(("seed".to_string(), Json::from(seed)));
    report
        .results
        .push(("cells".to_string(), Json::from(run.cells as u64)));
    report
        .results
        .push(("jobs".to_string(), Json::from(run.jobs as u64)));
    report
        .results
        .push(("completed_requests".to_string(), Json::from(run.completed)));
    report
        .results
        .push(("sweep_wall_ns".to_string(), Json::from(run.wall_ns)));
    report
        .results
        .push(("coverage".to_string(), Json::from(run.coverage())));
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
        ..TelemetryOpts::default()
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
    let mut report = RunReport::new(
        "timeline",
        "Windowed time-series telemetry across engines (plus an armed SW-SVt cell)",
    );
    report.machine = Some(machine_json());
    report.cost_model = Some(cost_model_json(&CostModel::default()));
    report.results.push(("seed".to_string(), Json::from(seed)));
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
