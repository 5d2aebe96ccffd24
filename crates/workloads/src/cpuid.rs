//! Fig. 6 and Table 1 runners: the cpuid micro-benchmark.

use svt_arch::ArchId;
use svt_core::{nested_machine_on, SwitchMode};
use svt_hv::{GuestOp, Level, Machine, MachineConfig, OpLoop};
use svt_obs::{Json, MetricKey, ObsLevel};
use svt_sim::{CostPart, SimDuration};

use crate::smp::traps_served;

/// One bar of Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Bar {
    /// Bar label ("L0", "L1", "L2", "SW SVt", "HW SVt").
    pub label: &'static str,
    /// cpuid latency in microseconds.
    pub time_us: f64,
    /// Speedup vs the baseline L2 bar (1.0 for non-SVt bars).
    pub speedup: f64,
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Part index ⓪–⑤.
    pub part: usize,
    /// Row label.
    pub label: String,
    /// Measured time in microseconds.
    pub time_us: f64,
    /// Share of the total.
    pub percent: f64,
    /// The paper's value in microseconds, measured on x86.
    pub paper_us: f64,
}

fn measure_cpuid(m: &mut Machine, iters: u64) -> svt_sim::ClockSnapshot {
    let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
    m.run(&mut warm).expect("cpuid never blocks");
    let base = m.clock.snapshot();
    let mut prog = OpLoop::new(GuestOp::Cpuid, iters, 0, SimDuration::ZERO);
    m.run(&mut prog).expect("cpuid never blocks");
    m.clock.since_snapshot(&base)
}

/// One cpuid measurement on a fresh machine: µs per instruction and the
/// simulated traps the run served.
fn measure(level: Level, mode: SwitchMode, arch: ArchId, iters: u64) -> (f64, u64) {
    let mut m = if level == Level::L2 {
        nested_machine_on(mode, arch)
    } else {
        Machine::baseline(MachineConfig::at_level_on(level, arch))
    };
    let d = measure_cpuid(&mut m, iters);
    (d.busy_time().as_us() / iters as f64, traps_served(&m))
}

/// cpuid latency in µs at a given level/mode on x86, additionally
/// returning the number of simulated traps the run served (L2 vm-exits
/// plus L0 direct exits) — the wall-clock self-benchmark's unit of work.
pub fn cpuid_counted(level: Level, mode: SwitchMode, iters: u64) -> (f64, u64) {
    measure(level, mode, ArchId::X86, iters)
}

/// cpuid latency in µs at a given level/mode on an explicit ISA backend.
/// On RISC-V the probe instruction traps as a virtual instruction rather
/// than a `cpuid` exit, and the backend's own cost model applies.
pub fn cpuid_us_on(level: Level, mode: SwitchMode, arch: ArchId, iters: u64) -> f64 {
    measure(level, mode, arch, iters).0
}

/// The five Fig. 6 cells in bar order. Each cell is an independent
/// machine configuration, so the figure sweeps cleanly.
const FIG6_CELLS: [(&str, Level, SwitchMode); 5] = [
    ("L0", Level::L0, SwitchMode::Baseline),
    ("L1", Level::L1, SwitchMode::Baseline),
    ("L2", Level::L2, SwitchMode::Baseline),
    ("SW SVt", Level::L2, SwitchMode::SwSvt),
    ("HW SVt", Level::L2, SwitchMode::HwSvt),
];

fn bars_from_times(times: &[f64]) -> Vec<Fig6Bar> {
    let l2 = times[2];
    FIG6_CELLS
        .iter()
        .zip(times)
        .map(|(&(label, _, mode), &t)| Fig6Bar {
            label,
            time_us: t,
            speedup: if mode == SwitchMode::Baseline {
                1.0
            } else {
                l2 / t
            },
        })
        .collect()
}

/// Everything the Fig. 6 report carries, computed as one sweep grid on
/// one ISA backend: the five bars, the Table 1 breakdown, and the
/// observed per-exit attribution with the metrics export.
#[derive(Debug, Clone)]
pub struct Fig6Grid {
    /// The ISA backend every cell ran on.
    pub arch: ArchId,
    /// The five Fig. 6 bars, in bar order.
    pub bars: Vec<Fig6Bar>,
    /// The Table 1 six-part breakdown of one nested cpuid.
    pub table1: Vec<Table1Row>,
    /// Per-exit-reason attribution of the observed baseline run.
    pub exits: Vec<ExitAttribution>,
    /// The observed run's metrics export (counters, gauges, histograms).
    pub metrics: Json,
}

enum GridCell {
    Bar(f64),
    Table(Vec<Table1Row>),
    Observed(Box<(Vec<ExitAttribution>, Json)>),
}

/// Runs the full Fig. 6 grid on the `arch` backend — five bar cells
/// plus the Table 1 and observed-attribution cells — across `jobs` sweep
/// workers. All seven cells build independent machines, and the merge is
/// in grid order, so the grid is byte-identical for every `jobs` value.
pub fn fig6_grid(arch: ArchId, iters: u64, jobs: usize) -> Fig6Grid {
    let n_bars = FIG6_CELLS.len();
    let run = |i: usize| {
        if i < n_bars {
            let (_, level, mode) = FIG6_CELLS[i];
            GridCell::Bar(cpuid_us_on(level, mode, arch, iters))
        } else if i == n_bars {
            GridCell::Table(table1(arch, iters))
        } else {
            GridCell::Observed(Box::new(cpuid_observed(arch, iters)))
        }
    };
    let mut cells = svt_sim::sweep(n_bars + 2, jobs, run);
    let Some(GridCell::Observed(observed)) = cells.pop() else {
        unreachable!("last grid cell is the observed run")
    };
    let Some(GridCell::Table(table1)) = cells.pop() else {
        unreachable!("sixth grid cell is the Table 1 breakdown")
    };
    let times: Vec<f64> = cells
        .into_iter()
        .map(|c| match c {
            GridCell::Bar(t) => t,
            _ => unreachable!("first five grid cells are bars"),
        })
        .collect();
    let (exits, metrics) = *observed;
    Fig6Grid {
        arch,
        bars: bars_from_times(&times),
        table1,
        exits,
        metrics,
    }
}

/// Per-exit-reason attribution of a nested cpuid run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExitAttribution {
    /// Exit-reason tag, e.g. `"CPUID"`.
    pub reason: &'static str,
    /// Total time attributed to this reason, nanoseconds.
    pub time_ns: f64,
    /// Number of reflected L2 exits with this reason.
    pub count: u64,
}

/// Runs the nested cpuid micro-benchmark on the baseline engine under
/// full observability and returns the per-exit-reason attribution plus
/// the machine's metrics export (counters, gauges and latency histograms
/// as JSON).
fn cpuid_observed(arch: ArchId, iters: u64) -> (Vec<ExitAttribution>, Json) {
    let mut m = nested_machine_on(SwitchMode::Baseline, arch);
    let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
    m.run(&mut warm).expect("cpuid never blocks");
    m.obs.metrics.clear();
    let base = m.clock.snapshot();
    let mut prog = OpLoop::new(GuestOp::Cpuid, iters, 0, SimDuration::ZERO);
    m.run(&mut prog).expect("cpuid never blocks");
    let d = m.clock.since_snapshot(&base);
    let reflector = m.reflector_name();
    let exits = d
        .tags_by_time()
        .into_iter()
        .map(|(tag, t)| ExitAttribution {
            reason: tag,
            time_ns: t.as_ns(),
            count: m.obs.metrics.counter(
                MetricKey::new("vm_exit")
                    .level(ObsLevel::L2)
                    .exit(tag)
                    .reflector(reflector),
            ),
        })
        .collect();
    (exits, m.obs.metrics.to_json())
}

/// Reproduces Table 1 on the `arch` backend: the six-part breakdown of
/// one nested cpuid (on RISC-V, of one virtual-instruction trap). Every
/// row carries the paper's x86 value; the paper has no other column.
pub fn table1(arch: ArchId, iters: u64) -> Vec<Table1Row> {
    let mut m = nested_machine_on(SwitchMode::Baseline, arch);
    let d = measure_cpuid(&mut m, iters);
    let paper = [0.05, 0.81, 1.29, 4.89, 1.40, 1.96];
    let total: f64 = CostPart::TABLE1
        .iter()
        .map(|p| d.part_time(*p).as_us())
        .sum();
    CostPart::TABLE1
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let t = d.part_time(*p).as_us() / iters as f64;
            Table1Row {
                part: i,
                label: p.to_string(),
                time_us: t,
                percent: 100.0 * d.part_time(*p).as_us() / total,
                paper_us: paper[i],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_grid_bars_are_ordered() {
        let bars = fig6_grid(ArchId::X86, 20, 1).bars;
        assert_eq!(bars.len(), 5);
        assert_eq!(bars[0].label, "L0");
        // L0 < L1 < HW SVt < SW SVt < L2.
        assert!(bars[0].time_us < bars[1].time_us);
        assert!(bars[1].time_us < bars[4].time_us);
        assert!(bars[4].time_us < bars[3].time_us);
        assert!(bars[3].time_us < bars[2].time_us);
        // Speedups within the DESIGN.md bands.
        assert!(
            (1.15..=1.35).contains(&bars[3].speedup),
            "{}",
            bars[3].speedup
        );
        assert!(
            (1.8..=2.1).contains(&bars[4].speedup),
            "{}",
            bars[4].speedup
        );
    }

    #[test]
    fn fig6_grid_matches_sequential_runs_at_any_worker_count() {
        for arch in ArchId::ALL {
            let grid = fig6_grid(arch, 20, 4);
            assert_eq!(grid.arch, arch);
            let times: Vec<f64> = FIG6_CELLS
                .iter()
                .map(|&(_, level, mode)| cpuid_us_on(level, mode, arch, 20))
                .collect();
            assert_eq!(grid.bars, bars_from_times(&times), "{arch}");
            assert_eq!(grid.table1, table1(arch, 20), "{arch}");
            let (exits, metrics) = cpuid_observed(arch, 20);
            assert_eq!(grid.exits, exits, "{arch}");
            assert_eq!(grid.metrics.pretty(), metrics.pretty(), "{arch}");
            assert_eq!(fig6_grid(arch, 20, 3).bars, grid.bars, "{arch}");
        }
    }

    #[test]
    fn riscv_svt_speedups_exceed_one() {
        // The paper's claim, restated on the H-extension backend: trap
        // elision comes from scheduling, not VT-x specifics. Without
        // shadowing hardware the baseline pays a trap per vs-CSR access,
        // so both SVt engines must clear 1.0.
        let bars = fig6_grid(ArchId::Riscv, 20, 2).bars;
        assert_eq!(bars.len(), 5);
        assert!(bars[0].time_us < bars[2].time_us, "L0 beats nested L2");
        assert!(bars[3].speedup > 1.0, "SW SVt {}", bars[3].speedup);
        assert!(bars[4].speedup > 1.0, "HW SVt {}", bars[4].speedup);
    }

    #[test]
    fn table1_matches_paper_within_five_percent() {
        let rows = table1(ArchId::X86, 50);
        assert_eq!(rows.len(), 6);
        let total: f64 = rows.iter().map(|r| r.time_us).sum();
        assert!((total - 10.4).abs() / 10.4 < 0.02, "total {total}");
        for r in &rows {
            assert!(
                (r.time_us - r.paper_us).abs() / r.paper_us < 0.05,
                "{}: {} vs paper {}",
                r.label,
                r.time_us,
                r.paper_us
            );
        }
        let pct: f64 = rows.iter().map(|r| r.percent).sum();
        assert!((pct - 100.0).abs() < 1e-6);
    }
}
