//! Causal critical-path profiler: where does a request's latency go?
//!
//! Runs the SMP serving workloads (sharded memcached, TPC-C) with the
//! causal event graph enabled, extracts every completed request's
//! critical path, and prints the top latency buckets of SW SVt
//! side by side with the baseline. The "exit/resume" rollup — the
//! `l2_exit`/`l2_resume` hardware switches plus the baseline's
//! `l1_entry`/`l1_exit` world switches — is the paper's Table 1 cost
//! seen from the request's point of view: SW SVt replaces the world
//! switches with ring commands, so its exit/resume share must come out
//! measurably smaller.
//!
//! ```text
//! svt-bench profile [workload] [vcpus] [--smoke] [--json r.json] [--hostprof] [--trace t.json]
//! ```
//!
//! `workload` is `memcached`, `tpcc` or `all` (default); `--smoke`
//! shrinks the run for CI. `--trace` writes a Chrome trace of the SW-SVt
//! run including the causal flow arrows.

use std::collections::BTreeMap;

use svt_arch::ArchId;
use svt_bench::{
    cost_model_json, hostprof_begin, hostprof_finish, machine_json, print_header, rule, BenchCli,
};
use svt_core::SwitchMode;
use svt_obs::{fold_paths, CriticalPathRow, Json, ObsLevel, RunReport};
use svt_sim::CostModel;
use svt_workloads::{App, CausalProfile, RunSpec, SmpPoint, DEFAULT_LANE_SEED};

/// Phases billed to the exit/resume rollup: the L2<->L0 hardware switch
/// halves plus the baseline's L0<->L1 world switches.
const EXIT_RESUME_PHASES: [&str; 4] = ["l2_exit", "l2_resume", "l1_entry", "l1_exit"];

/// Buckets shown per configuration in the side-by-side table.
const TOP_K: usize = 8;

struct ConfigRun {
    config: &'static str,
    point: SmpPoint,
    profile: CausalProfile,
}

fn phase_totals(prof: &CausalProfile) -> BTreeMap<(ObsLevel, &'static str), u64> {
    let mut t = BTreeMap::new();
    for ((_vcpu, level, phase), ps) in fold_paths(&prof.paths) {
        *t.entry((level, phase)).or_default() += ps;
    }
    t
}

fn exit_resume_ps(prof: &CausalProfile) -> u64 {
    phase_totals(prof)
        .iter()
        .filter(|((_, phase), _)| EXIT_RESUME_PHASES.contains(phase))
        .map(|(_, &ps)| ps)
        .sum()
}

fn total_path_ps(prof: &CausalProfile) -> u64 {
    prof.paths.iter().map(|p| p.total_ps).sum()
}

fn print_side_by_side(name: &str, base: &ConfigRun, sw: &ConfigRun) {
    let bt = phase_totals(&base.profile);
    let st = phase_totals(&sw.profile);
    let btot = total_path_ps(&base.profile).max(1);
    let stot = total_path_ps(&sw.profile).max(1);
    println!(
        "{name}: top critical-path buckets ({} baseline / {} sw-svt requests)",
        base.profile.paths.len(),
        sw.profile.paths.len()
    );
    println!(
        "{:<28} {:>14} {:>7}   {:>14} {:>7}",
        "level;phase", "baseline ns", "%", "sw-svt ns", "%"
    );
    rule();
    let mut rows: Vec<(&(ObsLevel, &'static str), u64)> = bt.iter().map(|(k, &v)| (k, v)).collect();
    rows.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
    for (key, bps) in rows.into_iter().take(TOP_K) {
        let sps = st.get(key).copied().unwrap_or(0);
        println!(
            "{:<28} {:>14.1} {:>6.1}%   {:>14.1} {:>6.1}%",
            format!("{};{}", key.0.name(), key.1),
            bps as f64 / 1000.0,
            100.0 * bps as f64 / btot as f64,
            sps as f64 / 1000.0,
            100.0 * sps as f64 / stot as f64,
        );
    }
    rule();
    let bex = exit_resume_ps(&base.profile);
    let sex = exit_resume_ps(&sw.profile);
    println!(
        "exit/resume on the critical path: baseline {:.1} ns ({:.1}%), sw-svt {:.1} ns ({:.1}%)",
        bex as f64 / 1000.0,
        100.0 * bex as f64 / btot as f64,
        sex as f64 / 1000.0,
        100.0 * sex as f64 / stot as f64,
    );
    for r in [base, sw] {
        let viol: u64 = r.profile.violations.iter().map(|&(_, n)| n).sum();
        println!(
            "{:<9} events {:>7} (dropped {}), watchdog violations {}",
            r.config, r.profile.events_recorded, r.profile.events_dropped, viol
        );
    }
    rule();
}

fn report_rows(report: &mut RunReport, workload: &str, run: &ConfigRun) {
    for ((vcpu, level, phase), ps) in fold_paths(&run.profile.paths) {
        report.critical_path.push(CriticalPathRow {
            config: format!("{workload}/{}", run.config),
            vcpu,
            level: level.name().to_string(),
            phase: phase.to_string(),
            ps,
        });
    }
    let prefix = format!("{workload}/{}", run.config);
    report.results.push((
        format!("{prefix}/folded_stacks"),
        Json::from(run.profile.folded.clone()),
    ));
    report.results.push((
        format!("{prefix}/exit_resume_ps"),
        Json::from(exit_resume_ps(&run.profile)),
    ));
    report.results.push((
        format!("{prefix}/total_path_ps"),
        Json::from(total_path_ps(&run.profile)),
    ));
    report.results.push((
        format!("{prefix}/requests"),
        Json::from(run.profile.paths.len()),
    ));
    report.results.push((
        format!("{prefix}/watchdog_violations"),
        Json::from(run.profile.violations.iter().map(|&(_, n)| n).sum::<u64>()),
    ));
    report.results.push((
        format!("{prefix}/throughput"),
        Json::Num(run.point.throughput),
    ));
}

fn main() {
    let cli = BenchCli::parse();
    cli.handle_help("svt-bench profile [memcached|tpcc|all] [vcpus] [--smoke] [--jobs n]");
    hostprof_begin(&cli);
    cli.require_arch_x86("profile");
    let smoke = cli.flag("--smoke");
    let workload = cli
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("all")
        .to_string();
    let n_vcpus = cli.positional_or(1, 2usize);
    let seed = cli.seed_or(DEFAULT_LANE_SEED);
    let (mc_requests, tpcc_tx) = if smoke { (60, 6) } else { (400, 40) };

    print_header("Causal critical-path profile - SW SVt vs baseline");
    let mut report = RunReport::new(
        "profile",
        "Cross-vCPU causal critical-path profile, SW SVt vs baseline",
    );
    report.machine = Some(machine_json());
    report.cost_model = Some(cost_model_json(&CostModel::default()));
    report.results.push(("seed".to_string(), Json::from(seed)));

    // The profiled configurations form a `workload × engine` grid of
    // independent machines; fan it across the sweep workers and merge in
    // grid order (baseline before SW SVt within each workload).
    let mut grid: Vec<&'static str> = Vec::new();
    if workload == "all" || workload == "memcached" {
        grid.push("memcached");
    }
    if workload == "all" || workload == "tpcc" {
        grid.push("tpcc");
    }
    assert!(
        !grid.is_empty(),
        "unknown workload {workload:?} (expected memcached, tpcc or all)"
    );
    let cells = svt_sim::sweep(2 * grid.len(), cli.jobs(), |i| {
        let mode = if i % 2 == 0 {
            SwitchMode::Baseline
        } else {
            SwitchMode::SwSvt
        };
        let app = match grid[i / 2] {
            "memcached" => App::Memcached {
                rate_qps: 2_000.0,
                requests: mc_requests,
            },
            _ => App::Tpcc {
                transactions: tpcc_tx,
            },
        };
        let spec = RunSpec {
            app,
            mode,
            arch: ArchId::X86,
            vcpus: n_vcpus,
            lane_seed: seed,
        };
        spec.run(CausalProfile::arm, CausalProfile::harvest)
    });
    let mut runs: Vec<(&str, ConfigRun, ConfigRun)> = Vec::new();
    for (name, pair) in grid.iter().zip(cells.chunks(2)) {
        let [(bp, bprof), (sp, sprof)] = pair else {
            unreachable!("two engines per workload")
        };
        runs.push((
            name,
            ConfigRun {
                config: "baseline",
                point: bp.clone(),
                profile: bprof.clone(),
            },
            ConfigRun {
                config: "sw_svt",
                point: sp.clone(),
                profile: sprof.clone(),
            },
        ));
    }

    for (name, base, sw) in &runs {
        print_side_by_side(name, base, sw);
        assert!(
            !base.profile.folded.is_empty() && !sw.profile.folded.is_empty(),
            "{name}: empty folded stacks — no request completed a critical path"
        );
    }

    for (name, base, sw) in &runs {
        report_rows(&mut report, name, base);
        report_rows(&mut report, name, sw);
    }

    // The Chrome trace shows the last SW-SVt run, causal arrows included.
    if let Some((_, _, sw)) = runs.last() {
        cli.emit_trace(&sw.profile.spans, &sw.profile.flows);
    }
    hostprof_finish(&cli, &mut report);
    cli.emit_report(&report);
}
