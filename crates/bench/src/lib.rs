//! Report helpers shared by the benchmark binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! and prints it in a paper-comparable layout; the functions here keep the
//! output format consistent.

#![warn(missing_docs)]

mod cli;
mod gate;
mod runs;

pub use cli::{BenchCli, CliError, CliSpec, EmitError, Flag};
pub use gate::{
    delta_table, gate_hostprof, gate_passes, hostprof_setup, GateError, WorkloadDelta, WALL_BAND,
};
pub use runs::{
    faults_campaign, faults_report, fig6_report, hostprof_campaign, hostprof_converged,
    hostprof_report, riscv_grid, riscv_report, smp_report, smp_series, timeline_cells,
    timeline_report, timelines_json, FaultCell, HostprofConverged, HostprofRun, RiscvGrid,
    TimelineCell, FAULTS_DEFAULT_SEED, FAULTS_MODES, FAULTS_N_VCPUS, HOSTPROF_N_VCPUS,
    RISCV_SMP_VCPUS, SERVE_RATE_QPS, SMP_REQUESTS, SMP_VCPU_COUNTS, TIMELINE_FAULT_RATE,
    TIMELINE_N_VCPUS,
};
use svt_obs::{HostAgg, HostPart, Json, RunReport};
use svt_sim::{CostModel, FaultPlan, MachineSpec, VmSpec};
use svt_workloads::{RunSpec, TelemetryOpts, TelemetryPoint};

/// Prints the standard header with the simulated platform (Table 4).
pub fn print_header(title: &str) {
    let m = MachineSpec::isca19();
    let v = VmSpec::isca19();
    println!("================================================================");
    println!("{title}");
    println!("----------------------------------------------------------------");
    println!(
        "Simulated platform (Table 4): {}x{} cores, {}-SMT @ {:.1} GHz, {} GiB RAM, {} Gb NIC",
        m.sockets,
        m.cores_per_socket,
        m.smt_per_core,
        m.freq_mhz as f64 / 1000.0,
        m.ram_mib / 1024,
        m.nic_mbps / 1000,
    );
    println!(
        "L1: {} vCPUs, {} GiB | L2: {} vCPUs, {} GiB",
        v.l1_vcpus,
        v.l1_ram_mib / 1024,
        v.l2_vcpus,
        v.l2_ram_mib / 1024
    );
    println!("================================================================");
}

/// Formats a measured-vs-paper pair with the relative deviation.
pub fn vs_paper(measured: f64, paper: f64) -> String {
    let dev = 100.0 * (measured - paper) / paper;
    format!("{measured:>9.2} (paper {paper:>8.2}, {dev:+5.1}%)")
}

/// A thin separator line.
pub fn rule() {
    println!("----------------------------------------------------------------");
}

/// The simulated platform (Table 4) as a JSON object for run reports.
pub fn machine_json() -> Json {
    let m = MachineSpec::isca19();
    let v = VmSpec::isca19();
    Json::obj([
        ("sockets", Json::from(m.sockets as u64)),
        ("cores_per_socket", Json::from(m.cores_per_socket as u64)),
        ("smt_per_core", Json::from(m.smt_per_core as u64)),
        ("freq_mhz", Json::from(m.freq_mhz as u64)),
        ("ram_mib", Json::from(m.ram_mib)),
        ("nic_mbps", Json::from(m.nic_mbps)),
        ("l1_vcpus", Json::from(v.l1_vcpus as u64)),
        ("l1_ram_mib", Json::from(v.l1_ram_mib)),
        ("l2_vcpus", Json::from(v.l2_vcpus as u64)),
        ("l2_ram_mib", Json::from(v.l2_ram_mib)),
    ])
}

/// The calibrated cost model as a JSON object of named fields (all in
/// nanoseconds, except raw counts).
pub fn cost_model_json(cost: &CostModel) -> Json {
    Json::Obj(
        cost.named_fields()
            .into_iter()
            .map(|(name, v)| (name.to_string(), Json::Num(v)))
            .collect(),
    )
}

/// A run report opened as every paper-figure bin opens one: the
/// simulated platform, the default cost model and the seed of the run.
/// Bins whose runs draw no randomness record the default lane seed, so
/// every report carries the same reproducibility field.
pub fn paper_report(name: &str, title: &str, seed: u64) -> RunReport {
    let mut report = RunReport::new(name, title);
    report.machine = Some(machine_json());
    report.cost_model = Some(cost_model_json(&CostModel::default()));
    report.results.push(("seed".to_string(), Json::from(seed)));
    report
}

/// Prints the per-subsystem host-cost table and trap-shape analytics.
pub fn print_hostprof(agg: &HostAgg) {
    let events = agg.events.max(1) as f64;
    let sim_ns = agg.sim_ns.max(1) as f64;
    let total_wall = agg.total_wall_ns();
    println!();
    println!(
        "host-cost self-profile ({} traps over {} machine runs)",
        agg.events, agg.runs
    );
    rule();
    println!(
        "{:<14} {:>12} {:>9} {:>12} {:>12} {:>12}",
        "subsystem", "wall ms", "wall %", "ns/event", "allocs/evt", "bytes/evt"
    );
    for p in HostPart::ALL {
        let i = p as usize;
        if agg.wall_ns[i] == 0 && agg.allocs[i] == 0 {
            continue;
        }
        println!(
            "{:<14} {:>12.2} {:>8.1}% {:>12.0} {:>12.3} {:>12.1}",
            p.label(),
            agg.wall_ns[i] as f64 / 1e6,
            100.0 * agg.wall_ns[i] as f64 / total_wall.max(1) as f64,
            agg.wall_ns[i] as f64 / events,
            agg.allocs[i] as f64 / events,
            agg.bytes[i] as f64 / events,
        );
    }
    rule();
    println!(
        "{:<14} {:>12.2} {:>8.1}% {:>12.0} {:>12.3} {:>12.1}",
        "total",
        total_wall as f64 / 1e6,
        100.0,
        total_wall as f64 / events,
        agg.total_allocs() as f64 / events,
        agg.total_bytes() as f64 / events,
    );
    println!(
        "host ns per simulated ns: {:.2}  (simulated {:.2} ms)",
        total_wall as f64 / sim_ns,
        sim_ns / 1e6
    );
    println!();
    println!(
        "trap shapes: {} distinct over {} traps, repeat ratio {:.4}",
        agg.distinct_shapes(),
        agg.shape_total(),
        agg.repeat_ratio()
    );
    println!(
        "  (memoization headroom: a {}-entry shape-keyed cache could serve {:.1}% of traps)",
        agg.distinct_shapes(),
        100.0 * agg.repeat_ratio()
    );
    println!(
        "{:<18} {:>10} {:>8} {:>14}",
        "top shapes", "count", "share", "mean host ns"
    );
    for (key, s) in agg.top_shapes(8) {
        println!(
            "  {key:016x} {:>10} {:>7.1}% {:>14.0}",
            s.count,
            100.0 * s.count as f64 / agg.shape_total().max(1) as f64,
            s.host_ns as f64 / s.count.max(1) as f64,
        );
    }
}

/// Serves the `--timeline`/`--dump`/`--dump-on-exit` flags of a campaign
/// binary: re-runs one serving cell with `plan` installed and the
/// windowed sampler and flight recorder armed, prints a one-line summary
/// naming the cell `label`, and writes the requested exports. A no-op
/// when none of the flags was given.
pub fn telemetry_cell(cli: &BenchCli, label: &str, spec: RunSpec, plan: FaultPlan) {
    if cli.timeline.is_none() && cli.dump.is_none() && !cli.flag(Flag::DumpOnExit) {
        return;
    }
    let opts = TelemetryOpts {
        dump_on_exit: cli.flag(Flag::DumpOnExit),
        ..TelemetryOpts::default()
    };
    let (_, t) = spec.run(
        |m| {
            m.faults = plan;
            opts.arm(m);
        },
        |m| TelemetryPoint::harvest(m, &opts),
    );
    println!(
        "telemetry cell: {label}: {} windows, {} flight trip(s)",
        t.windows, t.flight_trips
    );
    if let Some(path) = &cli.timeline {
        cli.emit_json("timeline export", path, &t.timeline);
    }
    if let Some(path) = &cli.dump {
        cli.emit_json("flight dump", path, &t.flight.unwrap_or(Json::Null));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vs_paper_formats_deviation() {
        let s = vs_paper(11.0, 10.0);
        assert!(s.contains("+10.0%"), "{s}");
        let s = vs_paper(9.0, 10.0);
        assert!(s.contains("-10.0%"), "{s}");
    }
}
