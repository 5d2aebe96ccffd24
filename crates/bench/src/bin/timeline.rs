//! timeline: windowed time-series telemetry across engines.
//!
//! Runs the memcached serving workload once per engine (Baseline,
//! SW SVt, HW SVt) fault-free plus once under the armed SW-SVt fault
//! plan, with the deterministic windowed sampler and the flight
//! recorder enabled in every cell. Each cell snapshots every counter
//! delta, per-part clock attribution, ring occupancy, blocked state and
//! degradation health at a fixed simulated-time cadence (default 10 µs,
//! the positional argument in µs), and the merged export is
//! byte-identical at any `--jobs` value — cells merge in grid order.
//!
//! * `--timeline <path>` writes the columnar timelines (one per cell,
//!   keyed by cell name);
//! * `--dump <path>` writes the armed cell's flight-recorder crash dump
//!   (the forced fallback trips it);
//! * `--dump-on-exit` arms an unconditional end-of-run dump in every
//!   cell;
//! * `--json <path>` writes the full run report embedding both.

use svt_bench::{
    print_header, rule, timeline_cells, timeline_report, timelines_json, BenchCli, CliSpec, Flag,
};
use svt_sim::SimDuration;
use svt_workloads::DEFAULT_LANE_SEED;

const CLI: CliSpec = CliSpec {
    bin: "timeline",
    args: &[("cadence_us", "window length, simulated us (default 10)")],
    flags: &[
        Flag::Json,
        Flag::Hostprof,
        Flag::Smoke,
        Flag::Seed,
        Flag::Jobs,
        Flag::Timeline,
        Flag::Dump,
        Flag::DumpOnExit,
    ],
};

fn main() {
    let cli = BenchCli::parse(&CLI);
    let smoke = cli.flag(Flag::Smoke);
    let seed = cli.seed.unwrap_or(DEFAULT_LANE_SEED);
    let cadence = SimDuration::from_us(cli.positional_in(0, 10, 1..=u64::MAX));
    let requests: u64 = if smoke { 60 } else { 150 };
    let cells_n = svt_core::SwitchMode::ALL.len() + 1;
    let jobs = svt_sim::resolve_jobs_for(cli.jobs, cells_n);

    print_header("timeline - windowed time-series telemetry per engine");
    println!(
        "cadence {:.1} us, {requests} requests/cell, {cells_n} cells on {jobs} worker(s)",
        cadence.as_ns() / 1e3
    );
    rule();

    let cells = timeline_cells(requests, seed, cadence, cli.flag(Flag::DumpOnExit), jobs);

    println!(
        "{:<16}{:>8}{:>10}{:>12}{:>10}{:>8}{:>11}",
        "cell", "traps", "windows", "rps", "injected", "trips", "watchdogs"
    );
    rule();
    for c in &cells {
        let p = &c.telemetry;
        println!(
            "{:<16}{:>8}{:>10}{:>12.0}{:>10}{:>8}{:>11}",
            c.name,
            p.traps,
            p.windows,
            c.point.throughput,
            p.total_injected,
            p.flight_trips,
            p.watchdog_violations
        );
    }
    rule();

    if let Some(path) = &cli.timeline {
        cli.emit_json("timeline export", path, &timelines_json(&cells));
    }
    if let Some(path) = &cli.dump {
        let dump = cells
            .iter()
            .rev()
            .find_map(|c| c.telemetry.flight.clone())
            .unwrap_or(svt_obs::Json::Null);
        cli.emit_json("flight dump", path, &dump);
    }
    cli.emit_report(timeline_report(&cells, seed, cadence));
}
