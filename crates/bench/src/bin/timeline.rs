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
    hostprof_begin, hostprof_finish, print_header, rule, timeline_cells, timeline_report,
    timelines_json, BenchCli,
};
use svt_sim::SimDuration;
use svt_workloads::DEFAULT_LANE_SEED;

fn main() {
    let cli = BenchCli::parse();
    cli.handle_help(
        "svt-bench timeline [cadence_us] [--smoke] [--json r.json] [--hostprof] \
         [--timeline t.json] [--dump d.json] [--dump-on-exit] [--seed n] [--jobs n]",
    );
    hostprof_begin(&cli);
    cli.require_arch_x86("timeline");
    let smoke = cli.flag("--smoke");
    let seed = cli.seed_or(DEFAULT_LANE_SEED);
    let cadence = SimDuration::from_us(cli.positional_or(0, 10u64));
    let requests: u64 = if smoke { 60 } else { 150 };
    let cells_n = svt_core::SwitchMode::ALL.len() + 1;
    let jobs = cli.jobs_for(cells_n);

    print_header("timeline - windowed time-series telemetry per engine");
    println!(
        "cadence {:.1} us, {requests} requests/cell, {cells_n} cells on {jobs} worker(s)",
        cadence.as_ns() / 1e3
    );
    rule();

    let cells = timeline_cells(requests, seed, cadence, cli.dump_on_exit(), jobs);

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
    let mut report = timeline_report(&cells, seed, cadence);
    hostprof_finish(&cli, &mut report);
    cli.emit_report(&report);
}
