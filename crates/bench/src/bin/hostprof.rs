//! Host-cost self-profile: where the *simulator's own* time goes.
//!
//! The paper's argument is about shaving nanoseconds off the simulated
//! trap path; this bin measures the host nanoseconds the simulator spends
//! *producing* each simulated trap, attributed per subsystem (event pump,
//! reflection emulation, ring protocol, telemetry, metrics, fault rolls),
//! alongside deterministic allocation counters and trap-shape analytics.
//!
//! Three outputs size the optimization roadmap:
//!
//! * per-subsystem host ns/event — which subsystem a parallel scheduler
//!   or a hot-path rewrite should attack first;
//! * allocs/event and bytes/event — byte-identical at any `--jobs`, so
//!   the perfgate holds them to exact bands;
//! * the trap-shape census — "X% of traps replay Y distinct shapes" is
//!   the memoization headroom a shape-keyed trap cache could capture.
//!
//! The wall columns are the mean of campaigns repeated until the 2σ CI of
//! the total is within 1% of its mean (the paper's §6 rule, capped at 50
//! campaigns); the report's `results` record the repetitions, whether the
//! rule was met, and the CI of the total and of every part.
//!
//! Every bench bin runs on the counting allocator (`svt-bench` installs
//! it), so the allocation columns are live. The profiler is armed
//! unconditionally here; `--hostprof` on the other bins opts them in.

use svt_bench::{
    hostprof_converged, hostprof_report, print_header, print_hostprof, rule, BenchCli, CliSpec,
    Flag, HOSTPROF_N_VCPUS,
};
use svt_workloads::DEFAULT_LANE_SEED;

const CLI: CliSpec = CliSpec {
    bin: "hostprof",
    args: &[("requests", "memcached requests per vCPU lane (default 120)")],
    flags: &[Flag::Json, Flag::Seed, Flag::Jobs, Flag::Arch],
};

fn main() {
    let cli = BenchCli::parse(&CLI);
    let arch = cli.arch();
    let seed = cli.seed.unwrap_or(DEFAULT_LANE_SEED);
    let requests = cli.positional_in(0, 120, 1..=u64::MAX);
    print_header("Host-cost self-profile - per-subsystem wall/alloc attribution + trap shapes");
    println!(
        "workload: sharded memcached, {HOSTPROF_N_VCPUS} vCPUs x 3 engines, {requests} requests/lane, arch {arch}",
    );
    let converged = hostprof_converged(arch, requests, seed, cli.jobs);
    let run = &converged.mean;
    print_hostprof(&run.agg);
    println!();
    rule();
    let coverage = run.coverage();
    println!(
        "attribution coverage: {:.1}% of the sweep's {:.2} ms wall-clock x {} worker(s) \
         (remainder = sweep-engine overhead and idle workers outside machine runs)",
        100.0 * coverage,
        run.wall_ns as f64 / 1e6,
        run.jobs
    );
    println!(
        "campaign: {} cells, {} workers, {} requests completed, {} traps profiled",
        run.cells, run.jobs, run.completed, run.agg.events
    );
    println!("wall columns: {}", converged.describe());
    cli.emit_report(hostprof_report(&converged, arch, seed));
}
