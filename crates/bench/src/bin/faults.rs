//! Chaos campaign: serving throughput under deterministic fault injection.
//!
//! Sweeps the fault rate across engines (baseline vs. SW SVt) on the
//! sharded memcached workload. Every cell reports per-kind injection
//! counts, the protocol's recovery work (retransmits, timeouts,
//! duplicate drops), the degradation state machine's transitions and
//! fallback share, and the causal watchdog verdicts — which must all be
//! zero: injected faults may cost time, never correctness.
//!
//! The `engine × rate` grid fans across `--jobs` sweep workers and
//! merges in grid order, so output is byte-identical at any worker
//! count. `--seed <n>` picks the fault plan's seed (default
//! `0xC4A05EED`); `--smoke` runs the two-point CI variant.
//!
//! Telemetry flags re-run the *worst cell* — SW SVt at the campaign's
//! highest fault rate — with the windowed sampler and flight recorder
//! armed: `--timeline <path>` writes that cell's columnar timeline,
//! `--dump <path>` writes its flight-recorder crash dump (forced
//! fallbacks trip it; `--dump-on-exit` guarantees a dump even when the
//! cell never degrades).

use svt_arch::ArchId;
use svt_bench::{
    faults_campaign, faults_report, guard, hostprof_begin, hostprof_finish, print_header, rule,
    telemetry_cell, BenchCli, FAULTS_DEFAULT_SEED, FAULTS_MODES, FAULTS_N_VCPUS, SERVE_RATE_QPS,
};
use svt_core::SwitchMode;
use svt_sim::FaultPlan;
use svt_workloads::{App, RunSpec, DEFAULT_LANE_SEED};

fn main() {
    let cli = BenchCli::parse();
    cli.handle_help(
        "svt-bench faults [--smoke] [--json r.json] [--hostprof] [--timeline t.json] \
         [--dump d.json] [--dump-on-exit] [--seed n] [--jobs n] [--checkpoint-dir d] [--resume]",
    );
    guard::install(&cli, "faults");
    hostprof_begin(&cli);
    cli.require_arch_x86("faults");
    let smoke = cli.flag("--smoke");
    let seed = cli.seed_or(FAULTS_DEFAULT_SEED);
    let requests: u64 = if smoke { 60 } else { 150 };
    let rates: &[f64] = if smoke {
        &[0.0, 0.05]
    } else {
        &[0.0, 0.01, 0.05, 0.2]
    };

    print_header("Chaos campaign - memcached under deterministic fault injection");
    println!("fault plan seed: {seed:#x}");
    println!(
        "{:<10}{:>7}{:>12}{:>10}{:>9}{:>9}{:>10}{:>11}",
        "System", "rate", "Tput [rps]", "injected", "retries", "timeout", "fallback", "watchdogs"
    );
    rule();

    let ckpt = cli.checkpoint("faults", seed);
    let cells = faults_campaign(
        &FAULTS_MODES,
        rates,
        requests,
        seed,
        cli.jobs(),
        ckpt.as_ref().map(|c| (c, cli.resume())),
    );
    for chunk in cells.chunks(rates.len()) {
        for c in chunk {
            let p = &c.point;
            println!(
                "{:<10}{:>7.2}{:>12.0}{:>10}{:>9}{:>9}{:>9.1}%{:>11}",
                c.mode.label(),
                c.rate,
                p.point.throughput,
                p.total_injected,
                p.retransmits,
                p.timeouts,
                p.fallback_rate() * 100.0,
                p.watchdog_violations()
            );
        }
        rule();
    }
    let rate = rates.last().copied().unwrap_or(0.0);
    let plan = if rate > 0.0 {
        FaultPlan::uniform(seed, rate)
    } else {
        FaultPlan::none()
    };
    let spec = RunSpec {
        app: App::Memcached {
            rate_qps: SERVE_RATE_QPS,
            requests,
        },
        mode: SwitchMode::SwSvt,
        arch: ArchId::X86,
        vcpus: FAULTS_N_VCPUS,
        lane_seed: DEFAULT_LANE_SEED,
    };
    telemetry_cell(&cli, &format!("SW SVt @ rate {rate:.2}"), spec, plan);
    let mut report = faults_report(&cells, seed);
    hostprof_finish(&cli, &mut report);
    cli.emit_report(&report);
}
