//! SMP scaling sweep: sharded memcached throughput over 1..=8 vCPUs.
//!
//! Each vCPU runs on its own physical core with its SVt contexts on the
//! core's SMT sibling, serving its own kv shard from its own virtio lane.
//! The sweep shows that the per-trap savings of SW/HW SVt compound
//! across vCPUs: aggregate throughput stays a roughly constant factor
//! above the baseline at every machine size.
//!
//! The `mode × vCPUs` grid fans across `--jobs` sweep workers and merges
//! in grid order: output is byte-identical at any worker count.
//!
//! Telemetry flags re-run the largest SW-SVt cell on the `--arch`
//! backend with the windowed sampler and flight recorder armed:
//! `--timeline <path>` writes its columnar timeline, `--dump <path>` with
//! `--dump-on-exit` writes an end-of-run flight dump (a healthy sweep
//! never trips the recorder on its own, so `--dump` alone exits 1).

use svt_arch::ArchId;
use svt_bench::{
    print_header, rule, smp_report, smp_series, telemetry_cell, BenchCli, CliSpec, Flag,
    SERVE_RATE_QPS, SMP_REQUESTS, SMP_VCPU_COUNTS,
};
use svt_core::SwitchMode;
use svt_sim::FaultPlan;
use svt_workloads::{App, RunSpec, DEFAULT_LANE_SEED};

const CLI: CliSpec = CliSpec {
    bin: "smp",
    args: &[],
    flags: &[
        Flag::Json,
        Flag::Hostprof,
        Flag::Seed,
        Flag::Jobs,
        Flag::Arch,
        Flag::Timeline,
        Flag::Dump,
        Flag::DumpOnExit,
    ],
};

fn main() {
    let cli = BenchCli::parse(&CLI);
    let arch = cli.arch();
    let seed = cli.seed.unwrap_or(DEFAULT_LANE_SEED);
    match arch {
        ArchId::X86 => print_header("SMP scaling - sharded memcached, per-vCPU open-loop load"),
        ArchId::Riscv => {
            print_header("SMP scaling (riscv) - sharded memcached on the H-extension backend")
        }
    }
    let series = smp_series(
        arch,
        &SMP_VCPU_COUNTS,
        SERVE_RATE_QPS,
        SMP_REQUESTS,
        seed,
        cli.jobs(),
    );
    println!(
        "{:<10}{:>8}{:>14}{:>14}{:>12}",
        "System", "vCPUs", "Tput [rps]", "Avg [us]", "p99 [us]"
    );
    rule();
    for (mode, points) in &series {
        for p in points {
            println!(
                "{:<10}{:>8}{:>14.0}{:>14.1}{:>12.1}",
                mode.label(),
                p.n_vcpus,
                p.throughput,
                p.avg_ns / 1000.0,
                p.p99_ns / 1000.0
            );
        }
        rule();
    }
    let n_vcpus = *SMP_VCPU_COUNTS.last().unwrap();
    let spec = RunSpec {
        app: App::Memcached {
            rate_qps: SERVE_RATE_QPS,
            requests: SMP_REQUESTS,
        },
        mode: SwitchMode::SwSvt,
        arch,
        vcpus: n_vcpus,
        lane_seed: DEFAULT_LANE_SEED,
    };
    telemetry_cell(
        &cli,
        &format!("SW SVt @ {n_vcpus} vCPUs"),
        spec,
        FaultPlan::none(),
    );
    cli.emit_report(smp_report(arch, &series, seed));
}
