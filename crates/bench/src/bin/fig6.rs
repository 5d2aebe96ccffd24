//! Regenerates Fig. 6: cpuid latency on L0/L1/L2/SW SVt/HW SVt.
//!
//! The five bars plus the Table 1 and exit-attribution cells run as one
//! sweep grid (`--jobs` workers), merged in grid order: the printed
//! table and the `--json` report are byte-identical at any worker count.
//!
//! `--arch riscv` runs the same five-bar comparison on the RISC-V
//! H-extension backend (the cpuid analogue is a virtual-instruction
//! trap, costed from the CVA6 hypervisor-extension work) plus a
//! memcached pass through every engine; the paper's figure has no riscv
//! column, so the table prints without the paper reference.

use svt_arch::ArchId;
use svt_bench::{
    fig6_report, print_header, riscv_grid, riscv_report, rule, BenchCli, CliSpec, Flag,
};
use svt_sim::checkpoint::Checkpoint;

const CLI: CliSpec = CliSpec {
    bin: "fig6",
    args: &[],
    flags: &[
        Flag::Json,
        Flag::Hostprof,
        Flag::Seed,
        Flag::Jobs,
        Flag::Arch,
        Flag::CheckpointDir,
        Flag::Resume,
    ],
};

fn main() {
    let cli = BenchCli::parse(&CLI);
    let seed = cli.seed.unwrap_or(svt_workloads::DEFAULT_LANE_SEED);
    let ckpt = cli.checkpoint(seed);
    let ckpt = ckpt.as_ref().map(|c| (c, cli.flag(Flag::Resume)));
    if cli.arch() == ArchId::Riscv {
        return riscv_main(&cli, seed, ckpt);
    }
    print_header("Fig. 6 - execution time of a cpuid instruction");
    let grid = svt_workloads::fig6_grid(200, cli.jobs(), ckpt);
    println!(
        "{:<10}{:>12}{:>14}{:>16}",
        "System", "Time [us]", "Speedup", "Paper speedup"
    );
    rule();
    for b in &grid.bars {
        let paper = match b.label {
            "SW SVt" => "1.23x".to_string(),
            "HW SVt" => "1.94x".to_string(),
            _ => "-".to_string(),
        };
        let speedup = if b.speedup > 1.0 {
            format!("{:.2}x", b.speedup)
        } else {
            "-".to_string()
        };
        println!(
            "{:<10}{:>12.3}{:>14}{:>16}",
            b.label, b.time_us, speedup, paper
        );
    }

    // The cpuid micro-benchmark is load-free; the seed is recorded so
    // every bench report carries the same reproducibility field.
    cli.emit_report(fig6_report(&grid, seed));
}

/// The `--arch riscv` path: the same five-bar trap-latency comparison on
/// the H-extension backend, plus memcached through every engine.
fn riscv_main(cli: &BenchCli, seed: u64, ckpt: Option<(&Checkpoint, bool)>) {
    print_header("Fig. 6 (riscv) - trap-and-emulate latency on the H-extension backend");
    let grid = riscv_grid(200, 60, seed, cli.jobs(), ckpt);
    println!("{:<10}{:>12}{:>10}", "System", "Time [us]", "Speedup");
    rule();
    for b in &grid.bars {
        let speedup = if b.speedup > 1.0 {
            format!("{:.2}x", b.speedup)
        } else {
            "-".to_string()
        };
        println!("{:<10}{:>12.3}{:>10}", b.label, b.time_us, speedup);
    }
    rule();
    println!(
        "{:<10}{:>18}{:>12}{:>12}",
        "memcached", "Throughput [r/s]", "avg [us]", "p99 [us]"
    );
    rule();
    for (mode, p) in &grid.memcached {
        println!(
            "{:<10}{:>18.1}{:>12.2}{:>12.2}",
            mode.label(),
            p.throughput,
            p.avg_ns / 1_000.0,
            p.p99_ns / 1_000.0
        );
    }
    cli.emit_report(riscv_report(&grid, seed));
}
