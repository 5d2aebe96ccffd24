//! Regenerates Fig. 6: cpuid latency on L0/L1/L2/SW SVt/HW SVt.
//!
//! The five bars plus the Table 1 and exit-attribution cells run as one
//! sweep grid (`--jobs` workers), merged in grid order: the printed
//! table and the `--json` report are byte-identical at any worker count.
//!
//! `--arch riscv` runs the same grid on the RISC-V H-extension backend
//! (the cpuid analogue is a virtual-instruction trap, costed from the
//! CVA6 hypervisor-extension work); the paper's figure has no riscv
//! column, so the table prints without the paper reference.

use svt_arch::ArchId;
use svt_bench::{fig6_report, print_header, rule, BenchCli, CliSpec, Flag};

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
    let arch = cli.arch();
    let on_x86 = arch == ArchId::X86;
    print_header(if on_x86 {
        "Fig. 6 - execution time of a cpuid instruction"
    } else {
        "Fig. 6 (riscv) - trap-and-emulate latency on the H-extension backend"
    });
    let grid = svt_workloads::fig6_grid(arch, 200, cli.jobs(), ckpt);
    println!(
        "{:<10}{:>12}{:>14}{:>16}",
        "System", "Time [us]", "Speedup", "Paper speedup"
    );
    rule();
    for b in &grid.bars {
        let paper = match b.label {
            "SW SVt" if on_x86 => "1.23x",
            "HW SVt" if on_x86 => "1.94x",
            _ => "-",
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
