//! Regenerates Fig. 7: I/O subsystem speedups.

use svt_bench::{fig7_report, print_header, rule, vs_paper, BenchCli, CliSpec, Flag};

const CLI: CliSpec = CliSpec {
    bin: "fig7",
    args: &[("scale", "divide every op count by this (default 1)")],
    flags: &[Flag::Json, Flag::Hostprof],
};

fn main() {
    let cli = BenchCli::parse(&CLI);
    let scale = cli.positional_in(0, 1, 1..=u64::MAX);
    print_header("Fig. 7 - speedup of SVt on various I/O subsystems");
    let rows = svt_workloads::fig7(scale);
    println!(
        "{:<24}{:>36} {:>18} {:>18}",
        "Benchmark", "Baseline", "SW SVt", "HW SVt"
    );
    rule();
    for r in &rows {
        println!(
            "{:<24}{:>30} {:>5} {:>7.2}x ({:>5.2}) {:>8.2}x ({:>5.2})",
            r.name,
            vs_paper(r.baseline, r.paper.0),
            r.unit,
            r.sw_speedup,
            r.paper.1,
            r.hw_speedup,
            r.paper.2
        );
    }
    rule();
    println!("(speedups: measured x (paper x); latencies lower-is-better, bandwidths higher)");
    cli.emit_report(fig7_report(&rows));
}
