//! Regenerates Fig. 7: I/O subsystem speedups.

use svt_bench::{paper_report, print_header, rule, vs_paper, BenchCli, CliSpec, Flag};
use svt_obs::{Json, SpeedupRow};

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

    let mut report = paper_report(
        "fig7",
        "Speedup of SVt on I/O subsystems (Fig. 7)",
        svt_workloads::DEFAULT_LANE_SEED,
    );
    let mut bench_rows = Vec::new();
    for r in &rows {
        report.speedups.push(SpeedupRow {
            name: format!("{}/sw_svt", r.name),
            speedup: r.sw_speedup,
        });
        report.speedups.push(SpeedupRow {
            name: format!("{}/hw_svt", r.name),
            speedup: r.hw_speedup,
        });
        bench_rows.push(Json::obj([
            ("name", Json::from(r.name)),
            ("unit", Json::from(r.unit)),
            ("baseline", Json::Num(r.baseline)),
            ("sw_speedup", Json::Num(r.sw_speedup)),
            ("hw_speedup", Json::Num(r.hw_speedup)),
            ("paper_baseline", Json::Num(r.paper.0)),
            ("paper_sw_speedup", Json::Num(r.paper.1)),
            ("paper_hw_speedup", Json::Num(r.paper.2)),
        ]));
    }
    report
        .results
        .push(("benchmarks".to_string(), Json::Arr(bench_rows)));
    cli.emit_report(report);
}
