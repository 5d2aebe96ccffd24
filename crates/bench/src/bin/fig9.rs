//! Regenerates Fig. 9: TPC-C throughput.

use svt_bench::{paper_report, print_header, rule, vs_paper, BenchCli, CliSpec, Flag};
use svt_core::SwitchMode;
use svt_obs::{Json, SpeedupRow};

const CLI: CliSpec = CliSpec {
    bin: "fig9",
    args: &[],
    flags: &[Flag::Json, Flag::Hostprof, Flag::Quick, Flag::Seed],
};

fn main() {
    let cli = BenchCli::parse(&CLI);
    let quick = cli.flag(Flag::Quick);
    let seed = cli.seed.unwrap_or(svt_workloads::DEFAULT_LANE_SEED);
    let txns = if quick { 60 } else { 300 };
    print_header("Fig. 9 - TPC-C (sysbench-style, WAL on virtio-blk) throughput");
    let baseline = svt_workloads::tpcc_tpm(SwitchMode::Baseline, txns, seed);
    let svt = svt_workloads::tpcc_tpm(SwitchMode::SwSvt, txns, seed);
    println!("{:<12}{:>40}", "System", "Throughput [tpm]");
    rule();
    println!("{:<12}{:>40}", "Baseline", vs_paper(baseline, 6370.0));
    println!("{:<12}{:>40}", "SVt", vs_paper(svt, 6370.0 * 1.18));
    rule();
    println!("Speedup: {:.2}x (paper: 1.18x)", svt / baseline);

    let mut report = paper_report("fig9", "TPC-C throughput (Fig. 9)", seed);
    report.speedups.push(SpeedupRow {
        name: "sw_svt/tpcc_tpm".to_string(),
        speedup: svt / baseline,
    });
    report.results.push((
        "throughput_tpm".to_string(),
        Json::obj([
            ("baseline", Json::Num(baseline)),
            ("sw_svt", Json::Num(svt)),
            ("paper_baseline", Json::Num(6370.0)),
            ("paper_speedup", Json::Num(1.18)),
            ("txns", Json::from(txns)),
        ]),
    ));
    cli.emit_report(report);
}
