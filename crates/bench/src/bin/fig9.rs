//! Regenerates Fig. 9: TPC-C throughput.

use svt_bench::{
    fig9_report, print_header, rule, vs_paper, BenchCli, CliSpec, Flag, FIG9_PAPER_SPEEDUP,
    FIG9_PAPER_TPM,
};
use svt_core::SwitchMode;

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
    println!(
        "{:<12}{:>40}",
        "Baseline",
        vs_paper(baseline, FIG9_PAPER_TPM)
    );
    println!(
        "{:<12}{:>40}",
        "SVt",
        vs_paper(svt, FIG9_PAPER_TPM * FIG9_PAPER_SPEEDUP)
    );
    rule();
    println!(
        "Speedup: {:.2}x (paper: {FIG9_PAPER_SPEEDUP:.2}x)",
        svt / baseline
    );
    cli.emit_report(fig9_report(baseline, svt, txns, seed));
}
