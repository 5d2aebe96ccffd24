//! Regenerates Fig. 9: TPC-C throughput.

use svt_bench::{
    cost_model_json, hostprof_begin, hostprof_finish, machine_json, print_header, rule, vs_paper,
    BenchCli,
};
use svt_core::SwitchMode;
use svt_obs::{Json, RunReport, SpeedupRow};
use svt_sim::CostModel;

fn main() {
    let cli = BenchCli::parse();
    cli.handle_help("svt-bench fig9 [--quick] [--json r.json] [--hostprof] [--seed n]");
    hostprof_begin(&cli);
    cli.require_arch_x86("fig9");
    let quick = cli.flag("--quick");
    let seed = cli.seed_or(svt_workloads::DEFAULT_LANE_SEED);
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

    let mut report = RunReport::new("fig9", "TPC-C throughput (Fig. 9)");
    report.machine = Some(machine_json());
    report.cost_model = Some(cost_model_json(&CostModel::default()));
    report.results.push(("seed".to_string(), Json::from(seed)));
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
    hostprof_finish(&cli, &mut report);
    cli.emit_report(&report);
}
