//! Regenerates Fig. 8: memcached latency under Facebook's ETC load.

use svt_bench::{
    cost_model_json, hostprof_begin, hostprof_finish, machine_json, print_header, rule, BenchCli,
};
use svt_core::SwitchMode;
use svt_obs::{Json, RunReport, SpeedupRow};
use svt_sim::CostModel;
use svt_workloads::{default_rates, fig8_series, DEFAULT_LANE_SEED, SLA_NS};

fn main() {
    let cli = BenchCli::parse();
    cli.handle_help("svt-bench fig8 [--quick] [--json r.json] [--hostprof] [--seed n]");
    hostprof_begin(&cli);
    cli.require_arch_x86("fig8");
    let quick = cli.flag("--quick");
    let seed = cli.seed_or(DEFAULT_LANE_SEED);
    let requests = if quick { 400 } else { 2000 };
    print_header("Fig. 8 - memcached (ETC) latency vs load, SLA 500 usec on p99");
    let rates = default_rates();
    let mut within = Vec::new();
    let mut series_rows = Vec::new();
    for mode in [SwitchMode::Baseline, SwitchMode::SwSvt] {
        let series = fig8_series(mode, &rates, requests, seed);
        println!("\n[{}]", series.name);
        println!(
            "{:>12}{:>16}{:>14}{:>14}",
            "load [kQPS]", "tput [kQPS]", "avg [us]", "p99 [us]"
        );
        rule();
        let mut points = Vec::new();
        for p in series.points() {
            let marker = if p.p99_ns <= SLA_NS { "" } else { "  > SLA" };
            println!(
                "{:>12.1}{:>16.2}{:>14.1}{:>14.1}{}",
                p.load / 1000.0,
                p.throughput / 1000.0,
                p.avg_ns / 1000.0,
                p.p99_ns / 1000.0,
                marker
            );
            points.push(Json::obj([
                ("load_qps", Json::Num(p.load)),
                ("throughput_qps", Json::Num(p.throughput)),
                ("avg_ns", Json::Num(p.avg_ns)),
                ("p99_ns", Json::Num(p.p99_ns)),
                ("within_sla", Json::Bool(p.p99_ns <= SLA_NS)),
            ]));
        }
        series_rows.push(Json::obj([
            ("name", Json::from(series.name.as_str())),
            ("points", Json::Arr(points)),
        ]));
        within.push((
            series.name.clone(),
            series.max_throughput_within_sla(SLA_NS).unwrap_or(0.0),
        ));
    }
    rule();
    let base = within[0].1;
    let mut report = RunReport::new("fig8", "memcached ETC latency vs load (Fig. 8)");
    report.machine = Some(machine_json());
    report.cost_model = Some(cost_model_json(&CostModel::default()));
    report.results.push(("seed".to_string(), Json::from(seed)));
    for (name, t) in &within {
        let speedup = t / base;
        println!(
            "{name}: max throughput within SLA = {:.2} kQPS ({speedup:.2}x vs baseline)",
            t / 1000.0
        );
        report.speedups.push(SpeedupRow {
            name: format!("{name}/sla_throughput"),
            speedup,
        });
    }
    println!("Paper: SVt delivers 2.2x p99-within-SLA throughput, 1.43x on average latency");
    report
        .results
        .push(("series".to_string(), Json::Arr(series_rows)));
    report
        .results
        .push(("sla_ns".to_string(), Json::Num(SLA_NS)));
    hostprof_finish(&cli, &mut report);
    cli.emit_report(&report);
}
