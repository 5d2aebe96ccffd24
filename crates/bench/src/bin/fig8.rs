//! Regenerates Fig. 8: memcached latency under Facebook's ETC load.

use svt_bench::{paper_report, print_header, rule, BenchCli, CliSpec, Flag};
use svt_core::SwitchMode;
use svt_obs::{Json, SpeedupRow};
use svt_workloads::{default_rates, fig8_series, DEFAULT_LANE_SEED, SLA_NS};

const CLI: CliSpec = CliSpec {
    bin: "fig8",
    args: &[],
    flags: &[Flag::Json, Flag::Hostprof, Flag::Quick, Flag::Seed],
};

fn main() {
    let cli = BenchCli::parse(&CLI);
    let quick = cli.flag(Flag::Quick);
    let seed = cli.seed.unwrap_or(DEFAULT_LANE_SEED);
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
    let mut report = paper_report("fig8", "memcached ETC latency vs load (Fig. 8)", seed);
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
    cli.emit_report(report);
}
