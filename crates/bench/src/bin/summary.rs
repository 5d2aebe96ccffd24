//! One-page digest: every headline number of the paper next to this
//! reproduction's measurement. Uses reduced iteration counts; the
//! per-figure binaries produce the full-fidelity versions.

use svt_arch::ArchId;
use svt_bench::{paper_report, print_header, rule, BenchCli, CliSpec, Flag};
use svt_core::SwitchMode;
use svt_hv::Level;
use svt_obs::{Json, SpeedupRow};

const CLI: CliSpec = CliSpec {
    bin: "summary",
    args: &[],
    flags: &[Flag::Json, Flag::Hostprof, Flag::Seed],
};

fn main() {
    let cli = BenchCli::parse(&CLI);
    let seed = cli.seed.unwrap_or(svt_workloads::DEFAULT_LANE_SEED);
    print_header("SVt reproduction - headline summary (quick settings)");
    let mut report = paper_report("summary", "Headline summary (quick settings)", seed);

    // Table 1 / Fig. 6.
    let grid = svt_workloads::fig6_grid(ArchId::X86, 50, 1);
    let t1: f64 = grid.table1.iter().map(|r| r.time_us).sum();
    println!("Table 1  nested cpuid total        paper 10.40us   measured {t1:.2}us");
    report
        .results
        .push(("table1_total_us".to_string(), Json::Num(t1)));
    for b in &grid.bars {
        if b.label == "SW SVt" || b.label == "HW SVt" {
            let paper = if b.label == "SW SVt" { 1.23 } else { 1.94 };
            println!(
                "Fig. 6   {:<8} cpuid speedup     paper {paper:.2}x     measured {:.2}x",
                b.label, b.speedup
            );
            report.speedups.push(SpeedupRow {
                name: if b.label == "SW SVt" {
                    "fig6/sw_svt".to_string()
                } else {
                    "fig6/hw_svt".to_string()
                },
                speedup: b.speedup,
            });
        }
    }
    rule();

    // Fig. 7 (scaled down).
    for r in svt_workloads::fig7(8) {
        println!(
            "Fig. 7   {:<22} paper {:>8.0} {:<5} SW {:.2}x/{:.2}x  HW {:.2}x/{:.2}x  base {:.0}",
            r.name, r.paper.0, r.unit, r.sw_speedup, r.paper.1, r.hw_speedup, r.paper.2, r.baseline
        );
        report.speedups.push(SpeedupRow {
            name: format!("fig7/{}/sw_svt", r.name),
            speedup: r.sw_speedup,
        });
        report.speedups.push(SpeedupRow {
            name: format!("fig7/{}/hw_svt", r.name),
            speedup: r.hw_speedup,
        });
    }
    rule();

    // Fig. 8 at one moderate load point.
    let b = svt_workloads::memcached_point(SwitchMode::Baseline, 10_000.0, 400, seed);
    let s = svt_workloads::memcached_point(SwitchMode::SwSvt, 10_000.0, 400, seed);
    println!(
        "Fig. 8   avg latency @10kQPS       paper 1.43x     measured {:.2}x ({:.0}us -> {:.0}us)",
        b.avg_ns / s.avg_ns,
        b.avg_ns / 1000.0,
        s.avg_ns / 1000.0
    );
    report.speedups.push(SpeedupRow {
        name: "fig8/avg_latency_10kqps".to_string(),
        speedup: b.avg_ns / s.avg_ns,
    });

    // Fig. 9.
    let tb = svt_workloads::tpcc_tpm(SwitchMode::Baseline, 60, seed);
    let ts = svt_workloads::tpcc_tpm(SwitchMode::SwSvt, 60, seed);
    println!(
        "Fig. 9   TPC-C speedup             paper 1.18x     measured {:.2}x ({tb:.0} -> {ts:.0} tpm)",
        ts / tb
    );
    report.speedups.push(SpeedupRow {
        name: "fig9/tpcc".to_string(),
        speedup: ts / tb,
    });

    // Fig. 10 at 120 FPS, 60s scaled.
    let vb = svt_workloads::video_playback(SwitchMode::Baseline, 120, 60);
    let vs = svt_workloads::video_playback(SwitchMode::SwSvt, 120, 60);
    println!(
        "Fig. 10  drops @120FPS (5min est)  paper 40 / 26   measured {} / {}",
        vb.dropped * 5,
        vs.dropped * 5
    );
    report.results.push((
        "fig10_drops_120fps".to_string(),
        Json::obj([
            ("baseline", Json::from(vb.dropped * 5)),
            ("sw_svt", Json::from(vs.dropped * 5)),
        ]),
    ));
    rule();
    let cpuid_us = |level| svt_workloads::cpuid_us_on(level, SwitchMode::Baseline, ArchId::X86, 20);
    let (l0, l1, l2) = (
        cpuid_us(Level::L0),
        cpuid_us(Level::L1),
        cpuid_us(Level::L2),
    );
    println!("Native L0 cpuid {l0:.2}us | single-level L1 {l1:.2}us | nested L2 {l2:.2}us");
    report.results.push((
        "cpuid_us_by_level".to_string(),
        Json::obj([
            ("l0", Json::Num(l0)),
            ("l1", Json::Num(l1)),
            ("l2", Json::Num(l2)),
        ]),
    ));
    println!("See EXPERIMENTS.md for full-fidelity runs and the deviation discussion.");
    cli.emit_report(report);
}
