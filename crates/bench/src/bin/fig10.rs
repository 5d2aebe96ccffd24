//! Regenerates Fig. 10: video-playback dropped frames.

use svt_bench::{fig10_report, fig10_rows, print_header, rule, BenchCli, CliSpec, Flag};

const CLI: CliSpec = CliSpec {
    bin: "fig10",
    args: &[],
    flags: &[Flag::Json, Flag::Hostprof, Flag::Quick],
};

fn main() {
    let cli = BenchCli::parse(&CLI);
    let quick = cli.flag(Flag::Quick);
    let secs = if quick { 60 } else { 300 };
    print_header("Fig. 10 - dropped frames vs frame rate (5 min playback)");
    println!(
        "{:<8}{:>18}{:>14}{:>22}",
        "FPS", "Baseline drops", "SVt drops", "Paper (base / SVt)"
    );
    rule();
    let rows = fig10_rows(secs);
    for r in &rows {
        println!(
            "{:<8}{:>18}{:>14}{:>15} / {:<6}",
            r.fps, r.baseline_drops, r.sw_svt_drops, r.paper.0, r.paper.1
        );
    }
    rule();
    println!("(drop counts scaled to 5 minutes when run with --quick)");
    cli.emit_report(fig10_report(&rows, secs));
}
