//! Regenerates Fig. 10: video-playback dropped frames.

use svt_bench::{paper_report, print_header, rule, BenchCli, CliSpec, Flag};
use svt_core::SwitchMode;
use svt_obs::Json;
use svt_workloads::video_playback;

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
    let paper = [(24u32, 0u64, 0u64), (60, 3, 0), (120, 40, 26)];
    let mut rows = Vec::new();
    for (fps, pb, ps) in paper {
        let b = video_playback(SwitchMode::Baseline, fps, secs);
        let s = video_playback(SwitchMode::SwSvt, fps, secs);
        let scale = 300 / secs;
        println!(
            "{:<8}{:>18}{:>14}{:>15} / {:<6}",
            fps,
            b.dropped * scale,
            s.dropped * scale,
            pb,
            ps
        );
        rows.push(Json::obj([
            ("fps", Json::from(fps as u64)),
            ("baseline_drops", Json::from(b.dropped * scale)),
            ("sw_svt_drops", Json::from(s.dropped * scale)),
            ("paper_baseline_drops", Json::from(pb)),
            ("paper_svt_drops", Json::from(ps)),
        ]));
    }
    rule();
    println!("(drop counts scaled to 5 minutes when run with --quick)");

    let mut report = paper_report(
        "fig10",
        "Video-playback dropped frames (Fig. 10)",
        svt_workloads::DEFAULT_LANE_SEED,
    );
    report
        .results
        .push(("frame_rates".to_string(), Json::Arr(rows)));
    report
        .results
        .push(("playback_secs".to_string(), Json::from(secs)));
    cli.emit_report(report);
}
