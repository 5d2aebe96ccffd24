//! Fig. 10 runner: video-playback frame drops.

use svt_core::{nested_machine, SwitchMode};
use svt_sim::SimDuration;

use crate::harness::attach_blk_for;
use crate::video::{VideoConfig, VideoPlayer};

/// Result of one playback run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaybackResult {
    /// Frames presented.
    pub played: u64,
    /// Frames later than the tolerance.
    pub dropped: u64,
}

/// Plays `secs` seconds at `fps` under the given engine.
pub fn video_playback(mode: SwitchMode, fps: u32, secs: u64) -> PlaybackResult {
    let mut m = nested_machine(mode);
    attach_blk_for(&mut m, 0);
    let mut cfg = VideoConfig::isca19(fps);
    cfg.duration = SimDuration::from_secs(secs);
    let mut player = VideoPlayer::new(cfg, 0x0f_0b_0e_0a);
    m.run(&mut player).expect("playback completes");
    PlaybackResult {
        played: player.frames_played(),
        dropped: player.frames_dropped(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_frame_rates_never_drop() {
        let r = video_playback(SwitchMode::Baseline, 24, 20);
        assert_eq!(r.dropped, 0, "dropped {} of {}", r.dropped, r.played);
        assert!(r.played >= 24 * 20 - 1);
    }

    #[test]
    fn high_frame_rate_drops_under_baseline() {
        let r = video_playback(SwitchMode::Baseline, 120, 60);
        assert!(r.dropped > 0, "expected drops at 120 FPS");
    }

    #[test]
    fn svt_reduces_drops() {
        let b = video_playback(SwitchMode::Baseline, 120, 60);
        let s = video_playback(SwitchMode::SwSvt, 120, 60);
        let h = video_playback(SwitchMode::HwSvt, 120, 60);
        assert!(
            s.dropped < b.dropped,
            "baseline {} sw {}",
            b.dropped,
            s.dropped
        );
        assert!(h.dropped <= s.dropped, "sw {} hw {}", s.dropped, h.dropped);
    }
}
