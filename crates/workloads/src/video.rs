//! Video playback (Fig. 10): a soft-realtime frame-deadline workload.
//!
//! Models mplayer playing a 4K movie: per frame, decode work; periodically
//! a buffered chunk of the file is read from virtio-blk in a burst of real
//! read requests; presentation is paced by the TSC-deadline timer. A frame
//! is *dropped* when its presentation interrupt arrives later than a
//! tolerance relative to the frame period — which happens when the
//! deadline collides with the virtualization-heavy disk burst, exactly the
//! interference the paper attributes to `EPT_MISCONFIG` and `MSR_WRITE`
//! handling (§ 6.3.3).

use svt_sim::FnvHashMap;

use svt_arch::{MSR_TSC_DEADLINE, MSR_X2APIC_EOI, VECTOR_BLK, VECTOR_TIMER};
use svt_hv::{GuestCtx, GuestOp, GuestProgram};
use svt_mem::Hpa;
use svt_sim::{DetRng, SimDuration, SimTime};
use svt_virtio::{Virtqueue, BLK_T_IN};

use crate::harness::QUEUE_SIZE;
use crate::layout;

/// Mean decode time per frame: ~3.2 ms/frame matches the paper's "L2 is
/// idle for 61 % of the time" at 120 FPS.
const DECODE_MEAN: SimDuration = SimDuration::from_us(3200);
/// Decode-time jitter (standard deviation).
const DECODE_JITTER: SimDuration = SimDuration::from_us(600);
/// Wall-clock period between file-chunk reads.
const CHUNK_PERIOD: SimDuration = SimDuration::from_ms(500);
/// Mean read requests per chunk (the VBR dither adds −8..+8).
const CHUNK_REQUESTS: u32 = 52;
/// Bytes per read request.
const REQUEST_BYTES: u32 = 65_536;
/// Lateness tolerance as a fraction of the frame period.
const TOLERANCE: f64 = 0.10;

/// Playback configuration.
#[derive(Debug, Clone)]
pub struct VideoConfig {
    /// Frames per second (24 / 60 / 120 in the paper).
    pub fps: u32,
    /// Playback length.
    pub duration: SimDuration,
}

impl VideoConfig {
    /// The paper's setup: first 5 minutes of a 4K movie, repackaged to the
    /// given frame rate.
    pub fn isca19(fps: u32) -> Self {
        VideoConfig {
            fps,
            duration: SimDuration::from_secs(300),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Decode,
    DiskBurst,
    AwaitTimer,
    Finished,
}

/// The video-player guest program.
#[derive(Debug)]
pub struct VideoPlayer {
    cfg: VideoConfig,
    rng: DetRng,
    queue: Virtqueue,
    phase: Phase,
    pending: Vec<GuestOp>,
    eoi_owed: u32,
    next_present: SimTime,
    next_chunk: SimTime,
    frames_played: u64,
    frames_dropped: u64,
    burst_remaining: u32,
    inflight: FnvHashMap<u16, ()>,
    init_done: bool,
    total_frames: u64,
    max_lateness: SimDuration,
}

impl VideoPlayer {
    /// Creates the player with a deterministic seed.
    pub fn new(cfg: VideoConfig, seed: u64) -> Self {
        let total_frames = (cfg.duration.as_secs() * cfg.fps as f64) as u64;
        VideoPlayer {
            cfg,
            rng: DetRng::seed(seed),
            queue: Virtqueue::new(layout::lane(0).blk_queue, QUEUE_SIZE),
            phase: Phase::Decode,
            pending: Vec::new(),
            eoi_owed: 0,
            next_present: SimTime::ZERO,
            next_chunk: SimTime::ZERO,
            frames_played: 0,
            frames_dropped: 0,
            burst_remaining: 0,
            inflight: FnvHashMap::default(),
            init_done: false,
            total_frames,
            max_lateness: SimDuration::ZERO,
        }
    }

    /// Frames presented (including dropped ones).
    pub fn frames_played(&self) -> u64 {
        self.frames_played
    }

    /// Frames whose presentation missed the tolerance.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped
    }

    /// Worst presentation lateness observed.
    pub fn max_lateness(&self) -> SimDuration {
        self.max_lateness
    }

    fn period(&self) -> SimDuration {
        SimDuration::from_ns_f64(1e9 / self.cfg.fps as f64)
    }

    fn submit_read(&mut self, ctx: &mut GuestCtx<'_>) {
        let bufs = layout::lane(0).blk_bufs.0;
        let (hdr, data, status) = (bufs, bufs + 0x1000, bufs + 0x100);
        ctx.mem.write_u32(Hpa(hdr), BLK_T_IN).expect("hdr in RAM");
        ctx.mem
            .write_u64(Hpa(hdr + 8), self.rng.below(1 << 22))
            .expect("hdr in RAM");
        let head = self
            .queue
            .driver_add(
                ctx.mem,
                &[
                    (hdr, 16, false),
                    (data, REQUEST_BYTES, true),
                    (status, 1, true),
                ],
            )
            .expect("blk ring in RAM");
        self.inflight.insert(head, ());
        self.pending.push(GuestOp::MmioWrite {
            gpa: layout::lane(0).blk_mmio,
            value: 1,
        });
    }

    fn present_frame(&mut self, now: SimTime) {
        let lateness = now.saturating_since(self.next_present);
        let tolerance = SimDuration::from_ns_f64(self.period().as_ns() * TOLERANCE);
        self.frames_played += 1;
        self.max_lateness = self.max_lateness.max(lateness);
        if lateness > tolerance {
            self.frames_dropped += 1;
        }
        self.next_present += self.period();
    }
}

impl GuestProgram for VideoPlayer {
    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> GuestOp {
        if let Some(op) = self.pending.pop() {
            return op;
        }
        if self.eoi_owed > 0 {
            self.eoi_owed -= 1;
            return GuestOp::MsrWrite {
                msr: MSR_X2APIC_EOI,
                value: 0,
            };
        }
        if !self.init_done {
            self.init_done = true;
            self.queue.init(ctx.mem).expect("blk ring in RAM");
            self.next_present = ctx.now + self.period();
            self.next_chunk = ctx.now + CHUNK_PERIOD;
            self.phase = Phase::Decode;
            let d = self.rng.norm_duration(DECODE_MEAN, DECODE_JITTER);
            return GuestOp::Compute(d);
        }
        match self.phase {
            Phase::Decode => {
                if self.frames_played >= self.total_frames {
                    self.phase = Phase::Finished;
                    return GuestOp::Done;
                }
                if ctx.now >= self.next_chunk {
                    self.next_chunk += CHUNK_PERIOD;
                    // Chunk sizes vary with the (VBR) video bitrate.
                    let dither = self.rng.below(17) as u32;
                    self.burst_remaining = (CHUNK_REQUESTS - 8) + dither;
                    self.phase = Phase::DiskBurst;
                    self.submit_read(ctx);
                    return self.pending.pop().expect("kick queued");
                }
                // Frame decoded; pace to the presentation deadline.
                self.phase = Phase::AwaitTimer;
                if ctx.now >= self.next_present {
                    // Decode overran the deadline: present immediately,
                    // late.
                    self.present_frame(ctx.now);
                    self.phase = Phase::Decode;
                    let d = self.rng.norm_duration(DECODE_MEAN, DECODE_JITTER);
                    return GuestOp::Compute(d);
                }
                GuestOp::MsrWrite {
                    msr: MSR_TSC_DEADLINE,
                    value: self.next_present.as_ps(),
                }
            }
            Phase::AwaitTimer => GuestOp::Hlt,
            Phase::DiskBurst => GuestOp::Hlt,
            Phase::Finished => GuestOp::Done,
        }
    }

    fn interrupt(&mut self, vector: u8, ctx: &mut GuestCtx<'_>) {
        self.eoi_owed += 1;
        match vector {
            VECTOR_TIMER if self.phase == Phase::AwaitTimer => {
                self.present_frame(ctx.now);
                self.phase = Phase::Decode;
                let d = self.rng.norm_duration(DECODE_MEAN, DECODE_JITTER);
                self.pending.push(GuestOp::Compute(d));
            }
            VECTOR_BLK => {
                while let Some((head, _)) = self.queue.driver_take_used(ctx.mem).expect("blk ring")
                {
                    self.inflight.remove(&head);
                }
                if self.phase == Phase::DiskBurst {
                    self.burst_remaining = self.burst_remaining.saturating_sub(1);
                    if self.burst_remaining == 0 {
                        self.phase = Phase::Decode;
                    } else {
                        // Next request of the burst.
                        // (Submitted from interrupt context in real drivers
                        // via the completion path; here queued as ops.)
                        self.submit_read(ctx);
                    }
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "video-player"
    }
}
