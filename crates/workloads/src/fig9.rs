//! Fig. 9 runner: TPC-C throughput.
//!
//! Closed-loop clients drive the TPC-C-lite engine inside L2; every
//! read-write transaction persists its WAL record to virtio-blk before
//! replying, composing the network and disk exit profiles.

use svt_core::{nested_machine, SwitchMode};
use svt_sim::SimDuration;

use crate::harness::{attach_blk_for, attach_loadgen_for_seeded};
use crate::layout;
use crate::loadgen::ArrivalMode;
use crate::server::{RrServer, ServerConfig};
use crate::tpcc::{TpccService, TpccSource};

/// Transactions per minute at the given engine. `transactions` counts
/// whole TPC-C transactions (each tens of statements on the wire);
/// `seed` seeds the request stream.
pub fn tpcc_tpm(mode: SwitchMode, transactions: u64, seed: u64) -> f64 {
    // ~34 statements per average transaction in the standard mix.
    let statements = transactions * 34;
    let source = Box::new(TpccSource::new(4));
    let mut m = nested_machine(mode);
    let stats = attach_loadgen_for_seeded(
        &mut m,
        0,
        ArrivalMode::ClosedLoop {
            concurrency: 4,
            think: SimDuration::from_us(15),
        },
        statements,
        source,
        seed,
    );
    attach_blk_for(&mut m, 0);
    let mut cfg = ServerConfig::rr_on_lane(&m.cost, statements, 0);
    cfg.blk_mmio = Some(layout::lane(0).blk_mmio);
    cfg.timer_rearm_every = 2;
    cfg.replenish_every = 2;
    let (service, db) = TpccService::new(4);
    let mut server = RrServer::new(cfg, Box::new(service));
    m.run(&mut server).expect("tpcc run completes");
    let s = stats.borrow();
    let span_min = s
        .last_reply
        .expect("replies received")
        .since(s.first_send.expect("requests sent"))
        .as_secs()
        / 60.0;
    let committed = db.borrow().committed();
    committed as f64 / span_min
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::DEFAULT_LANE_SEED;

    #[test]
    fn throughput_in_plausible_band() {
        // Paper baseline: 6.37 ktpm; we target the same order of magnitude.
        let tpm = tpcc_tpm(SwitchMode::Baseline, 120, DEFAULT_LANE_SEED);
        assert!(
            (2_000.0..20_000.0).contains(&tpm),
            "baseline TPC-C {tpm} tpm"
        );
    }

    #[test]
    fn sw_svt_improves_throughput() {
        let b = tpcc_tpm(SwitchMode::Baseline, 120, DEFAULT_LANE_SEED);
        let s = tpcc_tpm(SwitchMode::SwSvt, 120, DEFAULT_LANE_SEED);
        assert!(s > b, "baseline {b} sw {s}");
        // Paper: 1.18x; allow a generous emergent band.
        let speedup = s / b;
        assert!((1.02..1.6).contains(&speedup), "speedup {speedup}");
    }
}
