//! memcached under ETC load (Fig. 8): a short latency-vs-load sweep with
//! the 500 usec SLA crossover.
//!
//! Run with: `cargo run --release --example memcached_sim`

use svt::core::SwitchMode;
use svt::workloads::{fig8_series, DEFAULT_LANE_SEED, SLA_NS};

fn main() {
    let rates = vec![2.0, 4.0, 6.0, 8.0, 10.0];
    println!("memcached + ETC, open-loop load sweep (short run):\n");
    let mut crossovers = Vec::new();
    for mode in [SwitchMode::Baseline, SwitchMode::SwSvt] {
        let series = fig8_series(mode, &rates, 400, DEFAULT_LANE_SEED);
        println!("[{}]", series.name);
        for p in series.points() {
            println!(
                "  {:>5.1} kQPS offered -> {:>6.2} kQPS, avg {:>7.1}us, p99 {:>7.1}us {}",
                p.load / 1000.0,
                p.throughput / 1000.0,
                p.avg_ns / 1000.0,
                p.p99_ns / 1000.0,
                if p.p99_ns <= SLA_NS { "" } else { "(> SLA)" }
            );
        }
        let within = series.max_throughput_within_sla(SLA_NS).unwrap_or(0.0);
        println!(
            "  max throughput within 500us SLA: {:.2} kQPS\n",
            within / 1000.0
        );
        crossovers.push(within);
    }
    println!(
        "SVt SLA-throughput improvement: {:.2}x (paper: 2.2x on the p99 SLA)",
        crossovers[1] / crossovers[0]
    );
}
