//! Fig. 8 runner: memcached under Facebook's ETC workload.
//!
//! Open-loop load sweep against the in-guest key-value store; reports
//! average and 99th-percentile latency per offered rate, from which the
//! 500 µs-SLA throughput crossover is derived.

use svt_arch::ArchId;
use svt_core::SwitchMode;
use svt_stats::{SweepPoint, SweepSeries};

use crate::smp::{App, RunSpec};

/// The SLA used in the paper (500 µs on the 99th percentile).
pub const SLA_NS: f64 = 500_000.0;

/// One point of the latency-vs-load sweep: a 1-vCPU x86 memcached
/// [`RunSpec`] offered `rate_qps`; `seed` seeds the request stream.
/// Under overload some requests are dropped at the RX ring (as with a
/// real NIC), so the run is bounded by time and the point reports what
/// completed.
///
/// # Panics
///
/// As [`RunSpec::run`].
pub fn memcached_point(mode: SwitchMode, rate_qps: f64, requests: u64, seed: u64) -> SweepPoint {
    let spec = RunSpec {
        app: App::Memcached { rate_qps, requests },
        mode,
        arch: ArchId::X86,
        vcpus: 1,
        lane_seed: seed,
    };
    let (p, ()) = spec.run(|_| {}, |_| ());
    SweepPoint {
        load: rate_qps,
        throughput: p.throughput,
        avg_ns: p.avg_ns,
        p99_ns: p.p99_ns,
    }
}

/// Sweeps offered load and returns the latency curve; `seed` seeds every
/// point's request stream.
pub fn fig8_series(mode: SwitchMode, rates_kqps: &[f64], requests: u64, seed: u64) -> SweepSeries {
    let mut series = SweepSeries::new(mode.label());
    for &r in rates_kqps {
        series.push(memcached_point(mode, r * 1000.0, requests, seed));
    }
    series
}

/// The default sweep of the paper's Fig. 8 x-axis (2–22.5 kQPS), with
/// finer resolution around the SLA knee.
pub fn default_rates() -> Vec<f64> {
    vec![
        2.0, 4.0, 5.0, 6.0, 6.5, 7.0, 7.5, 8.0, 8.5, 9.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.5,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::DEFAULT_LANE_SEED;

    #[test]
    fn low_load_latency_is_flat_and_finite() {
        let p = memcached_point(SwitchMode::Baseline, 2_000.0, 150, DEFAULT_LANE_SEED);
        assert!(
            p.avg_ns > 50_000.0 && p.avg_ns < 500_000.0,
            "avg {}",
            p.avg_ns
        );
        assert!(p.p99_ns >= p.avg_ns);
        assert!(p.throughput > 1_000.0);
    }

    #[test]
    fn latency_grows_with_load() {
        let low = memcached_point(SwitchMode::Baseline, 2_000.0, 150, DEFAULT_LANE_SEED);
        let high = memcached_point(SwitchMode::Baseline, 9_000.0, 400, DEFAULT_LANE_SEED);
        assert!(
            high.avg_ns > low.avg_ns,
            "low {} high {}",
            low.avg_ns,
            high.avg_ns
        );
    }

    #[test]
    fn svt_extends_the_sla_envelope() {
        // At a rate the baseline struggles with, SW SVt shows lower p99.
        let b = memcached_point(SwitchMode::Baseline, 7_000.0, 300, DEFAULT_LANE_SEED);
        let s = memcached_point(SwitchMode::SwSvt, 7_000.0, 300, DEFAULT_LANE_SEED);
        assert!(s.p99_ns < b.p99_ns, "baseline {} sw {}", b.p99_ns, s.p99_ns);
    }
}
