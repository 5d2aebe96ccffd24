//! The memcached-like key-value store and Facebook's ETC workload.
//!
//! A key-value store runs inside L2 behind the generic
//! [`RrServer`](crate::server::RrServer); the [`EtcSource`] request stream
//! follows the published shape of Facebook's ETC pool (Atikoglu et al.,
//! SIGMETRICS'12): GET-dominated (~95 %), small keys, and a heavy-tailed
//! value-size distribution with Zipf-like key popularity.

use svt_mem::GuestMemory;
use svt_sim::{DetRng, FnvHashMap, SimDuration};

use crate::loadgen::{Request, RequestSource};
use crate::server::{ParsedRequest, ServeOutput, ServiceModel};

/// Operation codes on the wire.
pub const OP_GET: u32 = 0;
/// SET operation code.
pub const OP_SET: u32 = 1;

/// The ETC-like request stream.
#[derive(Debug, Clone)]
pub struct EtcSource {
    keys: u64,
    get_fraction: f64,
    zipf_skew: f64,
}

impl EtcSource {
    /// ETC defaults: 95/5 GET/SET over `keys` keys with skew ~0.99.
    pub fn new(keys: u64) -> Self {
        EtcSource {
            keys,
            get_fraction: 0.95,
            zipf_skew: 0.99,
        }
    }

    /// ETC value sizes: dominated by small values with a heavy tail
    /// (~90 % under 1 KB, occasional multi-KB values).
    fn value_size(&self, rng: &mut DetRng) -> u32 {
        let u = rng.unit();
        if u < 0.40 {
            rng.range(2, 64) as u32
        } else if u < 0.90 {
            rng.range(64, 1024) as u32
        } else if u < 0.99 {
            rng.range(1024, 4096) as u32
        } else {
            rng.range(4096, 16_384) as u32
        }
    }
}

impl RequestSource for EtcSource {
    fn next(&mut self, rng: &mut DetRng) -> Request {
        let key = rng.zipf(self.keys, self.zipf_skew);
        let op = if rng.chance(self.get_fraction) {
            OP_GET
        } else {
            OP_SET
        };
        Request {
            op,
            key,
            vsize: self.value_size(rng),
        }
    }
}

/// The memcached service: store operations plus a calibrated per-request
/// processing cost.
///
/// Only a value's length is observable to the simulation (it sets the
/// memcpy cost and the reply size), so the store keeps lengths, not bytes.
/// The warm set is synthesized: key `k < warm_keys` holds
/// `warm_len(k)` bytes until it is first SET. A sparse overlay holds
/// the length of every key SET since.
#[derive(Debug)]
pub struct KvService {
    warm_keys: u64,
    written: FnvHashMap<u64, u32>,
    /// Fixed request-parsing + hashing cost.
    pub base_cost: SimDuration,
    /// Per-value-byte memcpy cost.
    pub per_byte: SimDuration,
    hits: u64,
    misses: u64,
    sets: u64,
}

/// Length of warm key `k`'s value: deterministic sizes spread over the ETC
/// range. (`% 1024` divides 2^64, so the wrapping product is exact.)
fn warm_len(k: u64) -> u32 {
    (64 + k.wrapping_mul(37) % 1024) as u32
}

impl KvService {
    /// A service over a store pre-warmed with keys `0..warm_keys`.
    pub fn new(warm_keys: u64) -> Self {
        KvService {
            warm_keys,
            written: FnvHashMap::default(),
            base_cost: SimDuration::from_ns(1800),
            per_byte: SimDuration::from_ps(400),
            hits: 0,
            misses: 0,
            sets: 0,
        }
    }

    /// (hits, misses, sets) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.sets)
    }

    /// Length of the value stored under `key`, if any.
    fn value_len(&self, key: u64) -> Option<u32> {
        match self.written.get(&key) {
            Some(&len) => Some(len),
            None => (key < self.warm_keys).then(|| warm_len(key)),
        }
    }
}

impl ServiceModel for KvService {
    fn serve(&mut self, req: &ParsedRequest, _mem: &mut GuestMemory) -> ServeOutput {
        match req.op {
            OP_SET => {
                self.sets += 1;
                self.written.insert(req.key, req.vsize);
                ServeOutput {
                    compute: self.base_cost + self.per_byte * req.vsize as u64,
                    reply_len: 8,
                    ..ServeOutput::default()
                }
            }
            _ => {
                let len = match self.value_len(req.key) {
                    Some(len) => {
                        self.hits += 1;
                        len
                    }
                    None => {
                        self.misses += 1;
                        0
                    }
                };
                ServeOutput {
                    compute: self.base_cost + self.per_byte * len as u64,
                    reply_len: 8 + len,
                    ..ServeOutput::default()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The store as it was first written: every value materialized as
    /// bytes. The synthesized store must be indistinguishable from it.
    #[derive(Default)]
    struct MaterializedKv {
        store: FnvHashMap<u64, Vec<u8>>,
        hits: u64,
        misses: u64,
        sets: u64,
    }

    impl MaterializedKv {
        fn new(warm_keys: u64) -> Self {
            let mut kv = MaterializedKv::default();
            for k in 0..warm_keys {
                let size = 64 + (k * 37) % 1024;
                kv.store.insert(k, vec![0xAB; size as usize]);
            }
            kv
        }

        fn serve(&mut self, svc: &KvService, req: &ParsedRequest) -> ServeOutput {
            if req.op == OP_SET {
                self.sets += 1;
                self.store.insert(req.key, vec![0xCD; req.vsize as usize]);
                return ServeOutput {
                    compute: svc.base_cost + svc.per_byte * req.vsize as u64,
                    reply_len: 8,
                    ..ServeOutput::default()
                };
            }
            let len = match self.store.get(&req.key) {
                Some(v) => {
                    self.hits += 1;
                    v.len() as u32
                }
                None => {
                    self.misses += 1;
                    0
                }
            };
            ServeOutput {
                compute: svc.base_cost + svc.per_byte * len as u64,
                reply_len: 8 + len,
                ..ServeOutput::default()
            }
        }
    }

    #[test]
    fn synthesized_store_matches_materialized_reference() {
        let mut mem = GuestMemory::new(4096);
        for (seed, warm_keys) in [(1, 0), (2, 1), (3, 300), (4, 2_000), (5, 50_000)] {
            let mut rng = DetRng::seed(seed);
            let mut svc = KvService::new(warm_keys);
            let mut reference = MaterializedKv::new(warm_keys);
            for i in 0..5_000 {
                // Keys straddle the warm boundary; a third of the ops are
                // SETs (re-SETs overwrite), and some SETs store nothing.
                let req = ParsedRequest {
                    send_ps: i,
                    key: rng.below(warm_keys * 2 + 64),
                    op: if rng.chance(0.33) { OP_SET } else { OP_GET },
                    vsize: if rng.chance(0.1) {
                        0
                    } else {
                        rng.range(1, 16_384) as u32
                    },
                };
                let want = reference.serve(&svc, &req);
                assert_eq!(
                    svc.serve(&req, &mut mem),
                    want,
                    "seed {seed}, request {i}: {req:?}"
                );
            }
            let want = (reference.hits, reference.misses, reference.sets);
            assert_eq!(svc.counters(), want, "seed {seed}");
        }
    }

    #[test]
    fn warm_len_matches_the_materialized_sizes() {
        for k in [0, 1, 27, 1023, 49_999, u64::MAX / 37] {
            assert_eq!(warm_len(k) as u64, 64 + (k * 37) % 1024);
        }
        assert_eq!(
            warm_len(u64::MAX),
            (64 + (u64::MAX as u128 * 37) % 1024) as u32
        );
    }

    #[test]
    fn etc_is_get_dominated() {
        let mut src = EtcSource::new(10_000);
        let mut rng = DetRng::seed(11);
        let gets = (0..10_000)
            .filter(|_| src.next(&mut rng).op == OP_GET)
            .count();
        let frac = gets as f64 / 10_000.0;
        assert!((0.93..0.97).contains(&frac), "GET fraction {frac}");
    }

    #[test]
    fn etc_values_are_mostly_small() {
        let mut src = EtcSource::new(10_000);
        let mut rng = DetRng::seed(12);
        let sizes: Vec<u32> = (0..10_000).map(|_| src.next(&mut rng).vsize).collect();
        let small = sizes.iter().filter(|&&s| s < 1024).count() as f64 / sizes.len() as f64;
        assert!(small > 0.85, "small fraction {small}");
        assert!(sizes.iter().any(|&s| s > 4096), "tail exists");
    }

    #[test]
    fn etc_keys_are_skewed() {
        let mut src = EtcSource::new(100_000);
        let mut rng = DetRng::seed(13);
        let hot = (0..20_000)
            .filter(|_| src.next(&mut rng).key < 1000)
            .count() as f64
            / 20_000.0;
        assert!(hot > 0.3, "hot-key fraction {hot}");
    }

    #[test]
    fn service_tracks_hits_and_misses() {
        let mut svc = KvService::new(100);
        let mut mem = GuestMemory::new(4096);
        let hit = ParsedRequest {
            send_ps: 0,
            key: 5,
            op: OP_GET,
            vsize: 0,
        };
        let miss = ParsedRequest {
            send_ps: 0,
            key: 999_999,
            op: OP_GET,
            vsize: 0,
        };
        let set = ParsedRequest {
            send_ps: 0,
            key: 999_999,
            op: OP_SET,
            vsize: 256,
        };
        let out = svc.serve(&hit, &mut mem);
        assert!(out.reply_len > 8);
        svc.serve(&miss, &mut mem);
        svc.serve(&set, &mut mem);
        // After the SET, the key hits.
        let out = svc.serve(&miss, &mut mem);
        assert_eq!(out.reply_len, 8 + 256);
        assert_eq!(svc.counters(), (2, 1, 1));
    }

    #[test]
    fn service_cost_scales_with_value_size() {
        let mut svc = KvService::new(0);
        let mut mem = GuestMemory::new(4096);
        svc.serve(
            &ParsedRequest {
                send_ps: 0,
                key: 1,
                op: OP_SET,
                vsize: 10_000,
            },
            &mut mem,
        );
        let big = svc.serve(
            &ParsedRequest {
                send_ps: 0,
                key: 1,
                op: OP_GET,
                vsize: 0,
            },
            &mut mem,
        );
        svc.serve(
            &ParsedRequest {
                send_ps: 0,
                key: 2,
                op: OP_SET,
                vsize: 10,
            },
            &mut mem,
        );
        let small = svc.serve(
            &ParsedRequest {
                send_ps: 0,
                key: 2,
                op: OP_GET,
                vsize: 0,
            },
            &mut mem,
        );
        assert!(big.compute > small.compute);
    }
}
