//! The metrics registry against a model: a content-keyed `BTreeMap` per
//! category, which is what the registry's address-keyed index must be
//! indistinguishable from. Random `inc`, `add`, `observe`, `set_gauge`,
//! reads, `clear` and save-and-load sequences run on keys whose strings
//! are literals, leaked copies with the same text at other addresses,
//! and prefixes of those copies (one pointer, several lengths). After
//! every step both must agree on each key's counter, gauge and histogram,
//! sorted iteration, `counter_total`, `to_json` and saved bytes.
//!
//! Randomised inputs are driven by the in-tree deterministic PRNG so the
//! cases are reproducible and the suite has no external dependencies.

use std::collections::BTreeMap;

use svt_obs::{Json, LogHistogram, MetricKey, MetricsRegistry, ObsLevel};
use svt_sim::snap_fields;
use svt_sim::snapshot::{from_bytes, to_bytes};
use svt_sim::DetRng;

const NAMES: [&str; 4] = ["vm_exit", "vm_exit_x", "trap_latency_ps", ""];
const EXITS: [&str; 2] = ["CPUID", "CPU"];
const REFLECTORS: [&str; 2] = ["sw-svt", "hw-svt"];
const LEVELS: [Option<ObsLevel>; 3] = [None, Some(ObsLevel::L0), Some(ObsLevel::L2)];
const VCPUS: [Option<u32>; 3] = [None, Some(0), Some(1)];

/// Every address each text of `texts` has in this test: the literal, and
/// its prefix of each leaked copy of a text that starts with it, so a
/// text and its extensions share a pointer ("vm_exit" and "vm_exit_x";
/// "" and every copy).
fn addresses(texts: &[&'static str]) -> Vec<Vec<&'static str>> {
    let copies: Vec<&'static str> = texts
        .iter()
        .map(|t| &*Box::leak(t.to_string().into_boxed_str()))
        .collect();
    texts
        .iter()
        .map(|&t| {
            let shared = copies.iter().filter(|c| c.starts_with(t));
            std::iter::once(t)
                .chain(shared.map(|c| &c[..t.len()]))
                .collect()
        })
        .collect()
}

/// A key by content: indexes into the text tables, level and vCPU.
#[derive(Clone, Copy)]
struct Content {
    name: usize,
    exit: Option<usize>,
    reflector: Option<usize>,
    level: Option<ObsLevel>,
    vcpu: Option<u32>,
}

struct Keys {
    names: Vec<Vec<&'static str>>,
    exits: Vec<Vec<&'static str>>,
    reflectors: Vec<Vec<&'static str>>,
}

impl Keys {
    fn new() -> Self {
        Keys {
            names: addresses(&NAMES),
            exits: addresses(&EXITS),
            reflectors: addresses(&REFLECTORS),
        }
    }

    fn content(rng: &mut DetRng) -> Content {
        let mut pick = |n: usize| rng.below(n as u64) as usize;
        let exit = pick(EXITS.len() + 1).checked_sub(1);
        let reflector = pick(REFLECTORS.len() + 1).checked_sub(1);
        Content {
            name: pick(NAMES.len()),
            exit,
            reflector,
            level: LEVELS[pick(LEVELS.len())],
            vcpu: VCPUS[pick(VCPUS.len())],
        }
    }

    /// The key `c` names, each string at a random one of its addresses.
    fn at_random_addresses(&self, c: Content, rng: &mut DetRng) -> MetricKey {
        let mut at = |table: &[Vec<&'static str>], i: usize| {
            table[i][rng.below(table[i].len() as u64) as usize]
        };
        MetricKey {
            name: at(&self.names, c.name),
            level: c.level,
            exit_reason: c.exit.map(|i| at(&self.exits, i)),
            reflector: c.reflector.map(|i| at(&self.reflectors, i)),
            vcpu: c.vcpu,
        }
    }
}

/// The content-keyed registry, saved in the registry's wire format.
#[derive(Default)]
struct Model {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    hists: BTreeMap<MetricKey, LogHistogram>,
}

snap_fields! { Model { counters, gauges, hists } }

impl Model {
    fn to_json(&self) -> Json {
        let counters = self.counters.iter();
        let gauges = self.gauges.iter();
        let hists = self.hists.iter().map(|(k, h)| {
            let [p50, p90, p99, p999] = h.summary();
            let h = Json::obj([
                ("count", Json::from(h.count())),
                ("min", Json::from(h.min())),
                ("max", Json::from(h.max())),
                ("mean", Json::Num(h.mean())),
                ("p50", Json::from(p50)),
                ("p90", Json::from(p90)),
                ("p99", Json::from(p99)),
                ("p999", Json::from(p999)),
            ]);
            (k.to_string(), h)
        });
        Json::obj([
            (
                "counters",
                Json::Obj(counters.map(|(k, &n)| (k.to_string(), n.into())).collect()),
            ),
            (
                "gauges",
                Json::Obj(
                    gauges
                        .map(|(k, &v)| (k.to_string(), Json::Num(v)))
                        .collect(),
                ),
            ),
            ("histograms", Json::Obj(hists.collect())),
        ])
    }
}

fn assert_agree(m: &MetricsRegistry, model: &Model, probes: &[MetricKey], keys: &Keys, what: &str) {
    for &k in probes {
        let want = model.counters.get(&k).copied().unwrap_or(0);
        assert_eq!(m.counter(k), want, "{what}: counter({k})");
        assert_eq!(
            m.gauge(k),
            model.gauges.get(&k).copied(),
            "{what}: gauge({k})"
        );
        assert_eq!(
            m.histogram(k).map(to_bytes),
            model.hists.get(&k).map(to_bytes),
            "{what}: histogram({k})"
        );
    }
    let counters: Vec<(MetricKey, u64)> = model.counters.iter().map(|(k, n)| (*k, *n)).collect();
    assert_eq!(
        m.iter_counters_sorted().collect::<Vec<_>>(),
        counters,
        "{what}: counters in key order"
    );
    let gauges: Vec<(MetricKey, f64)> = model.gauges.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(
        m.iter_gauges_sorted().collect::<Vec<_>>(),
        gauges,
        "{what}: gauges in key order"
    );
    let hists: Vec<(MetricKey, Vec<u8>)> =
        model.hists.iter().map(|(k, h)| (*k, to_bytes(h))).collect();
    assert_eq!(
        m.iter_histograms_sorted()
            .map(|(k, h)| (k, to_bytes(h)))
            .collect::<Vec<_>>(),
        hists,
        "{what}: histograms in key order"
    );
    for (i, addrs) in keys.names.iter().enumerate() {
        let want: u64 = model
            .counters
            .iter()
            .filter(|(k, _)| k.name == NAMES[i])
            .map(|(_, n)| n)
            .sum();
        for name in addrs {
            assert_eq!(
                m.counter_total(name),
                want,
                "{what}: counter_total({name:?})"
            );
        }
    }
    assert_eq!(
        m.to_json().to_string(),
        model.to_json().to_string(),
        "{what}: to_json"
    );
    assert_eq!(to_bytes(m), to_bytes(model), "{what}: saved bytes");
}

#[test]
fn address_index_agrees_with_content_keyed_maps() {
    let keys = Keys::new();
    let mut rng = DetRng::seed(0x4e9_0001);
    for case in 0..300 {
        let mut m = MetricsRegistry::new();
        let mut model = Model::default();
        // A few keys by content per case, so that the same key comes
        // back often, at different addresses.
        let pool: Vec<Content> = (0..rng.range(1, 8))
            .map(|_| Keys::content(&mut rng))
            .collect();
        for op in 0..rng.range(1, 60) {
            let what = format!("case {case} op {op}");
            let c = pool[rng.below(pool.len() as u64) as usize];
            let k = keys.at_random_addresses(c, &mut rng);
            match rng.below(16) {
                0..=3 => {
                    m.inc(k);
                    *model.counters.entry(k).or_default() += 1;
                }
                4..=6 => {
                    // Zero included: `add(k, 0)` admits the key.
                    let n = rng.below(4);
                    m.add(k, n);
                    *model.counters.entry(k).or_default() += n;
                }
                7..=9 => {
                    let bits = rng.below(40);
                    let v = rng.below(1 << bits);
                    m.observe(k, v);
                    model.hists.entry(k).or_default().record(v);
                }
                10 | 11 => {
                    let v = rng.below(100) as f64 / 4.0;
                    m.set_gauge(k, v);
                    model.gauges.insert(k, v);
                }
                12 => {
                    // Reads alone change nothing; the agreement check
                    // below reads every pool key too.
                    let _ = (m.counter(k), m.gauge(k), m.histogram(k).is_some());
                }
                13 => {
                    m.clear();
                    model = Model::default();
                }
                _ => {
                    // Load re-interns every string, so the loaded keys
                    // sit at other addresses than any the pool hands out;
                    // into a fresh registry or over the used one.
                    let bytes = to_bytes(&m);
                    if rng.chance(0.5) {
                        m = MetricsRegistry::new();
                    }
                    from_bytes(&mut m, &bytes).expect("registry round-trips");
                }
            }
            let probes: Vec<MetricKey> = pool
                .iter()
                .map(|&c| keys.at_random_addresses(c, &mut rng))
                .collect();
            assert_agree(&m, &model, &probes, &keys, &what);
        }
    }
}
