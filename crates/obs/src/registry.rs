//! The typed metrics registry.
//!
//! Counters, gauges and log-bucketed latency histograms keyed by
//! structured [`MetricKey`]s. The registry is where the simulator counts
//! events: everything here can be exported to JSON, sliced by
//! level/exit-reason/reflector, and diffed across runs.
//!
//! # Storage layout
//!
//! Metric updates sit on the simulator's per-trap hot path, several per
//! trap, so an update resolves its key with integer compares only. Every
//! key is interned once into a small integer id, and each category
//! (counters/gauges/histograms) stores its values in a dense id-indexed
//! vector. The intern index is keyed by the key's *addresses*: pointer
//! and length of each string, plus level and vCPU. Call sites build keys
//! from string literals, which keep one address for the life of the
//! process, so a steady-state update hashes and compares a few words and
//! never reads the strings.
//!
//! Strings are compared by content only the first time an address tuple
//! is seen: when a key is admitted, when a literal at another address (or
//! a string re-interned by a snapshot load) aliases an admitted key, and
//! when a reader misses the index. That lookup is a binary search of the
//! id list kept in key order, which is also the order every report and
//! the snapshot iterate in.

use svt_sim::snapshot::{load_new, Sink, Snap, SnapError, SnapReader};

use crate::hist::LogHistogram;
use crate::json::Json;
use crate::key::MetricKey;

/// A key by address: each string's pointer and length, `(0, 0)` for an
/// absent dimension (a `&str` is never null), then the level and vCPU in
/// one word. Equal tuples are equal keys; an equal key at other
/// addresses is another tuple for the same id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Addr([u64; 7]);

impl Addr {
    #[inline]
    fn of(key: MetricKey) -> Self {
        let at = |s: Option<&str>| s.map_or((0, 0), |s| (s.as_ptr() as u64, s.len() as u64));
        let (name, name_len) = at(Some(key.name));
        let (exit, exit_len) = at(key.exit_reason);
        let (refl, refl_len) = at(key.reflector);
        let level = key.level.map_or(0, |l| 1 + l.tid());
        let dims = level << 33 | key.vcpu.map_or(0, |v| 1 << 32 | u64::from(v));
        Addr([name, name_len, exit, exit_len, refl, refl_len, dims])
    }

    /// The all-zero tuple marks an empty index slot: no key has it,
    /// because a name's pointer is never null.
    #[inline]
    fn is_empty(&self) -> bool {
        self.0[0] == 0
    }

    /// Multiplicative hash; the index reads its top bits. The four
    /// products are independent, so they overlap in the pipeline.
    #[inline]
    fn hash(&self) -> u64 {
        let [name, name_len, exit, exit_len, refl, refl_len, dims] = self.0;
        (name ^ name_len << 48).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (exit ^ exit_len << 48).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            ^ (refl ^ refl_len << 48).wrapping_mul(0x1656_67b1_9e37_79f9)
            ^ dims.wrapping_mul(0x85eb_ca77_c2b2_ae63)
    }
}

/// Interned keys: the address index, the keys by id, and the ids in key
/// order. Ids are dense and live as long as the registry; `clear` drops
/// values, not ids.
#[derive(Debug, Clone, Default)]
struct Interner {
    /// Open addressing with linear probing; a power of two long and at
    /// most half full, so a probe ends at an empty slot.
    index: Vec<(Addr, u32)>,
    /// Filled `index` slots: one per address tuple seen.
    tuples: usize,
    keys: Vec<MetricKey>,
    sorted: Vec<u32>,
}

impl Interner {
    /// The id an address tuple was seen with, by integer compares.
    #[inline]
    fn by_addr(&self, addr: &Addr) -> Option<u32> {
        let mask = self.index.len().checked_sub(1)?;
        let mut i = self.home(addr);
        loop {
            let (seen, id) = &self.index[i];
            if seen == addr {
                return Some(*id);
            }
            if seen.is_empty() {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn home(&self, addr: &Addr) -> usize {
        (addr.hash() >> (64 - self.index.len().trailing_zeros())) as usize
    }

    /// The id of a key equal to `key` by content, else the position its
    /// id would take in `sorted`.
    fn by_content(&self, key: MetricKey) -> Result<u32, usize> {
        self.sorted
            .binary_search_by(|&id| self.keys[id as usize].cmp(&key))
            .map(|pos| self.sorted[pos])
    }

    /// The key's id if it was ever interned, without interning it.
    #[inline]
    fn get(&self, key: MetricKey) -> Option<u32> {
        self.by_addr(&Addr::of(key))
            .or_else(|| self.by_content(key).ok())
    }

    /// The key's id, interning the key (or its address tuple) on first
    /// sight.
    #[inline]
    fn intern(&mut self, key: MetricKey) -> u32 {
        let addr = Addr::of(key);
        match self.by_addr(&addr) {
            Some(id) => id,
            None => self.admit(key, addr),
        }
    }

    #[cold]
    fn admit(&mut self, key: MetricKey, addr: Addr) -> u32 {
        let id = self.by_content(key).unwrap_or_else(|pos| {
            let id = u32::try_from(self.keys.len()).expect("metric key population overflow");
            self.keys.push(key);
            self.sorted.insert(pos, id);
            id
        });
        if 2 * (self.tuples + 1) > self.index.len() {
            let old = std::mem::take(&mut self.index);
            self.index = vec![(Addr::default(), 0); (2 * old.len()).max(16)];
            for (seen, id) in old.into_iter().filter(|(a, _)| !a.is_empty()) {
                self.place(seen, id);
            }
        }
        self.place(addr, id);
        self.tuples += 1;
        id
    }

    /// Puts a tuple known to be absent into the first empty slot of its
    /// probe sequence.
    fn place(&mut self, addr: Addr, id: u32) {
        let mask = self.index.len() - 1;
        let mut i = self.home(&addr);
        while !self.index[i].0.is_empty() {
            i = (i + 1) & mask;
        }
        self.index[i] = (addr, id);
    }
}

/// One metric category's dense store: values indexed by interned key id.
#[derive(Debug, Clone, Default)]
struct Dense<T> {
    slots: Vec<Option<T>>,
}

impl<T> Dense<T> {
    /// The slot for `id`, created via `init` on first touch.
    #[inline]
    fn ensure(&mut self, id: u32, init: impl FnOnce() -> T) -> &mut T {
        let i = id as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i].get_or_insert_with(init)
    }

    #[inline]
    fn get(&self, id: u32) -> Option<&T> {
        self.slots.get(id as usize).and_then(|s| s.as_ref())
    }

    fn clear(&mut self) {
        self.slots.clear();
    }

    /// The category's values in key order, without sorting.
    fn iter_sorted<'a>(
        &'a self,
        keys: &'a Interner,
    ) -> impl Iterator<Item = (MetricKey, &'a T)> + 'a {
        keys.sorted
            .iter()
            .filter_map(move |&id| Some((keys.keys[id as usize], self.get(id)?)))
    }
}

impl<T: Snap> Dense<T> {
    /// Writes the category as a length plus `(key, value)` pairs in key
    /// order.
    fn save<S: Sink + ?Sized>(&self, keys: &Interner, w: &mut S) {
        self.iter_sorted(keys).count().save(w);
        for (k, v) in self.iter_sorted(keys) {
            k.save(w);
            v.save(w);
        }
    }
}

/// Counters, gauges and histograms, each category in key order. Intern
/// ids are not part of the wire format, so a loaded registry saves the
/// same bytes.
impl Snap for MetricsRegistry {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        let MetricsRegistry {
            keys,
            counters,
            gauges,
            hists,
        } = self;
        counters.save(keys, w);
        gauges.save(keys, w);
        hists.save(keys, w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.clear();
        for (k, n) in load_new::<Vec<(MetricKey, u64)>>(r)? {
            self.add(k, n);
        }
        for (k, v) in load_new::<Vec<(MetricKey, f64)>>(r)? {
            self.set_gauge(k, v);
        }
        for (k, h) in load_new::<Vec<(MetricKey, LogHistogram)>>(r)? {
            let id = self.keys.intern(k);
            *self.hists.ensure(id, LogHistogram::default) = h;
        }
        Ok(())
    }
}

/// Counters, gauges and histograms for one run.
///
/// # Examples
///
/// ```
/// use svt_obs::{MetricKey, MetricsRegistry, ObsLevel};
///
/// let mut m = MetricsRegistry::new();
/// let k = MetricKey::new("vm_exit").level(ObsLevel::L2).exit("CPUID");
/// m.inc(k);
/// m.observe(MetricKey::new("trap_latency_ps"), 10_400_000);
/// assert_eq!(m.counter(k), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    keys: Interner,
    counters: Dense<u64>,
    gauges: Dense<f64>,
    hists: Dense<LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, key: MetricKey) {
        self.add(key, 1);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, key: MetricKey, n: u64) {
        let id = self.keys.intern(key);
        *self.counters.ensure(id, || 0) += n;
    }

    /// Current counter value (0 if never incremented).
    #[inline]
    pub fn counter(&self, key: MetricKey) -> u64 {
        self.keys
            .get(key)
            .and_then(|id| self.counters.get(id))
            .copied()
            .unwrap_or(0)
    }

    /// Sets a gauge to an instantaneous value.
    #[inline]
    pub fn set_gauge(&mut self, key: MetricKey, v: f64) {
        let id = self.keys.intern(key);
        *self.gauges.ensure(id, || 0.0) = v;
    }

    /// Current gauge value, if ever set.
    pub fn gauge(&self, key: MetricKey) -> Option<f64> {
        self.keys
            .get(key)
            .and_then(|id| self.gauges.get(id))
            .copied()
    }

    /// Records one value into the key's histogram.
    #[inline]
    pub fn observe(&mut self, key: MetricKey, v: u64) {
        let id = self.keys.intern(key);
        self.hists.ensure(id, LogHistogram::default).record(v);
    }

    /// The histogram for a key, if any values were observed.
    pub fn histogram(&self, key: MetricKey) -> Option<&LogHistogram> {
        self.keys.get(key).and_then(|id| self.hists.get(id))
    }

    /// All counters in key order, without allocating (the key order is
    /// maintained as keys are admitted).
    pub fn iter_counters_sorted(&self) -> impl Iterator<Item = (MetricKey, u64)> + '_ {
        self.counters.iter_sorted(&self.keys).map(|(k, &n)| (k, n))
    }

    /// All gauges in key order, without allocating.
    pub fn iter_gauges_sorted(&self) -> impl Iterator<Item = (MetricKey, f64)> + '_ {
        self.gauges.iter_sorted(&self.keys).map(|(k, &v)| (k, v))
    }

    /// All histograms in key order, without allocating.
    pub fn iter_histograms_sorted(&self) -> impl Iterator<Item = (MetricKey, &LogHistogram)> {
        self.hists.iter_sorted(&self.keys)
    }

    /// Sum of all counters sharing `name`, across every dimension
    /// combination.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.iter_counters_sorted()
            .filter(|(k, _)| k.name == name)
            .map(|(_, n)| n)
            .sum()
    }

    /// Drops all recorded metrics. Interned keys stay, so the updates
    /// that follow (a measured run after its warm-up) resolve as fast as
    /// before.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.hists.clear();
    }

    /// Exports everything as one JSON object with `counters`, `gauges` and
    /// `histograms` sections, each keyed by the metric's display form.
    pub fn to_json(&self) -> Json {
        let counters = self
            .iter_counters_sorted()
            .map(|(k, n)| (k.to_string(), Json::from(n)))
            .collect::<Vec<_>>();
        let gauges = self
            .iter_gauges_sorted()
            .map(|(k, v)| (k.to_string(), Json::Num(v)))
            .collect::<Vec<_>>();
        let hists = self
            .iter_histograms_sorted()
            .map(|(k, h)| {
                let [p50, p90, p99, p999] = h.summary();
                (
                    k.to_string(),
                    Json::obj([
                        ("count", Json::from(h.count())),
                        ("min", Json::from(h.min())),
                        ("max", Json::from(h.max())),
                        ("mean", Json::Num(h.mean())),
                        ("p50", Json::from(p50)),
                        ("p90", Json::from(p90)),
                        ("p99", Json::from(p99)),
                        ("p999", Json::from(p999)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("histograms", Json::Obj(hists)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::ObsLevel;

    #[test]
    fn counters_accumulate_per_key() {
        let mut m = MetricsRegistry::new();
        let cpuid = MetricKey::new("vm_exit").level(ObsLevel::L2).exit("CPUID");
        let msr = MetricKey::new("vm_exit")
            .level(ObsLevel::L2)
            .exit("MSR_WRITE");
        m.inc(cpuid);
        m.inc(cpuid);
        m.add(msr, 3);
        assert_eq!(m.counter(cpuid), 2);
        assert_eq!(m.counter(msr), 3);
        assert_eq!(m.counter_total("vm_exit"), 5);
        assert_eq!(m.counter(MetricKey::new("vm_exit")), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        let k = MetricKey::new("queue_depth");
        m.set_gauge(k, 3.0);
        m.set_gauge(k, 5.0);
        assert_eq!(m.gauge(k), Some(5.0));
        assert_eq!(m.gauge(MetricKey::new("missing")), None);
    }

    #[test]
    fn histograms_observe() {
        let mut m = MetricsRegistry::new();
        let k = MetricKey::new("trap_latency_ps");
        for v in 1..=100u64 {
            m.observe(k, v * 1000);
        }
        let h = m.histogram(k).unwrap();
        assert_eq!(h.count(), 100);
        let (lo, hi) = h.percentile_bounds(50.0);
        assert!(lo <= 50_000 && 50_000 <= hi);
    }

    #[test]
    fn json_export_is_deterministic_and_parses() {
        let mut m = MetricsRegistry::new();
        m.inc(MetricKey::new("b"));
        m.inc(MetricKey::new("a"));
        m.set_gauge(MetricKey::new("g"), 1.5);
        m.observe(MetricKey::new("h"), 42);
        let a = m.to_json().to_string();
        let b = m.to_json().to_string();
        assert_eq!(a, b);
        let parsed = Json::parse(&a).unwrap();
        let counters = parsed.get("counters").unwrap().as_obj().unwrap();
        // Sorted by key: "a" before "b".
        assert_eq!(counters[0].0, "a");
        assert_eq!(
            parsed
                .get("histograms")
                .unwrap()
                .get("h")
                .unwrap()
                .get("count")
                .unwrap()
                .as_i64(),
            Some(1)
        );
    }

    #[test]
    fn clear_resets() {
        let mut m = MetricsRegistry::new();
        m.inc(MetricKey::new("x"));
        m.clear();
        assert_eq!(m.counter(MetricKey::new("x")), 0);
        assert_eq!(m.iter_counters_sorted().count(), 0);
    }

    #[test]
    fn cached_sort_matches_full_sort_under_interleaved_admission() {
        // Keys admitted in adversarial order across all three categories
        // must still iterate in exactly the order a collect-then-sort
        // would have produced.
        let mut m = MetricsRegistry::new();
        let names = ["zeta", "alpha", "mid", "beta", "omega", "a", "z"];
        for (i, n) in names.iter().enumerate() {
            let k = MetricKey::new(n).vcpu(i as u32 % 3);
            m.add(k, i as u64 + 1);
            m.set_gauge(k, i as f64);
            m.observe(k, 10 + i as u64);
        }
        // Same name with different dimensions interleaved too.
        m.inc(MetricKey::new("mid"));
        m.inc(MetricKey::new("mid").level(ObsLevel::L0));

        let counters: Vec<(MetricKey, u64)> = m.iter_counters_sorted().collect();
        let mut expect = counters.clone();
        expect.sort_by_key(|(k, _)| *k);
        assert_eq!(counters, expect);

        let gauge_keys: Vec<MetricKey> = m.iter_gauges_sorted().map(|(k, _)| k).collect();
        let mut sorted_gauge_keys = gauge_keys.clone();
        sorted_gauge_keys.sort();
        assert_eq!(gauge_keys, sorted_gauge_keys);

        let hist_keys: Vec<MetricKey> = m.iter_histograms_sorted().map(|(k, _)| k).collect();
        let mut sorted_hist_keys = hist_keys.clone();
        sorted_hist_keys.sort();
        assert_eq!(hist_keys, sorted_hist_keys);
    }

    #[test]
    fn add_zero_admits_the_key() {
        // `add(key, 0)` has always created the entry; reports rely on it.
        let mut m = MetricsRegistry::new();
        m.add(MetricKey::new("seen"), 0);
        let counters: Vec<(MetricKey, u64)> = m.iter_counters_sorted().collect();
        assert_eq!(counters, vec![(MetricKey::new("seen"), 0)]);
    }

    #[test]
    fn reinterned_keys_find_their_ids_after_a_load() {
        // A loaded key's strings are re-interned copies at other
        // addresses: the literal key must alias the loaded id.
        let key = MetricKey::new("vm_exit_with_a_long_name")
            .level(ObsLevel::L2)
            .exit("EPT_MISCONFIG")
            .reflector("sw-svt")
            .vcpu(3);
        let mut m = MetricsRegistry::new();
        m.add(key, 5);
        m.add(MetricKey::new("vm_exit_with_a_long_name").vcpu(3), 1);
        let mut back = MetricsRegistry::new();
        svt_sim::snapshot::from_bytes(&mut back, &svt_sim::snapshot::to_bytes(&m)).unwrap();
        back.inc(key);
        assert_eq!(back.counter(key), 6);
        assert_eq!(back.counter_total("vm_exit_with_a_long_name"), 7);
        assert_eq!(back.iter_counters_sorted().count(), 2);
    }
}
