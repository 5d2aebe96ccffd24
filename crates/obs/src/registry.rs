//! The typed metrics registry.
//!
//! Counters, gauges and log-bucketed latency histograms keyed by
//! structured [`MetricKey`]s. The registry is where the simulator counts
//! events: everything here can be exported to JSON, sliced by
//! level/exit-reason/reflector, and diffed across runs.
//!
//! # Storage layout
//!
//! Metric updates sit on the simulator's per-trap hot path, so the
//! registry does not pay a `HashMap<MetricKey, _>` probe per update.
//! Instead every key is interned once into a small integer id (an
//! FNV-keyed id table — the key population per run is tiny and fixed
//! after warm-up), and each category (counters/gauges/histograms) stores
//! its values in a dense id-indexed vector. The id list of each category
//! is kept sorted by key as ids are admitted, so the `*_sorted` report
//! accessors are cached reads rather than collect-then-sort churn.

use svt_sim::snapshot::{load_new, Sink, Snap, SnapError, SnapReader};
use svt_sim::FnvHashMap;

use crate::hist::LogHistogram;
use crate::json::Json;
use crate::key::MetricKey;

/// One metric category's dense store: values indexed by interned key id,
/// plus the category's id list pre-sorted by key order.
#[derive(Debug, Clone, Default)]
struct Dense<T> {
    slots: Vec<Option<T>>,
    sorted: Vec<u32>,
}

impl<T> Dense<T> {
    /// The slot for `id`, created via `init` on first touch (which also
    /// binary-inserts the id into the category's sorted order — rare, so
    /// the O(n) insert never shows up in profiles).
    #[inline]
    fn ensure(&mut self, id: u32, keys: &[MetricKey], init: impl FnOnce() -> T) -> &mut T {
        let i = id as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        if self.slots[i].is_none() {
            self.slots[i] = Some(init());
            let key = keys[i];
            let pos = self.sorted.partition_point(|&j| keys[j as usize] < key);
            self.sorted.insert(pos, id);
        }
        self.slots[i].as_mut().expect("slot just ensured")
    }

    #[inline]
    fn get(&self, id: u32) -> Option<&T> {
        self.slots.get(id as usize).and_then(|s| s.as_ref())
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.sorted.clear();
    }

    /// Values in key order, without sorting (the order is maintained).
    fn iter_sorted<'a>(
        &'a self,
        keys: &'a [MetricKey],
    ) -> impl Iterator<Item = (MetricKey, &'a T)> + 'a {
        self.sorted.iter().map(move |&id| {
            (
                keys[id as usize],
                self.slots[id as usize].as_ref().expect("sorted id is live"),
            )
        })
    }
}

impl<T: Snap> Dense<T> {
    /// Writes the category as a length plus `(key, value)` pairs in key
    /// order.
    fn save<S: Sink + ?Sized>(&self, keys: &[MetricKey], w: &mut S) {
        self.sorted.len().save(w);
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
            ids: _,
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
            let id = self.intern(k);
            *self.hists.ensure(id, &self.keys, LogHistogram::default) = h;
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
    ids: FnvHashMap<MetricKey, u32>,
    keys: Vec<MetricKey>,
    counters: Dense<u64>,
    gauges: Dense<f64>,
    hists: Dense<LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Interns `key`, returning its small-int id (stable for the life of
    /// the registry).
    #[inline]
    fn intern(&mut self, key: MetricKey) -> u32 {
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        self.intern_slow(key)
    }

    #[cold]
    fn intern_slow(&mut self, key: MetricKey) -> u32 {
        let id = u32::try_from(self.keys.len()).expect("metric key population overflow");
        self.keys.push(key);
        self.ids.insert(key, id);
        id
    }

    #[inline]
    fn id_of(&self, key: MetricKey) -> Option<u32> {
        self.ids.get(&key).copied()
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, key: MetricKey) {
        self.add(key, 1);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, key: MetricKey, n: u64) {
        let id = self.intern(key);
        *self.counters.ensure(id, &self.keys, || 0) += n;
    }

    /// Current counter value (0 if never incremented).
    #[inline]
    pub fn counter(&self, key: MetricKey) -> u64 {
        self.id_of(key)
            .and_then(|id| self.counters.get(id))
            .copied()
            .unwrap_or(0)
    }

    /// Sets a gauge to an instantaneous value.
    #[inline]
    pub fn set_gauge(&mut self, key: MetricKey, v: f64) {
        let id = self.intern(key);
        *self.gauges.ensure(id, &self.keys, || 0.0) = v;
    }

    /// Current gauge value, if ever set.
    pub fn gauge(&self, key: MetricKey) -> Option<f64> {
        self.id_of(key).and_then(|id| self.gauges.get(id)).copied()
    }

    /// Records one value into the key's histogram.
    #[inline]
    pub fn observe(&mut self, key: MetricKey, v: u64) {
        let id = self.intern(key);
        self.hists
            .ensure(id, &self.keys, LogHistogram::default)
            .record(v);
    }

    /// The histogram for a key, if any values were observed.
    pub fn histogram(&self, key: MetricKey) -> Option<&LogHistogram> {
        self.id_of(key).and_then(|id| self.hists.get(id))
    }

    /// All counters in key order, without allocating (the sort is
    /// maintained incrementally as keys are admitted).
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

    /// Drops all recorded metrics.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.keys.clear();
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
        // A loaded key's strings are re-interned copies: the key must
        // hash and compare by content to reach the same id.
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
