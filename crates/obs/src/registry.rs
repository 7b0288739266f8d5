//! The lock-free metrics registry: named counters, gauges and log₂
//! histograms registered once and sampled as immutable snapshots.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Serialize, Value};

/// Number of histogram buckets: one per possible bit length of a `u64`
/// value (bucket 0 counts exact zeros), so any nanosecond/byte/count
/// observation lands without range configuration.
pub const HIST_BUCKETS: usize = 64;

/// Maps a value to its histogram bucket (its bit length, clamped).
fn hist_bucket(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// A monotonically increasing event count. Clone-cheap handle; updates
/// are relaxed atomics (lock-free, allocation-free).
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not (yet) attached to a registry — useful as a struct
    /// field that may later be registered via [`Registry::attach_counter`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    // ordering: Relaxed — a monotone event counter; scrapes only need an
    // eventually-consistent total, never a happens-before edge.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    // ordering: Relaxed — see `add`; a scrape may lag in-flight bumps.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (queue depth, chosen tile,
/// enabled flag). Clone-cheap handle; updates are relaxed atomics.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not (yet) attached to a registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    // ordering: Relaxed — last-write-wins instantaneous value; the gauge
    // carries no payload another location must observe first.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    // ordering: Relaxed — see `set`; readers accept any recent value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins string value (e.g. the supervisor's most recent
/// decision reason). The **one documented exception** to the registry's
/// lock-freedom: updates take a mutex, so keep these off hot paths.
#[derive(Clone, Debug, Default)]
pub struct TextGauge(Arc<Mutex<String>>);

impl TextGauge {
    /// An empty text gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the value.
    pub fn set(&self, s: impl Into<String>) {
        *self.0.lock().expect("text gauge poisoned") = s.into();
    }

    /// Current value (cloned).
    pub fn get(&self) -> String {
        self.0.lock().expect("text gauge poisoned").clone()
    }
}

/// Atomic storage behind a [`Histogram`] handle.
struct HistogramInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A log₂-bucket distribution: bucket `i > 0` counts observations with
/// bit length `i` (range `[2^(i-1), 2^i)`), bucket 0 exact zeros, the
/// top bucket everything from `2^62` up. Clone-cheap handle; recording
/// is four relaxed atomic operations, no locks, no allocation.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Self(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("count", &self.value().count).finish()
    }
}

impl Histogram {
    /// An empty histogram not (yet) attached to a registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observation in.
    // ordering: Relaxed — bucket/count/sum/max are independent stat
    // accumulators; a scrape may see the bucket bump before the count
    // bump (off-by-one across fields), which histogram consumers accept.
    pub fn record(&self, v: u64) {
        let inner = &*self.0;
        inner.buckets[hist_bucket(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// An immutable copy of the current distribution.
    // ordering: Relaxed — statistical snapshot; tearing between fields
    // is tolerated (see `record`).
    pub fn value(&self) -> HistogramValue {
        let inner = &*self.0;
        HistogramValue {
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
            max: inner.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| inner.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// An immutable copy of a [`Histogram`] at sample time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramValue {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value. Cumulative — see [`HistogramValue::delta_since`].
    pub max: u64,
    /// Per-bucket counts; see [`HistogramValue::bucket_upper`] for bounds.
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistogramValue {
    /// An all-zero distribution.
    pub fn zero() -> Self {
        Self { count: 0, sum: 0, max: 0, buckets: [0; HIST_BUCKETS] }
    }

    /// The exclusive upper bound of bucket `i`, or `None` for the
    /// unbounded top bucket. Bucket 0 holds exact zeros (bound 1);
    /// bucket `i` holds `[2^(i-1), 2^i)`.
    pub fn bucket_upper(i: usize) -> Option<u64> {
        if i >= HIST_BUCKETS - 1 {
            None
        } else if i == 0 {
            Some(1)
        } else {
            Some(1u64 << i)
        }
    }

    /// Mean observed value (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The quantile `q ∈ [0, 1]` read off the buckets, reported as the
    /// containing bucket's upper bound clamped to the observed max — and
    /// as exactly the observed max for the unbounded top bucket (never a
    /// fabricated bound). `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return match Self::bucket_upper(i) {
                    Some(upper) => upper.min(self.max),
                    None => self.max,
                };
            }
        }
        self.max
    }

    /// The distribution accumulated since `earlier` (a previous value of
    /// the *same* histogram): bucket counts, `count` and `sum` subtract
    /// (saturating, so a mismatched baseline degrades to zeros instead
    /// of wrapping). `max` is kept from `self` — the atomic max is
    /// cumulative and cannot be un-observed, which the caller should
    /// treat as "max since start", not "max this interval".
    pub fn delta_since(&self, earlier: &HistogramValue) -> HistogramValue {
        HistogramValue {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
        }
    }
}

impl Serialize for HistogramValue {
    fn to_value(&self) -> Value {
        // Sparse bucket encoding: only non-empty buckets, each with its
        // bounds, so a 64-bucket histogram serializes in proportion to
        // its occupancy.
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let upper = match Self::bucket_upper(i) {
                    Some(u) => Value::U64(u),
                    None => Value::Null,
                };
                Value::Map(vec![
                    ("lower".to_string(), Value::U64(lower)),
                    ("upper".to_string(), upper),
                    ("count".to_string(), Value::U64(n)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("count".to_string(), Value::U64(self.count)),
            ("sum".to_string(), Value::U64(self.sum)),
            ("max".to_string(), Value::U64(self.max)),
            ("mean".to_string(), Value::F64(self.mean())),
            ("p50".to_string(), Value::U64(self.quantile(0.50))),
            ("p99".to_string(), Value::U64(self.quantile(0.99))),
            ("p999".to_string(), Value::U64(self.quantile(0.999))),
            ("buckets".to_string(), Value::Seq(buckets)),
        ])
    }
}

/// One metric's value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A [`Counter`] reading.
    Counter(u64),
    /// A [`Gauge`] reading.
    Gauge(u64),
    /// A [`TextGauge`] reading.
    Text(String),
    /// A [`Histogram`] reading. Boxed: the bucket array dwarfs the
    /// scalar variants, and snapshots move these values around a lot.
    Histogram(Box<HistogramValue>),
}

impl MetricValue {
    /// The numeric reading for counters and gauges, `None` otherwise.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Text(_) => "text",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

impl Serialize for MetricValue {
    fn to_value(&self) -> Value {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Value::U64(*v),
            MetricValue::Text(s) => Value::Str(s.clone()),
            MetricValue::Histogram(h) => h.to_value(),
        }
    }
}

/// Live registered metric handles.
#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Text(TextGauge),
    Histogram(Histogram),
}

impl Metric {
    fn sample(&self) -> MetricValue {
        match self {
            Metric::Counter(c) => MetricValue::Counter(c.get()),
            Metric::Gauge(g) => MetricValue::Gauge(g.get()),
            Metric::Text(t) => MetricValue::Text(t.get()),
            Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.value())),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Text(_) => "text",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The metrics registry: a name → metric map behind a mutex that is
/// touched only at registration and snapshot time. Handles returned by
/// the `counter`/`gauge`/`histogram` accessors are `Arc`'d atomics, so
/// producers update without locks, allocation or registry access.
///
/// Accessors are *get-or-register*: the first call under a name creates
/// the metric, later calls return a handle to the same cell — so many
/// producers can share one series without coordination.
///
/// # Examples
///
/// ```
/// use scissor_obs::Registry;
///
/// let reg = Registry::new();
/// let served = reg.counter("serve.requests");
/// served.inc();
/// served.add(2);
/// reg.gauge("serve.queue_depth").set(5);
/// reg.histogram("serve.latency_ns").record(1_500);
///
/// let snap = reg.snapshot();
/// assert_eq!(snap.get("serve.requests").and_then(|m| m.as_u64()), Some(3));
/// let json = serde_json::to_string(&snap).unwrap();
/// assert!(json.contains("serve.queue_depth"));
/// ```
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Registry({} metrics)", self.len())
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.lock().expect("metrics registry poisoned").len()
    }

    /// Whether no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// The counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind
    /// — a name means one series, and silently returning a fresh cell
    /// would fork it.
    pub fn counter(&self, name: &str) -> Counter {
        match self.register(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics on a metric-kind conflict (see [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.register(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// The text gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics on a metric-kind conflict (see [`Registry::counter`]).
    pub fn text(&self, name: &str) -> TextGauge {
        match self.register(name, || Metric::Text(TextGauge::new())) {
            Metric::Text(t) => t,
            other => panic!("metric `{name}` is a {}, not a text gauge", other.kind()),
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics on a metric-kind conflict (see [`Registry::counter`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.register(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// Registers an existing counter handle under `name` (for producers
    /// that create their counters before a registry exists).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn attach_counter(&self, name: &str, counter: Counter) {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let prev = metrics.insert(name.to_string(), Metric::Counter(counter));
        assert!(prev.is_none(), "metric `{name}` registered twice");
    }

    /// Samples every metric into an immutable, name-sorted [`Snapshot`].
    /// Metrics are read individually with relaxed loads, so a snapshot
    /// taken under concurrent traffic can tear by a few in-flight events
    /// — same contract as `ServeStats`.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        Snapshot { entries: metrics.iter().map(|(name, m)| (name.clone(), m.sample())).collect() }
    }
}

/// An immutable, name-sorted sample of every metric in a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    entries: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// The sampled value of `name`, if registered at sample time.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Number of sampled metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The change since `earlier` (a previous snapshot of the *same*
    /// registry): counters and histograms subtract (saturating), gauges
    /// and text keep their current reading (an instantaneous value has
    /// no meaningful difference). Metrics registered after `earlier`
    /// appear with their full value.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let entries = self
            .entries
            .iter()
            .map(|(name, v)| {
                let dv = match (v, earlier.entries.get(name)) {
                    (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                        MetricValue::Counter(now.saturating_sub(*then))
                    }
                    (MetricValue::Histogram(now), Some(MetricValue::Histogram(then))) => {
                        MetricValue::Histogram(Box::new(now.delta_since(then)))
                    }
                    _ => v.clone(),
                };
                (name.clone(), dv)
            })
            .collect();
        Snapshot { entries }
    }

    /// Renders the snapshot as an aligned three-column text table
    /// (`name  kind  value`), histograms summarized as
    /// `count/mean/p50/p99/p999/max`.
    pub fn render_table(&self) -> String {
        let name_w = self.entries.keys().map(String::len).max().unwrap_or(4).max(4);
        let mut out = String::new();
        let _ = writeln!(out, "{:<name_w$}  {:<9}  value", "name", "kind");
        for (name, v) in &self.entries {
            let rendered = match v {
                MetricValue::Counter(n) | MetricValue::Gauge(n) => n.to_string(),
                MetricValue::Text(s) => format!("{s:?}"),
                MetricValue::Histogram(h) => format!(
                    "count={} mean={:.1} p50={} p99={} p999={} max={}",
                    h.count,
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.quantile(0.999),
                    h.max
                ),
            };
            let _ = writeln!(out, "{name:<name_w$}  {:<9}  {rendered}", v.kind());
        }
        out
    }
}

impl Serialize for Snapshot {
    fn to_value(&self) -> Value {
        Value::Map(self.entries.iter().map(|(n, v)| (n.clone(), v.to_value())).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_text_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Second accessor call returns a handle to the same cell.
        reg.counter("c").inc();
        assert_eq!(c.get(), 6);
        reg.gauge("g").set(9);
        reg.gauge("g").set(3);
        reg.text("t").set("hello");
        let snap = reg.snapshot();
        assert_eq!(snap.get("c"), Some(&MetricValue::Counter(6)));
        assert_eq!(snap.get("g"), Some(&MetricValue::Gauge(3)));
        assert_eq!(snap.get("t"), Some(&MetricValue::Text("hello".into())));
        assert_eq!(snap.len(), 3);
        assert!(!snap.is_empty());
        assert_eq!(reg.len(), 3);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_conflicts_panic_instead_of_forking_the_series() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn attach_counter_rejects_duplicates() {
        let reg = Registry::new();
        let c = Counter::new();
        c.add(7);
        reg.attach_counter("pre", c.clone());
        assert_eq!(reg.snapshot().get("pre"), Some(&MetricValue::Counter(7)));
        let dup = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.attach_counter("pre", Counter::new());
        }));
        assert!(dup.is_err(), "re-registering a name must panic");
    }

    #[test]
    fn histogram_buckets_are_log2_with_true_bounds() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(2), 2);
        assert_eq!(hist_bucket(3), 2);
        assert_eq!(hist_bucket(4), 3);
        assert_eq!(hist_bucket(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(HistogramValue::bucket_upper(0), Some(1));
        assert_eq!(HistogramValue::bucket_upper(3), Some(8));
        assert_eq!(HistogramValue::bucket_upper(HIST_BUCKETS - 1), None);
    }

    #[test]
    fn histogram_quantiles_clamp_to_observed_max() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(1_000);
        }
        // One extreme outlier in the unbounded top bucket: its quantile
        // must report the *observed* max, not a fabricated 2^63 bound.
        h.record(1u64 << 63);
        let v = h.value();
        assert_eq!(v.count, 100);
        assert_eq!(v.quantile(0.5), 1_024);
        assert_eq!(v.quantile(1.0), 1u64 << 63);
        assert_eq!(v.max, 1u64 << 63);
        assert!(v.mean() > 0.0);
        // Empty histogram: all zeros.
        assert_eq!(HistogramValue::zero().quantile(0.99), 0);

        // 90 requests at ~1 µs, 9 at ~1 ms, 1 at ~1 s: p50/p90 read the
        // [512, 1024) bucket's upper bound, p95/p99 the ~1 ms bucket's,
        // and q = 1.0 lands in a bounded bucket (upper 2^30) whose bound
        // exceeds the observed max, so it clamps to the max.
        let h = Histogram::new();
        for (n, v) in [(90, 1_000), (9, 1_000_000), (1, 1_000_000_000)] {
            for _ in 0..n {
                h.record(v);
            }
        }
        let v = h.value();
        assert_eq!(v.quantile(0.50), 1_024);
        assert_eq!(v.quantile(0.90), 1_024);
        assert_eq!(v.quantile(0.95), 1 << 20);
        assert_eq!(v.quantile(0.99), 1 << 20);
        assert_eq!(v.quantile(1.0), 1_000_000_000);
        assert!(v.quantile(0.99) <= v.quantile(0.999));

        // 900 fast requests and exactly one slow one (rank
        // ceil(0.999 · 901) = 901): p99 stays in the fast bucket, p99.9
        // reaches the slow one, clamped from 2^20 to the observed 1 ms.
        let h = Histogram::new();
        for _ in 0..900 {
            h.record(1_000);
        }
        h.record(1_000_000);
        let v = h.value();
        assert_eq!(v.quantile(0.99), 1_024);
        assert_eq!(v.quantile(0.999), 1_000_000);
    }

    #[test]
    fn serialized_buckets_have_disjoint_bounds() {
        // Bucket 0 holds exact zeros and bucket 1 exactly the value 1:
        // their encoded ranges must not overlap.
        let h = Histogram::new();
        for v in [0, 1, 3] {
            h.record(v);
        }
        let json = serde_json::to_string(&h.value().to_value()).unwrap();
        assert!(
            json.contains(
                "\"buckets\":[{\"lower\":0,\"upper\":1,\"count\":1},\
                 {\"lower\":1,\"upper\":2,\"count\":1},\
                 {\"lower\":2,\"upper\":4,\"count\":1}]"
            ),
            "{json}"
        );
    }

    #[test]
    fn snapshot_delta_subtracts_counters_and_histograms_keeps_gauges() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let g = reg.gauge("g");
        let h = reg.histogram("h");
        c.add(10);
        g.set(100);
        h.record(8);
        h.record(8);
        let before = reg.snapshot();
        c.add(5);
        g.set(42);
        h.record(16);
        let delta = reg.snapshot().delta_since(&before);
        assert_eq!(delta.get("c"), Some(&MetricValue::Counter(5)));
        assert_eq!(delta.get("g"), Some(&MetricValue::Gauge(42)), "gauges keep current value");
        match delta.get("h") {
            Some(MetricValue::Histogram(hv)) => {
                assert_eq!(hv.count, 1, "one new observation this interval");
                assert_eq!(hv.sum, 16);
                assert_eq!(hv.buckets[hist_bucket(16)], 1);
                assert_eq!(hv.buckets[hist_bucket(8)], 0);
            }
            other => panic!("expected histogram delta, got {other:?}"),
        }
        // A metric registered after the baseline appears whole.
        reg.counter("late").add(3);
        let delta2 = reg.snapshot().delta_since(&before);
        assert_eq!(delta2.get("late"), Some(&MetricValue::Counter(3)));
    }

    #[test]
    fn snapshot_serializes_to_json_and_renders_a_table() {
        let reg = Registry::new();
        reg.counter("serve.requests").add(3);
        reg.gauge("serve.depth").set(1);
        reg.text("ctrl.reason").set("steady");
        reg.histogram("lat").record(100);
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap.to_value()).unwrap();
        assert!(json.contains("\"serve.requests\":3"), "{json}");
        assert!(json.contains("\"ctrl.reason\":\"steady\""), "{json}");
        assert!(json.contains("\"p999\""), "{json}");
        let table = snap.render_table();
        assert!(table.contains("serve.requests"));
        assert!(table.contains("counter"));
        assert!(table.contains("count=1"), "{table}");
        // Aligned: every line has the kind column at the same offset.
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 5, "header + 4 metrics");
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let reg = std::sync::Arc::new(Registry::new());
        let c = reg.counter("hits");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.snapshot().get("hits").and_then(|m| m.as_u64()), Some(40_000));
    }
}
