//! Serving counters: the per-model `scissor_obs` handles every replica
//! of a model records into, plus each replica's own routing signals.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use scissor_obs::{Counter, Histogram, HistogramValue, Registry};

/// Default smoothing factor for the per-replica service-time EWMA, in
/// percent (`20` ⇒ α = 0.2: each new batch contributes a fifth of the
/// estimate — responsive to drift, robust to one-off stalls).
pub const DEFAULT_EWMA_ALPHA_PCT: u8 = 20;

/// An exponentially-weighted moving average: `v' = α·x + (1−α)·v`, with
/// `α` fixed at construction as a percentage in `[1, 100]`.
///
/// The estimator the latency-aware router routes on. Its two contracts
/// (property-tested in `tests/ewma_prop.rs`):
///
/// * the estimate always lies within the closed min/max envelope of the
///   observations so far (α = 100 degenerates to "latest sample");
/// * on constant input it converges monotonically toward that constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha_pct: u8,
    value: Option<f64>,
}

impl Ewma {
    /// A fresh estimator with smoothing `alpha_pct` clamped to `[1, 100]`.
    pub fn new(alpha_pct: u8) -> Self {
        Self { alpha_pct: alpha_pct.clamp(1, 100), value: None }
    }

    /// Folds one observation in and returns the updated estimate. The
    /// first observation seeds the estimate exactly.
    pub fn update(&mut self, x: f64) -> f64 {
        let alpha = f64::from(self.alpha_pct) / 100.0;
        let v = match self.value {
            None => x,
            Some(v) => alpha * x + (1.0 - alpha) * v,
        };
        self.value = Some(v);
        v
    }

    /// The current estimate; `None` before any observation.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// One model's serving counters: [`scissor_obs`] handles that every
/// replica of the model records into.
///
/// The cells live as long as any handle, so they outlive the replicas
/// recording into them: a scale-down needs no hand-off for cumulative
/// counts to stay monotone. Clones share the cells.
#[derive(Debug, Clone, Default)]
pub struct ServeMetrics {
    latency_ns: Histogram,
    batch_size: Histogram,
    full_batches: Counter,
    shed: Counter,
    infer_ns: Counter,
}

impl ServeMetrics {
    /// Private cells, attached to no registry (a standalone replica's).
    pub fn new() -> Self {
        Self::default()
    }

    /// The set registered in `registry` under `prefix`, creating it on
    /// first use (get-or-register, so equal prefixes share cells):
    ///
    /// * `<prefix>.latency_ns` — submit→delivery latency histogram;
    /// * `<prefix>.batch_size` — one observation per forward pass, so its
    ///   count is the batch count and its sum the sample count;
    /// * `<prefix>.full_batches` — batches flushed at `max_batch`;
    /// * `<prefix>.shed` — submissions rejected at a replica's queue cap;
    /// * `<prefix>.infer_ns` — time spent inside `infer_into`.
    ///
    /// # Panics
    ///
    /// Panics if one of the names is registered as another metric kind.
    pub fn register(registry: &Registry, prefix: &str) -> Self {
        Self {
            latency_ns: registry.histogram(&format!("{prefix}.latency_ns")),
            batch_size: registry.histogram(&format!("{prefix}.batch_size")),
            full_batches: registry.counter(&format!("{prefix}.full_batches")),
            shed: registry.counter(&format!("{prefix}.shed")),
            infer_ns: registry.counter(&format!("{prefix}.infer_ns")),
        }
    }

    /// A reading of the counters, completed with the two per-replica
    /// gauges the caller supplies.
    ///
    /// Cells are read one by one without a lock, so a reading taken
    /// mid-batch can tear: e.g. see a batch's `full_batches` increment
    /// but not its batch count. Reading `full_batches` first makes that
    /// unlikely; `timeout_batches` saturates, which is the actual guard.
    pub fn read(&self, queue_depth: u64, ewma_service_ns: u64) -> ServeStats {
        let full_batches = self.full_batches.get();
        let batch_size = self.batch_size.value();
        let latency = self.latency_ns.value();
        ServeStats {
            requests: latency.count,
            batches: batch_size.count,
            samples: batch_size.sum,
            full_batches,
            shed: self.shed.get(),
            queue_depth,
            infer_time: Duration::from_nanos(self.infer_ns.get()),
            latency,
            ewma_service_ns,
        }
    }
}

/// One replica's recorder: the model's shared [`ServeMetrics`] plus the
/// replica's own queue-depth gauge and service-time EWMA, which routing
/// reads per replica.
pub(crate) struct StatsInner {
    metrics: ServeMetrics,
    queue_depth: AtomicU64,
    /// Per-sample service-time EWMA as f64 bits; `0` = no batch yet (a
    /// genuine 0.0 estimate is stored as `-0.0` bits, numerically equal).
    ewma_service_bits: AtomicU64,
    ewma_alpha_pct: u8,
}

impl Default for StatsInner {
    fn default() -> Self {
        Self::new(ServeMetrics::new(), DEFAULT_EWMA_ALPHA_PCT)
    }
}

impl StatsInner {
    pub(crate) fn new(metrics: ServeMetrics, ewma_alpha_pct: u8) -> Self {
        Self {
            metrics,
            queue_depth: AtomicU64::new(0),
            ewma_service_bits: AtomicU64::new(0),
            ewma_alpha_pct: ewma_alpha_pct.clamp(1, 100),
        }
    }

    pub(crate) fn record_request(&self, latency_ns: u64) {
        self.metrics.latency_ns.record(latency_ns);
    }

    pub(crate) fn record_batch(&self, size: u64, full: bool, infer_ns: u64) {
        self.metrics.batch_size.record(size);
        if full {
            self.metrics.full_batches.inc();
        }
        self.metrics.infer_ns.add(infer_ns);
        if size > 0 {
            self.record_service(infer_ns as f64 / size as f64);
        }
    }

    /// Folds one per-sample service-time observation into the EWMA with a
    /// CAS loop (several batcher threads may land batches concurrently).
    // ordering: Relaxed — the CAS loop only needs atomicity of the
    // single u64 cell (lost-update prevention); the EWMA value is
    // self-contained and readers take any recent estimate.
    fn record_service(&self, per_sample_ns: f64) {
        let alpha_pct = self.ewma_alpha_pct;
        let _ = self.ewma_service_bits.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
            let mut e = Ewma {
                alpha_pct,
                value: if bits == 0 { None } else { Some(f64::from_bits(bits)) },
            };
            let v = e.update(per_sample_ns);
            Some(if v == 0.0 { (-0.0f64).to_bits() } else { v.to_bits() })
        });
    }

    /// Current per-sample service-time EWMA in nanoseconds (rounded);
    /// `0` until the first batch lands. Lock-free.
    // ordering: Relaxed — self-contained estimate; see `record_service`.
    pub(crate) fn ewma_service_ns(&self) -> u64 {
        let bits = self.ewma_service_bits.load(Ordering::Relaxed);
        if bits == 0 {
            0
        } else {
            f64::from_bits(bits).round().max(0.0) as u64
        }
    }

    /// Clears the service-time EWMA so the estimator re-learns from
    /// scratch (a rebalance actuation: stale estimates should not keep
    /// steering traffic after conditions changed).
    // ordering: Relaxed — see `record_service`: the cell is
    // self-contained; a racing CAS may legitimately land after the reset.
    pub(crate) fn reset_ewma(&self) {
        self.ewma_service_bits.store(0, Ordering::Relaxed);
    }

    pub(crate) fn record_shed(&self) {
        self.metrics.shed.inc();
    }

    /// Sets the queue-depth gauge; called while the queue lock is held so
    /// the gauge tracks the queue exactly at mutation points.
    // ordering: Relaxed — writers are serialized by the queue lock; the
    // lock-free readers (routing heuristics) accept any recent depth.
    pub(crate) fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Current queue-depth gauge (cheap, lock-free read).
    // ordering: Relaxed — see `set_queue_depth`; advisory gauge read.
    pub(crate) fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// The model's counters with this replica's depth and EWMA.
    pub(crate) fn snapshot(&self) -> ServeStats {
        self.metrics.read(self.queue_depth(), self.ewma_service_ns())
    }
}

/// A point-in-time reading of a model's serving counters (see
/// [`ServeMetrics::read`]).
///
/// Counters are cumulative since the cells were created: for a router
/// model that is registration, across every replica that ever served it.
/// The reading is taken cell by cell without a global lock, so totals
/// may be a few in-flight requests apart from each other under load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests whose logits have been delivered.
    pub requests: u64,
    /// Forward passes executed.
    pub batches: u64,
    /// Samples carried across all forward passes (= delivered requests).
    pub samples: u64,
    /// Batches flushed because they reached `max_batch` (the rest flushed
    /// on the `max_wait` timeout or shutdown drain).
    pub full_batches: u64,
    /// Submissions rejected because a bounded queue was at capacity.
    pub shed: u64,
    /// Queue depth (pending, not-yet-drained requests) at reading time —
    /// a gauge, not a cumulative counter.
    pub queue_depth: u64,
    /// Time spent inside `CompiledNet::infer_into`.
    pub infer_time: Duration,
    /// Submit→delivery latency distribution in nanoseconds: log₂
    /// buckets, count, sum and max.
    pub latency: HistogramValue,
    /// Per-sample service-time EWMA in nanoseconds (`infer_time` of each
    /// batch divided by its size, exponentially smoothed) — the signal
    /// latency-aware routing scores replicas by. `0` until the first
    /// batch lands; a gauge, not a cumulative counter.
    pub ewma_service_ns: u64,
}

impl ServeStats {
    /// Mean realized batch size.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.samples as f64 / self.batches as f64
        }
    }

    /// Mean submit→delivery latency.
    pub fn mean_latency(&self) -> Duration {
        Duration::from_nanos(self.latency.sum.checked_div(self.latency.count).unwrap_or(0))
    }

    /// Worst single-request submit→delivery latency.
    pub fn max_latency(&self) -> Duration {
        Duration::from_nanos(self.latency.max)
    }

    /// The latency quantile `q ∈ [0, 1]`, read off the histogram as
    /// [`HistogramValue::quantile`] does: the containing bucket's upper
    /// bound clamped to the observed max (with log₂ buckets the true
    /// quantile is at most 2× smaller). `Duration::ZERO` when no request
    /// has been recorded.
    pub fn latency_percentile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.latency.quantile(q))
    }

    /// Median submit→delivery latency (histogram bucket upper bound).
    pub fn p50_latency(&self) -> Duration {
        self.latency_percentile(0.50)
    }

    /// 95th-percentile submit→delivery latency.
    pub fn p95_latency(&self) -> Duration {
        self.latency_percentile(0.95)
    }

    /// 99th-percentile submit→delivery latency.
    pub fn p99_latency(&self) -> Duration {
        self.latency_percentile(0.99)
    }

    /// 99.9th-percentile submit→delivery latency (at ≥1000 requests it
    /// resolves beyond p99; below that it reads as the max-ish tail).
    pub fn p999_latency(&self) -> Duration {
        self.latency_percentile(0.999)
    }

    /// Batches flushed by the `max_wait` timer (or the shutdown drain)
    /// rather than by filling up.
    pub fn timeout_batches(&self) -> u64 {
        self.batches.saturating_sub(self.full_batches)
    }

    /// Delivered samples per second of inference time (the compute-bound
    /// throughput ceiling; end-to-end throughput also includes queueing).
    pub fn infer_throughput(&self) -> f64 {
        let secs = self.infer_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.samples as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_recorded_events() {
        let inner = StatsInner::default();
        inner.record_request(1_000);
        inner.record_request(3_000);
        inner.record_batch(2, true, 500);
        inner.record_batch(1, false, 250);
        inner.record_request(2_000);
        let s = inner.snapshot();
        assert_eq!(s.requests, 3);
        assert_eq!(s.batches, 2);
        assert_eq!(s.samples, 3);
        assert_eq!(s.full_batches, 1);
        assert_eq!(s.shed, 0);
        assert_eq!(s.timeout_batches(), 1);
        assert_eq!(s.max_latency(), Duration::from_nanos(3_000));
        assert_eq!(s.mean_latency(), Duration::from_nanos(2_000));
        assert!((s.mean_batch_size() - 1.5).abs() < 1e-12);
        assert!(s.infer_throughput() > 0.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = StatsInner::default().snapshot();
        assert_eq!(s.mean_batch_size(), 0.0);
        assert_eq!(s.mean_latency(), Duration::ZERO);
        assert_eq!(s.infer_throughput(), 0.0);
        assert_eq!(s.latency_percentile(0.5), Duration::ZERO);
        assert_eq!(s.latency, HistogramValue::zero());
        assert_eq!((s.requests, s.batches, s.samples, s.full_batches, s.shed), (0, 0, 0, 0, 0));
        assert_eq!((s.queue_depth, s.infer_time, s.ewma_service_ns), (0, Duration::ZERO, 0));
    }

    #[test]
    fn shed_and_depth_counters() {
        let inner = StatsInner::default();
        inner.record_shed();
        inner.record_shed();
        inner.set_queue_depth(7);
        let s = inner.snapshot();
        assert_eq!(s.shed, 2);
        assert_eq!(s.queue_depth, 7);
        assert_eq!(inner.queue_depth(), 7);
    }

    #[test]
    fn ewma_seeds_then_smooths() {
        let mut e = Ewma::new(20);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(100.0), 100.0, "first observation seeds exactly");
        // 0.2·200 + 0.8·100 = 120.
        assert!((e.update(200.0) - 120.0).abs() < 1e-9);
        let latest_only = Ewma::new(100).value;
        assert_eq!(latest_only, None);
        let mut latest = Ewma::new(100);
        latest.update(5.0);
        assert_eq!(latest.update(9.0), 9.0, "alpha=100% degenerates to the latest sample");
        // Out-of-range alphas clamp instead of dividing by zero / freezing.
        let mut z = Ewma::new(0);
        z.update(3.0);
        assert!((z.update(7.0) - (3.0 + 0.01 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn service_ewma_tracks_batches_and_resets() {
        let inner = StatsInner::default();
        assert_eq!(inner.ewma_service_ns(), 0, "no batch yet");
        inner.record_batch(2, false, 2_000); // 1000 ns/sample seeds
        assert_eq!(inner.ewma_service_ns(), 1_000);
        inner.record_batch(1, false, 2_000); // 0.2·2000 + 0.8·1000 = 1200
        assert_eq!(inner.ewma_service_ns(), 1_200);
        assert_eq!(inner.snapshot().ewma_service_ns, 1_200);
        inner.reset_ewma();
        assert_eq!(inner.ewma_service_ns(), 0);
        // A genuine zero-duration batch (virtual-clock runs) still counts
        // as "seen": the gauge distinguishes it from "no data".
        inner.record_batch(4, true, 0);
        assert_eq!(inner.ewma_service_ns(), 0);
        assert_ne!(inner.ewma_service_bits.load(Ordering::Relaxed), 0);
        inner.record_batch(1, false, 1_000_000);
        // Seeded at 0.0, so the million-ns batch pulls the EWMA up by α.
        assert_eq!(inner.ewma_service_ns(), 200_000);
    }

    #[test]
    fn recorders_sharing_metrics_add_up_but_keep_depth_and_ewma_per_replica() {
        let shared = ServeMetrics::new();
        let a = StatsInner::new(shared.clone(), DEFAULT_EWMA_ALPHA_PCT);
        let b = StatsInner::new(shared.clone(), DEFAULT_EWMA_ALPHA_PCT);
        a.record_request(1_000);
        a.record_batch(1, true, 100);
        a.set_queue_depth(2);
        b.record_request(5_000);
        b.record_request(3_000);
        b.record_batch(2, false, 300);
        b.record_shed();
        b.set_queue_depth(1);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        // One reading of the shared cells carries both recorders' counts.
        for s in [&sa, &sb, &shared.read(0, 0)] {
            assert_eq!(s.requests, 3);
            assert_eq!(s.batches, 2);
            assert_eq!(s.samples, 3);
            assert_eq!(s.full_batches, 1);
            assert_eq!(s.shed, 1);
            assert_eq!(s.infer_time, Duration::from_nanos(400));
            assert_eq!(s.max_latency(), Duration::from_nanos(5_000));
            assert_eq!(s.latency.sum, 9_000);
        }
        // The routing signals stay each replica's own.
        assert_eq!((sa.queue_depth, sb.queue_depth), (2, 1));
        assert_eq!((sa.ewma_service_ns, sb.ewma_service_ns), (100, 150));
    }
}
