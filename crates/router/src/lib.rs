//! # scissor-router
//!
//! The sharded serving tier in front of `scissor_serve`: many named
//! models, each backed by N batching replicas over **one** shared
//! compiled plan, behind an async front door with explicit backpressure.
//!
//! The Group Scissor paper scales one trained network onto many
//! *bounded* crossbars; this crate applies the same partition-and-route
//! idea to serving — one frozen [`CompiledNet`] is sharded onto many
//! bounded replica queues behind a [`Router`], the way large neuromorphic
//! systems route a fixed compiled artifact across independent execution
//! units:
//!
//! * **Model registry.** [`Router::register`] binds a model id to an
//!   `Arc<CompiledNet>` and spawns its replicas ([`scissor_serve::Replica`]
//!   batcher threads, each with a pre-warmed scratch). Replication never
//!   copies weights — the plan is frozen and `Sync`.
//! * **Async admission.** [`Router::submit`] is non-blocking: it validates
//!   the sample, picks a replica and returns a [`Ticket`] immediately.
//!   Callers redeem tickets with [`Ticket::wait`] (blocking) or
//!   [`Ticket::try_take`] (polling) — plain condvar slots, no async
//!   runtime.
//! * **Latency-aware routing.** Replicas are scored by expected completion
//!   time — (queue depth + 1) × the replica's service-time EWMA
//!   ([`select_replica`]; least-loaded tie-break, paused replicas avoided
//!   while an active one exists).
//! * **Autoscaling control plane.** [`control::Supervisor`] periodically
//!   reads every model's stats and emits [`control::ScalingDecision`]s —
//!   runtime replica add/remove ([`Router::scale_up`] /
//!   [`Router::scale_down`], the latter rerouting the torn-down replica's
//!   backlog losing no ticket), admission-bound resize
//!   ([`Router::set_high_water`]) and EWMA-drift rebalance — all under a
//!   pluggable [`Clock`] so the whole loop is deterministic in tests.
//! * **Backpressure.** Each model has a bounded admission queue (the union
//!   of its replica queues). Once its depth passes
//!   [`ModelConfig::queue_high_water`], submissions are **shed** with
//!   [`RouterError::Overloaded`] instead of growing the backlog — graceful
//!   overload, not collapse. (The gate reads queue-depth gauges, so
//!   concurrent racers can overshoot the mark by at most the number of
//!   in-flight submitters.)
//! * **Graceful drain.** [`Router::shutdown`] (and `Drop`) stops admission
//!   and drains every replica: every admitted ticket is delivered before
//!   the batcher threads exit.
//!
//! Routed logits are **bitwise identical** to a direct
//! [`CompiledNet::infer_into`] pass over the same samples, whatever
//! replica or batch composition served them — inherited from the
//! batch-invariant kernels underneath and pinned down by this crate's
//! stress tests.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use scissor_nn::{NetworkBuilder, Tensor4};
//! use scissor_router::{ModelConfig, Router};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = NetworkBuilder::new((1, 6, 6))
//!     .conv("conv1", 3, 3, 1, 0, &mut rng)
//!     .relu()
//!     .linear("fc", 4, &mut rng)
//!     .build();
//!
//! let router = Router::new();
//! router
//!     .register("lenet-mini", net.compile().unwrap(), ModelConfig::with_replicas(2))
//!     .unwrap();
//!
//! let ticket = router.submit("lenet-mini", &Tensor4::zeros(1, 1, 6, 6)).unwrap();
//! let logits = ticket.wait();
//! assert_eq!(logits.len(), 4);
//!
//! let stats = router.model_stats("lenet-mini").unwrap();
//! assert_eq!(stats.serve.requests, 1);
//! assert_eq!(stats.shed, 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod control;
mod error;

pub use error::RouterError;
pub use scissor_nn::ServingForm;
pub use scissor_obs::{Registry, Snapshot};
pub use scissor_serve::{
    Clock, MonotonicClock, ServeConfig, ServeMetrics, ServeStats, SpanKind, SpanRecord, Ticket,
    TraceId, TraceLog, TraceSink, VirtualClock,
};

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use scissor_nn::{CompiledNet, Tensor4};
use scissor_obs::Counter;
use scissor_serve::{PendingRequest, Replica, Telemetry};
use serde::{Serialize, Value};

/// Convenience alias for router results.
pub type Result<T> = std::result::Result<T, RouterError>;

/// Spans retained by the router's trace ring when `GS_OBS_TRACE_CAP` is
/// unset.
const DEFAULT_TRACE_CAP: usize = 4096;

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|s| s.trim().parse::<usize>().ok())
}

/// `1`/`true` (case-insensitive) opt-in flag — the same convention as
/// `GS_OBS_PROFILE` in the compiler.
fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| matches!(v.trim().to_ascii_lowercase().as_str(), "1" | "true"))
        .unwrap_or(false)
}

/// Per-model serving shape: how many replicas, how much backlog to
/// tolerate, and the batching knobs each replica runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Number of batching replicas sharing the model's compiled plan.
    pub replicas: usize,
    /// Admission high-water mark: total pending requests across the
    /// model's replicas at or above which new submissions are shed with
    /// [`RouterError::Overloaded`]. Resizable at runtime via
    /// [`Router::set_high_water`].
    pub queue_high_water: usize,
    /// Batching knobs for each replica (including runtime-added ones).
    /// `queue_cap` is clamped to `queue_high_water` at registration so no
    /// single replica can hold more than the model-wide bound.
    pub replica: ServeConfig,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self { replicas: 1, queue_high_water: 1024, replica: ServeConfig::default() }
    }
}

impl ModelConfig {
    /// A default config with `replicas` replicas.
    pub fn with_replicas(replicas: usize) -> Self {
        Self { replicas, ..Self::default() }
    }
}

/// One replica's routing-relevant state at selection time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaSnapshot {
    /// Pending (admitted, not yet drained) requests.
    pub depth: usize,
    /// Per-sample service-time EWMA in ns; `0` = no batch served yet.
    pub ewma_service_ns: u64,
    /// Whether the replica is paused (maintenance hold).
    pub paused: bool,
}

/// Picks the replica a new submission should land on: the core routing
/// decision as a pure function over per-replica snapshots, exposed so the
/// property tests can drive it exhaustively.
///
/// The score is the expected completion time `(depth + 1) ×
/// max(ewma_service_ns, 1)`, so a replica that has proven slow gets less
/// traffic in proportion, and one with no estimate yet scores as if
/// instant (while no replica has an estimate, the pick is the shallowest
/// queue). Ties break by depth, then by rotation order from
/// `start`, which the caller increments per submission. Paused replicas
/// are skipped while any active one exists: steering fresh traffic at one
/// would turn a maintenance hold into queue growth. Returns `None` only
/// for an empty slice.
pub fn select_replica(start: usize, replicas: &[ReplicaSnapshot]) -> Option<usize> {
    let n = replicas.len();
    if n == 0 {
        return None;
    }
    let start = start % n;
    let any_active = replicas.iter().any(|r| !r.paused);
    let mut best: Option<(u128, usize, usize)> = None; // (score, depth, index)
    for k in 0..n {
        let i = (start + k) % n;
        let r = &replicas[i];
        if any_active && r.paused {
            continue;
        }
        let score = (r.depth as u128 + 1).saturating_mul(u128::from(r.ewma_service_ns.max(1)));
        // Strict `<` keeps the first candidate in rotation order on ties
        // (after the depth tie-break).
        let better = match best {
            None => true,
            Some((s, d, _)) => score < s || (score == s && r.depth < d),
        };
        if better {
            best = Some((score, r.depth, i));
        }
    }
    best.map(|(_, _, i)| i)
}

/// A snapshot of one model's serving state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelStats {
    /// The model's `serve.<model>.*` counters, which every replica it ever
    /// had recorded into (so scale-down never makes them regress).
    /// `queue_depth` is the model-wide backlog, `ewma_service_ns` the
    /// slowest replica's estimate, and `serve.shed` counts rejections at
    /// the replicas' own queue caps.
    pub serve: ServeStats,
    /// Submissions shed at the router's admission gate (does not include
    /// the replica-level `serve.shed`; see [`ModelStats::total_shed`]).
    pub shed: u64,
    /// Number of replicas.
    pub replicas: usize,
    /// The admission high-water mark.
    pub queue_high_water: usize,
    /// The numeric serving form of the model's shared plan (every replica
    /// executes the same compiled form).
    pub form: ServingForm,
}

impl ModelStats {
    /// Every submission this model rejected as overload — the router's
    /// admission-gate sheds plus the replicas' queue-cap sheds (each
    /// rejection is counted in exactly one of the two).
    pub fn total_shed(&self) -> u64 {
        self.shed + self.serve.shed
    }
}

struct ModelEntry {
    plan: Arc<CompiledNet>,
    replicas: Vec<Replica>,
    /// Rotating tie-break origin for replica selection.
    rr: AtomicUsize,
    /// Admission high-water mark; atomic so the control plane can resize
    /// it under the registry's *read* lock without stalling submissions.
    high_water: AtomicUsize,
    /// Submissions shed at the admission gate (`router.<model>.shed`).
    shed: Counter,
    /// The batching knobs runtime-added replicas are spawned with
    /// (`queue_cap` already clamped to the registration-time high water).
    replica_cfg: ServeConfig,
    /// The `serve.<model>.*` counters every replica records into.
    metrics: ServeMetrics,
    /// Model-level pause state, inherited by runtime-added replicas so a
    /// scale-up during a maintenance hold (or a deterministic test) does
    /// not silently start draining.
    paused: AtomicBool,
}

impl ModelEntry {
    /// Snapshots every replica and picks the submission target via
    /// [`select_replica`]; returns `(index, total_depth)`.
    fn route(&self) -> (usize, usize) {
        let snaps: Vec<ReplicaSnapshot> = self
            .replicas
            .iter()
            .map(|r| ReplicaSnapshot {
                depth: r.queue_depth(),
                ewma_service_ns: r.ewma_service_ns(),
                paused: r.is_paused(),
            })
            .collect();
        let total = snaps.iter().map(|s| s.depth).sum();
        // ordering: Relaxed — round-robin origin; any interleaving of the
        // RMW across submitters still spreads starts, and no other data
        // rides on it.
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        let best =
            select_replica(start, &snaps).expect("a registered model has at least one replica");
        (best, total)
    }

    fn high_water(&self) -> usize {
        // ordering: Relaxed — admission threshold read as a plain value;
        // a submitter racing a threshold change may use either bound,
        // both of which were valid moments apart.
        self.high_water.load(Ordering::Relaxed)
    }

    fn stats(&self) -> ModelStats {
        let depth = self.replicas.iter().map(|r| r.queue_depth() as u64).sum();
        let ewma = self.replicas.iter().map(Replica::ewma_service_ns).max().unwrap_or(0);
        ModelStats {
            serve: self.metrics.read(depth, ewma),
            shed: self.shed.get(),
            replicas: self.replicas.len(),
            queue_high_water: self.high_water(),
            form: self.plan.serving_form(),
        }
    }

    /// This model's section of [`Router::observability_snapshot`]: what
    /// the registry does not hold.
    fn observability(&self) -> Value {
        let seq = |v: Vec<u64>| Value::Seq(v.into_iter().map(Value::U64).collect());
        Value::Map(vec![
            ("form".to_string(), Value::Str(self.plan.serving_form().to_string())),
            ("replicas".to_string(), Value::U64(self.replicas.len() as u64)),
            ("queue_high_water".to_string(), Value::U64(self.high_water() as u64)),
            (
                "queue_depths".to_string(),
                seq(self.replicas.iter().map(|r| r.queue_depth() as u64).collect()),
            ),
            (
                "ewma_service_ns".to_string(),
                seq(self.replicas.iter().map(Replica::ewma_service_ns).collect()),
            ),
            (
                "profile".to_string(),
                self.plan.profiler().map_or(Value::Null, |p| p.snapshot().to_value()),
            ),
        ])
    }
}

/// The multi-model, multi-replica serving router.
///
/// Registration and submission are thread-safe through `&self`; drop (or
/// [`Router::shutdown`]) stops admission and drains every replica.
pub struct Router {
    models: RwLock<HashMap<String, ModelEntry>>,
    shutting_down: AtomicBool,
    /// One clock for the whole router: every replica timestamps with it,
    /// so latency/EWMA numbers are comparable across replicas — and a
    /// [`VirtualClock`] here puts the entire serving tier on test time.
    clock: Arc<dyn Clock>,
    /// The router-wide metrics registry. Producers across the stack
    /// (replicas, admission gate, supervisor, tile calibration) record
    /// into named handles here; [`Router::observability_snapshot`] folds
    /// a reading of it into the one-document export.
    registry: Arc<Registry>,
    /// The router-wide span sink. Every replica the router spawns carries
    /// a [`TraceSink`] into this log, so one request's spans line up
    /// across reroutes and scale events. Disabled (one relaxed load per
    /// submission) unless `GS_OBS_TRACE` or [`Router::enable_tracing`]
    /// turns it on.
    trace: Arc<TraceLog>,
    /// Monotonic replica-id allocator: ids are unique across models and
    /// scale-up/scale-down churn for the router's lifetime, so a span's
    /// `replica` field is never ambiguous between a torn-down replica and
    /// a later-spawned one.
    next_replica_id: AtomicU64,
}

impl Default for Router {
    fn default() -> Self {
        Self::new()
    }
}

impl Router {
    /// An empty router timestamping with a fresh [`MonotonicClock`];
    /// register models with [`Router::register`].
    pub fn new() -> Self {
        Self::with_clock(MonotonicClock::shared())
    }

    /// An empty router with an explicit time source (a [`VirtualClock`]
    /// makes every latency/EWMA observation deterministic in tests).
    ///
    /// Tracing starts disabled unless `GS_OBS_TRACE` is `1`/`true`; the
    /// span ring retains `GS_OBS_TRACE_CAP` spans (default 4096).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        let trace =
            Arc::new(TraceLog::new(env_usize("GS_OBS_TRACE_CAP").unwrap_or(DEFAULT_TRACE_CAP)));
        if env_flag("GS_OBS_TRACE") {
            trace.enable();
        }
        Self {
            models: RwLock::new(HashMap::new()),
            shutting_down: AtomicBool::new(false),
            clock,
            registry: Arc::new(Registry::new()),
            trace,
            next_replica_id: AtomicU64::new(0),
        }
    }

    /// The router's time source (shared with every replica it spawns).
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// The router-wide metrics registry — the sink every producer in the
    /// serving stack (replicas under `serve.<model>.*`, the admission
    /// gate under `router.<model>.shed`, supervisor, tile calibration)
    /// records into. Shared so callers can attach their own metrics or
    /// take [`Registry::snapshot`]s for interval deltas.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// The router-wide trace log every replica's spans land in.
    pub fn trace_log(&self) -> Arc<TraceLog> {
        Arc::clone(&self.trace)
    }

    /// Starts recording request spans (Queued → Batched → Executed) into
    /// [`Router::trace_log`]. Equivalent to launching with `GS_OBS_TRACE=1`.
    pub fn enable_tracing(&self) {
        self.trace.enable();
    }

    /// Stops recording spans; already-retained spans stay readable.
    pub fn disable_tracing(&self) {
        self.trace.disable();
    }

    /// Whether request tracing is currently recording.
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    /// Spawns one traced replica over `plan`, stamped with the next
    /// router-unique replica id and recording into the model's
    /// `metrics`. The single spawn path for registration and scale-up, so
    /// every replica is guaranteed a [`TraceSink`].
    fn spawn_replica(
        &self,
        plan: Arc<CompiledNet>,
        cfg: ServeConfig,
        metrics: &ServeMetrics,
    ) -> Replica {
        // ordering: Relaxed — id uniqueness comes from the RMW itself;
        // the replica is published via the registry's RwLock, not here.
        let id = self.next_replica_id.fetch_add(1, Ordering::Relaxed);
        let telemetry = Telemetry {
            clock: self.clock(),
            trace: Some(TraceSink::new(self.trace_log(), id)),
            metrics: metrics.clone(),
        };
        Replica::start(plan, cfg, telemetry)
    }

    /// Registers `plan` under `model` and spawns its replicas.
    ///
    /// Takes ownership of the plan; use [`Router::register_shared`] to
    /// hand in an `Arc` you also keep (e.g. for reference inference in
    /// tests).
    ///
    /// # Errors
    ///
    /// [`RouterError::DuplicateModel`] if the id is taken,
    /// [`RouterError::InvalidConfig`] for a zero replica count or
    /// high-water mark, [`RouterError::ShuttingDown`] after shutdown
    /// began.
    pub fn register(&self, model: &str, plan: CompiledNet, cfg: ModelConfig) -> Result<()> {
        self.register_shared(model, Arc::new(plan), cfg)
    }

    /// Registers a shared compiled plan under `model` (see
    /// [`Router::register`]).
    ///
    /// # Errors
    ///
    /// As [`Router::register`].
    pub fn register_shared(
        &self,
        model: &str,
        plan: Arc<CompiledNet>,
        cfg: ModelConfig,
    ) -> Result<()> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(RouterError::ShuttingDown);
        }
        if cfg.replicas == 0 {
            return Err(RouterError::InvalidConfig { reason: "replicas must be positive" });
        }
        if cfg.queue_high_water == 0 {
            return Err(RouterError::InvalidConfig { reason: "queue_high_water must be positive" });
        }
        let mut replica_cfg = cfg.replica;
        replica_cfg.queue_cap = replica_cfg.queue_cap.min(cfg.queue_high_water);
        let mut models = self.models.write().expect("router registry poisoned");
        if models.contains_key(model) {
            return Err(RouterError::DuplicateModel { model: model.to_string() });
        }
        let metrics = ServeMetrics::register(&self.registry, &format!("serve.{model}"));
        let replicas = (0..cfg.replicas)
            .map(|_| self.spawn_replica(Arc::clone(&plan), replica_cfg, &metrics))
            .collect();
        models.insert(
            model.to_string(),
            ModelEntry {
                plan,
                replicas,
                rr: AtomicUsize::new(0),
                high_water: AtomicUsize::new(cfg.queue_high_water),
                shed: self.registry.counter(&format!("router.{model}.shed")),
                replica_cfg,
                metrics,
                paused: AtomicBool::new(false),
            },
        );
        Ok(())
    }

    /// Registered model ids, sorted.
    pub fn models(&self) -> Vec<String> {
        let models = self.models.read().expect("router registry poisoned");
        let mut names: Vec<String> = models.keys().cloned().collect();
        names.sort();
        names
    }

    /// The input shape `(c, h, w)` the model expects, if registered.
    pub fn input_shape(&self, model: &str) -> Option<(usize, usize, usize)> {
        let models = self.models.read().expect("router registry poisoned");
        models.get(model).map(|e| e.plan.input_shape())
    }

    /// Submits one batch-1 sample to `model` without blocking and returns
    /// its [`Ticket`].
    ///
    /// # Errors
    ///
    /// [`RouterError::UnknownModel`] for an unregistered id;
    /// [`RouterError::Overloaded`] once the model's pending requests reach
    /// its high-water mark; [`RouterError::ShuttingDown`] after shutdown
    /// began; [`RouterError::Serve`] for shape/feature mismatches.
    pub fn submit(&self, model: &str, sample: &Tensor4) -> Result<Ticket> {
        self.with_route(model, |replica| replica.submit(sample).map_err(RouterError::from))
    }

    /// Submits one sample as a raw `c·h·w` feature slice (see
    /// [`Router::submit`]).
    ///
    /// # Errors
    ///
    /// As [`Router::submit`].
    pub fn submit_features(&self, model: &str, features: &[f32]) -> Result<Ticket> {
        self.with_route(model, |replica| {
            replica.submit_features(features).map_err(RouterError::from)
        })
    }

    /// Resolves `model`, applies the admission gate, picks a replica via
    /// [`select_replica`] and hands it to `f`.
    fn with_route<T>(&self, model: &str, f: impl FnOnce(&Replica) -> Result<T>) -> Result<T> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(RouterError::ShuttingDown);
        }
        let models = self.models.read().expect("router registry poisoned");
        let entry = models
            .get(model)
            .ok_or_else(|| RouterError::UnknownModel { model: model.to_string() })?;
        let (best, depth) = entry.route();
        let high_water = entry.high_water();
        if depth >= high_water {
            entry.shed.inc();
            return Err(RouterError::Overloaded { model: model.to_string(), depth, high_water });
        }
        match f(&entry.replicas[best]) {
            // Racing submitters can slip past the gauge-based gate and hit
            // the chosen replica's own cap; that is still an overload shed
            // from the caller's point of view. The replica already counted
            // it in `serve.<model>.shed` (so the gate counter is NOT
            // bumped — each rejection lands in exactly one counter), and
            // the error reports the model-wide backlog to match the
            // model-wide high-water mark.
            Err(RouterError::Serve(scissor_serve::ServeError::Overloaded { .. })) => {
                let depth = entry.replicas.iter().map(Replica::queue_depth).sum();
                Err(RouterError::Overloaded {
                    model: model.to_string(),
                    depth,
                    high_water: entry.high_water(),
                })
            }
            other => other,
        }
    }

    /// Current pending-request backlog across `model`'s replicas.
    pub fn queue_depth(&self, model: &str) -> Option<usize> {
        let models = self.models.read().expect("router registry poisoned");
        models.get(model).map(|e| e.replicas.iter().map(Replica::queue_depth).sum())
    }

    /// Per-replica pending-request backlog for `model` — the load picture
    /// replica selection routes on (and the signal an autoscaler would
    /// watch).
    pub fn replica_queue_depths(&self, model: &str) -> Option<Vec<usize>> {
        let models = self.models.read().expect("router registry poisoned");
        models.get(model).map(|e| e.replicas.iter().map(Replica::queue_depth).collect())
    }

    /// Counter snapshot for one model.
    pub fn model_stats(&self, model: &str) -> Option<ModelStats> {
        let models = self.models.read().expect("router registry poisoned");
        models.get(model).map(ModelEntry::stats)
    }

    /// Counter snapshots for every model, sorted by id.
    pub fn stats(&self) -> Vec<(String, ModelStats)> {
        let models = self.models.read().expect("router registry poisoned");
        let mut all: Vec<(String, ModelStats)> =
            models.iter().map(|(n, e)| (n.clone(), e.stats())).collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Pauses `model`'s replicas (admission continues until the bound;
    /// batches stop draining). Maintenance hook, also what makes overload
    /// tests deterministic. Replicas added by a scale-up while the model
    /// is paused start paused too.
    ///
    /// # Errors
    ///
    /// [`RouterError::UnknownModel`] for an unregistered id.
    pub fn pause(&self, model: &str) -> Result<()> {
        self.for_model(model, true, Replica::pause)
    }

    /// Resumes a paused model.
    ///
    /// # Errors
    ///
    /// [`RouterError::UnknownModel`] for an unregistered id.
    pub fn resume(&self, model: &str) -> Result<()> {
        self.for_model(model, false, Replica::resume)
    }

    fn for_model(&self, model: &str, paused: bool, f: impl Fn(&Replica)) -> Result<()> {
        let models = self.models.read().expect("router registry poisoned");
        let entry = models
            .get(model)
            .ok_or_else(|| RouterError::UnknownModel { model: model.to_string() })?;
        // ordering: Relaxed — the flag only preserves pause state for
        // replicas spawned later (read under the registry write lock in
        // `scale_up`, which orders it); replicas present now are
        // paused/resumed directly via `f` below.
        entry.paused.store(paused, Ordering::Relaxed);
        for r in &entry.replicas {
            f(r);
        }
        Ok(())
    }

    /// Adds one replica to `model` at runtime (the scale-up actuator):
    /// spawns fresh batchers over the model's *shared* plan — no weight
    /// copy — whose first action is to pre-warm their scratch
    /// ([`scissor_nn::CompiledNet::warm_scratch`]) before draining any
    /// request. The new replica inherits the model's pause state and
    /// becomes routable as soon as this returns. Returns the new replica
    /// count.
    ///
    /// # Errors
    ///
    /// [`RouterError::UnknownModel`] for an unregistered id;
    /// [`RouterError::ShuttingDown`] after shutdown began.
    pub fn scale_up(&self, model: &str) -> Result<usize> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(RouterError::ShuttingDown);
        }
        let mut models = self.models.write().expect("router registry poisoned");
        let entry = models
            .get_mut(model)
            .ok_or_else(|| RouterError::UnknownModel { model: model.to_string() })?;
        let replica =
            self.spawn_replica(Arc::clone(&entry.plan), entry.replica_cfg, &entry.metrics);
        // ordering: Relaxed — read under the registry write lock, which
        // already orders it against `for_model`'s store (the lock pair is
        // the happens-before edge; the atomic just avoids &mut plumbing).
        if entry.paused.load(Ordering::Relaxed) {
            replica.pause();
        }
        entry.replicas.push(replica);
        Ok(entry.replicas.len())
    }

    /// Removes one replica from `model` at runtime (the scale-down
    /// actuator), **losing no admitted ticket**: the victim — the replica
    /// with the highest service-time EWMA, i.e. the least useful capacity
    /// (ties: the newest) — is dismantled, and every request still
    /// pending in its queue is rerouted into the surviving replicas
    /// (least-loaded first, admission-order preserved, queue caps
    /// bypassed since each was already admitted once). A batch the victim
    /// already had in flight completes and delivers normally. Returns the
    /// new replica count.
    ///
    /// Holding the registry write lock for the whole
    /// dismantle-and-reroute keeps it atomic with respect to submissions
    /// (which hold the read lock): no submission can observe the victim
    /// after its backlog started moving.
    ///
    /// # Errors
    ///
    /// [`RouterError::UnknownModel`] for an unregistered id;
    /// [`RouterError::InvalidConfig`] when the model has only one replica
    /// (scale to zero is shutdown, not scale-down);
    /// [`RouterError::ShuttingDown`] after shutdown began.
    pub fn scale_down(&self, model: &str) -> Result<usize> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(RouterError::ShuttingDown);
        }
        let mut models = self.models.write().expect("router registry poisoned");
        let entry = models
            .get_mut(model)
            .ok_or_else(|| RouterError::UnknownModel { model: model.to_string() })?;
        if entry.replicas.len() <= 1 {
            return Err(RouterError::InvalidConfig { reason: "cannot scale below one replica" });
        }
        let victim = entry
            .replicas
            .iter()
            .enumerate()
            .max_by_key(|(i, r)| (r.ewma_service_ns(), *i))
            .map(|(i, _)| i)
            .expect("len checked above");
        for req in entry.replicas.remove(victim).dismantle() {
            reroute(&entry.replicas, req);
        }
        Ok(entry.replicas.len())
    }

    /// Resizes `model`'s admission high-water mark (the
    /// `ResizeHighWater` actuator). The effective value is clamped to at
    /// least the current in-flight depth — shrinking the bound must
    /// never retroactively declare already-admitted requests shed — and
    /// to at least 1. Returns the effective value.
    ///
    /// # Errors
    ///
    /// [`RouterError::UnknownModel`] for an unregistered id.
    pub fn set_high_water(&self, model: &str, requested: usize) -> Result<usize> {
        let models = self.models.read().expect("router registry poisoned");
        let entry = models
            .get(model)
            .ok_or_else(|| RouterError::UnknownModel { model: model.to_string() })?;
        let depth: usize = entry.replicas.iter().map(Replica::queue_depth).sum();
        let effective = requested.max(depth).max(1);
        // ordering: Relaxed — see `high_water`: a plain threshold value;
        // racing submitters may gate on either bound.
        entry.high_water.store(effective, Ordering::Relaxed);
        Ok(effective)
    }

    /// Resets `model`'s routing state (the `Rebalance` actuator): the
    /// round-robin origin returns to zero and every replica's
    /// service-time EWMA is cleared so the estimators re-learn current
    /// conditions instead of steering on stale drift.
    ///
    /// # Errors
    ///
    /// [`RouterError::UnknownModel`] for an unregistered id.
    pub fn rebalance(&self, model: &str) -> Result<()> {
        let models = self.models.read().expect("router registry poisoned");
        let entry = models
            .get(model)
            .ok_or_else(|| RouterError::UnknownModel { model: model.to_string() })?;
        // ordering: Relaxed — resets the round-robin origin; see `route`,
        // the counter is a spread heuristic with no attached data.
        entry.rr.store(0, Ordering::Relaxed);
        for r in &entry.replicas {
            r.reset_ewma();
        }
        Ok(())
    }

    /// Re-runs measured tile calibration on `model`'s shared plan (see
    /// [`scissor_nn::CompiledNet::calibrate_tile`]): times 2–3 candidate
    /// sub-batch sizes on the real plan and installs the fastest as the
    /// runtime tile override. Used by the supervisor at warm-up and when
    /// batch-latency stats drift.
    ///
    /// # Errors
    ///
    /// [`RouterError::UnknownModel`] for an unregistered id.
    pub fn calibrate_tiles(
        &self,
        model: &str,
        rounds: usize,
    ) -> Result<scissor_nn::TileCalibration> {
        let (plan, batch) = {
            let models = self.models.read().expect("router registry poisoned");
            let entry = models
                .get(model)
                .ok_or_else(|| RouterError::UnknownModel { model: model.to_string() })?;
            (Arc::clone(&entry.plan), entry.replica_cfg.max_batch)
        };
        // Calibration runs real timed forwards; do it outside the
        // registry lock so it never stalls submissions.
        let cal = plan.calibrate_tile(batch, rounds);
        self.registry.counter("tile.calibrations").inc();
        self.registry.gauge(&format!("tile.{model}.chosen")).set(cal.chosen as u64);
        if let Some(winner) = cal.timings.iter().find(|t| t.tile == cal.chosen) {
            self.registry.gauge(&format!("tile.{model}.best_ns")).set(winner.best_ns);
        }
        Ok(cal)
    }

    /// Number of replicas currently serving `model`, if registered.
    pub fn replica_count(&self, model: &str) -> Option<usize> {
        let models = self.models.read().expect("router registry poisoned");
        models.get(model).map(|e| e.replicas.len())
    }

    /// Per-replica service-time EWMAs (ns; `0` = no batch yet) for
    /// `model` — the latency-aware routing signal, in replica order.
    pub fn replica_ewma_service_ns(&self, model: &str) -> Option<Vec<u64>> {
        let models = self.models.read().expect("router registry poisoned");
        models.get(model).map(|e| e.replicas.iter().map(Replica::ewma_service_ns).collect())
    }

    /// One JSON document covering the whole serving stack, read without
    /// registering or setting any metric:
    ///
    /// * `models.<name>` — what the registry does not hold: `form`,
    ///   `replicas`, `queue_high_water`, the per-replica `queue_depths`
    ///   and `ewma_service_ns`, and the per-step `profile` when the
    ///   plan's profiler is built (`GS_OBS_PROFILE=1` or
    ///   [`scissor_nn::CompiledNet::enable_profiling`]), else `null`;
    /// * `pool` — the work-stealing scheduler's cumulative counters;
    /// * `trace` — the span ring's health;
    /// * `metrics` — a reading of [`Router::registry`]: each model's
    ///   `serve.<name>.*` set ([`ServeMetrics::register`]) and
    ///   `router.<name>.shed`, the supervisor's `ctrl.decisions.*`
    ///   counters and the `tile.*` calibration gauges.
    pub fn observability_snapshot(&self) -> Value {
        let mut models: Vec<(String, Value)> = {
            let models = self.models.read().expect("router registry poisoned");
            models.iter().map(|(name, e)| (name.clone(), e.observability())).collect()
        };
        models.sort_by(|a, b| a.0.cmp(&b.0));
        let pool = rayon::pool_stats();
        Value::Map(vec![
            ("models".to_string(), Value::Map(models)),
            (
                "pool".to_string(),
                Value::Map(vec![
                    ("local_pushes".to_string(), Value::U64(pool.local_pushes)),
                    ("injected".to_string(), Value::U64(pool.injected)),
                    ("local_pops".to_string(), Value::U64(pool.local_pops)),
                    ("steals".to_string(), Value::U64(pool.steals)),
                    ("injector_pops".to_string(), Value::U64(pool.injector_pops)),
                ]),
            ),
            (
                "trace".to_string(),
                Value::Map(vec![
                    ("enabled".to_string(), Value::Bool(self.trace.is_enabled())),
                    ("capacity".to_string(), Value::U64(self.trace.capacity() as u64)),
                    ("minted".to_string(), Value::U64(self.trace.minted())),
                    ("recorded".to_string(), Value::U64(self.trace.recorded())),
                    ("dropped".to_string(), Value::U64(self.trace.dropped())),
                ]),
            ),
            ("metrics".to_string(), self.registry.snapshot().to_value()),
        ])
    }

    /// [`Router::observability_snapshot`] rendered as a JSON string.
    pub fn observability_json(&self) -> String {
        serde_json::to_string(&self.observability_snapshot())
            .expect("encoding an in-memory Value cannot fail")
    }

    /// Stops admission, then drains and joins every replica: all admitted
    /// tickets are delivered before this returns. Takes `&self` so a
    /// router shared as `Arc<Router>` across caller threads can still be
    /// drained explicitly (new submissions block on the registry lock
    /// during the drain and are then rejected with
    /// [`RouterError::ShuttingDown`]). Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        let mut models = self.models.write().expect("router registry poisoned");
        for entry in models.values_mut() {
            for replica in &mut entry.replicas {
                replica.shutdown();
            }
        }
    }
}

/// Hands one already-admitted request to the least-loaded surviving
/// replica. Queue caps are bypassed ([`Replica::inject`]) — the request
/// was admitted once; a teardown must not turn it into a shed. A replica
/// that refuses (shut down between selection and injection) just means we
/// try the next-least-loaded one; `scale_down` never tears down the last
/// replica, so at least one target always accepts.
fn reroute(survivors: &[Replica], req: PendingRequest) {
    let mut order: Vec<usize> = (0..survivors.len()).collect();
    order.sort_by_key(|&i| survivors[i].queue_depth());
    let mut req = req;
    for i in order {
        match survivors[i].inject(req) {
            Ok(()) => return,
            Err(back) => req = back,
        }
    }
    unreachable!("scale_down keeps at least one live replica to reroute into");
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let models = self.models.read().expect("router registry poisoned");
        let mut entries: Vec<String> = models
            .iter()
            .map(|(n, e)| {
                format!(
                    "{n} ×{} (≤{}, {})",
                    e.replicas.len(),
                    e.high_water(),
                    e.plan.serving_form()
                )
            })
            .collect();
        entries.sort();
        write!(f, "Router([{}])", entries.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scissor_nn::NetworkBuilder;
    use scissor_serve::ServeError;

    fn tiny_plan(seed: u64, classes: usize) -> CompiledNet {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new((1, 4, 4))
            .conv("conv1", 2, 3, 1, 0, &mut rng)
            .relu()
            .linear("fc", classes, &mut rng)
            .build()
            .compile()
            .expect("compile")
    }

    fn sample(seed: usize) -> Tensor4 {
        Tensor4::from_vec(
            1,
            1,
            4,
            4,
            (0..16).map(|i| ((i * 7 + seed * 13) % 23) as f32 * 0.1 - 1.0).collect(),
        )
    }

    #[test]
    fn registry_rejects_duplicates_and_bad_configs() {
        let router = Router::new();
        router.register("m", tiny_plan(1, 3), ModelConfig::default()).unwrap();
        assert!(matches!(
            router.register("m", tiny_plan(1, 3), ModelConfig::default()),
            Err(RouterError::DuplicateModel { .. })
        ));
        assert!(matches!(
            router.register("z", tiny_plan(1, 3), ModelConfig::with_replicas(0)),
            Err(RouterError::InvalidConfig { .. })
        ));
        let bad = ModelConfig { queue_high_water: 0, ..ModelConfig::default() };
        assert!(matches!(
            router.register("z", tiny_plan(1, 3), bad),
            Err(RouterError::InvalidConfig { .. })
        ));
        assert_eq!(router.models(), vec!["m".to_string()]);
        assert_eq!(router.input_shape("m"), Some((1, 4, 4)));
        assert_eq!(router.input_shape("ghost"), None);
    }

    #[test]
    fn unknown_model_and_bad_shapes_are_rejected() {
        let router = Router::new();
        router.register("m", tiny_plan(1, 3), ModelConfig::default()).unwrap();
        assert!(matches!(
            router.submit("ghost", &sample(0)),
            Err(RouterError::UnknownModel { .. })
        ));
        let bad = Tensor4::zeros(1, 1, 5, 5);
        assert!(matches!(
            router.submit("m", &bad),
            Err(RouterError::Serve(ServeError::ShapeMismatch { .. }))
        ));
        assert!(matches!(
            router.submit_features("m", &[0.0; 2]),
            Err(RouterError::Serve(ServeError::FeatureLengthMismatch { .. }))
        ));
    }

    #[test]
    fn two_models_serve_their_own_plans() {
        let plan_a = Arc::new(tiny_plan(1, 3));
        let plan_b = Arc::new(tiny_plan(2, 5));
        let router = Router::new();
        router.register_shared("a", Arc::clone(&plan_a), ModelConfig::with_replicas(2)).unwrap();
        router.register_shared("b", Arc::clone(&plan_b), ModelConfig::with_replicas(2)).unwrap();
        for s in 0..6 {
            let got_a = router.submit("a", &sample(s)).unwrap().wait();
            let got_b = router.submit("b", &sample(s)).unwrap().wait();
            assert_eq!(got_a.as_slice(), plan_a.infer(&sample(s)).as_slice());
            assert_eq!(got_b.as_slice(), plan_b.infer(&sample(s)).as_slice());
        }
        let stats = router.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].1.serve.requests + stats[1].1.serve.requests, 12);
        assert_eq!(stats[0].1.replicas, 2);
    }

    #[test]
    fn least_loaded_routing_spreads_submissions_evenly() {
        let router = Router::new();
        router.register("m", tiny_plan(3, 2), ModelConfig::with_replicas(3)).unwrap();
        router.pause("m").unwrap();
        assert_eq!(router.replica_queue_depths("m"), Some(vec![0, 0, 0]));
        assert_eq!(router.replica_queue_depths("ghost"), None);
        // Paused replicas make depths deterministic: sequential
        // submissions must spread 6 → [2, 2, 2] (least-loaded picks an
        // empty queue while one exists; the rotating tie-break start keeps
        // ties from piling onto replica 0), never [6, 0, 0].
        for s in 0..6 {
            router.submit("m", &sample(s)).unwrap();
            let depths = router.replica_queue_depths("m").unwrap();
            let (min, max) = (depths.iter().min().unwrap(), depths.iter().max().unwrap());
            assert!(max - min <= 1, "submission {s} unbalanced the queues: {depths:?}");
        }
        assert_eq!(router.replica_queue_depths("m"), Some(vec![2, 2, 2]));
        let stats = router.model_stats("m").unwrap();
        assert_eq!(stats.serve.queue_depth, 6);
        // Resume: everything drains.
        router.resume("m").unwrap();
        let mut spins = 0;
        while router.queue_depth("m").unwrap() > 0 {
            std::thread::yield_now();
            spins += 1;
            assert!(spins < 10_000_000, "queue must drain");
        }
        drop(router);
    }

    #[test]
    fn overload_sheds_at_the_high_water_mark() {
        let router = Router::new();
        let cfg = ModelConfig { replicas: 2, queue_high_water: 4, ..ModelConfig::default() };
        let reference = tiny_plan(4, 3);
        router.register("m", tiny_plan(4, 3), cfg).unwrap();
        router.pause("m").unwrap();
        let tickets: Vec<Ticket> =
            (0..4).map(|s| router.submit("m", &sample(s)).expect("admitted")).collect();
        match router.submit("m", &sample(9)) {
            Err(RouterError::Overloaded { depth: 4, high_water: 4, model }) => {
                assert_eq!(model, "m");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let stats = router.model_stats("m").unwrap();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.serve.queue_depth, 4);
        router.resume("m").unwrap();
        for (s, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().as_slice(), reference.infer(&sample(s)).as_slice());
        }
        // Backlog cleared: admission works again.
        let t = router.submit("m", &sample(7)).unwrap();
        assert_eq!(t.wait().as_slice(), reference.infer(&sample(7)).as_slice());
        assert_eq!(router.model_stats("m").unwrap().shed, 1);
    }

    #[test]
    fn shutdown_stops_admission_and_drains_tickets() {
        let reference = tiny_plan(5, 3);
        let router = Router::new();
        router.register("m", tiny_plan(5, 3), ModelConfig::with_replicas(2)).unwrap();
        router.pause("m").unwrap();
        let tickets: Vec<Ticket> =
            (0..5).map(|s| router.submit("m", &sample(s)).expect("admitted")).collect();
        router.shutdown();
        // Every admitted ticket was delivered by the drain.
        for (s, t) in tickets.into_iter().enumerate() {
            let got = t.try_take().expect("drained before shutdown returned");
            assert_eq!(got.as_slice(), reference.infer(&sample(s)).as_slice());
        }
        assert!(matches!(router.submit("m", &sample(0)), Err(RouterError::ShuttingDown)));
        assert!(matches!(
            router.register("late", tiny_plan(6, 2), ModelConfig::default()),
            Err(RouterError::ShuttingDown)
        ));
        // Idempotent.
        router.shutdown();
    }

    #[test]
    fn observability_snapshot_covers_the_stack() {
        let router = Router::new();
        router.register("m", tiny_plan(8, 3), ModelConfig::with_replicas(2)).unwrap();
        for s in 0..4 {
            router.submit("m", &sample(s)).unwrap().wait();
        }
        let json = router.observability_json();
        for needle in [
            "\"models\"",
            "\"form\":\"f32\"",
            "\"replicas\":2",
            "\"queue_depths\":[0,0]",
            "\"ewma_service_ns\"",
            "\"profile\":null",
            "\"pool\"",
            "\"local_pushes\"",
            "\"trace\"",
            "\"enabled\":false",
            "\"metrics\"",
            "\"serve.m.latency_ns\":{\"count\":4",
            "\"p999\"",
            "\"buckets\":[{\"lower\"",
            "\"serve.m.batch_size\"",
            "\"router.m.shed\":0",
        ] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }
    }

    #[test]
    fn observability_snapshot_is_a_pure_read() {
        let router = Router::new();
        router.register("m", tiny_plan(8, 3), ModelConfig::with_replicas(2)).unwrap();
        for s in 0..4 {
            router.submit("m", &sample(s)).unwrap().wait();
        }
        let before = router.registry().snapshot();
        router.observability_snapshot();
        router.observability_snapshot();
        assert_eq!(router.registry().snapshot(), before);
    }

    #[test]
    fn tracing_spans_flow_from_submissions() {
        let router = Router::new();
        assert!(!router.tracing_enabled());
        router.enable_tracing();
        router.register("m", tiny_plan(9, 3), ModelConfig::with_replicas(1)).unwrap();
        let t = router.submit("m", &sample(0)).unwrap();
        let id = t.trace_id().expect("tracing on: ticket carries its id");
        t.wait();
        let spans = router.trace_log().spans();
        let kinds: Vec<SpanKind> = spans.iter().filter(|s| s.trace == id).map(|s| s.kind).collect();
        assert_eq!(kinds, vec![SpanKind::Queued, SpanKind::Batched, SpanKind::Executed]);
        router.disable_tracing();
        let t = router.submit("m", &sample(1)).unwrap();
        assert!(t.trace_id().is_none(), "tracing off: no id minted");
        t.wait();
    }

    #[test]
    fn debug_formats() {
        let router = Router::new();
        router.register("m", tiny_plan(7, 2), ModelConfig::with_replicas(2)).unwrap();
        let dbg = format!("{router:?}");
        assert!(dbg.contains("m ×2"));
    }
}
