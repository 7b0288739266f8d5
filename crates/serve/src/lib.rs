//! # scissor-serve
//!
//! A micro-batching inference front-end over
//! [`CompiledNet`] — the serving half of the
//! training/serving split.
//!
//! The deployment artifact of Group Scissor is the *compressed* network:
//! rank-clipped and group-deleted so it fits crossbar hardware. Serving it
//! at traffic scale is a batching problem — single-sample forwards leave
//! the matmul micro-kernels starved (a batch-1 fully-connected layer is one
//! output row, below the 4-row register tile), while callers arrive one
//! sample at a time. [`Replica`] bridges the two: one bounded request
//! queue plus batcher threads over a *shared* `Arc<CompiledNet>`.
//! Submission is **non-blocking** — [`Replica::submit`] enqueues and
//! immediately returns a [`Ticket`]; the caller later [`Ticket::wait`]s
//! (blocking) or polls [`Ticket::try_take`]. Many replicas can serve one
//! plan (that is what `scissor_router` builds its sharded tier from).
//!
//! Batcher threads coalesce submissions into one tensor — up to
//! [`ServeConfig::max_batch`] samples, waiting at most
//! [`ServeConfig::max_wait`] past the oldest submission — and one
//! allocation-free [`CompiledNet::infer_into`] pass computes the whole
//! batch (one im2col + matmul per layer, spread over the persistent rayon
//! pool) before per-sample logits fan back out to the tickets. That pass
//! is **cache-tiled** (`scissor_nn::TileConfig`): when a coalesced batch
//! would blow the LLC, the plan runs it in cache-sized sub-batches, each
//! flowing through all layers before the next — and because each batcher
//! pre-warms its scratch via [`CompiledNet::warm_scratch`], the
//! per-replica activation buffers are sized at the *tile*, not
//! `max_batch`, shrinking replica memory by the same factor.
//!
//! Overload is explicit: the queue is bounded by
//! [`ServeConfig::queue_cap`], and a submission finding it full is **shed**
//! with [`ServeError::Overloaded`] instead of growing the backlog without
//! bound. Shutdown is graceful: every admitted ticket is drained and
//! delivered before the batcher threads exit.
//!
//! Because per-sample logits are **batch-invariant** (every kernel
//! accumulates each output element in a fixed order regardless of batch
//! size), a caller receives bit-for-bit the logits a direct
//! single-sample — or any other batch composition — forward would have
//! produced. The concurrency stress tests pin this down.
//!
//! Replicas record into [`ServeMetrics`] — `scissor_obs` histograms and
//! counters the owner shares among the replicas of one model — and
//! [`Replica::stats`] reads them as [`ServeStats`]: requests served,
//! realized batch sizes, full-batch vs timeout flushes, shed count, the
//! log₂-bucket latency histogram (p50/p99/p99.9), plus the replica's own
//! queue depth and service-time EWMA.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use rand::SeedableRng;
//! use scissor_nn::{NetworkBuilder, Tensor4};
//! use scissor_serve::{Replica, ServeConfig, Telemetry};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = NetworkBuilder::new((1, 6, 6))
//!     .conv("conv1", 3, 3, 1, 0, &mut rng)
//!     .relu()
//!     .linear("fc", 4, &mut rng)
//!     .build();
//! let plan = Arc::new(net.compile().unwrap());
//! let replica = Replica::start(plan, ServeConfig::default(), Telemetry::default());
//!
//! let ticket = replica.submit(&Tensor4::zeros(1, 1, 6, 6)).unwrap(); // non-blocking
//! let logits = ticket.wait();                                        // blocks
//! assert_eq!(logits.len(), 4);
//! assert_eq!(replica.stats().requests, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
mod error;
mod stats;

pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use error::ServeError;
pub use scissor_obs::{SpanKind, SpanRecord, TraceId, TraceLog};
pub use stats::{Ewma, ServeMetrics, ServeStats, DEFAULT_EWMA_ALPHA_PCT};

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use scissor_nn::{CompiledNet, ServingForm, Tensor4};

use stats::StatsInner;

/// Convenience alias for serve results.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Batching knobs for a [`Replica`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Largest batch a single forward pass will carry.
    pub max_batch: usize,
    /// Longest a submission may wait for co-riders, measured from the
    /// *oldest* sample in the forming batch. `ZERO` degenerates to
    /// whatever is queued at the moment a batcher looks.
    pub max_wait: Duration,
    /// Number of batcher threads. One is right for CPU-bound inference
    /// (the matmul itself fans out over the rayon pool); more overlap
    /// batch assembly with compute.
    pub workers: usize,
    /// Bounded-queue high-water mark: a submission that finds this many
    /// requests already pending is shed with [`ServeError::Overloaded`].
    /// Defaults to `usize::MAX` (never shed) for a standalone replica;
    /// `scissor_router` sets real bounds.
    pub queue_cap: usize,
    /// Smoothing factor (percent, clamped to `[1, 100]`) for the
    /// per-replica service-time EWMA latency-aware routing scores on —
    /// see [`ServeStats::ewma_service_ns`].
    pub ewma_alpha_pct: u8,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_wait: Duration::from_millis(2),
            workers: 1,
            queue_cap: usize::MAX,
            ewma_alpha_pct: DEFAULT_EWMA_ALPHA_PCT,
        }
    }
}

/// This replica's connection to a shared [`TraceLog`]: the log plus the
/// replica id spans are stamped with. Built by the owner (the router
/// assigns router-wide unique ids) and passed in [`Telemetry::trace`]; a
/// replica without one records no spans.
#[derive(Debug, Clone)]
pub struct TraceSink {
    log: Arc<TraceLog>,
    replica: u64,
}

impl TraceSink {
    /// A sink stamping spans with `replica`.
    pub fn new(log: Arc<TraceLog>, replica: u64) -> Self {
        Self { log, replica }
    }

    /// The replica id spans are stamped with.
    pub fn replica_id(&self) -> u64 {
        self.replica
    }

    /// The shared span log.
    pub fn log(&self) -> &Arc<TraceLog> {
        &self.log
    }
}

/// A single queued inference request.
struct Request {
    features: Vec<f32>,
    /// Clock timestamp at admission ([`Clock::now_ns`]).
    enqueued_ns: u64,
    slot: Arc<Slot>,
    /// Trace identity, when the replica traces and tracing was enabled at
    /// admission. Travels with the request through `dismantle`/`inject`.
    trace: Option<TraceId>,
}

/// An admitted-but-not-yet-served request extracted from a replica by
/// [`Replica::dismantle`], carrying its caller's live rendezvous slot.
///
/// Opaque: the only thing to do with one is [`Replica::inject`] it into a
/// sibling replica serving the *same plan*, which preserves the caller's
/// [`Ticket`] identity (and its original enqueue timestamp, so measured
/// latency includes the reroute) — the mechanism behind zero-lost-ticket
/// replica teardown in `scissor_router`.
pub struct PendingRequest {
    inner: Request,
}

impl std::fmt::Debug for PendingRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingRequest")
            .field("features", &self.inner.features.len())
            .field("enqueued_ns", &self.inner.enqueued_ns)
            .finish()
    }
}

/// What a replica's owner shares with it. The [`Default`] describes a
/// standalone replica: a fresh [`MonotonicClock`], private
/// [`ServeMetrics`] and no tracing.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Time source for enqueue timestamps, latency and service time: one
    /// shared clock per owner makes replicas comparable, and a
    /// [`VirtualClock`] makes all accounting move only when a test says.
    pub clock: Arc<dyn Clock>,
    /// Span sink: while its log is enabled, each admitted request gets a
    /// [`TraceId`] and queued/batched/executed [`SpanRecord`]s; while
    /// disabled the cost is one relaxed load per submission.
    pub trace: Option<TraceSink>,
    /// The counters to record into; replicas of one model share a set.
    pub metrics: ServeMetrics,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self { clock: MonotonicClock::shared(), trace: None, metrics: ServeMetrics::new() }
    }
}

/// Lifecycle of one rendezvous slot: pending → ready → taken.
enum SlotState {
    /// No batch has delivered yet.
    Pending,
    /// Logits delivered, not yet redeemed.
    Ready(Vec<f32>),
    /// Logits redeemed via `try_take`; a later `wait` must fail loudly
    /// instead of blocking on a condvar that will never fire again.
    Taken,
}

/// One caller's rendezvous: filled by a batcher, awaited by the ticket
/// holder.
struct Slot {
    done: Mutex<SlotState>,
    cv: Condvar,
}

/// A claim on the logits of one admitted submission.
///
/// Returned immediately by [`Replica::submit`]; redeemed by blocking
/// ([`Ticket::wait`]) or polling ([`Ticket::try_take`]). Every admitted
/// ticket is eventually fulfilled — shutdown drains the queue before the
/// batcher threads exit — so `wait` cannot hang on a live or draining
/// replica. Dropping a ticket abandons the result (the batch still runs).
pub struct Ticket {
    slot: Arc<Slot>,
    trace: Option<TraceId>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("ready", &self.is_ready())
            .field("trace", &self.trace)
            .finish()
    }
}

impl Ticket {
    /// The request's trace identity, when the serving replica traces and
    /// tracing was enabled at admission.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.trace
    }

    /// Blocks until the logits arrive and returns them.
    ///
    /// # Panics
    ///
    /// Panics if the logits were already redeemed through
    /// [`Ticket::try_take`] — blocking would otherwise hang forever on a
    /// slot that can never be filled again.
    pub fn wait(self) -> Vec<f32> {
        let mut done = self.slot.done.lock().expect("serve slot poisoned");
        loop {
            match std::mem::replace(&mut *done, SlotState::Taken) {
                SlotState::Ready(logits) => return logits,
                SlotState::Taken => panic!("ticket already redeemed via try_take"),
                SlotState::Pending => {
                    *done = SlotState::Pending;
                    done = self.slot.cv.wait(done).expect("serve slot poisoned");
                }
            }
        }
    }

    /// Takes the logits if they have already arrived; `None` otherwise.
    /// A ticket whose logits were taken will never yield them again.
    pub fn try_take(&self) -> Option<Vec<f32>> {
        let mut done = self.slot.done.lock().expect("serve slot poisoned");
        match std::mem::replace(&mut *done, SlotState::Taken) {
            SlotState::Ready(logits) => Some(logits),
            SlotState::Taken => None,
            SlotState::Pending => {
                *done = SlotState::Pending;
                None
            }
        }
    }

    /// Whether the logits have arrived (and were not yet taken).
    pub fn is_ready(&self) -> bool {
        matches!(*self.slot.done.lock().expect("serve slot poisoned"), SlotState::Ready(_))
    }
}

struct QueueState {
    pending: VecDeque<Request>,
    shutdown: bool,
    paused: bool,
}

struct Shared {
    net: Arc<CompiledNet>,
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    available: Condvar,
    stats: StatsInner,
    clock: Arc<dyn Clock>,
    /// Span sink, when the owner traces this replica. Producers check
    /// `is_enabled` (one relaxed load) before building any span.
    trace: Option<TraceSink>,
    /// The plan's serving-form label, rendered once so per-span stamping
    /// is an `Arc` clone, not a format.
    form_label: Arc<str>,
}

/// One batching replica: a bounded request queue plus batcher threads over
/// a shared compiled plan.
///
/// Many replicas may serve the same `Arc<CompiledNet>` — the plan is
/// frozen and `Sync`, so replication costs only the per-replica scratch
/// and threads, not a weight copy. Submission is thread-safe through
/// `&self`; drop (or [`Replica::shutdown`]) drains the queue — delivering
/// every admitted [`Ticket`] — and joins the batcher threads.
pub struct Replica {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Replica {
    /// Starts batcher threads over a shared compiled plan, with the
    /// clock, span sink and counters the owner hands in (use
    /// `Telemetry::default()` for a standalone replica).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.max_batch`, `cfg.workers` or `cfg.queue_cap` is zero.
    pub fn start(net: Arc<CompiledNet>, cfg: ServeConfig, telemetry: Telemetry) -> Self {
        let Telemetry { clock, trace, metrics } = telemetry;
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        assert!(cfg.workers > 0, "workers must be positive");
        assert!(cfg.queue_cap > 0, "queue_cap must be positive");
        let form_label: Arc<str> = Arc::from(net.serving_form().to_string().as_str());
        let shared = Arc::new(Shared {
            net,
            cfg,
            queue: Mutex::new(QueueState {
                pending: VecDeque::new(),
                shutdown: false,
                paused: false,
            }),
            available: Condvar::new(),
            stats: StatsInner::new(metrics, cfg.ewma_alpha_pct),
            clock,
            trace,
            form_label,
        });
        let handles = (0..cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("scissor-serve-{i}"))
                    .spawn(move || batcher_loop(&shared))
                    .expect("spawn batcher thread")
            })
            .collect();
        Self { shared, handles }
    }

    /// A shared handle to the compiled plan being served (for spawning
    /// sibling replicas).
    pub fn plan(&self) -> Arc<CompiledNet> {
        Arc::clone(&self.shared.net)
    }

    /// The numeric serving form of the plan this replica executes
    /// (`f32` or group-quantized `int8` — fixed when the plan was
    /// compiled).
    pub fn serving_form(&self) -> ServingForm {
        self.shared.net.serving_form()
    }

    /// Submits one sample (a batch-1 tensor) without blocking and returns
    /// its [`Ticket`].
    ///
    /// # Errors
    ///
    /// [`ServeError::ShapeMismatch`] if the sample's `(c, h, w)` differs
    /// from the plan's input shape or the tensor is not batch-1;
    /// [`ServeError::Overloaded`] if the queue is at
    /// [`ServeConfig::queue_cap`]; [`ServeError::ShuttingDown`] after
    /// [`Replica::shutdown`] began.
    pub fn submit(&self, sample: &Tensor4) -> Result<Ticket> {
        let (b, c, h, w) = sample.shape();
        if b != 1 || (c, h, w) != self.shared.net.input_shape() {
            return Err(ServeError::ShapeMismatch {
                expected: self.shared.net.input_shape(),
                got: sample.shape(),
            });
        }
        self.submit_features(sample.as_slice())
    }

    /// Submits one sample as a raw `c·h·w` feature slice without blocking
    /// and returns its [`Ticket`].
    ///
    /// # Errors
    ///
    /// [`ServeError::FeatureLengthMismatch`] if the slice length is not the
    /// plan's `c·h·w`; otherwise as [`Replica::submit`].
    pub fn submit_features(&self, features: &[f32]) -> Result<Ticket> {
        let (c, h, w) = self.shared.net.input_shape();
        if features.len() != c * h * w {
            return Err(ServeError::FeatureLengthMismatch {
                expected: c * h * w,
                got: features.len(),
            });
        }
        let slot = Arc::new(Slot { done: Mutex::new(SlotState::Pending), cv: Condvar::new() });
        let trace;
        {
            let mut queue = self.shared.queue.lock().expect("serve queue poisoned");
            if queue.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            let depth = queue.pending.len();
            if depth >= self.shared.cfg.queue_cap {
                // Shed under the lock so depth/cap in the error are exact.
                self.shared.stats.record_shed();
                return Err(ServeError::Overloaded { depth, cap: self.shared.cfg.queue_cap });
            }
            let enqueued_ns = self.shared.clock.now_ns();
            // Mint the id and record the Queued span under the queue lock:
            // span order then matches admission order exactly, which the
            // VirtualClock determinism suite asserts. The trace mutex is a
            // leaf (never taken while holding it), so no lock-order risk.
            trace = match &self.shared.trace {
                Some(sink) if sink.log.is_enabled() => {
                    let id = sink.log.mint();
                    sink.log.record(SpanRecord {
                        trace: id,
                        kind: SpanKind::Queued,
                        at_ns: enqueued_ns,
                        replica: sink.replica,
                        batch: 0,
                        form: Arc::clone(&self.shared.form_label),
                    });
                    Some(id)
                }
                _ => None,
            };
            queue.pending.push_back(Request {
                features: features.to_vec(),
                enqueued_ns,
                slot: Arc::clone(&slot),
                trace,
            });
            self.shared.stats.set_queue_depth(queue.pending.len() as u64);
        }
        // lint: allow(notify-under-lock): deliberate notify-after-unlock
        // hoist. The condvar lives in the Arc'd `Shared` (kept alive by
        // this handle and every batcher), so it cannot be freed under the
        // notify, and waiters re-check queue state under the lock --
        // unlike the stack-resident Latch this rule exists for.
        self.shared.available.notify_all();
        Ok(Ticket { slot, trace })
    }

    /// Re-admits a request extracted from a dismantled sibling replica
    /// (see [`Replica::dismantle`]). Bypasses [`ServeConfig::queue_cap`] —
    /// the request was already admitted once and its [`Ticket`] must
    /// resolve — and keeps the original enqueue timestamp.
    ///
    /// # Errors
    ///
    /// Hands the request back if this replica is itself shutting down, so
    /// the caller can try another sibling instead of losing the ticket.
    pub fn inject(&self, req: PendingRequest) -> std::result::Result<(), PendingRequest> {
        {
            let mut queue = self.shared.queue.lock().expect("serve queue poisoned");
            if queue.shutdown {
                return Err(req);
            }
            // A rerouted traced request gets a second Queued span on its
            // new replica, timestamped at reroute time (the original
            // admission span keeps the original timestamp).
            if let (Some(id), Some(sink)) = (req.inner.trace, &self.shared.trace) {
                if sink.log.is_enabled() {
                    sink.log.record(SpanRecord {
                        trace: id,
                        kind: SpanKind::Queued,
                        at_ns: self.shared.clock.now_ns(),
                        replica: sink.replica,
                        batch: 0,
                        form: Arc::clone(&self.shared.form_label),
                    });
                }
            }
            queue.pending.push_back(req.inner);
            self.shared.stats.set_queue_depth(queue.pending.len() as u64);
        }
        // lint: allow(notify-under-lock): deliberate notify-after-unlock
        // hoist. The condvar lives in the Arc'd `Shared` (kept alive by
        // this handle and every batcher), so it cannot be freed under the
        // notify, and waiters re-check queue state under the lock --
        // unlike the stack-resident Latch this rule exists for.
        self.shared.available.notify_all();
        Ok(())
    }

    /// Pending (admitted, not yet drained) requests — the value the
    /// bounded-queue check and least-loaded routing read. Lock-free.
    pub fn queue_depth(&self) -> usize {
        self.shared.stats.queue_depth() as usize
    }

    /// Pauses batch processing: batcher threads stop draining the queue
    /// (a batch already in flight completes). Submissions are still
    /// admitted until the queue cap. Used for maintenance windows and for
    /// deterministic overload tests.
    pub fn pause(&self) {
        let mut queue = self.shared.queue.lock().expect("serve queue poisoned");
        queue.paused = true;
    }

    /// Resumes batch processing after [`Replica::pause`].
    pub fn resume(&self) {
        {
            let mut queue = self.shared.queue.lock().expect("serve queue poisoned");
            queue.paused = false;
        }
        // lint: allow(notify-under-lock): deliberate notify-after-unlock
        // hoist. The condvar lives in the Arc'd `Shared` (kept alive by
        // this handle and every batcher), so it cannot be freed under the
        // notify, and waiters re-check queue state under the lock --
        // unlike the stack-resident Latch this rule exists for.
        self.shared.available.notify_all();
    }

    /// Whether batch processing is currently paused — routing policies
    /// must not steer new traffic at a paused replica while an active one
    /// exists.
    pub fn is_paused(&self) -> bool {
        self.shared.queue.lock().expect("serve queue poisoned").paused
    }

    /// Current per-sample service-time EWMA in nanoseconds (`0` until the
    /// first batch lands) — the latency-aware routing signal. Lock-free.
    pub fn ewma_service_ns(&self) -> u64 {
        self.shared.stats.ewma_service_ns()
    }

    /// Clears the service-time EWMA so the estimator re-learns from
    /// scratch (rebalance actuation: a stale estimate should not keep
    /// steering traffic after conditions changed).
    pub fn reset_ewma(&self) {
        self.shared.stats.reset_ewma()
    }

    /// A reading of the counters this replica records into — shared with
    /// every replica that got the same [`Telemetry::metrics`] — with this
    /// replica's own queue depth and service-time EWMA.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats.snapshot()
    }

    /// Stops accepting submissions, drains the queue (delivering every
    /// admitted ticket — a pause is overridden) and joins the batcher
    /// threads. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("serve queue poisoned");
            queue.shutdown = true;
        }
        // lint: allow(notify-under-lock): deliberate notify-after-unlock
        // hoist. The condvar lives in the Arc'd `Shared` (kept alive by
        // this handle and every batcher), so it cannot be freed under the
        // notify, and waiters re-check queue state under the lock --
        // unlike the stack-resident Latch this rule exists for.
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }

    /// Tears the replica down **without** serving its backlog: stops
    /// admission, extracts every still-pending request (their tickets
    /// stay live) and joins the batcher threads, returning the extracted
    /// requests, in admission order, for [`Replica::inject`]ion into
    /// sibling replicas. An in-flight batch records into the shared
    /// counters before the join returns.
    ///
    /// A batch already in flight when this is called completes and
    /// delivers its tickets normally; the extraction happens under the
    /// queue lock *before* the batchers are woken, so a request is either
    /// in the returned set or delivered by this replica — never both,
    /// never neither. This is the scale-down primitive: where `shutdown`
    /// serves the backlog itself before exiting, `dismantle` hands it off
    /// so capacity leaves the pool immediately, even mid-pause.
    pub fn dismantle(mut self) -> Vec<PendingRequest> {
        let pending: Vec<PendingRequest> = {
            let mut queue = self.shared.queue.lock().expect("serve queue poisoned");
            queue.shutdown = true;
            queue.pending.drain(..).map(|inner| PendingRequest { inner }).collect()
        };
        // lint: allow(notify-under-lock): deliberate notify-after-unlock
        // hoist. The condvar lives in the Arc'd `Shared` (kept alive by
        // this handle and every batcher), so it cannot be freed under the
        // notify, and waiters re-check queue state under the lock --
        // unlike the stack-resident Latch this rule exists for.
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        pending
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One batcher thread: collect → infer → fan out, forever.
fn batcher_loop(shared: &Shared) {
    let (c, h, w) = shared.net.input_shape();
    // Pre-size the scratch at the largest batch this replica will ever
    // form, so even the first served request runs the allocation-free
    // warm path.
    let mut scratch = shared.net.warm_scratch(shared.cfg.max_batch);
    let mut batch_input = Tensor4::zeros(0, c, h, w);
    let mut guard = shared.queue.lock().expect("serve queue poisoned");
    loop {
        if guard.paused && !guard.shutdown {
            guard = shared.available.wait(guard).expect("serve queue poisoned");
            continue;
        }
        if guard.pending.is_empty() {
            if guard.shutdown {
                return;
            }
            guard = shared.available.wait(guard).expect("serve queue poisoned");
            continue;
        }
        // A batch is forming: wait for co-riders until it is full, the
        // oldest sample's wait budget runs out, or shutdown/pause begins.
        // The deadline is recomputed from the *current* front each
        // iteration — with several workers, another batcher may drain the
        // request the previous deadline was keyed to, and a fresh arrival
        // deserves its own full coalescing window, not a stale (possibly
        // expired) one. Deadlines are clock timestamps; under a
        // `VirtualClock` the condvar still sleeps real `remaining` spans,
        // so deterministic virtual-time suites run with `max_wait: ZERO`
        // (no coalescing window to wait out).
        while guard.pending.len() < shared.cfg.max_batch && !guard.shutdown && !guard.paused {
            let front = match guard.pending.front() {
                Some(req) => req,
                // Another worker drained the queue while we slept.
                None => break,
            };
            let deadline_ns = front
                .enqueued_ns
                .saturating_add(u64::try_from(shared.cfg.max_wait.as_nanos()).unwrap_or(u64::MAX));
            let now_ns = shared.clock.now_ns();
            if now_ns >= deadline_ns {
                break;
            }
            let remaining = Duration::from_nanos(deadline_ns - now_ns);
            let (g, _timeout) =
                shared.available.wait_timeout(guard, remaining).expect("serve queue poisoned");
            guard = g;
        }
        // Paused mid-coalesce: leave the queue alone until resumed (the
        // shutdown drain overrides a pause).
        if guard.paused && !guard.shutdown {
            continue;
        }
        // The queue may have been drained entirely while we slept.
        if guard.pending.is_empty() {
            continue;
        }
        let take = guard.pending.len().min(shared.cfg.max_batch);
        let batch: Vec<Request> = guard.pending.drain(..take).collect();
        shared.stats.set_queue_depth(guard.pending.len() as u64);
        drop(guard);

        run_batch(shared, &batch, &mut batch_input, &mut scratch, take);

        guard = shared.queue.lock().expect("serve queue poisoned");
    }
}

/// Assembles a drained batch, runs the forward pass and fans the logits
/// back out to the waiting tickets.
fn run_batch(
    shared: &Shared,
    batch: &[Request],
    batch_input: &mut Tensor4,
    scratch: &mut scissor_nn::InferScratch,
    take: usize,
) {
    let (c, h, w) = shared.net.input_shape();
    batch_input.resize(take, c, h, w);
    for (i, req) in batch.iter().enumerate() {
        batch_input.sample_mut(i).copy_from_slice(&req.features);
    }
    let infer_start_ns = shared.clock.now_ns();
    let logits = shared.net.infer_into(batch_input, scratch);
    let infer_ns = shared.clock.now_ns().saturating_sub(infer_start_ns);

    // Record every counter BEFORE waking any ticket holder: a caller that
    // reads `stats()` right after its `wait` returns must see its own
    // request and its batch fully accounted.
    let now_ns = shared.clock.now_ns();
    for req in batch {
        shared.stats.record_request(now_ns.saturating_sub(req.enqueued_ns));
    }
    shared.stats.record_batch(take as u64, take == shared.cfg.max_batch, infer_ns);

    // Span recording follows the same rule as the counters above: all
    // spans land before any ticket holder wakes, so a caller that reads
    // the trace log right after `wait` returns sees its own request's
    // full lifecycle.
    if let Some(sink) = &shared.trace {
        if sink.log.is_enabled() {
            for req in batch {
                let Some(id) = req.trace else { continue };
                sink.log.record(SpanRecord {
                    trace: id,
                    kind: SpanKind::Batched,
                    at_ns: infer_start_ns,
                    replica: sink.replica,
                    batch: take,
                    form: Arc::clone(&shared.form_label),
                });
                sink.log.record(SpanRecord {
                    trace: id,
                    kind: SpanKind::Executed,
                    at_ns: now_ns,
                    replica: sink.replica,
                    batch: take,
                    form: Arc::clone(&shared.form_label),
                });
            }
        }
    }

    for (i, req) in batch.iter().enumerate() {
        // Fill under the slot lock and notify before releasing it, so the
        // ticket holder cannot observe the fill and deallocate the slot
        // between the two.
        let mut done = req.slot.done.lock().expect("serve slot poisoned");
        *done = SlotState::Ready(logits.row(i).to_vec());
        req.slot.cv.notify_all();
        drop(done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scissor_nn::NetworkBuilder;

    fn tiny_plan() -> CompiledNet {
        let mut rng = StdRng::seed_from_u64(11);
        NetworkBuilder::new((1, 4, 4))
            .conv("conv1", 2, 3, 1, 0, &mut rng)
            .relu()
            .linear("fc", 3, &mut rng)
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

    /// A standalone replica over `plan`.
    fn start(plan: Arc<CompiledNet>, cfg: ServeConfig) -> Replica {
        Replica::start(plan, cfg, Telemetry::default())
    }

    #[test]
    fn submit_returns_compiled_logits() {
        let plan = tiny_plan();
        let expect = plan.infer(&sample(0));
        let replica = start(Arc::new(tiny_plan()), ServeConfig::default());
        let got = replica.submit(&sample(0)).unwrap().wait();
        assert_eq!(got.as_slice(), expect.as_slice());
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let replica = start(Arc::new(tiny_plan()), ServeConfig::default());
        let bad = Tensor4::zeros(1, 1, 5, 5);
        assert!(matches!(replica.submit(&bad), Err(ServeError::ShapeMismatch { .. })));
        let two = Tensor4::zeros(2, 1, 4, 4);
        assert!(matches!(replica.submit(&two), Err(ServeError::ShapeMismatch { .. })));
        assert!(matches!(
            replica.submit_features(&[0.0; 3]),
            Err(ServeError::FeatureLengthMismatch { expected: 16, got: 3 })
        ));
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let mut replica = start(Arc::new(tiny_plan()), ServeConfig::default());
        replica.shutdown();
        assert!(matches!(replica.submit(&sample(0)), Err(ServeError::ShuttingDown)));
        // Idempotent.
        replica.shutdown();
    }

    #[test]
    fn stats_count_requests_and_batches() {
        let replica = start(
            Arc::new(tiny_plan()),
            ServeConfig {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        );
        for s in 0..5 {
            replica.submit(&sample(s)).unwrap().wait();
        }
        let stats = replica.stats();
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.samples, 5);
        assert!(stats.batches >= 1 && stats.batches <= 5);
        assert!(stats.mean_batch_size() >= 1.0);
        assert!(stats.max_latency() >= stats.mean_latency());
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.queue_depth, 0, "all requests delivered → queue empty");
        assert_eq!(stats.latency.buckets.iter().sum::<u64>(), 5);
        assert!(stats.p50_latency() <= stats.p99_latency());
    }

    #[test]
    fn ticket_try_take_and_wait() {
        let plan = tiny_plan();
        let expect = plan.infer(&sample(4));
        let replica = start(Arc::new(tiny_plan()), ServeConfig::default());
        let ticket = replica.submit(&sample(4)).unwrap();
        // Poll until ready, then take without blocking.
        let got = loop {
            if let Some(v) = ticket.try_take() {
                break v;
            }
            std::thread::yield_now();
        };
        assert_eq!(got.as_slice(), expect.as_slice());
        assert!(!ticket.is_ready(), "taken logits are gone");
        assert!(ticket.try_take().is_none());
        // wait() path on a second ticket.
        let got = replica.submit(&sample(4)).unwrap().wait();
        assert_eq!(got.as_slice(), expect.as_slice());
    }

    #[test]
    #[should_panic(expected = "already redeemed")]
    fn wait_after_try_take_panics_instead_of_hanging() {
        let replica = start(Arc::new(tiny_plan()), ServeConfig::default());
        let ticket = replica.submit(&sample(1)).unwrap();
        loop {
            if ticket.try_take().is_some() {
                break;
            }
            std::thread::yield_now();
        }
        // The logits are gone; blocking would hang forever, so this must
        // fail loudly instead.
        let _ = ticket.wait();
    }

    #[test]
    fn paused_replica_admits_until_cap_then_sheds() {
        let replica =
            start(Arc::new(tiny_plan()), ServeConfig { queue_cap: 3, ..ServeConfig::default() });
        replica.pause();
        let tickets: Vec<Ticket> =
            (0..3).map(|s| replica.submit(&sample(s)).expect("admitted")).collect();
        assert_eq!(replica.queue_depth(), 3);
        // Queue is at the high-water mark: the next submission sheds.
        match replica.submit(&sample(9)) {
            Err(ServeError::Overloaded { depth: 3, cap: 3 }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(replica.stats().shed, 1);
        // Resume: every admitted ticket is delivered with exact logits.
        replica.resume();
        let reference = tiny_plan();
        for (s, t) in tickets.into_iter().enumerate() {
            let want = reference.infer(&sample(s));
            assert_eq!(t.wait().as_slice(), want.as_slice(), "ticket {s}");
        }
        assert_eq!(replica.queue_depth(), 0);
    }

    #[test]
    fn shutdown_drains_admitted_tickets_even_when_paused() {
        let mut replica = start(Arc::new(tiny_plan()), ServeConfig::default());
        replica.pause();
        let tickets: Vec<Ticket> =
            (0..4).map(|s| replica.submit(&sample(s)).expect("admitted")).collect();
        assert_eq!(replica.queue_depth(), 4);
        // Shutdown overrides the pause and drains everything admitted.
        replica.shutdown();
        let reference = tiny_plan();
        for (s, t) in tickets.into_iter().enumerate() {
            let want = reference.infer(&sample(s));
            assert_eq!(t.wait().as_slice(), want.as_slice(), "ticket {s}");
        }
        assert!(matches!(replica.submit(&sample(0)), Err(ServeError::ShuttingDown)));
    }

    #[test]
    fn tiled_plan_serves_identical_logits_through_the_batcher() {
        use scissor_nn::TileConfig;
        // Force aggressive tiling (sub-batches of 2 under a max_batch of
        // 8): coalesced batches run the tiled path and every ticket must
        // still receive the exact logits an untiled pass produces.
        let reference = tiny_plan();
        let mut tiled = tiny_plan();
        tiled.set_tile_config(TileConfig::fixed(2));
        let replica = start(
            Arc::new(tiled),
            ServeConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(5),
                ..ServeConfig::default()
            },
        );
        replica.pause();
        let tickets: Vec<Ticket> =
            (0..8).map(|s| replica.submit(&sample(s)).expect("admitted")).collect();
        replica.resume();
        for (s, t) in tickets.into_iter().enumerate() {
            let want = reference.infer(&sample(s));
            assert_eq!(t.wait().as_slice(), want.as_slice(), "sample {s}");
        }
    }

    #[test]
    fn dismantle_hands_pending_to_a_sibling_same_tickets() {
        let plan = Arc::new(tiny_plan());
        // Siblings share one set of counters, as a router model's do.
        let telemetry = Telemetry::default();
        let a = Replica::start(Arc::clone(&plan), ServeConfig::default(), telemetry.clone());
        let b = Replica::start(Arc::clone(&plan), ServeConfig::default(), telemetry);
        a.pause();
        b.pause();
        let tickets: Vec<Ticket> =
            (0..5).map(|s| a.submit(&sample(s)).expect("admitted")).collect();
        assert_eq!(a.queue_depth(), 5);
        // Tear a down mid-pause: its backlog moves to b, tickets intact.
        let pending = a.dismantle();
        assert_eq!(pending.len(), 5);
        assert_eq!(b.stats().requests, 0, "paused: nothing delivered before teardown");
        for req in pending {
            b.inject(req).expect("sibling accepts");
        }
        assert_eq!(b.queue_depth(), 5);
        assert!(tickets.iter().all(|t| !t.is_ready()), "nothing served while paused");
        b.resume();
        let reference = tiny_plan();
        for (s, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().as_slice(), reference.infer(&sample(s)).as_slice(), "ticket {s}");
        }
        assert_eq!(b.stats().requests, 5, "the sibling served the rerouted backlog, counted once");
    }

    #[test]
    fn inject_bypasses_the_queue_cap_and_bounces_off_shutdown() {
        let plan = Arc::new(tiny_plan());
        let a = start(Arc::clone(&plan), ServeConfig::default());
        let b = start(Arc::clone(&plan), ServeConfig { queue_cap: 1, ..ServeConfig::default() });
        a.pause();
        b.pause();
        let _own = b.submit(&sample(9)).expect("fills b to its cap");
        let tickets: Vec<Ticket> =
            (0..3).map(|s| a.submit(&sample(s)).expect("admitted")).collect();
        // b is at cap, but rerouted requests were already admitted once:
        // they must land anyway (zero lost tickets beats the cap).
        for req in a.dismantle() {
            b.inject(req).expect("cap does not apply to rerouted requests");
        }
        assert_eq!(b.queue_depth(), 4);
        b.resume();
        let reference = tiny_plan();
        for (s, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().as_slice(), reference.infer(&sample(s)).as_slice(), "ticket {s}");
        }
        // A shutting-down replica hands the request back instead of
        // swallowing it.
        let c = start(Arc::clone(&plan), ServeConfig::default());
        c.pause();
        let t = c.submit(&sample(7)).expect("admitted");
        let mut d = start(Arc::clone(&plan), ServeConfig::default());
        d.shutdown();
        let mut bounced = Vec::new();
        for req in c.dismantle() {
            bounced.push(d.inject(req).expect_err("shut-down replica must refuse"));
        }
        assert_eq!(bounced.len(), 1);
        let e = start(Arc::clone(&plan), ServeConfig::default());
        for req in bounced {
            e.inject(req).expect("live replica accepts the bounced request");
        }
        assert_eq!(t.wait().as_slice(), reference.infer(&sample(7)).as_slice());
    }

    #[test]
    fn virtual_clock_freezes_latency_accounting() {
        let clock = VirtualClock::shared();
        let replica = Replica::start(
            Arc::new(tiny_plan()),
            ServeConfig { max_wait: Duration::ZERO, ..ServeConfig::default() },
            Telemetry { clock: Arc::clone(&clock) as Arc<dyn Clock>, ..Telemetry::default() },
        );
        replica.pause();
        let t0 = replica.submit(&sample(0)).unwrap();
        clock.advance(Duration::from_millis(3));
        let t1 = replica.submit(&sample(1)).unwrap();
        replica.resume();
        t0.wait();
        t1.wait();
        let stats = replica.stats();
        // All time flowed through the virtual clock: the first request
        // aged exactly the scripted 3 ms, the second not at all, and the
        // measured infer time is zero (the clock never moved during it).
        assert_eq!(stats.max_latency(), Duration::from_millis(3));
        assert_eq!(stats.latency.sum, 3_000_000);
        assert_eq!(stats.infer_time, Duration::ZERO);
        assert_eq!(stats.ewma_service_ns, 0);
        assert_eq!(replica.ewma_service_ns(), 0);
    }

    #[test]
    fn ewma_surfaces_and_resets_through_the_replica() {
        let replica = start(Arc::new(tiny_plan()), ServeConfig::default());
        assert_eq!(replica.ewma_service_ns(), 0);
        assert!(!replica.is_paused());
        replica.submit(&sample(0)).unwrap().wait();
        assert!(replica.ewma_service_ns() > 0, "a real batch seeds the estimator");
        replica.reset_ewma();
        assert_eq!(replica.ewma_service_ns(), 0);
        replica.pause();
        assert!(replica.is_paused());
        replica.resume();
        assert!(!replica.is_paused());
    }

    #[test]
    fn replicas_share_one_plan() {
        let plan = Arc::new(tiny_plan());
        let a = start(Arc::clone(&plan), ServeConfig::default());
        let b = start(a.plan(), ServeConfig::default());
        let expect = plan.infer(&sample(2));
        assert_eq!(a.submit(&sample(2)).unwrap().wait().as_slice(), expect.as_slice());
        assert_eq!(b.submit(&sample(2)).unwrap().wait().as_slice(), expect.as_slice());
        // Three handles to one frozen plan: the two replicas and ours.
        assert_eq!(Arc::strong_count(&plan), 3);
    }
}
