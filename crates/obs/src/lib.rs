//! # scissor-obs
//!
//! Unified telemetry for the Group Scissor serving stack: one crate that
//! answers "where did this request's 7 ms go?" across the whole pipeline
//! instead of scattering counters over per-crate structs and ad-hoc
//! prints. Three cooperating subsystems:
//!
//! * **Metrics registry** ([`Registry`]): named [`Counter`]s, [`Gauge`]s,
//!   log₂-bucket [`Histogram`]s and (the one documented exception to
//!   lock-freedom) [`TextGauge`]s. Registration is a cold-path mutex;
//!   every *update* afterwards is a relaxed atomic on an `Arc`'d cell.
//!   Serving replicas record their latency and batch counters here.
//!   [`Registry::snapshot`] produces an immutable [`Snapshot`] that
//!   subtracts against an earlier one ([`Snapshot::delta_since`]),
//!   serializes to JSON through the vendored serde, and renders as an
//!   aligned text table ([`Snapshot::render_table`]).
//! * **Request tracing** ([`TraceLog`]): [`TraceId`]s minted at admission
//!   and carried ticket → replica queue → batcher → `infer_into`,
//!   producing [`SpanRecord`]s (queued / batched / executed with batch
//!   size, replica id and serving form). Timestamps are supplied by the
//!   *caller* as plain nanoseconds — the serving tier passes its `Clock`,
//!   so `VirtualClock` tests assert exact span sequences with zero
//!   sleeps. Disabled tracing costs one relaxed load per check.
//! * **Inference profiling** ([`Profiler`]): per-step wall time,
//!   working-set bytes (static, from the tile planner's footprint model)
//!   and tile decisions, recorded into preallocated atomic slots so even
//!   the *enabled* path is allocation-free. The `CompiledNet` hot path
//!   guards it behind one relaxed load when disabled.
//!
//! The crate sits at the bottom of the dependency graph (only the
//! vendored serde pair below it) so `scissor_nn`, `scissor_serve` and
//! `scissor_router` can all feed the same registry without cycles; the
//! router assembles everything into one JSON document via
//! `Router::observability_snapshot()`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod profile;
mod registry;
mod trace;

pub use profile::{ProfileSnapshot, Profiler, StepProfile, StepSpec};
pub use registry::{
    Counter, Gauge, Histogram, HistogramValue, MetricValue, Registry, Snapshot, TextGauge,
    HIST_BUCKETS,
};
pub use trace::{SpanKind, SpanRecord, TraceId, TraceLog};
