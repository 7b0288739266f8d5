//! The compiled forward-only inference plan.
//!
//! Training and serving want different execution models: training needs
//! exclusive mutable access (`Layer::forward_train` caches activations for
//! backprop), while serving wants a frozen network shared across threads
//! with nothing allocated on the hot path. [`CompiledNet`] is the serving
//! form: a [`Network`] — typically the output of rank clipping
//! (`scissor_lra`) and group connection deletion (`scissor_prune`) — is
//! *compiled* into a flat list of forward-only steps:
//!
//! * dense layers keep their `fan_in × fan_out` crossbar matrix;
//! * low-rank layers keep the factored pair — the two-crossbar serving form
//!   of the paper's rank-clipped layers (`y = (x·U)·Vᵀ + b`). The f32 plan
//!   stores `Vᵀ`, transposed once at compile time, so both products run on
//!   the `A · B` kernel; the result equals the layer's `matmul_nt` bitwise;
//! * deletion masks can be re-applied onto the frozen weights with
//!   [`CompiledNet::apply_mask`], pinning deleted connections to exact
//!   zeros;
//! * pooling/activation layers reduce to their parameter-free scans.
//!
//! A forward pass routes activations through a caller-owned
//! [`InferScratch`] whose buffers are recycled between calls: after one
//! warm-up pass at the largest batch size, [`CompiledNet::infer_into`]
//! performs **zero heap allocation** (the rayon pool's job dispatch for
//! large matmuls is the only possible residual source, and it is bypassed
//! below the parallel flop threshold). Because every step runs the *same
//! kernels in the same order* as `Network::forward(.., Phase::Eval)`, the
//! produced logits are **bitwise identical** to the training container's
//! eval forward — tested at LeNet/ConvNet scale in the workspace
//! integration suite.
//!
//! # Cache-tiled batch execution
//!
//! A large batch is a locality hazard: at batch 32 the im2col patch
//! matrix and the ping-pong activations are multi-megabyte, so each layer
//! streams its input back in from memory after the previous layer evicted
//! it — on small-LLC hosts the batched pass degenerates to memory
//! bandwidth. [`CompiledNet`] therefore carries a [`TileConfig`]: a
//! planner estimates the **per-sample working set** of every step
//! (im2col rows, matmul `rows`/`t` intermediates, both activations, the
//! step's resident weights) and picks the largest sub-batch whose
//! worst-step working set fits the cache budget. [`CompiledNet::infer_into`]
//! then runs each sub-batch through **all** layers before starting the
//! next, recovering the per-sample loop's cache locality while keeping
//! the batched API. Because per-sample logits are batch-invariant (each
//! output element accumulates in a fixed order regardless of batch
//! composition), the tiled output is **bitwise identical** to the
//! untiled pass — property-tested across tile sizes, including ones that
//! do not divide the batch.
//!
//! # Serving forms
//!
//! A plan executes in one of two numeric **serving forms**, chosen at
//! compile time ([`ServingForm`]):
//!
//! * [`ServingForm::F32`] ([`CompiledNet::compile`]) — the full-precision
//!   path described above, bitwise identical to the training container's
//!   eval forward.
//! * [`ServingForm::Int8`] ([`CompiledNet::compile_quantized`]) — frozen
//!   W/U/V are quantized to int8 with one symmetric scale per group of
//!   output channels (the paper's group-wise structure; crossbar mapping
//!   already discretizes weights to conductance levels, so this form is
//!   faithful, not a compromise). Dense and factored steps dispatch to the
//!   i32-accumulator kernels in [`scissor_linalg::quant`], activations are
//!   re-quantized per row at each layer boundary (buffered in
//!   [`InferScratch`]), and outputs dequantize back to f32 before
//!   bias/ReLU/pool. Weights stay resident at 1 byte each, so the tiling
//!   planner sees a ~4× smaller fixed working set and fits bigger
//!   sub-batches — the bandwidth lever batch inference is bound by.
//!   Integer accumulation is exact, so the int8 form keeps the same
//!   batch-invariance (and therefore tiled-equals-untiled) guarantees as
//!   f32; accuracy sits within a small, test-pinned delta of the f32 plan.

use scissor_linalg::quant::{matmul_q8_into, matmul_q8_nt_into, QuantActivations, QuantMatrix};
use scissor_linalg::Matrix;

use crate::error::{NnError, Result};
use crate::im2col::{conv_output_hw, im2col_into, im2col_quant_into, rows_to_nchw_into};
use crate::layer::Layer;
use crate::layers::conv::add_bias_rows;
use crate::layers::pool::{max_pool_scan, pool_out_len};
use crate::layers::{Conv2d, ConvGeometry, Linear, LowRankConv2d, LowRankLinear, MaxPool2d, Relu};
use crate::loss::{accuracy, argmax_rows_into};
use crate::net::Network;
use crate::tensor::{BatchView, Tensor4};

use scissor_obs::{Profiler, StepSpec};

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Cache budget used when no cache topology is readable (a common
/// private-L2 size; deliberately conservative — a too-small tile only
/// costs a few extra per-layer kernel launches, a too-large one evicts).
const FALLBACK_BUDGET: usize = 2 * 1024 * 1024;

/// A cache level reporting more than this is treated as a socket-wide
/// shared cache (containers see the host's whole L3 even when pinned to
/// one core) rather than capacity one core can keep resident; detection
/// then falls back to the next level down.
const PRIVATE_LLC_CAP: usize = 32 * 1024 * 1024;

/// Tiling policy for [`CompiledNet`] batch execution.
///
/// The default ([`TileConfig::auto`]) detects the last-level cache from
/// `/sys/devices/system/cpu/cpu0/cache` and honors two environment
/// variables read at [`CompiledNet::compile`] time:
///
/// * `GS_TILE_BATCH` — fixed sub-batch override; `0` disables tiling
///   entirely (every batch runs the untiled single-pass path);
/// * `GS_LLC_BUDGET` — cache budget in bytes for the planner, replacing
///   the auto-detected size.
///
/// A tile at or above the batch size disables tiling for that batch, so
/// `TileConfig::fixed(batch)` and [`TileConfig::untiled`] run the
/// identical single-pass path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Cache budget in bytes the per-tile working set must fit.
    pub budget_bytes: usize,
    /// Fixed sub-batch override; `None` plans the tile from
    /// [`TileConfig::budget_bytes`].
    pub tile: Option<usize>,
}

impl TileConfig {
    /// Auto-detected budget plus the `GS_TILE_BATCH` / `GS_LLC_BUDGET`
    /// environment overrides (see the type docs).
    pub fn auto() -> Self {
        let budget = std::env::var("GS_LLC_BUDGET")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&b| b > 0)
            .unwrap_or_else(detect_llc_budget);
        let tile = std::env::var("GS_TILE_BATCH").ok().and_then(|s| tile_from_env_str(&s));
        Self { budget_bytes: budget, tile }
    }

    /// Fixed sub-batch size, bypassing the planner.
    ///
    /// # Panics
    ///
    /// Panics if `tile == 0` (use [`TileConfig::untiled`] to disable).
    pub fn fixed(tile: usize) -> Self {
        assert!(tile > 0, "tile must be positive; use TileConfig::untiled() to disable");
        Self { budget_bytes: FALLBACK_BUDGET, tile: Some(tile) }
    }

    /// Disables tiling: every batch runs the untiled single-pass path.
    pub fn untiled() -> Self {
        Self { budget_bytes: FALLBACK_BUDGET, tile: Some(usize::MAX) }
    }

    /// Plans the tile from an explicit cache budget in bytes.
    pub fn budget(bytes: usize) -> Self {
        Self { budget_bytes: bytes, tile: None }
    }
}

impl Default for TileConfig {
    fn default() -> Self {
        Self::auto()
    }
}

/// One candidate's measurement from [`CompiledNet::calibrate_tile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileTiming {
    /// The sub-batch size measured.
    pub tile: usize,
    /// Best (minimum) forward latency over the calibration rounds, ns.
    pub best_ns: u64,
}

/// The result of a [`CompiledNet::calibrate_tile`] run: what was
/// measured and which tile was installed as the runtime override.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileCalibration {
    /// The batch size the candidates were timed at.
    pub batch: usize,
    /// Per-candidate timings, ascending by tile.
    pub timings: Vec<TileTiming>,
    /// The winning tile, now installed as the override.
    pub chosen: usize,
}

/// `GS_TILE_BATCH` semantics: `0` → untiled, `n` → fixed tile `n`,
/// unparsable → no override.
fn tile_from_env_str(s: &str) -> Option<usize> {
    match s.trim().parse::<usize>() {
        Ok(0) => Some(usize::MAX),
        Ok(n) => Some(n),
        Err(_) => None,
    }
}

/// Largest data/unified cache level at most [`PRIVATE_LLC_CAP`] visible
/// in sysfs, or [`FALLBACK_BUDGET`] when the topology is unreadable
/// (non-Linux hosts, restricted containers).
fn detect_llc_budget() -> usize {
    let mut best = 0usize;
    for idx in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let Ok(ty) = std::fs::read_to_string(format!("{base}/type")) else { break };
        if ty.trim() == "Instruction" {
            continue;
        }
        let Some(bytes) = std::fs::read_to_string(format!("{base}/size"))
            .ok()
            .and_then(|s| parse_cache_size(s.trim()))
        else {
            continue;
        };
        if bytes <= PRIVATE_LLC_CAP {
            best = best.max(bytes);
        }
    }
    if best == 0 {
        FALLBACK_BUDGET
    } else {
        best
    }
}

/// Parses sysfs cache sizes (`48K`, `2048K`, `260M`, plain bytes).
fn parse_cache_size(s: &str) -> Option<usize> {
    let (digits, unit) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1024),
        b'M' | b'm' => (&s[..s.len() - 1], 1024 * 1024),
        b'G' | b'g' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|n| n.saturating_mul(unit))
}

/// The numeric backend a [`CompiledNet`] executes its weight products in,
/// fixed at compile time.
///
/// See the [module docs](self) for the execution model of each form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingForm {
    /// Full-precision f32 — bitwise identical to
    /// `Network::forward(.., Phase::Eval)`.
    F32,
    /// Group-quantized int8 weights with i32 accumulation and f32 dequant
    /// at layer boundaries.
    Int8 {
        /// Output channels sharing one symmetric quantization scale
        /// (matching the paper's group-wise crossbar structure).
        group_size: usize,
    },
}

impl std::fmt::Display for ServingForm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingForm::F32 => write!(f, "f32"),
            ServingForm::Int8 { group_size } => write!(f, "int8/g{group_size}"),
        }
    }
}

/// One frozen forward-only step of a compiled plan.
enum StepKind {
    /// Dense convolution: `im2col(x) · W + b`.
    Conv { geom: ConvGeometry, weight: Matrix, bias: Matrix, out_ch: usize },
    /// Factored convolution: `(im2col(x) · U) · Vᵀ + b`, holding `vt = Vᵀ`.
    LowRankConv { geom: ConvGeometry, u: Matrix, vt: Matrix, bias: Matrix, out_ch: usize },
    /// Dense fully-connected: `x · W + b`.
    Linear { weight: Matrix, bias: Matrix },
    /// Factored fully-connected: `(x · U) · Vᵀ + b`, holding `vt = Vᵀ`.
    LowRankLinear { u: Matrix, vt: Matrix, bias: Matrix, fan_out: usize },
    /// Max pooling.
    MaxPool { kernel: usize, stride: usize, ceil_mode: bool },
    /// ReLU.
    Relu,
}

/// Stable kind label a [`StepSpec`] carries for a step.
fn step_kind_label(kind: &StepKind) -> &'static str {
    match kind {
        StepKind::Conv { .. } => "conv",
        StepKind::LowRankConv { .. } => "lowrank_conv",
        StepKind::Linear { .. } => "linear",
        StepKind::LowRankLinear { .. } => "lowrank_linear",
        StepKind::MaxPool { .. } => "maxpool",
        StepKind::Relu => "relu",
    }
}

/// Int8 companions of a step's frozen weights ([`ServingForm::Int8`]
/// plans only). The f32 weights are kept alongside so masks can be
/// re-applied and the step re-quantized.
enum QuantWeights {
    /// Quantized dense weight, column-grouped (`k × n` NN layout).
    Dense { weight: QuantMatrix },
    /// Quantized low-rank pair: `U` column-grouped (NN), `V` row-grouped
    /// (NT — its rows are the output channels).
    Factored { u: QuantMatrix, v: QuantMatrix },
}

struct Step {
    name: String,
    kind: StepKind,
    /// Present exactly when the plan's form is [`ServingForm::Int8`].
    quant: Option<QuantWeights>,
}

/// Which frozen matrix of a step a dotted param name addresses.
enum MaskTarget {
    Weight,
    U,
    V,
    Bias,
}

/// Resolves `param` (e.g. `"conv2.u"`) against a step's name and kind.
fn mask_target(name: &str, kind: &StepKind, param: &str) -> Option<MaskTarget> {
    let suffix = param.strip_prefix(name).and_then(|rest| rest.strip_prefix('.'))?;
    match (kind, suffix) {
        (StepKind::Conv { .. } | StepKind::Linear { .. }, "w") => Some(MaskTarget::Weight),
        (StepKind::LowRankConv { .. } | StepKind::LowRankLinear { .. }, "u") => Some(MaskTarget::U),
        (StepKind::LowRankConv { .. } | StepKind::LowRankLinear { .. }, "v") => Some(MaskTarget::V),
        (
            StepKind::Conv { .. }
            | StepKind::Linear { .. }
            | StepKind::LowRankConv { .. }
            | StepKind::LowRankLinear { .. },
            "bias",
        ) => Some(MaskTarget::Bias),
        _ => None,
    }
}

/// Builds the int8 companion weights for one step (`None` for the
/// parameter-free kinds).
fn quantize_kind(kind: &StepKind, group_size: usize) -> Option<QuantWeights> {
    match kind {
        StepKind::Conv { weight, .. } | StepKind::Linear { weight, .. } => {
            Some(QuantWeights::Dense { weight: QuantMatrix::quantize_cols(weight, group_size) })
        }
        StepKind::LowRankConv { u, vt, .. } | StepKind::LowRankLinear { u, vt, .. } => {
            Some(QuantWeights::Factored {
                u: QuantMatrix::quantize_cols(u, group_size),
                v: QuantMatrix::quantize_rows(&vt.transpose(), group_size),
            })
        }
        StepKind::MaxPool { .. } | StepKind::Relu => None,
    }
}

/// Resident bytes of a step's quantized weights (i8 values + f32 scales).
fn quant_resident_bytes(q: &QuantWeights) -> usize {
    match q {
        QuantWeights::Dense { weight } => weight.resident_bytes(),
        QuantWeights::Factored { u, v } => u.resident_bytes() + v.resident_bytes(),
    }
}

/// Weight bytes a step keeps hot on the serving path: the quantized
/// companions when present, the f32 snapshot otherwise.
fn step_weight_bytes(q: Option<&QuantWeights>, f32_bytes: usize) -> usize {
    match q {
        Some(q) => quant_resident_bytes(q),
        None => f32_bytes,
    }
}

/// A frozen, `Sync`, forward-only execution plan built from a trained (and
/// typically compressed) [`Network`].
///
/// See the [module docs](self) for the execution model. Construction
/// fails with [`NnError::UnsupportedLayer`] if the network contains a
/// layer type outside the workspace's six built-ins.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use scissor_nn::{CompiledNet, InferScratch, NetworkBuilder, Phase, Tensor4};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = NetworkBuilder::new((1, 6, 6))
///     .conv("conv1", 3, 3, 1, 0, &mut rng)
///     .relu()
///     .maxpool(2, 2)
///     .linear("fc", 4, &mut rng)
///     .build();
/// let plan = CompiledNet::compile(&net).unwrap();
///
/// let x = Tensor4::from_vec(2, 1, 6, 6, (0..72).map(|i| i as f32 * 0.01).collect());
/// let mut scratch = InferScratch::new();
/// let logits = plan.infer_into(&x, &mut scratch);
/// assert_eq!(logits.shape(), (2, 4));
/// // Bitwise-identical to the training container's eval forward.
/// assert_eq!(logits.as_slice(), net.forward(&x, Phase::Eval).as_slice());
/// ```
pub struct CompiledNet {
    input_shape: (usize, usize, usize),
    output_shape: (usize, usize, usize),
    steps: Vec<Step>,
    form: ServingForm,
    tile: TileConfig,
    /// Tile resolved from `tile` at configuration time (`usize::MAX` when
    /// tiling is disabled), so the per-forward planner cost is one `min`.
    planned_tile: usize,
    /// Measured tile override installed by [`CompiledNet::calibrate_tile`]
    /// (`0` = none): interior-mutable so a serving tier holding the plan
    /// behind a shared `Arc` can re-plan from live measurements without
    /// stopping traffic. Takes precedence over `planned_tile`; cleared by
    /// [`CompiledNet::set_tile_config`] and
    /// [`CompiledNet::clear_tile_override`].
    tile_override: AtomicUsize,
    /// Per-step profiler, built lazily on the first
    /// [`CompiledNet::enable_profiling`] (its step specs snapshot the
    /// footprint model once) and kept for the plan's lifetime so repeated
    /// enable/disable cycles accumulate into the same slots.
    profiler: OnceLock<Arc<Profiler>>,
    /// Whether forwards record into the profiler. One relaxed load of
    /// this flag is the *entire* disabled-path cost — regression-pinned
    /// by `tests/profiler_off.rs`.
    profile_on: AtomicBool,
}

/// Reusable per-thread workspace for [`CompiledNet::infer_into`].
///
/// Holds the ping-pong activation buffers and the im2col / matmul / factor
/// intermediates. Buffers grow to the largest shape seen and are then
/// recycled, so steady-state forwards never allocate. One scratch serves
/// one thread; the compiled net itself is freely shared (`&self`).
#[derive(Default)]
pub struct InferScratch {
    /// Ping-pong activation buffers, `(batch, c·h·w)` row-major. Under
    /// cache tiling these hold one *sub-batch*, not the full batch.
    act: [Matrix; 2],
    /// im2col patch matrix.
    cols: Matrix,
    /// Matmul output in `(B·OH·OW) × C` rows form.
    rows: Matrix,
    /// Low-rank intermediate `x·U`.
    t: Matrix,
    /// Full-batch logits assembled from per-tile results (tiled path
    /// only; the untiled path returns an activation buffer directly).
    out: Matrix,
    /// Run-time quantized product inputs (int8 serving form only): grid
    /// values plus per-row scales, two buffers per step (product input and
    /// low-rank `x·U` intermediate). Dedicating buffers per step keeps
    /// every buffer at one shape for the plan's lifetime, so the
    /// shape-change re-zeroing in `quantize_from`/`gather_from` never
    /// fires in steady state. The i32 accumulators live in kernel
    /// registers, not here.
    qa: Vec<QuantActivations>,
    /// Per-sample quantized conv input (int8 only): one row per sample of
    /// the sub-batch, quantized once and then patch-gathered on the grid
    /// by `im2col_quant_into` — the conv path never quantizes the
    /// `KH·KW`-times duplicated patch matrix.
    qsrc: QuantActivations,
}

impl InferScratch {
    /// Creates an empty scratch; buffers are sized lazily by the first
    /// forward (the warm-up pass).
    pub fn new() -> Self {
        Self::default()
    }
}

impl CompiledNet {
    /// Compiles a network into its frozen serving plan.
    ///
    /// Weights (including any zeros left by group connection deletion) are
    /// snapshotted; low-rank layers keep their factored `(U, V)` serving
    /// form.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnsupportedLayer`] for layer types the plan does
    /// not know how to freeze.
    pub fn compile(net: &Network) -> Result<Self> {
        Self::compile_with_form(net, ServingForm::F32)
    }

    /// Compiles a network into an int8 serving plan: frozen W/U/V are
    /// quantized with one symmetric scale per `group_size` output channels
    /// and every weight product runs on the i32-accumulator kernels (see
    /// the [module docs](self) and [`scissor_linalg::quant`]).
    ///
    /// The f32 snapshot is retained alongside the quantized weights so
    /// [`CompiledNet::apply_mask`] keeps working (masking re-quantizes the
    /// affected step).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnsupportedLayer`] for layer types the plan does
    /// not know how to freeze.
    ///
    /// # Panics
    ///
    /// Panics if `group_size == 0`.
    pub fn compile_quantized(net: &Network, group_size: usize) -> Result<Self> {
        assert!(group_size > 0, "quantization group size must be positive");
        Self::compile_with_form(net, ServingForm::Int8 { group_size })
    }

    fn compile_with_form(net: &Network, form: ServingForm) -> Result<Self> {
        let group = match form {
            ServingForm::F32 => None,
            ServingForm::Int8 { group_size } => Some(group_size),
        };
        let mut steps = Vec::with_capacity(net.layer_count());
        let mut shape = net.input_shape();
        for name in net.layer_names() {
            let layer = net.layer(name).expect("name enumerated from the network");
            let kind = Self::freeze(layer)?;
            let quant = group.and_then(|g| quantize_kind(&kind, g));
            steps.push(Step { name: name.to_string(), kind, quant });
            shape = layer.output_shape(shape);
        }
        let mut plan = Self {
            input_shape: net.input_shape(),
            output_shape: shape,
            steps,
            form,
            tile: TileConfig::untiled(),
            planned_tile: usize::MAX,
            tile_override: AtomicUsize::new(0),
            profiler: OnceLock::new(),
            profile_on: AtomicBool::new(false),
        };
        plan.set_tile_config(TileConfig::auto());
        // `GS_OBS_PROFILE=1` (or `true`) turns per-step profiling on for
        // every plan compiled in the process — the env knob for profiling
        // a deployment without code changes.
        if std::env::var("GS_OBS_PROFILE")
            .map(|v| {
                let v = v.trim().to_ascii_lowercase();
                v == "1" || v == "true"
            })
            .unwrap_or(false)
        {
            plan.enable_profiling();
        }
        Ok(plan)
    }

    fn freeze(layer: &dyn Layer) -> Result<StepKind> {
        let any = layer.as_any();
        if let Some(conv) = any.downcast_ref::<Conv2d>() {
            let weight = conv.weight_matrix().expect("dense conv has a weight").clone();
            let bias = layer.params().last().expect("conv has a bias").value().clone();
            return Ok(StepKind::Conv {
                geom: conv.geometry(),
                out_ch: weight.cols(),
                weight,
                bias,
            });
        }
        if let Some(lr) = any.downcast_ref::<LowRankConv2d>() {
            let (u, v) = lr.low_rank_factors().expect("low-rank conv has factors");
            let bias = layer.params().last().expect("low-rank conv has a bias").value().clone();
            return Ok(StepKind::LowRankConv {
                geom: lr.geometry(),
                u: u.clone(),
                vt: v.transpose(),
                out_ch: lr.out_channels(),
                bias,
            });
        }
        if let Some(lin) = any.downcast_ref::<Linear>() {
            let weight = lin.weight_matrix().expect("dense linear has a weight").clone();
            let bias = layer.params().last().expect("linear has a bias").value().clone();
            return Ok(StepKind::Linear { weight, bias });
        }
        if let Some(lr) = any.downcast_ref::<LowRankLinear>() {
            let (u, v) = lr.low_rank_factors().expect("low-rank linear has factors");
            let bias = layer.params().last().expect("low-rank linear has a bias").value().clone();
            return Ok(StepKind::LowRankLinear {
                u: u.clone(),
                vt: v.transpose(),
                fan_out: lr.fan_out(),
                bias,
            });
        }
        if let Some(pool) = any.downcast_ref::<MaxPool2d>() {
            let (kernel, stride, ceil_mode) = pool.geometry();
            return Ok(StepKind::MaxPool { kernel, stride, ceil_mode });
        }
        if any.downcast_ref::<Relu>().is_some() {
            return Ok(StepKind::Relu);
        }
        Err(NnError::UnsupportedLayer { name: layer.name().to_string() })
    }

    /// The numeric serving form this plan executes in.
    pub fn serving_form(&self) -> ServingForm {
        self.form
    }

    /// Declared input shape `(c, h, w)`.
    pub fn input_shape(&self) -> (usize, usize, usize) {
        self.input_shape
    }

    /// Output shape `(c, h, w)` of the plan.
    pub fn output_shape(&self) -> (usize, usize, usize) {
        self.output_shape
    }

    /// Step (layer) names in execution order.
    pub fn layer_names(&self) -> Vec<&str> {
        self.steps.iter().map(|s| s.name.as_str()).collect()
    }

    /// Total frozen weight scalar count (biases included).
    pub fn param_count(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match &s.kind {
                StepKind::Conv { weight, bias, .. } | StepKind::Linear { weight, bias } => {
                    weight.len() + bias.len()
                }
                StepKind::LowRankConv { u, vt, bias, .. }
                | StepKind::LowRankLinear { u, vt, bias, .. } => u.len() + vt.len() + bias.len(),
                StepKind::MaxPool { .. } | StepKind::Relu => 0,
            })
            .sum()
    }

    /// Pins the zero pattern of `mask` onto the frozen parameter `param`
    /// (dotted name, e.g. `"conv2.u"`): wherever the mask is `0.0`, the
    /// frozen weight becomes exactly `0.0`.
    ///
    /// Group connection deletion already zeroes the live weights, so this
    /// is a no-op numerically when compiling a properly masked network —
    /// it exists so a serving plan restored from an unmasked checkpoint
    /// can still be deployed with the deletion pattern enforced.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownParam`] if no step owns `param` and
    /// [`NnError::StateShapeMismatch`] if the mask shape disagrees.
    pub fn apply_mask(&mut self, param: &str, mask: &Matrix) -> Result<()> {
        let form = self.form;
        let step = self
            .steps
            .iter_mut()
            .find(|s| mask_target(&s.name, &s.kind, param).is_some())
            .ok_or_else(|| NnError::UnknownParam { name: param.to_string() })?;
        let role = mask_target(&step.name, &step.kind, param).expect("matched above");
        let target = match (&mut step.kind, &role) {
            (
                StepKind::Conv { weight, .. } | StepKind::Linear { weight, .. },
                MaskTarget::Weight,
            ) => weight,
            (
                StepKind::LowRankConv { u, .. } | StepKind::LowRankLinear { u, .. },
                MaskTarget::U,
            ) => u,
            (
                StepKind::LowRankConv { vt, .. } | StepKind::LowRankLinear { vt, .. },
                MaskTarget::V,
            ) => vt,
            (
                StepKind::Conv { bias, .. }
                | StepKind::Linear { bias, .. }
                | StepKind::LowRankConv { bias, .. }
                | StepKind::LowRankLinear { bias, .. },
                MaskTarget::Bias,
            ) => bias,
            _ => unreachable!("mask_target only resolves params the kind owns"),
        };
        // A `.v` mask addresses `V`; the plan holds `Vᵀ`, so the mask is
        // checked against `V`'s shape and transposed onto it.
        let is_v = matches!(role, MaskTarget::V);
        let expected = if is_v { (target.cols(), target.rows()) } else { target.shape() };
        if mask.shape() != expected {
            return Err(NnError::StateShapeMismatch {
                name: param.to_string(),
                stored: mask.shape(),
                expected,
            });
        }
        let transposed;
        let mask = if is_v {
            transposed = mask.transpose();
            &transposed
        } else {
            mask
        };
        for (wv, &mv) in target.as_mut_slice().iter_mut().zip(mask.as_slice()) {
            if mv == 0.0 {
                *wv = 0.0;
            }
        }
        // An int8 plan serves from the quantized companions: re-quantize
        // the step so the mask's zeros land there too (biases stay f32 and
        // need no re-quantization).
        if let (ServingForm::Int8 { group_size }, false) = (form, matches!(role, MaskTarget::Bias))
        {
            step.quant = quantize_kind(&step.kind, group_size);
        }
        Ok(())
    }

    /// The active tiling policy.
    pub fn tile_config(&self) -> TileConfig {
        self.tile
    }

    /// Replaces the tiling policy and re-plans the tile size. Clears any
    /// measured override from [`CompiledNet::calibrate_tile`] — an
    /// explicit policy change outranks stale measurements.
    pub fn set_tile_config(&mut self, cfg: TileConfig) {
        self.tile = cfg;
        self.planned_tile = match cfg.tile {
            Some(t) => t.max(1),
            None => self.tile_for_budget(cfg.budget_bytes),
        };
        self.tile_override = AtomicUsize::new(0);
    }

    /// The sub-batch size a forward at `batch` will execute with: the
    /// measured override when one is installed, else the
    /// configured/planned tile — either way clamped to the batch. A
    /// result equal to `batch` means the pass runs untiled.
    pub fn plan_tile(&self, batch: usize) -> usize {
        // ordering: Relaxed — the override is a plain usize hint with no
        // attached payload; any forward may use the old or new tile, both
        // of which are correct (tiling never changes results).
        let t = match self.tile_override.load(Ordering::Relaxed) {
            0 => self.planned_tile,
            t => t,
        };
        t.min(batch).max(1)
    }

    /// The measured tile override currently installed, if any.
    // ordering: Relaxed — see `plan_tile`: a self-contained hint value.
    pub fn tile_override(&self) -> Option<usize> {
        match self.tile_override.load(Ordering::Relaxed) {
            0 => None,
            t => Some(t),
        }
    }

    /// Removes the measured tile override; forwards fall back to the
    /// planned tile from the active [`TileConfig`].
    // ordering: Relaxed — see `plan_tile`: a self-contained hint value.
    pub fn clear_tile_override(&self) {
        self.tile_override.store(0, Ordering::Relaxed);
    }

    /// Measures 2–3 candidate sub-batch sizes on the real plan and
    /// installs the fastest as the runtime tile override — the
    /// measured-adaptive half of tile planning. The static planner
    /// ([`CompiledNet::set_tile_config`]) fits a cache-budget model; this
    /// cross-checks it against reality on **this** machine, right now:
    /// the supervisor calls it once at warm-up and again when
    /// batch-latency statistics drift.
    ///
    /// Candidates are the planned tile for `batch`, half of it, and
    /// double it (deduplicated, clamped to `[1, batch]`). Each runs
    /// `rounds` timed forwards on a synthetic batch (after one untimed
    /// warm-up per candidate); a candidate's cost is its **best** round —
    /// minimum latency is the standard robust estimator under scheduler
    /// noise. Ties keep the larger tile (fewer per-layer passes).
    ///
    /// Takes `&self`: the override slot is atomic, so calibration can run
    /// against a plan that live replicas are serving from. The forward
    /// outputs are bitwise identical at every tile (the tiling invariant)
    /// — calibration changes speed, never results.
    ///
    /// Round count is clamped to at least 1; `batch` to at least 1.
    pub fn calibrate_tile(&self, batch: usize, rounds: usize) -> TileCalibration {
        let batch = batch.max(1);
        let rounds = rounds.max(1);
        let planned = self.plan_tile(batch);
        let mut candidates = vec![planned];
        for c in [planned / 2, planned * 2] {
            let c = c.clamp(1, batch);
            if !candidates.contains(&c) {
                candidates.push(c);
            }
        }
        candidates.sort_unstable();

        let (c, h, w) = self.input_shape;
        let input = Tensor4::zeros(batch, c, h, w);
        let mut scratch = self.warm_scratch(batch);

        let mut timings = Vec::with_capacity(candidates.len());
        for &tile in &candidates {
            // ordering: Relaxed — see `plan_tile`: the calibration loop
            // reads its own store program-order; concurrent forwards may
            // run with either tile, all of which compute identical results.
            self.tile_override.store(tile, Ordering::Relaxed);
            self.infer_into(&input, &mut scratch); // warm-up, untimed
            let mut best = u64::MAX;
            for _ in 0..rounds {
                let t0 = std::time::Instant::now();
                self.infer_into(&input, &mut scratch);
                best = best.min(t0.elapsed().as_nanos() as u64);
            }
            timings.push(TileTiming { tile, best_ns: best });
        }

        let chosen = timings
            .iter()
            // max_by_key keeps the *last* minimum; with candidates sorted
            // ascending, cost ties resolve to the larger tile.
            .max_by_key(|t| (std::cmp::Reverse(t.best_ns), t.tile))
            .map(|t| t.tile)
            .unwrap_or(planned);
        // ordering: Relaxed — see `plan_tile`: a self-contained hint value.
        self.tile_override.store(chosen, Ordering::Relaxed);
        TileCalibration { batch, timings, chosen }
    }

    /// Peak bytes any single step touches at sub-batch `tile`: both
    /// activations, the im2col / matmul / low-rank intermediates and the
    /// step's resident weights — the quantity the planner fits into
    /// [`TileConfig::budget_bytes`].
    pub fn working_set_bytes(&self, tile: usize) -> usize {
        let mut peak = 0usize;
        self.for_each_footprint(|per_sample, fixed| {
            peak = peak.max(per_sample.saturating_mul(tile).saturating_add(fixed));
        });
        peak
    }

    /// Largest tile whose worst-step working set fits `budget`; 1 when
    /// even a single sample (or the weights alone) exceeds it.
    fn tile_for_budget(&self, budget: usize) -> usize {
        let mut best = usize::MAX;
        self.for_each_footprint(|per_sample, fixed| {
            let t = if per_sample == 0 {
                usize::MAX
            } else if fixed >= budget {
                1
            } else {
                ((budget - fixed) / per_sample).max(1)
            };
            best = best.min(t);
        });
        best.max(1)
    }

    /// Total bytes of weights the serving form keeps resident: 4 per
    /// scalar for [`ServingForm::F32`]; 1 per weight plus the group scales
    /// for [`ServingForm::Int8`] (biases stay f32 in both forms — the
    /// retained f32 snapshot of an int8 plan is cold and not counted).
    pub fn resident_weight_bytes(&self) -> usize {
        const F: usize = std::mem::size_of::<f32>();
        self.steps
            .iter()
            .map(|s| match (&s.kind, &s.quant) {
                (StepKind::Conv { bias, .. } | StepKind::Linear { bias, .. }, Some(q))
                | (
                    StepKind::LowRankConv { bias, .. } | StepKind::LowRankLinear { bias, .. },
                    Some(q),
                ) => quant_resident_bytes(q) + F * bias.len(),
                (StepKind::Conv { weight, bias, .. } | StepKind::Linear { weight, bias }, None) => {
                    F * (weight.len() + bias.len())
                }
                (
                    StepKind::LowRankConv { u, vt, bias, .. }
                    | StepKind::LowRankLinear { u, vt, bias, .. },
                    None,
                ) => F * (u.len() + vt.len() + bias.len()),
                (StepKind::MaxPool { .. } | StepKind::Relu, _) => 0,
            })
            .sum()
    }

    /// Walks the steps in execution order calling
    /// `f(per_sample_bytes, fixed_bytes)` for each: the bytes a step
    /// touches that scale with the sub-batch (source + destination
    /// activation, im2col `cols`, matmul `rows`, low-rank `t`, plus the
    /// i8 re-quantized input on int8 plans) and the batch-independent
    /// resident weights (4×-smaller under [`ServingForm::Int8`], which is
    /// why the planner fits bigger tiles there).
    fn for_each_footprint(&self, mut f: impl FnMut(usize, usize)) {
        const F: usize = std::mem::size_of::<f32>();
        let (mut c, mut h, mut w) = self.input_shape;
        for step in &self.steps {
            let in_f = c * h * w;
            let quant = step.quant.as_ref();
            let (per_sample, fixed, next) = match &step.kind {
                StepKind::Conv { geom: g, weight, bias, out_ch } => {
                    let (oh, ow) = conv_output_hw(h, w, g.kh, g.kw, g.stride, g.pad);
                    let pos = oh * ow;
                    // f32: src act + cols + rows + dst act, per sample.
                    // int8 never materializes the f32 patch matrix — it
                    // carries the per-sample quantized input and the
                    // gathered i16 patch rows instead of `cols`.
                    let mut per = F * (in_f + pos * out_ch + out_ch * pos);
                    if quant.is_some() {
                        per += QuantActivations::resident_bytes(1, in_f)
                            + QuantActivations::resident_bytes(pos, weight.rows());
                    } else {
                        per += F * pos * weight.rows();
                    }
                    (
                        per,
                        step_weight_bytes(quant, F * weight.len()) + F * bias.len(),
                        (*out_ch, oh, ow),
                    )
                }
                StepKind::LowRankConv { geom: g, u, vt, bias, out_ch } => {
                    let (oh, ow) = conv_output_hw(h, w, g.kh, g.kw, g.stride, g.pad);
                    let pos = oh * ow;
                    // f32: src act + cols + t (x·U) + rows + dst act.
                    // int8 swaps the f32 patch matrix for the per-sample
                    // quantized input plus the gathered i16 patch rows,
                    // and adds the quantized `x·U` intermediate.
                    let mut per = F * (in_f + pos * u.cols() + pos * out_ch + out_ch * pos);
                    if quant.is_some() {
                        per += QuantActivations::resident_bytes(1, in_f)
                            + QuantActivations::resident_bytes(pos, u.rows())
                            + QuantActivations::resident_bytes(pos, u.cols());
                    } else {
                        per += F * pos * u.rows();
                    }
                    (
                        per,
                        step_weight_bytes(quant, F * (u.len() + vt.len())) + F * bias.len(),
                        (*out_ch, oh, ow),
                    )
                }
                StepKind::Linear { weight, bias } => {
                    let mut per = F * (in_f + weight.cols());
                    if quant.is_some() {
                        per += QuantActivations::resident_bytes(1, in_f);
                    }
                    (
                        per,
                        step_weight_bytes(quant, F * weight.len()) + F * bias.len(),
                        (weight.cols(), 1, 1),
                    )
                }
                StepKind::LowRankLinear { u, vt, bias, fan_out } => {
                    let mut per = F * (in_f + u.cols() + fan_out);
                    if quant.is_some() {
                        per += QuantActivations::resident_bytes(1, in_f)
                            + QuantActivations::resident_bytes(1, u.cols());
                    }
                    (
                        per,
                        step_weight_bytes(quant, F * (u.len() + vt.len())) + F * bias.len(),
                        (*fan_out, 1, 1),
                    )
                }
                StepKind::MaxPool { kernel, stride, ceil_mode } => {
                    let oh = pool_out_len(h, *kernel, *stride, *ceil_mode);
                    let ow = pool_out_len(w, *kernel, *stride, *ceil_mode);
                    (F * (in_f + c * oh * ow), 0, (c, oh, ow))
                }
                StepKind::Relu => (F * 2 * in_f, 0, (c, h, w)),
            };
            f(per_sample, fixed);
            (c, h, w) = next;
        }
    }

    /// Turns per-step profiling on and returns the profiler handle.
    /// The profiler is built on the first call (snapshotting the step
    /// specs and the tile planner's footprint model) and reused after —
    /// repeated enable/disable cycles accumulate into the same slots.
    /// Recording is relaxed atomics into preallocated slots, so even the
    /// enabled warm path stays allocation-free.
    pub fn enable_profiling(&self) -> Arc<Profiler> {
        let profiler = self.profiler.get_or_init(|| Arc::new(Profiler::new(self.step_specs())));
        // ordering: Relaxed — the flag is advisory; the profiler itself
        // is published by the OnceLock's own Acquire/Release pair, and a
        // forward that sees the flag early but not the profiler yet just
        // takes the unprofiled path (see `run_steps`).
        self.profile_on.store(true, Ordering::Relaxed);
        Arc::clone(profiler)
    }

    /// Turns per-step profiling off. Accumulated aggregates stay readable
    /// through [`CompiledNet::profiler`]; the hot path reverts to one
    /// relaxed load per sub-batch.
    // ordering: Relaxed — advisory flag; a forward missing the toggle
    // for a few loads records a few extra/fewer steps, which profiling
    // semantics allow.
    pub fn disable_profiling(&self) {
        self.profile_on.store(false, Ordering::Relaxed);
    }

    /// Whether forwards currently record per-step profiles.
    // ordering: Relaxed — see `disable_profiling`; advisory flag.
    pub fn profiling_enabled(&self) -> bool {
        self.profile_on.load(Ordering::Relaxed)
    }

    /// The profiler, if [`CompiledNet::enable_profiling`] was ever called
    /// on this plan (it keeps accumulating only while enabled).
    pub fn profiler(&self) -> Option<Arc<Profiler>> {
        self.profiler.get().map(Arc::clone)
    }

    /// One [`StepSpec`] per step: name, kind label and the footprint
    /// model's per-sample/fixed working-set bytes.
    fn step_specs(&self) -> Vec<StepSpec> {
        let mut footprints = Vec::with_capacity(self.steps.len());
        self.for_each_footprint(|per_sample, fixed| footprints.push((per_sample, fixed)));
        self.steps
            .iter()
            .zip(footprints)
            .map(|(step, (per_sample, fixed))| StepSpec {
                name: step.name.clone(),
                kind: step_kind_label(&step.kind),
                per_sample_bytes: per_sample as u64,
                fixed_bytes: fixed as u64,
            })
            .collect()
    }

    /// Runs every step over one contiguous NCHW sub-batch already in
    /// `src`, returning the index of the ping-pong buffer holding the
    /// logits.
    ///
    /// With profiling on, each step is wrapped in an `Instant` pair and
    /// three relaxed atomic adds (no locks, no allocation), so enabling the
    /// profiler perturbs what it measures as little as possible.
    fn run_steps(&self, src: &[f32], b: usize, scratch: &mut InferScratch) -> usize {
        // The disabled-path profiling cost is this one relaxed load per
        // sub-batch plus a predictable `None` branch per step.
        // ordering: Relaxed — advisory flag; the profiler handle is
        // published by the OnceLock's Acquire on `get`, so a stale read
        // here only records one sub-batch more or less.
        let profiler: Option<&Profiler> = if self.profile_on.load(Ordering::Relaxed) {
            self.profiler.get().map(Arc::as_ref)
        } else {
            None
        };
        if let Some(profiler) = profiler {
            profiler.record_forward(b);
        }
        let (c, h, w) = self.input_shape;
        let mut shape = self.input_shape;
        let mut cur = 0usize;
        scratch.act[cur].assign_from(b, c * h * w, src);
        scratch.qa.resize_with(2 * self.steps.len(), QuantActivations::default);
        for (idx, step) in self.steps.iter().enumerate() {
            let (left, right) = scratch.act.split_at_mut(1);
            let (src, dst) =
                if cur == 0 { (&left[0], &mut right[0]) } else { (&right[0], &mut left[0]) };
            let (qa, qt) = {
                let pair = &mut scratch.qa[2 * idx..2 * idx + 2];
                let (head, tail) = pair.split_at_mut(1);
                (&mut head[0], &mut tail[0])
            };
            let timed = profiler.map(|p| (p, std::time::Instant::now()));
            shape = run_step(
                &step.kind,
                step.quant.as_ref(),
                src,
                b,
                shape,
                dst,
                &mut scratch.cols,
                &mut scratch.rows,
                &mut scratch.t,
                qa,
                qt,
                &mut scratch.qsrc,
            );
            if let Some((profiler, start)) = timed {
                profiler.record_step(idx, start.elapsed().as_nanos() as u64);
            }
            cur = 1 - cur;
        }
        cur
    }

    /// Runs the forward pass, returning the `(batch, features)` logits
    /// resident in `scratch`.
    ///
    /// When the batch exceeds the planned tile (see [`TileConfig`]), the
    /// pass executes in cache-sized sub-batches, each flowing through all
    /// layers before the next starts — bitwise identical to the untiled
    /// pass, since per-sample logits are batch-invariant.
    ///
    /// Allocation-free once `scratch` is warm at this batch size (or a
    /// larger one). Safe to call concurrently from many threads, each with
    /// its own scratch.
    ///
    /// # Panics
    ///
    /// Panics if the input's `(c, h, w)` differs from
    /// [`CompiledNet::input_shape`].
    pub fn infer_into<'s>(&self, input: &Tensor4, scratch: &'s mut InferScratch) -> &'s Matrix {
        self.infer_view_into(input.view(), scratch)
    }

    /// [`CompiledNet::infer_into`] over a borrowed [`BatchView`] — the
    /// zero-copy entry the eval path feeds contiguous dataset chunks to
    /// (no index vector, no gather copy).
    ///
    /// # Panics
    ///
    /// Panics if the view's `(c, h, w)` differs from
    /// [`CompiledNet::input_shape`].
    pub fn infer_view_into<'s>(
        &self,
        input: BatchView<'_>,
        scratch: &'s mut InferScratch,
    ) -> &'s Matrix {
        let (b, c, h, w) = input.shape();
        assert_eq!(
            (c, h, w),
            self.input_shape,
            "compiled net expects {:?} input",
            self.input_shape
        );
        let tile = self.plan_tile(b);
        if tile >= b {
            let cur = self.run_steps(input.as_slice(), b, scratch);
            return &scratch.act[cur];
        }
        let f_in = c * h * w;
        let (oc, oh, ow) = self.output_shape;
        let f_out = oc * oh * ow;
        scratch.out.reset_for_overwrite(b, f_out);
        let mut start = 0;
        while start < b {
            let end = (start + tile).min(b);
            let cur =
                self.run_steps(&input.as_slice()[start * f_in..end * f_in], end - start, scratch);
            scratch.out.as_mut_slice()[start * f_out..end * f_out]
                .copy_from_slice(scratch.act[cur].as_slice());
            start = end;
        }
        &scratch.out
    }

    /// Builds a scratch pre-sized for batches up to `max_batch` by running
    /// one zero-input pass — cheap replica instantiation: a serving
    /// replica warms its scratch once at start-up and every request it
    /// ever answers (at this batch size or smaller) then runs the
    /// allocation-free warm path, including the very first one.
    ///
    /// Under cache tiling the warm pass sizes the activation/intermediate
    /// buffers at the **tile** shape, not the full batch — replica memory
    /// shrinks by the same factor the working set does; only the
    /// assembled-logits buffer spans `max_batch`.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0`.
    pub fn warm_scratch(&self, max_batch: usize) -> InferScratch {
        assert!(max_batch > 0, "max_batch must be positive");
        let (c, h, w) = self.input_shape;
        let mut scratch = InferScratch::new();
        let warmup = Tensor4::zeros(max_batch, c, h, w);
        let _ = self.infer_into(&warmup, &mut scratch);
        scratch
    }

    /// Convenience forward allocating a fresh scratch and output tensor.
    ///
    /// For hot paths prefer [`CompiledNet::infer_into`] with a reused
    /// [`InferScratch`].
    pub fn infer(&self, input: &Tensor4) -> Tensor4 {
        let mut scratch = InferScratch::new();
        let logits = self.infer_into(input, &mut scratch);
        let (c, h, w) = self.output_shape;
        Tensor4::from_matrix(logits, c, h, w)
    }

    /// Predicted classes for a batch (argmax over the output features).
    pub fn predict(&self, images: &Tensor4, scratch: &mut InferScratch) -> Vec<usize> {
        let mut out = Vec::with_capacity(images.batch());
        self.predict_into(images.view(), scratch, &mut out);
        out
    }

    /// Appends the predicted class of every viewed sample to `out`,
    /// argmaxing the logits `Matrix` rows in place — no tensor round-trip,
    /// so the call is allocation-free once `scratch` is warm and `out` has
    /// spare capacity.
    pub fn predict_into(
        &self,
        images: BatchView<'_>,
        scratch: &mut InferScratch,
        out: &mut Vec<usize>,
    ) {
        let logits = self.infer_view_into(images, scratch);
        argmax_rows_into(logits, out);
    }

    /// Classification accuracy over a dataset, evaluated in mini-batches —
    /// the shared-state counterpart of `Network::evaluate` (identical
    /// results, since the per-sample logits agree bitwise).
    ///
    /// Each chunk is a zero-copy [`Tensor4::batch_range`] view, so beyond
    /// the first (warm-up) chunk the loop performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the sample count or
    /// `batch == 0`.
    pub fn evaluate(&self, images: &Tensor4, labels: &[usize], batch: usize) -> f64 {
        assert!(batch > 0, "batch size must be positive");
        assert_eq!(images.batch(), labels.len(), "images/labels mismatch");
        let n = images.batch();
        let mut scratch = InferScratch::new();
        let mut predictions = Vec::with_capacity(n);
        let mut start = 0;
        while start < n {
            let end = (start + batch).min(n);
            self.predict_into(images.batch_range(start..end), &mut scratch, &mut predictions);
            start = end;
        }
        accuracy(&predictions, labels)
    }
}

/// Executes one step: reads the `(b, chw)` activation in `src`, writes the
/// next activation into `dst`, and returns the new logical `(c, h, w)`.
///
/// When `quant` is present (int8 plans) the weight products quantize their
/// input (fully-connected inputs per row into `qa`, low-rank intermediates
/// into `qt`; conv inputs per *sample* into `qsrc` followed by an on-grid
/// patch gather into `qa` — see [`im2col_quant_into`]) and run the
/// i32-accumulator kernels; the product's f32 output lands in the same
/// buffer the f32 path uses, so bias/pool/ReLU handling is
/// form-independent.
#[allow(clippy::too_many_arguments)]
fn run_step(
    kind: &StepKind,
    quant: Option<&QuantWeights>,
    src: &Matrix,
    b: usize,
    shape: (usize, usize, usize),
    dst: &mut Matrix,
    cols: &mut Matrix,
    rows: &mut Matrix,
    t: &mut Matrix,
    qa: &mut QuantActivations,
    qt: &mut QuantActivations,
    qsrc: &mut QuantActivations,
) -> (usize, usize, usize) {
    let (c, h, w) = shape;
    match kind {
        StepKind::Conv { geom: g, weight, bias, out_ch } => {
            let (oh, ow) = conv_output_hw(h, w, g.kh, g.kw, g.stride, g.pad);
            if let Some(QuantWeights::Dense { weight: qw }) = quant {
                // Quantize per sample, then gather patches on the grid —
                // the f32 patch matrix is never materialized.
                qsrc.quantize_from(src);
                im2col_quant_into(qsrc, (b, c, h, w), g.kh, g.kw, g.stride, g.pad, qa);
                matmul_q8_into(qa, qw, rows);
            } else {
                im2col_into(src.as_slice(), (b, c, h, w), g.kh, g.kw, g.stride, g.pad, cols);
                cols.matmul_into(weight, rows);
            }
            add_bias_rows(rows, bias);
            dst.reset_for_overwrite(b, out_ch * oh * ow);
            rows_to_nchw_into(rows, b, *out_ch, oh, ow, dst.as_mut_slice());
            (*out_ch, oh, ow)
        }
        StepKind::LowRankConv { geom: g, u, vt, bias, out_ch } => {
            let (oh, ow) = conv_output_hw(h, w, g.kh, g.kw, g.stride, g.pad);
            if let Some(QuantWeights::Factored { u: qu, v: qv }) = quant {
                qsrc.quantize_from(src);
                im2col_quant_into(qsrc, (b, c, h, w), g.kh, g.kw, g.stride, g.pad, qa);
                matmul_q8_into(qa, qu, t);
                qt.quantize_from(t);
                matmul_q8_nt_into(qt, qv, rows);
            } else {
                im2col_into(src.as_slice(), (b, c, h, w), g.kh, g.kw, g.stride, g.pad, cols);
                cols.matmul_into(u, t);
                t.matmul_into(vt, rows);
            }
            add_bias_rows(rows, bias);
            dst.reset_for_overwrite(b, out_ch * oh * ow);
            rows_to_nchw_into(rows, b, *out_ch, oh, ow, dst.as_mut_slice());
            (*out_ch, oh, ow)
        }
        StepKind::Linear { weight, bias } => {
            if let Some(QuantWeights::Dense { weight: qw }) = quant {
                qa.quantize_from(src);
                matmul_q8_into(qa, qw, dst);
            } else {
                src.matmul_into(weight, dst);
            }
            add_bias_rows(dst, bias);
            (weight.cols(), 1, 1)
        }
        StepKind::LowRankLinear { u, vt, bias, fan_out } => {
            if let Some(QuantWeights::Factored { u: qu, v: qv }) = quant {
                qa.quantize_from(src);
                matmul_q8_into(qa, qu, t);
                qt.quantize_from(t);
                matmul_q8_nt_into(qt, qv, dst);
            } else {
                src.matmul_into(u, t);
                t.matmul_into(vt, dst);
            }
            add_bias_rows(dst, bias);
            (*fan_out, 1, 1)
        }
        StepKind::MaxPool { kernel, stride, ceil_mode } => {
            let oh = pool_out_len(h, *kernel, *stride, *ceil_mode);
            let ow = pool_out_len(w, *kernel, *stride, *ceil_mode);
            dst.reset_for_overwrite(b, c * oh * ow);
            max_pool_scan(
                src.as_slice(),
                (b, c, h, w),
                *kernel,
                *stride,
                (oh, ow),
                dst.as_mut_slice(),
                None,
            );
            (c, oh, ow)
        }
        StepKind::Relu => {
            dst.reset_for_overwrite(b, c * h * w);
            for (d, &s) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
                *d = s.max(0.0);
            }
            (c, h, w)
        }
    }
}

impl std::fmt::Debug for CompiledNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CompiledNet(input={:?}, steps=[{}], params={}, form={})",
            self.input_shape,
            self.layer_names().join(", "),
            self.param_count(),
            self.form
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Phase;
    use crate::net::NetworkBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_sync<T: Sync + Send>() {}

    fn mixed_net(rng: &mut StdRng) -> Network {
        let mut net = NetworkBuilder::new((2, 8, 8))
            .conv("conv1", 4, 3, 1, 1, rng)
            .relu()
            .maxpool(2, 2)
            .linear("fc1", 12, rng)
            .relu()
            .linear("fc2", 5, rng)
            .build();
        // Factor conv1 and fc1 so both low-rank step kinds are exercised.
        let conv = net.layer("conv1").unwrap().as_any().downcast_ref::<Conv2d>().unwrap();
        let u = crate::init::xavier_uniform(conv.geometry().fan_in(), 3, rng);
        let v = crate::init::xavier_uniform(4, 3, rng);
        let lr = conv.to_low_rank(u, v);
        net.replace_layer("conv1", Box::new(lr)).unwrap();
        let lin = net.layer("fc1").unwrap().as_any().downcast_ref::<Linear>().unwrap();
        let u = crate::init::xavier_uniform(lin.fan_in(), 4, rng);
        let v = crate::init::xavier_uniform(lin.fan_out(), 4, rng);
        let lr = lin.to_low_rank(u, v);
        net.replace_layer("fc1", Box::new(lr)).unwrap();
        net
    }

    #[test]
    fn compiled_net_is_sync() {
        assert_sync::<CompiledNet>();
    }

    #[test]
    fn compiled_matches_eval_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut net = mixed_net(&mut rng);
        let plan = CompiledNet::compile(&net).unwrap();
        assert_eq!(plan.layer_names(), net.layer_names());
        assert_eq!(plan.output_shape(), net.output_shape());
        for batch in [1usize, 3, 7] {
            let x = Tensor4::from_vec(
                batch,
                2,
                8,
                8,
                (0..batch * 128).map(|i| ((i * 13 + 1) % 37) as f32 * 0.07 - 1.2).collect(),
            );
            let expect = net.forward(&x, Phase::Eval);
            let got = plan.infer(&x);
            assert_eq!(got.shape(), expect.shape());
            let bits_match = got
                .as_slice()
                .iter()
                .zip(expect.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(bits_match, "compiled logits must be bitwise identical at batch {batch}");
        }
    }

    #[test]
    fn scratch_reuse_across_batch_sizes_stays_bitwise_identical() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = mixed_net(&mut rng);
        let plan = CompiledNet::compile(&net).unwrap();
        let mut scratch = InferScratch::new();
        // Big batch first (warm-up), then smaller ones through the same
        // scratch: shrinking buffers must not leak stale values.
        for batch in [6usize, 2, 4, 1] {
            let x = Tensor4::from_vec(
                batch,
                2,
                8,
                8,
                (0..batch * 128).map(|i| ((i * 11 + 3) % 29) as f32 * 0.09 - 1.1).collect(),
            );
            let expect = net.forward(&x, Phase::Eval);
            let got = plan.infer_into(&x, &mut scratch);
            assert_eq!(got.as_slice(), expect.as_slice(), "batch {batch}");
        }
    }

    #[test]
    fn per_sample_logits_are_batch_invariant() {
        // The batcher contract: a sample's logits do not depend on which
        // batch it rides in.
        let mut rng = StdRng::seed_from_u64(9);
        let net = mixed_net(&mut rng);
        let plan = CompiledNet::compile(&net).unwrap();
        let x = Tensor4::from_vec(
            5,
            2,
            8,
            8,
            (0..5 * 128).map(|i| ((i * 17 + 5) % 41) as f32 * 0.05 - 1.0).collect(),
        );
        let batched = plan.infer(&x);
        let mut scratch = InferScratch::new();
        for s in 0..5 {
            let single = x.gather(&[s]);
            let logits = plan.infer_into(&single, &mut scratch);
            assert_eq!(logits.row(0), batched.sample(s), "sample {s}");
        }
    }

    #[test]
    fn apply_mask_pins_zeros_and_validates() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = mixed_net(&mut rng);
        let mut plan = CompiledNet::compile(&net).unwrap();
        let (rows, cols) = net.param("fc2.w").unwrap().value().shape();
        let mut mask = Matrix::filled(rows, cols, 1.0);
        mask[(0, 0)] = 0.0;
        mask[(rows - 1, cols - 1)] = 0.0;
        plan.apply_mask("fc2.w", &mask).unwrap();
        // Re-run a forward; only the masked weights changed, so outputs
        // differ from the unmasked plan but the plan still runs.
        let x = Tensor4::zeros(1, 2, 8, 8);
        let _ = plan.infer(&x);
        assert!(matches!(plan.apply_mask("ghost.w", &mask), Err(NnError::UnknownParam { .. })));
        assert!(matches!(
            plan.apply_mask("fc2.w", &Matrix::zeros(1, 1)),
            Err(NnError::StateShapeMismatch { .. })
        ));
        // Low-rank factor masking resolves too.
        let (u, _) = net.layer("fc1").unwrap().low_rank_factors().unwrap();
        let ones = Matrix::filled(u.rows(), u.cols(), 1.0);
        plan.apply_mask("fc1.u", &ones).unwrap();
    }

    #[test]
    fn masking_v_matches_the_masked_networks_eval_forward() {
        // The f32 plan holds `Vᵀ`: a `.v` mask, given in `V`'s shape, must
        // land on the transposed entries. Compile unmasked, then mask the
        // plans and the network alike.
        let mut rng = StdRng::seed_from_u64(13);
        let mut net = mixed_net(&mut rng);
        let mut plan = CompiledNet::compile(&net).unwrap();
        let mut qplan = CompiledNet::compile_quantized(&net, 2).unwrap();
        let x = Tensor4::from_vec(
            3,
            2,
            8,
            8,
            (0..3 * 128).map(|i| ((i * 7 + 2) % 31) as f32 * 0.08 - 1.2).collect(),
        );
        let q_unmasked = qplan.infer(&x);
        for name in ["conv1.v", "fc1.v"] {
            let (rows, cols) = net.param(name).unwrap().value().shape();
            // An asymmetric zero pattern: a transposition slip zeroes
            // other entries.
            let mask = Matrix::from_fn(rows, cols, |i, j| f32::from((i * 3 + j) % 4 != 0));
            plan.apply_mask(name, &mask).unwrap();
            qplan.apply_mask(name, &mask).unwrap();
            let v = net.param_mut(name).unwrap().value_mut();
            for (wv, &mv) in v.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                if mv == 0.0 {
                    *wv = 0.0;
                }
            }
        }
        let expect = net.forward(&x, Phase::Eval);
        let got = plan.infer(&x);
        assert!(
            got.as_slice().iter().zip(expect.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits()),
            "masked f32 plan must equal the masked network bitwise"
        );
        // The int8 plan re-quantized `V` from the masked entries.
        let fresh = CompiledNet::compile_quantized(&net, 2).unwrap().infer(&x);
        assert_eq!(qplan.infer(&x).as_slice(), fresh.as_slice());
        assert_ne!(q_unmasked.as_slice(), fresh.as_slice());
        // A mask in `Vᵀ`'s shape is rejected, reporting `V`'s shape.
        let (rows, cols) = net.param("fc1.v").unwrap().value().shape();
        match plan.apply_mask("fc1.v", &Matrix::zeros(cols, rows)) {
            Err(NnError::StateShapeMismatch { expected, .. }) => assert_eq!(expected, (rows, cols)),
            other => panic!("expected a shape mismatch, got {other:?}"),
        }
    }

    #[test]
    fn tile_env_and_cache_size_parsing() {
        assert_eq!(tile_from_env_str("0"), Some(usize::MAX));
        assert_eq!(tile_from_env_str(" 8 "), Some(8));
        assert_eq!(tile_from_env_str("nope"), None);
        assert_eq!(parse_cache_size("48K"), Some(48 * 1024));
        assert_eq!(parse_cache_size("2048K"), Some(2 * 1024 * 1024));
        assert_eq!(parse_cache_size("260M"), Some(260 * 1024 * 1024));
        assert_eq!(parse_cache_size("1G"), Some(1024 * 1024 * 1024));
        assert_eq!(parse_cache_size("12345"), Some(12345));
        assert_eq!(parse_cache_size(""), None);
        assert_eq!(parse_cache_size("xK"), None);
    }

    #[test]
    fn planner_fits_working_set_into_budget() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut plan = CompiledNet::compile(&mixed_net(&mut rng)).unwrap();
        // Working set grows monotonically with the tile.
        let w1 = plan.working_set_bytes(1);
        let w4 = plan.working_set_bytes(4);
        let w32 = plan.working_set_bytes(32);
        assert!(0 < w1 && w1 <= w4 && w4 <= w32);
        // A budget exactly at the batch-4 working set plans a tile >= 4
        // whose own working set still fits.
        plan.set_tile_config(TileConfig::budget(w4));
        let t = plan.plan_tile(64);
        assert!(t >= 4, "tile {t} must reach the batch the budget was sized for");
        assert!(plan.working_set_bytes(t) <= w4, "planned tile must respect the budget");
        // An impossible budget degrades to single-sample tiles, never 0.
        plan.set_tile_config(TileConfig::budget(1));
        assert_eq!(plan.plan_tile(64), 1);
        // Fixed and untiled overrides resolve as documented.
        plan.set_tile_config(TileConfig::fixed(6));
        assert_eq!(plan.plan_tile(64), 6);
        assert_eq!(plan.plan_tile(3), 3, "tile clamps to the batch");
        plan.set_tile_config(TileConfig::untiled());
        assert_eq!(plan.plan_tile(64), 64);
        assert_eq!(plan.tile_config(), TileConfig::untiled());
    }

    #[test]
    fn tiled_pass_is_bitwise_identical_to_untiled() {
        let mut rng = StdRng::seed_from_u64(31);
        let net = mixed_net(&mut rng);
        let mut plan = CompiledNet::compile(&net).unwrap();
        let batch = 7;
        let x = Tensor4::from_vec(
            batch,
            2,
            8,
            8,
            (0..batch * 128).map(|i| ((i * 23 + 11) % 43) as f32 * 0.04 - 0.8).collect(),
        );
        plan.set_tile_config(TileConfig::untiled());
        let mut scratch = InferScratch::new();
        let expect = plan.infer_into(&x, &mut scratch).as_slice().to_vec();
        // Every tile size, dividing the batch or not (1, 2, 3 … 8 ≥ b).
        for tile in 1..=8usize {
            plan.set_tile_config(TileConfig::fixed(tile));
            let mut scratch = InferScratch::new();
            let got = plan.infer_into(&x, &mut scratch);
            let identical =
                got.as_slice().iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(identical, "tile {tile} must reproduce the untiled logits bitwise");
            assert_eq!(got.shape(), (batch, 5));
        }
    }

    #[test]
    fn tiled_scratch_act_buffers_stay_tile_sized() {
        // The replica-memory claim behind warm_scratch: under tiling the
        // ping-pong activations hold one sub-batch, not the full batch.
        let mut rng = StdRng::seed_from_u64(33);
        let mut plan = CompiledNet::compile(&mixed_net(&mut rng)).unwrap();
        plan.set_tile_config(TileConfig::fixed(2));
        let scratch = plan.warm_scratch(12);
        assert_eq!(scratch.out.rows(), 12, "assembled logits span the batch");
        assert!(
            scratch.act[0].rows() <= 2 && scratch.act[1].rows() <= 2,
            "activations must be tile-sized, got {} / {}",
            scratch.act[0].rows(),
            scratch.act[1].rows()
        );
    }

    #[test]
    fn evaluate_matches_network_evaluate() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut net = mixed_net(&mut rng);
        let plan = CompiledNet::compile(&net).unwrap();
        let n = 9;
        let images = Tensor4::from_vec(
            n,
            2,
            8,
            8,
            (0..n * 128).map(|i| ((i * 19 + 7) % 31) as f32 * 0.06 - 0.9).collect(),
        );
        let labels: Vec<usize> = (0..n).map(|i| i % 5).collect();
        assert_eq!(plan.evaluate(&images, &labels, 4), net.evaluate(&images, &labels, 4));
    }

    #[test]
    fn debug_formats() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = NetworkBuilder::new((1, 4, 4)).linear("fc", 2, &mut rng).build();
        let plan = CompiledNet::compile(&net).unwrap();
        let dbg = format!("{plan:?}");
        assert!(dbg.contains("CompiledNet"));
        assert!(dbg.contains("fc"));
        assert!(dbg.contains("form=f32"));
        let q = CompiledNet::compile_quantized(&net, 16).unwrap();
        assert!(format!("{q:?}").contains("form=int8/g16"));
        assert_eq!(q.serving_form(), ServingForm::Int8 { group_size: 16 });
        assert_eq!(ServingForm::Int8 { group_size: 16 }.to_string(), "int8/g16");
        assert_eq!(ServingForm::F32.to_string(), "f32");
    }

    /// Largest relative logit error of the int8 plan vs the f32 plan.
    fn max_rel_err(q: &Matrix, f: &Matrix) -> f32 {
        let denom = f.as_slice().iter().fold(0.0_f32, |m, v| m.max(v.abs())).max(1e-6);
        q.as_slice().iter().zip(f.as_slice()).fold(0.0_f32, |m, (a, b)| m.max((a - b).abs()))
            / denom
    }

    #[test]
    fn quantized_plan_tracks_f32_logits() {
        let mut rng = StdRng::seed_from_u64(42);
        let net = mixed_net(&mut rng);
        let f32_plan = CompiledNet::compile(&net).unwrap();
        let q_plan = CompiledNet::compile_quantized(&net, 4).unwrap();
        assert_eq!(q_plan.output_shape(), f32_plan.output_shape());
        let x = Tensor4::from_vec(
            3,
            2,
            8,
            8,
            (0..3 * 128).map(|i| ((i * 13 + 1) % 37) as f32 * 0.07 - 1.2).collect(),
        );
        let f_logits = f32_plan.infer(&x);
        let q_logits = q_plan.infer(&x);
        let err = max_rel_err(
            &Matrix::from_vec(3, 5, q_logits.as_slice().to_vec()).unwrap(),
            &Matrix::from_vec(3, 5, f_logits.as_slice().to_vec()).unwrap(),
        );
        // 8-bit weights + 8-bit activations through 6 layers: a few percent
        // of the logit range at the very worst.
        assert!(err < 0.05, "int8 logits drifted {err} from f32");
        assert!(err > 0.0, "quantization must actually change something");
    }

    #[test]
    fn quantized_tiled_pass_is_bitwise_identical_to_untiled() {
        // Integer accumulation is exact and activation scales are
        // per-row, so the int8 form keeps the tiling bit-equality
        // guarantee.
        let mut rng = StdRng::seed_from_u64(31);
        let net = mixed_net(&mut rng);
        let mut plan = CompiledNet::compile_quantized(&net, 8).unwrap();
        let batch = 7;
        let x = Tensor4::from_vec(
            batch,
            2,
            8,
            8,
            (0..batch * 128).map(|i| ((i * 23 + 11) % 43) as f32 * 0.04 - 0.8).collect(),
        );
        plan.set_tile_config(TileConfig::untiled());
        let mut scratch = InferScratch::new();
        let expect = plan.infer_into(&x, &mut scratch).as_slice().to_vec();
        for tile in [1usize, 2, 3, 5] {
            plan.set_tile_config(TileConfig::fixed(tile));
            let mut scratch = InferScratch::new();
            let got = plan.infer_into(&x, &mut scratch);
            let identical =
                got.as_slice().iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(identical, "int8 tile {tile} must reproduce the untiled logits bitwise");
        }
    }

    #[test]
    fn quantized_working_set_is_smaller() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = mixed_net(&mut rng);
        let f32_plan = CompiledNet::compile(&net).unwrap();
        let q_plan = CompiledNet::compile_quantized(&net, 8).unwrap();
        assert!(
            q_plan.resident_weight_bytes() < f32_plan.resident_weight_bytes(),
            "int8 weights must be smaller: {} vs {}",
            q_plan.resident_weight_bytes(),
            f32_plan.resident_weight_bytes()
        );
        // On a weight-dominated plan (the regime real presets tile in —
        // fc1 is the footprint bottleneck) the 4×-smaller resident
        // weights let the planner fit a strictly bigger tile into the
        // same budget.
        let heavy = NetworkBuilder::new((1, 16, 16))
            .linear("fc1", 512, &mut rng)
            .relu()
            .linear("fc2", 10, &mut rng)
            .build();
        let mut fp = CompiledNet::compile(&heavy).unwrap();
        let mut qp = CompiledNet::compile_quantized(&heavy, 64).unwrap();
        let budget = fp.working_set_bytes(4);
        fp.set_tile_config(TileConfig::budget(budget));
        qp.set_tile_config(TileConfig::budget(budget));
        assert!(
            qp.plan_tile(4096) > fp.plan_tile(4096),
            "int8 must fit a bigger tile on a weight-bound plan: {} vs {}",
            qp.plan_tile(4096),
            fp.plan_tile(4096)
        );
    }

    #[test]
    fn apply_mask_requantizes_int8_plans() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = mixed_net(&mut rng);
        let mut plan = CompiledNet::compile_quantized(&net, 4).unwrap();
        let (rows, cols) = net.param("fc2.w").unwrap().value().shape();
        // Mask out an entire column: its quantized weights must become
        // exact zeros (visible through the serving output of a one-hot
        // probe), not just the f32 snapshot.
        let mut mask = Matrix::filled(rows, cols, 1.0);
        for i in 0..rows {
            mask[(i, 0)] = 0.0;
        }
        plan.apply_mask("fc2.w", &mask).unwrap();
        let bias = net.param("fc2.bias").unwrap().value().clone();
        let x = Tensor4::from_vec(1, 2, 8, 8, vec![0.5; 128]);
        let logits = plan.infer(&x);
        assert_eq!(
            logits.as_slice()[0],
            bias.as_slice()[0],
            "masked output column must reduce to its bias"
        );
        // Bias masks don't touch the quantized weights but still apply.
        let ones = Matrix::filled(1, 5, 1.0);
        plan.apply_mask("fc2.bias", &ones).unwrap();
    }

    #[test]
    fn warm_scratch_covers_quantized_buffers() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = mixed_net(&mut rng);
        let plan = CompiledNet::compile_quantized(&net, 8).unwrap();
        let mut scratch = plan.warm_scratch(6);
        assert!(
            scratch.qa.iter().any(|q| q.rows() > 0),
            "warm pass must size the quantization buffers"
        );
        let x = Tensor4::from_vec(
            6,
            2,
            8,
            8,
            (0..6 * 128).map(|i| ((i * 7 + 3) % 23) as f32 * 0.08 - 0.9).collect(),
        );
        let a = plan.infer_into(&x, &mut scratch).as_slice().to_vec();
        let b = plan.infer_into(&x, &mut scratch).as_slice().to_vec();
        assert_eq!(a, b, "reused scratch must not perturb int8 results");
    }
}
