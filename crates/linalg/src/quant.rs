//! Group-quantized int8 storage and integer matmul kernels — the numeric
//! backend of the int8 serving form (`scissor_nn::ServingForm::Int8`).
//!
//! ## Quantization scheme
//!
//! Weights are quantized **symmetrically per output group**: the output
//! channels (crossbar columns in the paper's Fig. 1 mapping) are split into
//! groups of `group_size`, each group stores one f32 scale
//! `s = max_abs / 127`, and every weight in the group is rounded to
//! `q = clamp(round(w / s), -127, 127)`. Activations are quantized at run
//! time **per row** (one scale per sample/position) onto the same grid,
//! using round-to-nearest-even (see below). The scale is constant along the
//! reduction dimension in both operands, so it factors out of the integer
//! dot product and the whole product needs just one dequantization multiply
//! per output element:
//!
//! ```text
//! C[i][j] = s_a[i] · s_w[g(j)] · Σ_p qa[i][p] · qw[p][j]
//! ```
//!
//! `-128` is never produced, keeping the grid symmetric: [`INT8_LEVELS`]
//! = 255 representable levels, which is what the crossbar consistency check
//! in `scissor_ncs` compares device conductance levels against.
//!
//! ## Storage layout
//!
//! [`QuantMatrix`] stores its values **output-major** regardless of the
//! logical layout: one contiguous length-`k` reduction vector per output
//! channel (for the NN layout this means the `k × n` weight is transposed
//! once at quantize time), zero-padded to a 32-element multiple so the
//! reduction loop has no scalar tail. [`QuantActivations`] stores its
//! values widened to `i16` with the same padding. Both choices feed the
//! same kernel shape — a contiguous `i16 × i8` dot product — which LLVM
//! autovectorizes to widening-multiply
//! chains (`pmaddwd` / VNNI on x86) that outrun the f32 micro-kernels. The
//! weight side stays 1 byte per value, so resident weight bytes are still
//! 4× below f32; the i16 activation copy is transient scratch.
//!
//! One shape class gets a second layout: short-reduction / wide-output
//! weights (`k ≤ 32`, ≥ 16 outputs — the low-rank `V` factors) also keep a
//! k-major copy and run a broadcast kernel that vectorizes along the
//! *output* axis, because at those reductions the dot kernel's per-output
//! horizontal reduce costs more than the multiplies (see
//! [`q8_bcast_panel`](QuantMatrix)). Integer associativity makes the two
//! kernels bitwise-interchangeable.
//!
//! ## Exactness and bitwise agreement
//!
//! The kernels accumulate in `i32` with **no reduction blocking**: the
//! largest product magnitude is 127² = 16129, so any reduction up to
//! [`MAX_I8_DOT_LEN`] elements is exact in `i32` (asserted). Integer
//! addition is associative, so the vectorized kernels, the scalar
//! references, and the row-panel parallel dispatch all produce the same
//! accumulator **by construction** — and every path applies the identical
//! final dequantization expression, so f32 outputs agree bitwise too
//! (property-tested in `tests/quant_proptests.rs`). This is a stronger, and
//! much cheaper, version of the ordering discipline the f32 kernels in
//! [`crate::Matrix::matmul`] need to maintain the same guarantee.
//!
//! Entry points mirror the f32 API: [`matmul_q8_into`] is the NN product
//! (`C = A · B`, weights logically `k × n` with column groups) and
//! [`matmul_q8_nt_into`] the NT product (`C = A · Bᵀ`, weights `n × k`
//! with row groups — the shape taken by the low-rank `V` factor).

use crate::ops::{run_row_panels, threads_for};
use crate::Matrix;

/// Integer MACs are ~4× cheaper than f32 FLOPs on the vector units these
/// kernels target, so the parallel-dispatch threshold shared with the f32
/// kernels is scaled by this factor: a product must carry four times the
/// work before forking is worth the thread wake-up latency. Threading never
/// affects results — rows are partitioned, and each row's integer
/// accumulation is exact.
const Q8_WORK_SCALE: usize = 4;

/// Largest quantized magnitude: the symmetric grid spans `[-127, 127]`.
pub const QUANT_MAX: i32 = 127;

/// Representable levels of the symmetric int8 grid (`2·127 + 1`).
///
/// `scissor_ncs` checks crossbar conductance-level assumptions against this
/// constant so the area model and the int8 serving form cannot drift apart.
pub const INT8_LEVELS: u32 = 2 * QUANT_MAX as u32 + 1;

/// Longest reduction an int8-grid dot product can accumulate exactly in
/// `i32` (`⌊i32::MAX / 127²⌋`). Every kernel asserts its reduction length
/// against this; workspace layers sit 2–3 orders of magnitude below it.
pub const MAX_I8_DOT_LEN: usize = i32::MAX as usize / (QUANT_MAX * QUANT_MAX) as usize;

/// Reduction vectors are stored zero-padded to a multiple of this, so the
/// dot kernels never run a scalar remainder loop (one 32-lane `i16`
/// widening-multiply chunk per AVX-512 register; two on AVX2). Zero pad
/// values contribute exactly 0 to the integer accumulator, so padding
/// cannot change any result.
const K_PAD: usize = 32;

/// Below this many output channels the broadcast kernel has too little
/// width along the output axis to amortize its blocked accumulator; the
/// contiguous dot kernel wins there even for tiny reductions.
const BCAST_MIN_OUTS: usize = 16;

/// Output-channel block of the broadcast kernel: the stack `i32`
/// accumulator the inner loop keeps live while sweeping the reduction.
const BCAST_JB: usize = 64;

/// Padded reduction stride for a logical reduction length `k`.
#[inline]
fn padded(k: usize) -> usize {
    k.div_ceil(K_PAD) * K_PAD
}

/// Which axis of a [`QuantMatrix`] carries the output groups (and therefore
/// the scales).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAxis {
    /// Groups of columns share a scale — NN layout (`k × n` weights, one
    /// output channel per column), consumed by [`matmul_q8_into`].
    Cols,
    /// Groups of rows share a scale — NT layout (`n × k` weights, one
    /// output channel per row), consumed by [`matmul_q8_nt_into`].
    Rows,
}

/// Converts one value onto the symmetric grid for a given group scale
/// (round half away from zero, clamped — the weight-side rounding).
///
/// A zero scale means the whole group was zero; everything maps to 0.
#[inline]
fn quantize_one(v: f32, scale: f32) -> i8 {
    if scale == 0.0 {
        0
    } else {
        (v / scale).round().clamp(-(QUANT_MAX as f32), QUANT_MAX as f32) as i8
    }
}

/// `1.5 · 2²³`: adding it forces round-to-nearest-even of any |x| < 2²²
/// into the mantissa, where the low bits read back as `x + 2²²` — the
/// classic branchless float→int round, used on the activation hot path
/// because (unlike `f32::round` or a saturating cast) it autovectorizes.
const ROUND_MAGIC: f32 = 12_582_912.0;
const ROUND_MAGIC_BITS: i32 = 0x4B40_0000;

/// Round-to-nearest-even of `x` (|x| ≤ 127 + ε by construction here).
#[inline(always)]
fn round_even_i16(x: f32) -> i16 {
    ((x + ROUND_MAGIC).to_bits() as i32 - ROUND_MAGIC_BITS) as i16
}

/// The shared dequantization expression. Centralized so every kernel path
/// applies bit-identical f32 arithmetic to the (exact) integer accumulator.
#[inline(always)]
fn dequant(acc: i32, a_scale: f32, w_scale: f32) -> f32 {
    acc as f32 * (a_scale * w_scale)
}

/// An int8 weight matrix with per-output-group symmetric scales, frozen at
/// compile time by `CompiledNet::compile_quantized`.
///
/// Storage is 1 byte per weight plus 4 bytes per group — a 4× reduction in
/// resident weight bytes over f32, which is the whole point: batch
/// inference is memory-bound, and the serving-form working set shrinks
/// accordingly (see `TileConfig` in `scissor_nn`). Values are held
/// output-major (one contiguous reduction vector per output channel; the
/// NN layout is transposed once here, at quantize time) so the kernels run
/// contiguous integer dot products.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    /// Output-major and padded: `data[j * stride .. (j + 1) * stride]` is
    /// output channel `j`'s reduction vector, zero-filled past `reduction()`.
    data: Vec<i8>,
    stride: usize,
    /// A second, k-major copy of the values (`bcast[p * cols + j]`), built
    /// only for short-reduction / wide-output shapes where the broadcast
    /// kernel beats the dot kernel (see [`q8_bcast_panel`]). `None` keeps
    /// the matrix dot-kernel-only.
    bcast: Option<Vec<i8>>,
    scales: Vec<f32>,
    group_size: usize,
    axis: ScaleAxis,
}

/// Builds the k-major broadcast copy when the shape profits from it: a
/// reduction short enough to fit one padded chunk (`k ≤ 32` — per-output
/// horizontal reduction overhead dominates such dots) and enough output
/// channels to fill vector registers along the output axis.
fn build_bcast(data: &[i8], stride: usize, k: usize, m: usize) -> Option<Vec<i8>> {
    if k == 0 || k > K_PAD || m < BCAST_MIN_OUTS {
        return None;
    }
    let mut km = vec![0_i8; k * m];
    for (j, out) in data.chunks_exact(stride).take(m).enumerate() {
        for (p, &v) in out[..k].iter().enumerate() {
            km[p * m + j] = v;
        }
    }
    Some(km)
}

impl QuantMatrix {
    /// Quantizes an NN-layout weight (`k × n`, output channels along
    /// columns) with one scale per `group_size` columns. The values are
    /// transposed into output-major storage here, once, so every serving
    /// pass runs contiguous reductions.
    ///
    /// # Panics
    ///
    /// Panics if `group_size == 0`.
    pub fn quantize_cols(src: &Matrix, group_size: usize) -> QuantMatrix {
        assert!(group_size > 0, "quantization group size must be positive");
        let (rows, cols) = src.shape();
        let groups = cols.div_ceil(group_size);
        let mut scales = vec![0.0_f32; groups];
        for (g, scale) in scales.iter_mut().enumerate() {
            let j0 = g * group_size;
            let j1 = (j0 + group_size).min(cols);
            let mut max_abs = 0.0_f32;
            for i in 0..rows {
                for &v in &src.row(i)[j0..j1] {
                    max_abs = max_abs.max(v.abs());
                }
            }
            *scale = max_abs / QUANT_MAX as f32;
        }
        let stride = padded(rows);
        let mut data = vec![0_i8; cols * stride];
        for i in 0..rows {
            for (j, &v) in src.row(i).iter().enumerate() {
                data[j * stride + i] = quantize_one(v, scales[j / group_size]);
            }
        }
        let bcast = build_bcast(&data, stride, rows, cols);
        QuantMatrix { rows, cols, data, stride, bcast, scales, group_size, axis: ScaleAxis::Cols }
    }

    /// Quantizes an NT-layout weight (`n × k`, output channels along rows —
    /// the low-rank `V` factor's shape) with one scale per `group_size`
    /// rows. Already output-major; stored as-is.
    ///
    /// # Panics
    ///
    /// Panics if `group_size == 0`.
    pub fn quantize_rows(src: &Matrix, group_size: usize) -> QuantMatrix {
        assert!(group_size > 0, "quantization group size must be positive");
        let (rows, cols) = src.shape();
        let groups = rows.div_ceil(group_size);
        let mut scales = vec![0.0_f32; groups];
        for (g, scale) in scales.iter_mut().enumerate() {
            let i0 = g * group_size;
            let i1 = (i0 + group_size).min(rows);
            let mut max_abs = 0.0_f32;
            for i in i0..i1 {
                for &v in src.row(i) {
                    max_abs = max_abs.max(v.abs());
                }
            }
            *scale = max_abs / QUANT_MAX as f32;
        }
        let stride = padded(cols);
        let mut data = vec![0_i8; rows * stride];
        for i in 0..rows {
            let scale = scales[i / group_size];
            for (q, &v) in data[i * stride..i * stride + cols].iter_mut().zip(src.row(i)) {
                *q = quantize_one(v, scale);
            }
        }
        let bcast = build_bcast(&data, stride, cols, rows);
        QuantMatrix { rows, cols, data, stride, bcast, scales, group_size, axis: ScaleAxis::Rows }
    }

    /// Number of rows of the **logical** (pre-quantization) matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the logical matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` of the logical matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Output channels (columns for [`ScaleAxis::Cols`], rows for
    /// [`ScaleAxis::Rows`]).
    pub fn out_channels(&self) -> usize {
        match self.axis {
            ScaleAxis::Cols => self.cols,
            ScaleAxis::Rows => self.rows,
        }
    }

    /// Reduction length (the dimension contracted by the product).
    pub fn reduction(&self) -> usize {
        match self.axis {
            ScaleAxis::Cols => self.rows,
            ScaleAxis::Rows => self.cols,
        }
    }

    /// Output channels per scale group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Which axis carries the output groups.
    pub fn axis(&self) -> ScaleAxis {
        self.axis
    }

    /// The per-group scales (one per `group_size` outputs along
    /// [`QuantMatrix::axis`]).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The quantized values, **output-major and padded**: element
    /// `[j * reduction_stride() + p]` is reduction position `p` of output
    /// channel `j`; positions past [`QuantMatrix::reduction`] are zero.
    pub fn as_i8_slice(&self) -> &[i8] {
        &self.data
    }

    /// Distance in [`QuantMatrix::as_i8_slice`] between consecutive output
    /// channels ([`QuantMatrix::reduction`] rounded up to the kernel pad).
    pub fn reduction_stride(&self) -> usize {
        self.stride
    }

    /// Scale applied to output channel `index` (column for
    /// [`ScaleAxis::Cols`], row for [`ScaleAxis::Rows`]).
    pub fn scale_for_output(&self, index: usize) -> f32 {
        self.scales[index / self.group_size]
    }

    /// Resident bytes: 1 per stored weight (including the kernel padding
    /// and, for broadcast-eligible shapes, the k-major copy) + 4 per group
    /// scale. This is the number the serving-form working-set model counts
    /// instead of `4 · len`.
    pub fn resident_bytes(&self) -> usize {
        self.data.len()
            + self.bcast.as_ref().map_or(0, Vec::len)
            + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// Reconstructs the f32 matrix (in its logical layout) the kernels
    /// effectively compute with (`q · scale`). Round-trip error per element
    /// is at most half the group scale; tests pin that bound.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| {
            let (out, p) = match self.axis {
                ScaleAxis::Cols => (j, i),
                ScaleAxis::Rows => (i, j),
            };
            self.data[out * self.stride + p] as f32 * self.scale_for_output(out)
        })
    }
}

/// Reusable buffer of run-time quantized activations: int8-grid values plus
/// one symmetric scale per row (per sample/position).
///
/// Values are stored widened to `i16` — still the [-127, 127] grid — so the
/// kernels' `i16 × i8` dot products vectorize to widening multiply-add
/// chains. Lives in `scissor_nn::InferScratch` so the serving path
/// re-quantizes layer inputs without allocating; `quantize_from` only grows
/// the buffers.
#[derive(Debug, Clone, Default)]
pub struct QuantActivations {
    rows: usize,
    cols: usize,
    stride: usize,
    data: Vec<i16>,
    scales: Vec<f32>,
    /// Per-row reciprocal scales, kept as a field so the division pass can
    /// run vectorized across rows instead of one serialized divide per row.
    invs: Vec<f32>,
}

impl QuantActivations {
    /// An empty buffer; sized by the first [`QuantActivations::quantize_from`].
    pub fn new() -> QuantActivations {
        QuantActivations::default()
    }

    /// Re-quantizes `src` into this buffer, one symmetric scale per row,
    /// rounding to nearest even.
    ///
    /// Rows are independent, so quantized batches are row-for-row identical
    /// to quantized sub-batches — the property that keeps tiled int8
    /// inference bitwise-equal to the untiled pass.
    ///
    /// This sits on the serving hot path (every quantized step re-quantizes
    /// its input), so every loop is written to autovectorize: an 8-lane
    /// max-abs reduction per row, **one** division pass across all rows
    /// (`127 / max_abs`, so narrow-row matrices don't pay a serialized
    /// divide per row), and a branchless multiply-by-reciprocal
    /// magic-constant round. `x · (127/max)` can overshoot `±127` by a
    /// couple of ulps, never by half a step, so the rounded value stays on
    /// the grid without a clamp.
    pub fn quantize_from(&mut self, src: &Matrix) {
        let (rows, cols) = src.shape();
        let stride = padded(cols);
        // Re-zeroing is only needed when the row width changes or the
        // buffer grows: the data region below is always fully overwritten,
        // and pad lanes, once zeroed, stay zero (shrinking the row count
        // leaves stale tail rows, but those are never read). Serving
        // re-quantizes the same few shapes every tile, so the steady state
        // never pays this memset.
        if cols != self.cols || stride != self.stride || self.data.len() < rows * stride {
            self.data.clear();
            self.data.resize(rows * stride, 0);
        }
        self.rows = rows;
        self.cols = cols;
        self.stride = stride;
        self.scales.resize(rows, 0.0);
        self.invs.resize(rows, 0.0);
        // Rows that fit a single padded chunk (conv im2col columns — by far
        // the most rows per pass) take a straight-line specialization: the
        // row is copied into a fixed-width zero-padded block so the max-abs
        // reduction and the rounding pass compile to exact full-width
        // vector code with no per-row loop machinery or remainder handling.
        // Only a win where wide vectors exist, so it is gated at compile
        // time; baseline builds keep the generic loops. Both paths compute
        // identical scales and grid values (the pad contributes |0| and
        // rounds to 0).
        let narrow = cfg!(target_feature = "avx2") && cols > 0 && cols <= K_PAD;
        if narrow {
            for i in 0..rows {
                let mut buf = [0.0_f32; K_PAD];
                buf[..cols].copy_from_slice(src.row(i));
                let mut lanes = [0.0_f32; 8];
                for chunk in buf.chunks_exact(8) {
                    for (lane, &v) in lanes.iter_mut().zip(chunk) {
                        *lane = lane.max(v.abs());
                    }
                }
                self.scales[i] = lanes.iter().fold(0.0_f32, |m, &l| m.max(l));
            }
        } else {
            for i in 0..rows {
                let row = src.row(i);
                let mut lanes = [0.0_f32; 8];
                let mut chunks = row.chunks_exact(8);
                for chunk in &mut chunks {
                    for (lane, &v) in lanes.iter_mut().zip(chunk) {
                        *lane = lane.max(v.abs());
                    }
                }
                let mut max_abs = chunks.remainder().iter().fold(0.0_f32, |m, &v| m.max(v.abs()));
                for &lane in &lanes {
                    max_abs = max_abs.max(lane);
                }
                self.scales[i] = max_abs;
            }
        }
        for (scale, inv) in self.scales.iter_mut().zip(self.invs.iter_mut()) {
            let max_abs = *scale;
            *scale = max_abs / QUANT_MAX as f32;
            *inv = if max_abs > 0.0 { QUANT_MAX as f32 / max_abs } else { 0.0 };
        }
        if narrow {
            for i in 0..rows {
                let inv = self.invs[i];
                let mut buf = [0.0_f32; K_PAD];
                buf[..cols].copy_from_slice(src.row(i));
                let dst = &mut self.data[i * self.stride..(i + 1) * self.stride];
                for (q, &v) in dst.iter_mut().zip(&buf) {
                    *q = round_even_i16(v * inv);
                }
            }
        } else {
            for i in 0..rows {
                let inv = self.invs[i];
                let dst = &mut self.data[i * self.stride..i * self.stride + cols];
                for (q, &v) in dst.iter_mut().zip(src.row(i)) {
                    *q = round_even_i16(v * inv);
                }
            }
        }
    }

    /// Rebuilds this buffer as a row *gather* of already-quantized values
    /// from `src` — the int8 im2col path: a conv input is quantized once
    /// per sample (one `src` row per sample) and its patches are then
    /// copied on the int8 grid, instead of re-quantizing the unrolled —
    /// and `KH·KW`-times duplicated — f32 patch matrix.
    ///
    /// Destination row `i` inherits the scale (and reciprocal) of source
    /// row `i / rows_per_src` and is filled by `fill(i, src_row, row)`
    /// with `src_row` the logical values of that source row. Grid values
    /// are copied verbatim, so products against the gathered buffer are
    /// exactly products against `src`'s values in patch order.
    ///
    /// `zero_first` must be `true` whenever `fill` can leave positions of
    /// a row unwritten (conv padding): the logical region is cleared
    /// before the gather, so unwritten positions read 0 — the quantized
    /// value of an f32 zero under any scale. With `zero_first == false`
    /// every logical position must be written by `fill`. Kernel pad lanes
    /// beyond `cols` stay zero in either mode.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_src == 0` or `src` has fewer rows than the
    /// gather addresses.
    pub fn gather_from(
        &mut self,
        src: &QuantActivations,
        rows: usize,
        cols: usize,
        rows_per_src: usize,
        zero_first: bool,
        mut fill: impl FnMut(usize, &[i16], &mut [i16]),
    ) {
        assert!(rows_per_src > 0, "each source row must cover at least one destination row");
        assert!(
            rows.div_ceil(rows_per_src) <= src.rows,
            "gather addresses source row {} of {}",
            rows.div_ceil(rows_per_src),
            src.rows
        );
        let stride = padded(cols);
        // Same re-zero policy as `quantize_from`: only on shape change or
        // growth (pads stay zero; the data region is written below).
        if cols != self.cols || stride != self.stride || self.data.len() < rows * stride {
            self.data.clear();
            self.data.resize(rows * stride, 0);
        } else if zero_first {
            self.data[..rows * stride].fill(0);
        }
        self.rows = rows;
        self.cols = cols;
        self.stride = stride;
        self.scales.resize(rows, 0.0);
        self.invs.resize(rows, 0.0);
        for i in 0..rows {
            let s = i / rows_per_src;
            self.scales[i] = src.scales[s];
            self.invs[i] = src.invs[s];
            let dst = &mut self.data[i * stride..i * stride + cols];
            fill(i, &src.data[s * src.stride..s * src.stride + src.cols], dst);
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Quantized row `i` (int8-grid values, widened storage).
    pub fn row(&self, i: usize) -> &[i16] {
        &self.data[i * self.stride..i * self.stride + self.cols]
    }

    /// Row `i` including its zero kernel padding (length = padded stride,
    /// matching the weight side's [`QuantMatrix::reduction_stride`]).
    fn padded_row(&self, i: usize) -> &[i16] {
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    /// Per-row scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Bytes this buffer keeps resident (widened padded values + f32 row
    /// scales and reciprocals) — the per-sample cost the serving-form
    /// working-set model adds for quantized steps.
    pub fn resident_bytes(rows: usize, cols: usize) -> usize {
        rows * padded(cols) * std::mem::size_of::<i16>() + 2 * rows * std::mem::size_of::<f32>()
    }
}

/// The shared panel kernel: every output element is one contiguous
/// `i16 × i8` dot product (both layouts store weights output-major), with
/// the dequantization multiply applied at store time. Both operands run
/// over the full zero-padded stride, so the reduction loop is pure
/// full-width vector chunks with no scalar tail.
fn q8_dot_panel(a: &QuantActivations, b: &QuantMatrix, row0: usize, panel: &mut [f32]) {
    if let Some(km) = &b.bcast {
        q8_bcast_panel(a, b, km, row0, panel);
        return;
    }
    let m = b.out_channels();
    let stride = b.stride;
    let panel_rows = panel.len() / m.max(1);
    for local_i in 0..panel_rows {
        let i = row0 + local_i;
        let a_row = a.padded_row(i);
        let a_scale = a.scales[i];
        let out_row = &mut panel[local_i * m..(local_i + 1) * m];
        for (j, o) in out_row.iter_mut().enumerate() {
            let w_row = &b.data[j * stride..(j + 1) * stride];
            let mut acc = 0_i32;
            for (&qa, &qw) in a_row.iter().zip(w_row) {
                acc += qa as i32 * qw as i32;
            }
            *o = dequant(acc, a_scale, b.scale_for_output(j));
        }
    }
}

/// The broadcast variant for short-reduction / wide-output products (the
/// low-rank `V` factors): instead of one horizontal dot per output element —
/// whose reduce-to-scalar overhead dominates when `k ≤ 32` — each
/// activation value is broadcast across a block of [`BCAST_JB`] output
/// channels read from the k-major copy, accumulating vertically in a stack
/// `i32` block. Grid products fit `i16` (`127² = 16129`), so the inner
/// multiply stays narrow and LLVM keeps twice the lanes live. Same integer
/// terms, different summation order — identical accumulator (and therefore
/// bitwise-identical output) by associativity.
fn q8_bcast_panel(
    a: &QuantActivations,
    b: &QuantMatrix,
    km: &[i8],
    row0: usize,
    panel: &mut [f32],
) {
    let m = b.out_channels();
    let k = b.reduction();
    let panel_rows = panel.len() / m.max(1);
    for local_i in 0..panel_rows {
        let i = row0 + local_i;
        let a_row = a.row(i);
        let a_scale = a.scales[i];
        let out_row = &mut panel[local_i * m..(local_i + 1) * m];
        let mut j0 = 0;
        while j0 < m {
            let jb = BCAST_JB.min(m - j0);
            let mut acc = [0_i32; BCAST_JB];
            for (p, &av) in a_row.iter().enumerate() {
                let w_row = &km[p * m + j0..p * m + j0 + jb];
                for (s, &wv) in acc[..jb].iter_mut().zip(w_row) {
                    *s += (av * wv as i16) as i32;
                }
            }
            debug_assert_eq!(a_row.len(), k);
            for (jj, &s) in acc[..jb].iter().enumerate() {
                out_row[j0 + jj] = dequant(s, a_scale, b.scale_for_output(j0 + jj));
            }
            j0 += jb;
        }
    }
}

/// Index-addressed scalar reference for the same panel, running only the
/// logical (unpadded) reduction: identical integer result by construction
/// (the pad contributes zero and integer addition is associative; both
/// paths apply [`dequant`]). The agreement proptests pin the equality
/// bitwise.
fn q8_dot_panel_reference(a: &QuantActivations, b: &QuantMatrix, row0: usize, panel: &mut [f32]) {
    let m = b.out_channels();
    let k = b.reduction();
    let panel_rows = panel.len() / m.max(1);
    for local_i in 0..panel_rows {
        let i = row0 + local_i;
        for j in 0..m {
            let mut acc = 0_i32;
            for p in 0..k {
                acc += a.data[i * a.stride + p] as i32 * b.data[j * b.stride + p] as i32;
            }
            panel[local_i * m + j] = dequant(acc, a.scales[i], b.scale_for_output(j));
        }
    }
}

fn check_q8_nn(a: &QuantActivations, b: &QuantMatrix) {
    assert_eq!(b.axis, ScaleAxis::Cols, "NN product needs column-grouped weight scales");
    assert_eq!(
        a.cols,
        b.rows(),
        "matmul_q8 dimension mismatch: {:?} x {:?}",
        (a.rows, a.cols),
        b.shape()
    );
    assert!(a.cols <= MAX_I8_DOT_LEN, "i8 reduction of {} would overflow i32", a.cols);
}

fn check_q8_nt(a: &QuantActivations, b: &QuantMatrix) {
    assert_eq!(b.axis, ScaleAxis::Rows, "NT product needs row-grouped weight scales");
    assert_eq!(
        a.cols,
        b.cols(),
        "matmul_q8_nt dimension mismatch: {:?} x {:?}ᵀ",
        (a.rows, a.cols),
        b.shape()
    );
    assert!(a.cols <= MAX_I8_DOT_LEN, "i8 reduction of {} would overflow i32", a.cols);
}

/// Int8 NN product `C = A · B` into a caller buffer, mirroring
/// [`Matrix::matmul_into`]: same row-panel parallel dispatch, every element
/// overwritten, bitwise identical to [`matmul_q8_scalar_into`].
///
/// # Panics
///
/// Panics on dimension mismatch, on a row-grouped weight, or if the
/// reduction exceeds [`MAX_I8_DOT_LEN`].
pub fn matmul_q8_into(a: &QuantActivations, b: &QuantMatrix, out: &mut Matrix) {
    check_q8_nn(a, b);
    let work = a.rows * a.cols * b.cols();
    out.reset_for_overwrite(a.rows, b.cols());
    let cols = out.cols();
    run_row_panels(out.as_mut_slice(), cols, threads_for(work / Q8_WORK_SCALE), |row0, panel| {
        q8_dot_panel(a, b, row0, panel)
    });
}

/// Single-threaded scalar reference for [`matmul_q8_into`]; the agreement
/// proptests pin the vectorizable kernel against it bitwise.
///
/// # Panics
///
/// Same contract as [`matmul_q8_into`].
pub fn matmul_q8_scalar_into(a: &QuantActivations, b: &QuantMatrix, out: &mut Matrix) {
    check_q8_nn(a, b);
    out.reset_for_overwrite(a.rows, b.cols());
    q8_dot_panel_reference(a, b, 0, out.as_mut_slice());
}

/// Int8 NT product `C = A · Bᵀ` into a caller buffer (weights `n × k`,
/// row-grouped — the low-rank `V` shape), with the same row-panel dispatch
/// as [`matmul_q8_into`].
///
/// # Panics
///
/// Panics on dimension mismatch, on a column-grouped weight, or if the
/// reduction exceeds [`MAX_I8_DOT_LEN`].
pub fn matmul_q8_nt_into(a: &QuantActivations, b: &QuantMatrix, out: &mut Matrix) {
    check_q8_nt(a, b);
    let work = a.rows * a.cols * b.rows();
    out.reset_for_overwrite(a.rows, b.rows());
    let cols = out.cols();
    run_row_panels(out.as_mut_slice(), cols, threads_for(work / Q8_WORK_SCALE), |row0, panel| {
        q8_dot_panel(a, b, row0, panel)
    });
}

/// Single-threaded scalar reference for [`matmul_q8_nt_into`].
///
/// # Panics
///
/// Same contract as [`matmul_q8_nt_into`].
pub fn matmul_q8_nt_scalar_into(a: &QuantActivations, b: &QuantMatrix, out: &mut Matrix) {
    check_q8_nt(a, b);
    out.reset_for_overwrite(a.rows, b.rows());
    q8_dot_panel_reference(a, b, 0, out.as_mut_slice());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| ((i * 13 + j * 7) % 11) as f32 * 0.17 - 0.8)
    }

    #[test]
    fn column_groups_round_trip_within_half_scale() {
        let w = toy(9, 13);
        let q = QuantMatrix::quantize_cols(&w, 4);
        assert_eq!(q.scales().len(), 4); // ceil(13 / 4)
        assert_eq!(q.out_channels(), 13);
        assert_eq!(q.reduction(), 9);
        let deq = q.dequantize();
        for i in 0..9 {
            for j in 0..13 {
                let err = (w.row(i)[j] - deq.row(i)[j]).abs();
                assert!(err <= q.scale_for_output(j) * 0.5 + 1e-6, "err {err} at ({i},{j})");
            }
        }
    }

    #[test]
    fn row_groups_round_trip_within_half_scale() {
        let w = toy(10, 6);
        let q = QuantMatrix::quantize_rows(&w, 3);
        assert_eq!(q.scales().len(), 4);
        assert_eq!(q.out_channels(), 10);
        assert_eq!(q.reduction(), 6);
        let deq = q.dequantize();
        for i in 0..10 {
            for j in 0..6 {
                let err = (w.row(i)[j] - deq.row(i)[j]).abs();
                assert!(err <= q.scale_for_output(i) * 0.5 + 1e-6);
            }
        }
    }

    #[test]
    fn zero_group_quantizes_to_zero_scale_and_values() {
        let w = Matrix::zeros(4, 5);
        let q = QuantMatrix::quantize_cols(&w, 2);
        assert!(q.scales().iter().all(|&s| s == 0.0));
        assert!(q.as_i8_slice().iter().all(|&v| v == 0));
        assert_eq!(q.dequantize(), w);
    }

    #[test]
    fn nn_storage_is_output_major() {
        let w = toy(3, 5);
        let q = QuantMatrix::quantize_cols(&w, 2);
        // Column j's reduction vector is contiguous (padded stride).
        let stride = q.reduction_stride();
        assert_eq!(stride, 32); // reduction 3 rounded up to the kernel pad
        for j in 0..5 {
            for p in 0..3 {
                let expect = quantize_one(w.row(p)[j], q.scale_for_output(j));
                assert_eq!(q.as_i8_slice()[j * stride + p], expect);
            }
            // Pad positions are zero, so they cannot perturb any product.
            assert!(q.as_i8_slice()[j * stride + 3..(j + 1) * stride].iter().all(|&v| v == 0));
        }
    }

    #[test]
    fn activation_quantization_is_per_row() {
        let mut a = QuantActivations::new();
        let src = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 0.0, 0.0], &[127.0, 1.0, -127.0]]);
        a.quantize_from(&src);
        assert_eq!(a.scales().len(), 3);
        assert_eq!(a.scales()[1], 0.0);
        assert_eq!(a.row(1), &[0, 0, 0]);
        // Row 0: scale 2/127, so 1.0 → round-even(63.5) = 64, -2.0 → -127.
        assert_eq!(a.row(0)[1], -127);
        assert_eq!(a.row(0)[0], 64);
        // Row 2: scale 1, values representable exactly.
        assert_eq!(a.row(2), &[127, 1, -127]);
    }

    #[test]
    fn activation_values_stay_on_the_int8_grid() {
        let mut a = QuantActivations::new();
        let src = Matrix::from_fn(7, 53, |i, j| ((i * 37 + j * 11) % 97) as f32 * 0.213 - 9.7);
        a.quantize_from(&src);
        for i in 0..7 {
            for &q in a.row(i) {
                assert!((-127..=127).contains(&q), "off-grid value {q}");
            }
        }
    }

    #[test]
    fn nn_product_matches_exact_integer_reference() {
        let aw = toy(7, 19);
        let bw = toy(19, 11);
        let mut qa = QuantActivations::new();
        qa.quantize_from(&aw);
        let qb = QuantMatrix::quantize_cols(&bw, 4);
        let mut out = Matrix::default();
        matmul_q8_into(&qa, &qb, &mut out);
        for i in 0..7 {
            for j in 0..11 {
                let mut acc = 0_i64;
                for p in 0..19 {
                    acc += qa.row(i)[p] as i64
                        * qb.as_i8_slice()[j * qb.reduction_stride() + p] as i64;
                }
                let want = dequant(acc as i32, qa.scales()[i], qb.scale_for_output(j));
                assert_eq!(out.row(i)[j].to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn nt_product_matches_exact_integer_reference() {
        let aw = toy(6, 15);
        let bw = toy(9, 15);
        let mut qa = QuantActivations::new();
        qa.quantize_from(&aw);
        let qb = QuantMatrix::quantize_rows(&bw, 2);
        let mut out = Matrix::default();
        matmul_q8_nt_into(&qa, &qb, &mut out);
        for i in 0..6 {
            for j in 0..9 {
                let mut acc = 0_i64;
                for p in 0..15 {
                    acc += qa.row(i)[p] as i64
                        * qb.as_i8_slice()[j * qb.reduction_stride() + p] as i64;
                }
                let want = dequant(acc as i32, qa.scales()[i], qb.scale_for_output(j));
                assert_eq!(out.row(i)[j].to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn broadcast_shapes_agree_bitwise_with_scalar_reference() {
        // k = 19 ≤ 32 and 50 outputs ≥ 16: both layouts build the k-major
        // copy and the fast entries run the broadcast kernel, which must
        // agree bitwise with the (dot-layout) scalar references.
        let a = toy(23, 19);
        let mut qa = QuantActivations::new();
        qa.quantize_from(&a);

        let w_nn = toy(19, 50);
        let qw_nn = QuantMatrix::quantize_cols(&w_nn, 8);
        let mut fast = Matrix::default();
        let mut slow = Matrix::default();
        matmul_q8_into(&qa, &qw_nn, &mut fast);
        matmul_q8_scalar_into(&qa, &qw_nn, &mut slow);
        assert_eq!(fast, slow);

        let w_nt = toy(50, 19);
        let qw_nt = QuantMatrix::quantize_rows(&w_nt, 8);
        matmul_q8_nt_into(&qa, &qw_nt, &mut fast);
        matmul_q8_nt_scalar_into(&qa, &qw_nt, &mut slow);
        assert_eq!(fast, slow);
    }

    #[test]
    fn empty_reduction_yields_zeros() {
        let mut qa = QuantActivations::new();
        qa.quantize_from(&Matrix::zeros(3, 0));
        let qb = QuantMatrix::quantize_cols(&Matrix::zeros(0, 4), 8);
        let mut out = Matrix::default();
        matmul_q8_into(&qa, &qb, &mut out);
        assert_eq!(out.shape(), (3, 4));
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "row-grouped weight scales")]
    fn nt_rejects_column_grouped_weights() {
        let mut qa = QuantActivations::new();
        qa.quantize_from(&toy(2, 4));
        let qb = QuantMatrix::quantize_cols(&toy(3, 4), 2);
        let mut out = Matrix::default();
        matmul_q8_nt_into(&qa, &qb, &mut out);
    }

    #[test]
    fn int8_grid_constants_are_consistent() {
        assert_eq!(INT8_LEVELS, 255);
        assert_eq!(MAX_I8_DOT_LEN, i32::MAX as usize / 16129);
    }
}
