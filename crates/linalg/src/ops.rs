//! Matrix-multiplication kernels.
//!
//! Three layouts cover every product the workspace needs:
//!
//! * [`Matrix::matmul`] — `C = A · B`
//! * [`Matrix::matmul_nt`] — `C = A · Bᵀ`, as one blocked transpose of `B`
//!   followed by the `A · B` kernel
//! * [`Matrix::matmul_tn`] — `C = Aᵀ · B`
//!
//! Both kernels are cache-blocked (row-major friendly loop orders, `K_BLOCK`
//! tiling of the reduction dimension so a panel of the right-hand operand is
//! reused across a whole row panel of the output), and their inner loops run
//! a register-tiled micro-kernel: [`MR`]`×`[`NR`] (4×8) output tiles are
//! accumulated in locals, with the 8-wide column axis written as explicitly
//! unrolled array arithmetic that LLVM reliably turns into `f32x8` vector
//! code (`std::simd` is unstable on the pinned stable toolchain, so the
//! unroll is manual). Once the flop count crosses
//! [`PARALLEL_FLOP_THRESHOLD`] the kernels also split the output into row
//! panels dispatched through rayon's persistent pool, whose size
//! (`RAYON_NUM_THREADS`) is the only parallelism control.
//!
//! Every path — the scalar references, the micro-kernel, serial, parallel —
//! accumulates each output element in ascending reduction order with a
//! single accumulator, so all of them agree **bitwise**, not just to
//! rounding (property-tested in the workspace root's
//! `tests/parallel_agreement.rs`): the parallel dispatcher hands each
//! worker a disjoint row panel and runs the identical kernel inside it, and
//! the micro-kernel's register tiles are seeded from zero on the first
//! `K_BLOCK` slab and from the flushed partials on later slabs, so the
//! per-element operation sequence never changes. Seeding the first slab
//! from zero also means the kernels **overwrite** the output rather than
//! accumulate into it — [`Matrix::matmul_into`] reuses caller buffers
//! without a clearing pass, which matters on the allocation-free serving path
//! (`scissor_nn::CompiledNet`). Accumulation is `f32`; the matrices in
//! this workspace are small enough (≤ a few thousand per dimension) that
//! this is well within training noise.
//!
//! `A · Bᵀ` used to be a scalar reduction per element, four rows at a time.
//! Transposing `B` (a weight, at most 800×64 here) and running the tiled
//! kernel keeps every element's bits and is 2–3× faster at the conv
//! backward's `dcols = g·Wᵀ` shapes (2-vCPU x86-64, portable codegen, two
//! workers, medians of 31 runs, two runs each):
//!
//! | layer, batch | `g · Wᵀ` | scalar-reduction panel | transpose + tiled |
//! |---|---|---|---|
//! | LeNet conv2, 32 | 2048×50 · (500×50)ᵀ | 9.6–10.3 ms | 3.9–4.0 ms |
//! | ConvNet conv1, 16 | 16384×32 · (75×32)ᵀ | 7.4–8.5 ms | 3.9–4.0 ms |
//! | ConvNet conv2, 16 | 4096×32 · (800×32)ᵀ | 21.2–22.9 ms | 7.9 ms |
//! | ConvNet conv3, 16 | 1024×64 · (800×64)ᵀ | 8.5–11.3 ms | 3.8–4.0 ms |

use crate::Matrix;
use rayon::prelude::*;

/// Products smaller than this many fused multiply-adds run single-threaded.
///
/// With the persistent worker pool a parallel dispatch costs on the order
/// of a microsecond (queue push + condvar wake), so the crossover sits far
/// below the former scoped-thread threshold of `1 << 20`.
pub const PARALLEL_FLOP_THRESHOLD: usize = 1 << 16;

/// Reduction-dimension tile: one tile of the right-hand operand
/// (`K_BLOCK × m` floats) stays hot in cache while a whole row panel of the
/// output is accumulated against it.
const K_BLOCK: usize = 64;

/// Micro-kernel tile height: output rows accumulated together, each b-row
/// load amortized across `MR` a-values.
const MR: usize = 4;

/// Micro-kernel tile width: output columns accumulated together; unrolled
/// so the compiler emits one 8-lane f32 vector op per accumulator row.
const NR: usize = 8;

/// Number of worker threads the matmul kernels will actually use for a
/// sufficiently large product: the pool size, capped at 16 — beyond that,
/// panels get too thin at layer-sized matrices.
pub fn matmul_worker_threads() -> usize {
    rayon::current_num_threads().min(16)
}

/// Worker count for `work` units (multiply-adds for the products, elements
/// moved for `scissor_nn`'s im2col/col2im and NCHW transposes): one below
/// [`PARALLEL_FLOP_THRESHOLD`], [`matmul_worker_threads`] at or above it.
/// The one threshold gate of every [`run_row_panels`] caller, including the
/// int8 kernels in [`crate::quant`].
pub fn threads_for(work: usize) -> usize {
    if work < PARALLEL_FLOP_THRESHOLD {
        1
    } else {
        matmul_worker_threads()
    }
}

/// Runs `body(first_row, panel)` over disjoint panels of whole
/// `row_len`-element rows of `out`, on `threads` workers — the workspace's
/// one pool fan-out.
///
/// A row is a matrix row for the products and one whole sample for the
/// per-sample data movement in `scissor_nn`. `body` must compute panel
/// rows independently: each row is written by exactly one invocation, so
/// the split cannot change results. One worker, fewer than two rows or an
/// empty row runs `body(0, out)` inline.
///
/// # Panics
///
/// Panics if `row_len > 0` and `out.len()` is not a multiple of it.
pub fn run_row_panels<F>(out: &mut [f32], row_len: usize, threads: usize, body: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let rows = out.len().checked_div(row_len).unwrap_or(0);
    assert_eq!(rows * row_len, out.len(), "buffer is not a whole number of {row_len}-wide rows");
    if threads <= 1 || rows < 2 {
        body(0, out);
        return;
    }
    let panel_rows = rows.div_ceil(threads);
    out.par_chunks_mut(panel_rows * row_len)
        .enumerate()
        .for_each(|(idx, panel)| body(idx * panel_rows, panel));
}

/// Splits the panel rows starting at `local_i` into [`MR`] disjoint
/// mutable output rows of width `m`.
fn split_row_quad(panel: &mut [f32], local_i: usize, m: usize) -> [&mut [f32]; MR] {
    let (quad, _) = panel[local_i * m..].split_at_mut(MR * m);
    let (r0, rest) = quad.split_at_mut(m);
    let (r1, rest) = rest.split_at_mut(m);
    let (r2, r3) = rest.split_at_mut(m);
    [r0, r1, r2, r3]
}

/// An [`MR`]`×`[`NR`] register tile of output accumulators.
type Tile = [[f32; NR]; MR];

/// Seeds a tile from the output rows at column `j`.
#[inline(always)]
fn tile_load(rows: &[&mut [f32]; MR], j: usize) -> Tile {
    let mut c = [[0.0_f32; NR]; MR];
    for (ci, row) in c.iter_mut().zip(rows.iter()) {
        ci.copy_from_slice(&row[j..j + NR]);
    }
    c
}

/// One reduction step: `c[i][t] += x[i] * brow[t]` — the shared inner loop
/// of every register-tiled kernel. Kept in one place so the accumulation
/// order (and with it the cross-kernel bitwise-agreement contract) cannot
/// drift between kernels.
#[inline(always)]
fn tile_step(c: &mut Tile, x: [f32; MR], brow: &[f32; NR]) {
    for (ci, &xi) in c.iter_mut().zip(x.iter()) {
        for t in 0..NR {
            ci[t] += xi * brow[t];
        }
    }
}

/// Flushes a tile back into the output rows at column `j`.
#[inline(always)]
fn tile_store(rows: &mut [&mut [f32]; MR], j: usize, c: &Tile) {
    for (row, ci) in rows.iter_mut().zip(c.iter()) {
        row[j..j + NR].copy_from_slice(ci);
    }
}

/// Column-remainder variants of the tile helpers: one output column,
/// [`MR`] scalar accumulators.
#[inline(always)]
fn col_load(rows: &[&mut [f32]; MR], j: usize) -> [f32; MR] {
    [rows[0][j], rows[1][j], rows[2][j], rows[3][j]]
}

#[inline(always)]
fn col_step(c: &mut [f32; MR], x: [f32; MR], bv: f32) {
    for (ci, &xi) in c.iter_mut().zip(x.iter()) {
        *ci += xi * bv;
    }
}

#[inline(always)]
fn col_store(rows: &mut [&mut [f32]; MR], j: usize, c: [f32; MR]) {
    for (row, ci) in rows.iter_mut().zip(c.iter()) {
        row[j] = *ci;
    }
}

/// Blocked kernel for `C = A · B` over the row panel starting at `row0`.
///
/// Loop order `kb → i → p → j`: the `K_BLOCK × m` tile of `B` is streamed
/// while it is cache-resident, and each output element accumulates in
/// ascending-`p` order with a single accumulator (the same sequence as an
/// unblocked axpy sweep, keeping every path bitwise identical).
///
/// The first `K` slab zeroes each output row immediately before
/// accumulating into it (cache-hot, unlike a whole-buffer clearing pass),
/// so the panel kernels **overwrite** stale output contents — callers need
/// not pre-zero unless `K == 0` leaves the loop body unreached.
fn matmul_panel_scalar(a: &Matrix, b: &Matrix, row0: usize, panel: &mut [f32]) {
    let m = b.cols();
    let k = a.cols();
    let panel_rows = panel.len() / m.max(1);
    let mut kb = 0;
    while kb < k {
        let kb_end = (kb + K_BLOCK).min(k);
        for local_i in 0..panel_rows {
            let a_row = a.row(row0 + local_i);
            let out_row = &mut panel[local_i * m..(local_i + 1) * m];
            if kb == 0 {
                out_row.fill(0.0);
            }
            for (p, &a_ip) in a_row[kb..kb_end].iter().enumerate() {
                let b_row = b.row(kb + p);
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += a_ip * bv;
                }
            }
        }
        kb = kb_end;
    }
}

/// Register-tiled kernel for `C = A · B`: [`MR`]`×`[`NR`] output tiles held
/// in locals across each `K_BLOCK` slab.
///
/// The tiles are seeded from the output buffer at slab entry and flushed at
/// slab exit, so each element still sees one accumulator updated in
/// ascending-`p` order — bitwise identical to [`matmul_panel_scalar`] —
/// while `B`-row loads are amortized over [`MR`] output rows and the
/// [`NR`]-wide inner arithmetic vectorizes.
fn matmul_panel(a: &Matrix, b: &Matrix, row0: usize, panel: &mut [f32]) {
    let m = b.cols();
    let k = a.cols();
    if m == 0 {
        return;
    }
    let panel_rows = panel.len() / m;
    let b_data = b.as_slice();
    let mut kb = 0;
    while kb < k {
        let kb_end = (kb + K_BLOCK).min(k);
        let mut i = 0;
        while i + MR <= panel_rows {
            let mut rows = split_row_quad(panel, i, m);
            let a0 = &a.row(row0 + i)[kb..kb_end];
            let a1 = &a.row(row0 + i + 1)[kb..kb_end];
            let a2 = &a.row(row0 + i + 2)[kb..kb_end];
            let a3 = &a.row(row0 + i + 3)[kb..kb_end];
            let mut j = 0;
            while j + NR <= m {
                // First slab: tiles seed from zero (overwriting stale
                // output); later slabs resume from the flushed partials.
                let mut c = if kb == 0 { [[0.0_f32; NR]; MR] } else { tile_load(&rows, j) };
                for p in 0..kb_end - kb {
                    let x = [a0[p], a1[p], a2[p], a3[p]];
                    let brow: &[f32; NR] = b_data[(kb + p) * m + j..(kb + p) * m + j + NR]
                        .try_into()
                        .expect("NR-sized slice");
                    tile_step(&mut c, x, brow);
                }
                tile_store(&mut rows, j, &c);
                j += NR;
            }
            // Column remainder: one local accumulator per element.
            while j < m {
                let mut c = if kb == 0 { [0.0_f32; MR] } else { col_load(&rows, j) };
                for p in 0..kb_end - kb {
                    let bv = b_data[(kb + p) * m + j];
                    col_step(&mut c, [a0[p], a1[p], a2[p], a3[p]], bv);
                }
                col_store(&mut rows, j, c);
                j += 1;
            }
            i += MR;
        }
        // Row remainder: plain axpy sweep, same per-element order.
        for local_i in i..panel_rows {
            let a_row = &a.row(row0 + local_i)[kb..kb_end];
            let out_row = &mut panel[local_i * m..(local_i + 1) * m];
            if kb == 0 {
                out_row.fill(0.0);
            }
            for (p, &a_ip) in a_row.iter().enumerate() {
                let b_row = b.row(kb + p);
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += a_ip * bv;
                }
            }
        }
        kb = kb_end;
    }
}

/// Reference kernel for `C = A · Bᵀ` over one row panel: independent dot
/// products, both operands streamed row-major. Each element is one
/// accumulator in ascending-`p` order — the sequence [`matmul_panel`]
/// runs on `Bᵀ`, which is how [`Matrix::matmul_nt`] computes it.
fn matmul_nt_panel_scalar(a: &Matrix, b: &Matrix, row0: usize, panel: &mut [f32]) {
    let m = b.rows();
    let panel_rows = panel.len() / m.max(1);
    for local_i in 0..panel_rows {
        let a_row = a.row(row0 + local_i);
        let out_row = &mut panel[local_i * m..(local_i + 1) * m];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = b.row(j);
            let mut acc = 0.0_f32;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            *o = acc;
        }
    }
}

/// Kernel for `C = Aᵀ · B` over one row panel of `C` (= columns of `A`).
///
/// Each worker scans all of `A` and `B` but only writes its own `C` rows;
/// per-element accumulation is ascending in `p` on every path.
fn matmul_tn_panel_scalar(a: &Matrix, b: &Matrix, row0: usize, panel: &mut [f32]) {
    let m = b.cols();
    let k = a.rows();
    let panel_rows = panel.len() / m.max(1);
    // The `p`-outer sweep accumulates straight into the panel, which the
    // overwrite contract requires us to clear first (the panel is re-read
    // `k` times anyway, so one extra pass is in the noise).
    panel.fill(0.0);
    for p in 0..k {
        let a_row = a.row(p);
        let b_row = b.row(p);
        for local_i in 0..panel_rows {
            let a_pi = a_row[row0 + local_i];
            let out_row = &mut panel[local_i * m..(local_i + 1) * m];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += a_pi * bv;
            }
        }
    }
}

/// Register-tiled `C = Aᵀ · B`: identical tiling to [`matmul_panel`],
/// with the four a-values per step loaded contiguously from one `A` row
/// (they are adjacent columns of `A`).
fn matmul_tn_panel(a: &Matrix, b: &Matrix, row0: usize, panel: &mut [f32]) {
    let m = b.cols();
    let k = a.rows();
    if m == 0 {
        return;
    }
    let panel_rows = panel.len() / m;
    let a_data = a.as_slice();
    let n = a.cols();
    let b_data = b.as_slice();
    let mut kb = 0;
    while kb < k {
        let kb_end = (kb + K_BLOCK).min(k);
        let mut i = 0;
        while i + MR <= panel_rows {
            let mut rows = split_row_quad(panel, i, m);
            let col = row0 + i;
            let mut j = 0;
            while j + NR <= m {
                let mut c = if kb == 0 { [[0.0_f32; NR]; MR] } else { tile_load(&rows, j) };
                for p in kb..kb_end {
                    let arow: &[f32; MR] =
                        a_data[p * n + col..p * n + col + MR].try_into().expect("MR-sized slice");
                    let brow: &[f32; NR] =
                        b_data[p * m + j..p * m + j + NR].try_into().expect("NR-sized slice");
                    tile_step(&mut c, *arow, brow);
                }
                tile_store(&mut rows, j, &c);
                j += NR;
            }
            while j < m {
                let mut c = if kb == 0 { [0.0_f32; MR] } else { col_load(&rows, j) };
                for p in kb..kb_end {
                    let arow: &[f32; MR] =
                        a_data[p * n + col..p * n + col + MR].try_into().expect("MR-sized slice");
                    let bv = b_data[p * m + j];
                    col_step(&mut c, *arow, bv);
                }
                col_store(&mut rows, j, c);
                j += 1;
            }
            i += MR;
        }
        // Row remainder: scalar sweep over this K slab only (cleared on
        // the first slab to honor the overwrite contract).
        if kb == 0 {
            panel[i * m..].fill(0.0);
        }
        for p in kb..kb_end {
            let a_row = a.row(p);
            let b_row = b.row(p);
            for local_i in i..panel_rows {
                let a_pi = a_row[row0 + local_i];
                let out_row = &mut panel[local_i * m..(local_i + 1) * m];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += a_pi * bv;
                }
            }
        }
        kb = kb_end;
    }
}

impl Matrix {
    /// Matrix product `C = A · B`.
    ///
    /// Dispatches to the parallel row-panel path once the product exceeds
    /// [`PARALLEL_FLOP_THRESHOLD`] flops.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use scissor_linalg::Matrix;
    /// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
    /// let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
    /// assert_eq!(a.matmul(&b), Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    /// ```
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let work = self.rows() * self.cols() * rhs.cols();
        self.matmul_with_threads(rhs, threads_for(work))
    }

    /// [`Matrix::matmul`] forced onto the single-threaded blocked
    /// micro-kernel.
    pub fn matmul_serial(&self, rhs: &Matrix) -> Matrix {
        self.matmul_with_threads(rhs, 1)
    }

    /// [`Matrix::matmul`] forced onto the rayon row-panel path regardless of
    /// size. Bitwise-identical to [`Matrix::matmul_serial`].
    pub fn matmul_parallel(&self, rhs: &Matrix) -> Matrix {
        self.matmul_with_threads(rhs, matmul_worker_threads())
    }

    /// Reference kernel: the single-threaded cache-blocked matmul with no
    /// register tiling. Bitwise-identical to every other `matmul*` path;
    /// kept public so the agreement proptests and benches can pin the
    /// micro-kernel against it.
    pub fn matmul_scalar(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            rhs.rows(),
            "matmul dimension mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = Matrix::zeros(self.rows(), rhs.cols());
        matmul_panel_scalar(self, rhs, 0, out.as_mut_slice());
        out
    }

    /// Reference kernel for [`Matrix::matmul_nt`]: single-threaded scalar
    /// dot products, bitwise-identical to the unrolled path.
    pub fn matmul_nt_scalar(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            rhs.cols(),
            "matmul_nt dimension mismatch: {:?} x {:?}ᵀ",
            self.shape(),
            rhs.shape()
        );
        let mut out = Matrix::zeros(self.rows(), rhs.rows());
        matmul_nt_panel_scalar(self, rhs, 0, out.as_mut_slice());
        out
    }

    /// Reference kernel for [`Matrix::matmul_tn`]: single-threaded scalar
    /// sweep, bitwise-identical to the register-tiled path.
    pub fn matmul_tn_scalar(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows(),
            rhs.rows(),
            "matmul_tn dimension mismatch: {:?}ᵀ x {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = Matrix::zeros(self.cols(), rhs.cols());
        matmul_tn_panel_scalar(self, rhs, 0, out.as_mut_slice());
        out
    }

    fn matmul_with_threads(&self, rhs: &Matrix, threads: usize) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into_with_threads(rhs, &mut out, threads);
        out
    }

    fn matmul_into_with_threads(&self, rhs: &Matrix, out: &mut Matrix, threads: usize) {
        assert_eq!(
            self.cols(),
            rhs.rows(),
            "matmul dimension mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        // The panel kernels overwrite on the first K slab, so stale output
        // contents are fine — except at K == 0, where the slab loop never
        // runs and the zero product must be materialized here.
        if self.cols() == 0 {
            out.reset_zeroed(self.rows(), rhs.cols());
        } else {
            out.reset_for_overwrite(self.rows(), rhs.cols());
        }
        let cols = out.cols();
        run_row_panels(out.as_mut_slice(), cols, threads, |row0, panel| {
            matmul_panel(self, rhs, row0, panel)
        });
    }

    /// [`Matrix::matmul`] writing into a caller-provided output buffer.
    ///
    /// `out` is reshaped (reusing its allocation) and every element is
    /// **overwritten** by the identical kernel/dispatch as
    /// [`Matrix::matmul`] (stale contents never leak; no clearing pass is
    /// paid) — the result is **bitwise identical** to the allocating form.
    /// This is the hot-path entry used by the allocation-free inference
    /// plan in `scissor_nn`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        let work = self.rows() * self.cols() * rhs.cols();
        self.matmul_into_with_threads(rhs, out, threads_for(work));
    }

    /// Matrix product with transposed right-hand side: `C = A · Bᵀ`.
    ///
    /// `B` is given untransposed (`m × k` for an `n × k` left operand). It
    /// is transposed once with the blocked [`Matrix::transpose`], and the
    /// product runs on the `A · B` register-tiled kernel and dispatch, 2–3×
    /// faster than a scalar reduction at the conv backward's `g·Wᵀ`. Each
    /// element is the same single accumulator in ascending-`p` order as the
    /// dot-product reference [`Matrix::matmul_nt_scalar`], so the two agree
    /// bitwise.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use scissor_linalg::Matrix;
    /// let a = Matrix::from_rows(&[&[1.0, 2.0]]);
    /// let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
    /// assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    /// ```
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            rhs.cols(),
            "matmul_nt dimension mismatch: {:?} x {:?}ᵀ",
            self.shape(),
            rhs.shape()
        );
        self.matmul(&rhs.transpose())
    }

    /// Matrix product with transposed left-hand side: `C = Aᵀ · B`.
    ///
    /// `A` is given untransposed (`k × n` for a `k × m` right operand).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use scissor_linalg::Matrix;
    /// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
    /// let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
    /// // Aᵀ·B, the shape taken by weight gradients.
    /// assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    /// ```
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows(),
            rhs.rows(),
            "matmul_tn dimension mismatch: {:?}ᵀ x {:?}",
            self.shape(),
            rhs.shape()
        );
        let work = self.rows() * self.cols() * rhs.cols();
        let mut out = Matrix::zeros(self.cols(), rhs.cols());
        run_row_panels(out.as_mut_slice(), rhs.cols(), threads_for(work), |row0, panel| {
            matmul_tn_panel(self, rhs, row0, panel)
        });
        out
    }

    /// Matrix–vector product `y = A · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols(), "matvec dimension mismatch");
        (0..self.rows()).map(|i| self.row(i).iter().zip(x).map(|(&a, &b)| a * b).sum()).collect()
    }

    /// Gram matrix `AᵀA` computed in `f64` (used by PCA / SVD front-ends).
    ///
    /// Returns a row-major `cols × cols` buffer.
    pub fn gram_f64(&self) -> Vec<f64> {
        let (n, m) = self.shape();
        let mut g = vec![0.0_f64; m * m];
        for i in 0..n {
            let row = self.row(i);
            for a in 0..m {
                let ra = row[a] as f64;
                if ra == 0.0 {
                    continue;
                }
                for b in a..m {
                    g[a * m + b] += ra * row[b] as f64;
                }
            }
        }
        for a in 0..m {
            for b in 0..a {
                g[a * m + b] = g[b * m + a];
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for p in 0..a.cols() {
                    acc += a[(i, p)] * b[(p, j)];
                }
                c[(i, j)] = acc;
            }
        }
        c
    }

    fn close(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = Matrix::from_fn(4, 6, |i, j| (i * 7 + j) as f32 * 0.1);
        let b = Matrix::from_fn(6, 3, |i, j| (i as f32) - (j as f32) * 0.3);
        assert!(close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-4));
    }

    #[test]
    fn matmul_matches_naive_across_k_blocks() {
        // k = 150 spans multiple K_BLOCK tiles.
        let a = Matrix::from_fn(7, 150, |i, j| ((i * j) % 17) as f32 * 0.05 - 0.4);
        let b = Matrix::from_fn(150, 9, |i, j| ((i + 3 * j) % 13) as f32 * 0.07 - 0.4);
        assert!(close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-3));
    }

    #[test]
    fn matmul_matches_naive_large_parallel_path() {
        // 160³ > PARALLEL_FLOP_THRESHOLD forces the threaded dispatch.
        let a = Matrix::from_fn(160, 160, |i, j| ((i * j) % 17) as f32 * 0.05 - 0.4);
        let b = Matrix::from_fn(160, 160, |i, j| ((i + 3 * j) % 13) as f32 * 0.07 - 0.4);
        assert!(close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-2));
    }

    #[test]
    fn parallel_and_serial_matmul_are_bitwise_identical() {
        let a = Matrix::from_fn(97, 211, |i, j| ((i * 31 + j * 7) % 23) as f32 * 0.043 - 0.47);
        let b = Matrix::from_fn(211, 53, |i, j| ((i * 13 + j * 5) % 19) as f32 * 0.051 - 0.46);
        let serial = a.matmul_serial(&b);
        let parallel = a.matmul_parallel(&b);
        assert_eq!(serial.as_slice(), parallel.as_slice());
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Matrix::from_fn(5, 8, |i, j| (i + j) as f32 * 0.2);
        let b = Matrix::from_fn(7, 8, |i, j| (i as f32 * 0.3) - j as f32 * 0.1);
        assert!(close(&a.matmul_nt(&b), &a.matmul(&b.transpose()), 1e-4));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Matrix::from_fn(8, 5, |i, j| (2 * i + j) as f32 * 0.1);
        let b = Matrix::from_fn(8, 6, |i, j| (i as f32 * 0.2) + j as f32 * 0.4);
        assert!(close(&a.matmul_tn(&b), &a.transpose().matmul(&b), 1e-4));
    }

    #[test]
    fn matmul_nt_parallel_path_matches() {
        // 200·90·150 = 2.7M flops crosses PARALLEL_FLOP_THRESHOLD, so the
        // product takes the row-panel dispatch; it must still equal the
        // single-threaded dot-product reference bit for bit.
        let a = Matrix::from_fn(200, 90, |i, j| ((i * 29 + j) % 13) as f32 * 0.08 - 0.45);
        let b = Matrix::from_fn(150, 90, |i, j| ((i + 7 * j) % 11) as f32 * 0.09 - 0.43);
        assert_eq!(a.matmul_nt(&b), a.matmul_nt_scalar(&b));
    }

    #[test]
    fn matmul_tn_parallel_path_matches() {
        let a = Matrix::from_fn(200, 90, |i, j| ((i * 31 + j) % 11) as f32 * 0.09 - 0.45);
        let b = Matrix::from_fn(200, 70, |i, j| ((i + 5 * j) % 9) as f32 * 0.11 - 0.44);
        assert!(close(&a.matmul_tn(&b), &a.transpose().matmul(&b), 1e-2));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(6, 6, |i, j| (i * 6 + j) as f32);
        assert!(close(&a.matmul(&Matrix::identity(6)), &a, 0.0));
        assert!(close(&Matrix::identity(6).matmul(&a), &a, 0.0));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_fn(4, 3, |i, j| (i + 2 * j) as f32);
        let x = vec![1.0, -1.0, 0.5];
        let xm = Matrix::from_vec(3, 1, x.clone()).unwrap();
        let y = a.matvec(&x);
        let ym = a.matmul(&xm);
        for i in 0..4 {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-6);
        }
    }

    #[test]
    fn gram_is_symmetric_psd_diagonal() {
        let a = Matrix::from_fn(10, 4, |i, j| ((i * j + 1) % 7) as f32 - 3.0);
        let g = a.gram_f64();
        for i in 0..4 {
            assert!(g[i * 4 + i] >= 0.0);
            for j in 0..4 {
                assert!((g[i * 4 + j] - g[j * 4 + i]).abs() < 1e-12);
            }
        }
        // Diagonal entries are squared column norms.
        for j in 0..4 {
            let col_norm_sq: f64 = a.col(j).iter().map(|&v| (v as f64).powi(2)).sum();
            assert!((g[j * 4 + j] - col_norm_sq).abs() < 1e-9);
        }
    }

    #[test]
    fn into_variants_are_bitwise_identical_and_reuse_buffers() {
        // Shapes straddling PARALLEL_FLOP_THRESHOLD so both dispatch paths
        // are exercised.
        for n in [24usize, 160] {
            let a = Matrix::from_fn(n, n, |i, j| ((i * 29 + j * 3) % 17) as f32 * 0.06 - 0.5);
            let b = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 11) % 19) as f32 * 0.05 - 0.45);
            let mut out = Matrix::zeros(n, n); // warm buffer at final size
            let cap_probe = out.as_slice().as_ptr();
            a.matmul_into(&b, &mut out);
            assert_eq!(out.as_slice(), a.matmul(&b).as_slice());
            assert_eq!(out.as_slice().as_ptr(), cap_probe, "buffer must be reused");
        }
    }

    #[test]
    fn reset_zeroed_reshapes_and_clears() {
        let mut m = Matrix::from_fn(4, 8, |i, j| (i + j) as f32 + 1.0);
        m.reset_zeroed(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        let _ = Matrix::zeros(2, 3).matmul(&Matrix::zeros(4, 2));
    }

    #[test]
    fn empty_products() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        assert_eq!(a.matmul(&b).shape(), (0, 4));
    }
}
