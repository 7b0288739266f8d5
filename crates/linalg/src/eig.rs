//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! PCA (the paper's Algorithm 1) needs the full spectrum of an `M × M`
//! covariance/Gram matrix where `M ≤ 1024` for every layer of LeNet and
//! ConvNet — squarely in the regime where Jacobi iteration is simple, robust
//! and accurate. All arithmetic is `f64`; the public API converts from/to the
//! workspace's `f32` [`Matrix`].
//!
//! # Sweep ordering
//!
//! Small matrices use the textbook row-cyclic ordering: rotations applied
//! one pair at a time, two-sided, in place. At `ROUND_SWEEP_MIN_N` (64)
//! and above, a sweep is instead organized as `n - 1`
//! *tournament rounds* (round-robin scheduling): each round annihilates
//! `⌊n/2⌋` pairwise-disjoint pivots. Disjoint rotations commute, so the
//! whole round is one orthogonal similarity `A ← JᵀAJ`, applied as a right
//! pass (`C = A·J`: two elements per row per rotation, rows independent)
//! followed by a left pass (`A' = Jᵀ·C`: two whole rows per rotation, pairs
//! disjoint) — every pass streams contiguous rows instead of walking
//! columns, and the row blocks of each large enough pass fan out across
//! rayon's persistent pool. Both orderings visit every pair exactly once
//! per sweep and share the same convergence test.

use crate::error::{LinalgError, Result};
use crate::ops::matmul_worker_threads;
use crate::Matrix;
use rayon::prelude::*;

/// Maximum number of full Jacobi sweeps before reporting non-convergence.
const MAX_SWEEPS: usize = 64;

/// Matrix order at which sweeps switch from the in-place row-cyclic
/// ordering to round-robin rounds (see the module docs). Below this the
/// two extra row-major passes cost more than the strided column walks they
/// replace.
const ROUND_SWEEP_MIN_N: usize = 64;

/// Minimum rows-per-task granularity (in f64 elements touched) before a
/// rotation pass is worth dispatching to the pool.
const PAR_PASS_MIN_ELEMS: usize = 1 << 14;

/// Result of a symmetric eigendecomposition: `A = V · diag(λ) · Vᵀ`.
///
/// Eigenvalues are sorted in descending order; `vectors` holds the matching
/// eigenvectors as columns.
#[derive(Debug, Clone)]
pub struct SymEig {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one per column, same order as `values`.
    pub vectors: Matrix,
}

impl SymEig {
    /// Reconstructs `V · diag(λ) · Vᵀ` (mainly useful in tests).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.vectors.rows();
        let k = self.values.len();
        let mut scaled = self.vectors.clone();
        for j in 0..k {
            let lam = self.values[j] as f32;
            for i in 0..n {
                scaled[(i, j)] *= lam;
            }
        }
        scaled.matmul_nt(&self.vectors)
    }
}

/// Computes the eigendecomposition of a symmetric matrix.
///
/// Symmetry is enforced by averaging `A` with `Aᵀ`; callers passing an
/// asymmetric matrix get the decomposition of `(A + Aᵀ)/2`.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] for non-square input,
/// [`LinalgError::NonFinite`] if any entry is NaN or infinite, and
/// [`LinalgError::NoConvergence`] if the off-diagonal mass has not vanished
/// after the sweep budget (does not happen for well-scaled covariance
/// matrices).
///
/// # Examples
///
/// ```
/// use scissor_linalg::{sym_eig, Matrix};
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let eig = sym_eig(&a)?;
/// assert!((eig.values[0] - 3.0).abs() < 1e-9);
/// assert!((eig.values[1] - 1.0).abs() < 1e-9);
/// # Ok::<(), scissor_linalg::LinalgError>(())
/// ```
pub fn sym_eig(a: &Matrix) -> Result<SymEig> {
    sym_eig_impl(a, true)
}

/// Always-sequential reference implementation of [`sym_eig`].
///
/// Every rotation pass runs on the calling thread; [`sym_eig`] with the
/// pool enabled must agree with this bitwise (the `spectral_agreement`
/// proptests assert exact equality, as for the matmul kernels).
pub fn sym_eig_serial(a: &Matrix) -> Result<SymEig> {
    sym_eig_impl(a, false)
}

fn sym_eig_impl(a: &Matrix, allow_parallel: bool) -> Result<SymEig> {
    if a.rows() != a.cols() {
        return Err(LinalgError::ShapeMismatch {
            expected: (a.rows(), a.rows()),
            actual: a.shape(),
            op: "sym_eig",
        });
    }
    let n = a.rows();
    let mut buf = vec![0.0_f64; n * n];
    for i in 0..n {
        for j in 0..n {
            buf[i * n + j] = 0.5 * (a[(i, j)] as f64 + a[(j, i)] as f64);
        }
    }
    let (values, vectors) = sym_eig_f64(&mut buf, n, allow_parallel)?;
    Ok(SymEig { values, vectors: Matrix::from_f64_vec(n, n, &vectors) })
}

/// Jacobi eigendecomposition over a raw `f64` buffer (row-major `n × n`,
/// destroyed in place). Returns `(eigenvalues desc, eigenvectors col-major as
/// row-major n×n matrix)`. `allow_parallel = false` forces every rotation
/// pass onto the calling thread (bitwise-identical by the pass contracts).
///
/// Non-finite entries are rejected up front: a NaN never converges (all
/// sweeps burn before `NoConvergence`), and an infinity makes the
/// tolerance infinite, so the first convergence check would pass on garbage.
pub(crate) fn sym_eig_f64(
    a: &mut [f64],
    n: usize,
    allow_parallel: bool,
) -> Result<(Vec<f64>, Vec<f64>)> {
    if !a.iter().all(|x| x.is_finite()) {
        return Err(LinalgError::NonFinite { op: "sym_eig" });
    }
    let mut v = vec![0.0_f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    if n <= 1 {
        let values = if n == 1 { vec![a[0]] } else { vec![] };
        return Ok((values, v));
    }

    let frob: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    if frob == 0.0 {
        return Ok((vec![0.0; n], v));
    }
    let tol = 1e-14 * frob;

    let use_rounds = n >= ROUND_SWEEP_MIN_N;
    // Backs the out-of-place parallel left pass; grown lazily on the first
    // pass that actually fans out, so serial solves never pay for it.
    let mut scratch: Vec<f64> = Vec::new();

    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0_f64;
        for p in 0..n {
            for q in (p + 1)..n {
                off += a[p * n + q] * a[p * n + q];
            }
        }
        if off.sqrt() <= tol {
            return Ok(finish(a, v, n));
        }
        if use_rounds {
            round_robin_sweep(a, &mut v, n, tol, &mut scratch, allow_parallel);
        } else {
            row_cyclic_sweep(a, &mut v, n, tol);
        }
    }

    // One final tolerance check at a looser bound: Jacobi converges
    // quadratically, so landing here with tiny residual off-diagonals is
    // still a usable answer.
    let mut off = 0.0_f64;
    for p in 0..n {
        for q in (p + 1)..n {
            off += a[p * n + q] * a[p * n + q];
        }
    }
    if off.sqrt() <= 1e-8 * frob {
        return Ok(finish(a, v, n));
    }
    Err(LinalgError::NoConvergence { solver: "jacobi eigensolver", sweeps: MAX_SWEEPS })
}

/// One plane rotation `J(p, q; c, s)` chosen to annihilate `a_pq`.
#[derive(Debug, Clone, Copy)]
struct PlaneRot {
    p: usize,
    q: usize,
    c: f64,
    s: f64,
}

/// Computes the classic Jacobi rotation annihilating `a_pq`, or `None` when
/// the pivot is already below the rotation threshold.
fn plane_rotation(a: &[f64], n: usize, p: usize, q: usize, tol: f64) -> Option<PlaneRot> {
    let apq = a[p * n + q];
    if apq.abs() <= tol / (n as f64) {
        return None;
    }
    let app = a[p * n + p];
    let aqq = a[q * n + q];
    // Choose t = tan θ that annihilates a_pq.
    let theta = (aqq - app) / (2.0 * apq);
    let t = if theta >= 0.0 {
        1.0 / (theta + (1.0 + theta * theta).sqrt())
    } else {
        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = t * c;
    Some(PlaneRot { p, q, c, s })
}

/// Textbook in-place row-cyclic sweep: rotations applied two-sided, one
/// pair at a time, each seeing all previous updates.
fn row_cyclic_sweep(a: &mut [f64], v: &mut [f64], n: usize, tol: f64) {
    for p in 0..n {
        for q in (p + 1)..n {
            let Some(rot) = plane_rotation(a, n, p, q, tol) else {
                continue;
            };
            let (c, s) = (rot.c, rot.s);
            // Update rows/columns p and q of A (symmetric two-sided rotation).
            for k in 0..n {
                let akp = a[k * n + p];
                let akq = a[k * n + q];
                a[k * n + p] = c * akp - s * akq;
                a[k * n + q] = s * akp + c * akq;
            }
            for k in 0..n {
                let apk = a[p * n + k];
                let aqk = a[q * n + k];
                a[p * n + k] = c * apk - s * aqk;
                a[q * n + k] = s * apk + c * aqk;
            }
            // Accumulate the rotation into V (columns are eigenvectors).
            for k in 0..n {
                let vkp = v[k * n + p];
                let vkq = v[k * n + q];
                v[k * n + p] = c * vkp - s * vkq;
                v[k * n + q] = s * vkp + c * vkq;
            }
        }
    }
}

/// Applies a set of pairwise-disjoint plane rotations on the right
/// (`M ← M · J`), row by row. Rows are independent, so row blocks fan out
/// across the pool when the pass is large enough to pay for dispatch.
fn apply_plane_rotations(mat: &mut [f64], n: usize, rots: &[PlaneRot], allow_parallel: bool) {
    let rotate_rows = |rows: &mut [f64]| {
        for row in rows.chunks_mut(n) {
            for r in rots {
                let x = row[r.p];
                let y = row[r.q];
                row[r.p] = r.c * x - r.s * y;
                row[r.q] = r.s * x + r.c * y;
            }
        }
    };
    let rows = mat.len() / n.max(1);
    let threads = if allow_parallel { pass_threads(rows, rots.len()) } else { 1 };
    if threads > 1 {
        let rows_per_task = rows.div_ceil(threads);
        mat.par_chunks_mut(rows_per_task * n).for_each(rotate_rows);
        return;
    }
    rotate_rows(mat);
}

/// Applies disjoint plane rotations on the left (`M ← Jᵀ · M`): each
/// rotation mixes exactly two whole rows — contiguous, vectorizable
/// streams. In place; used on the serial path.
fn left_apply_plane_rotations(mat: &mut [f64], n: usize, rots: &[PlaneRot]) {
    for r in rots {
        // r.p < r.q by construction, so the split lands between them.
        let (head, tail) = mat.split_at_mut(r.q * n);
        let row_p = &mut head[r.p * n..r.p * n + n];
        let row_q = &mut tail[..n];
        for (x, y) in row_p.iter_mut().zip(row_q.iter_mut()) {
            let (xp, yq) = (*x, *y);
            *x = r.c * xp - r.s * yq;
            *y = r.s * xp + r.c * yq;
        }
    }
}

/// Per-row rotation lookup for the parallel left pass:
/// row → (partner row, c, s, whether this row is the p side).
type RowRotEntry = Option<(usize, f64, f64, bool)>;

/// Parallel variant of [`left_apply_plane_rotations`]: output rows are
/// produced out-of-place into `scratch` (each from at most two input rows,
/// so row blocks are independent), then copied back. `row_rot` is a
/// caller-owned buffer reused across rounds, like `scratch`.
fn left_apply_plane_rotations_par(
    mat: &mut [f64],
    n: usize,
    rots: &[PlaneRot],
    scratch: &mut [f64],
    row_rot: &mut Vec<RowRotEntry>,
    threads: usize,
) {
    row_rot.clear();
    row_rot.resize(n, None);
    for r in rots {
        row_rot[r.p] = Some((r.q, r.c, r.s, true));
        row_rot[r.q] = Some((r.p, r.c, r.s, false));
    }
    let rows_per_task = n.div_ceil(threads);
    let src: &[f64] = mat;
    let row_rot: &[RowRotEntry] = row_rot;
    scratch.par_chunks_mut(rows_per_task * n).enumerate().for_each(|(idx, chunk)| {
        let row0 = idx * rows_per_task;
        for (local, out_row) in chunk.chunks_mut(n).enumerate() {
            let r = row0 + local;
            let in_row = &src[r * n..r * n + n];
            match row_rot[r] {
                None => out_row.copy_from_slice(in_row),
                Some((other, c, s, is_p)) => {
                    let other_row = &src[other * n..other * n + n];
                    if is_p {
                        for ((o, &x), &y) in out_row.iter_mut().zip(in_row).zip(other_row) {
                            *o = c * x - s * y;
                        }
                    } else {
                        for ((o, &y), &x) in out_row.iter_mut().zip(in_row).zip(other_row) {
                            *o = s * x + c * y;
                        }
                    }
                }
            }
        }
    });
    mat.copy_from_slice(scratch);
}

/// Whether a rotation pass over `rows` rows is worth fanning out.
fn pass_threads(rows: usize, nrots: usize) -> usize {
    let threads = matmul_worker_threads();
    if threads > 1 && rows * nrots * 2 >= PAR_PASS_MIN_ELEMS {
        threads
    } else {
        1
    }
}

/// One full sweep as `n - 1` tournament rounds of disjoint rotations.
///
/// Each round's rotations commute (no two touch the same index), so the
/// whole round is one orthogonal similarity `A ← JᵀAJ` with `J` the product
/// of its rotations, applied as a right pass (`C = A·J`; two elements per
/// row per rotation, rows independent) followed by a left pass
/// (`A' = Jᵀ·C`; two whole rows per rotation, pairs disjoint) — both pure
/// row-major streaming, no strided column walks. `V` accumulates `V ← V·J`
/// with the same right pass. With enough work, each pass fans out across
/// rayon's persistent pool.
fn round_robin_sweep(
    a: &mut [f64],
    v: &mut [f64],
    n: usize,
    tol: f64,
    scratch: &mut Vec<f64>,
    allow_parallel: bool,
) {
    // Tournament (circle-method) schedule over n players, padded to even
    // with a bye; n-1 rounds cover every unordered pair exactly once.
    let np = n + (n & 1);
    let mut ring: Vec<usize> = (0..np).collect();
    let mut rots: Vec<PlaneRot> = Vec::with_capacity(np / 2);
    let mut row_rot: Vec<RowRotEntry> = Vec::new();
    for _round in 0..np - 1 {
        rots.clear();
        for i in 0..np / 2 {
            let (mut p, mut q) = (ring[i], ring[np - 1 - i]);
            if p > q {
                std::mem::swap(&mut p, &mut q);
            }
            if q >= n {
                continue; // bye slot on odd n
            }
            // Disjointness keeps every pair's pivot block untouched by the
            // rest of the round, so round-start values are current values.
            if let Some(rot) = plane_rotation(a, n, p, q, tol) {
                rots.push(rot);
            }
        }
        if !rots.is_empty() {
            // C = A·J …
            apply_plane_rotations(a, n, &rots, allow_parallel);
            // … then A' = Jᵀ·C.
            let threads = if allow_parallel { pass_threads(n, rots.len()) } else { 1 };
            // Unlike the in-place serial pass (2·n elements per rotation),
            // the out-of-place parallel pass streams the full n² matrix —
            // untouched rows are copied — plus an n² copy back. Only fan
            // out when the serial row-pair work split across threads still
            // exceeds that fixed traffic, i.e. when most rows of the round
            // carry a rotation; late sweeps with few surviving rotations
            // stay serial.
            let threads = if rots.len() * threads >= n { threads } else { 1 };
            if threads > 1 {
                scratch.resize(n * n, 0.0);
                left_apply_plane_rotations_par(a, n, &rots, scratch, &mut row_rot, threads);
            } else {
                left_apply_plane_rotations(a, n, &rots);
            }
            // V = V·J.
            apply_plane_rotations(v, n, &rots, allow_parallel);
        }
        // Advance the schedule: hold ring[0], rotate the rest one step.
        let last = ring[np - 1];
        for idx in (2..np).rev() {
            ring[idx] = ring[idx - 1];
        }
        ring[1] = last;
    }
}

fn finish(a: &[f64], v: Vec<f64>, n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| a[j * n + j].partial_cmp(&a[i * n + i]).expect("NaN eigenvalue"));
    let values: Vec<f64> = order.iter().map(|&i| a[i * n + i]).collect();
    let mut vectors = vec![0.0_f64; n * n];
    for (new_col, &old_col) in order.iter().enumerate() {
        for row in 0..n {
            vectors[row * n + new_col] = v[row * n + old_col];
        }
    }
    (values, vectors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f32]]) -> Matrix {
        Matrix::from_rows(rows)
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a = mat(&[&[1.0, 0.0, 0.0], &[0.0, 5.0, 0.0], &[0.0, 0.0, 3.0]]);
        let e = sym_eig(&a).unwrap();
        assert_eq!(e.values.len(), 3);
        assert!((e.values[0] - 5.0).abs() < 1e-10);
        assert!((e.values[1] - 3.0).abs() < 1e-10);
        assert!((e.values[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn two_by_two_known_spectrum() {
        let a = mat(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = sym_eig(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-9);
        assert!((e.values[1] - 1.0).abs() < 1e-9);
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v0 = e.vectors.col(0);
        assert!((v0[0].abs() - std::f32::consts::FRAC_1_SQRT_2).abs() < 1e-5);
        assert!((v0[0] - v0[1]).abs() < 1e-5);
    }

    #[test]
    fn reconstruction_matches_input() {
        let a = mat(&[
            &[4.0, 1.0, -2.0, 0.5],
            &[1.0, 3.0, 0.0, 1.5],
            &[-2.0, 0.0, 5.0, -1.0],
            &[0.5, 1.5, -1.0, 2.0],
        ]);
        let e = sym_eig(&a).unwrap();
        let r = e.reconstruct();
        assert!(a.relative_error(&r) < 1e-9, "relative error {}", a.relative_error(&r));
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = Matrix::from_fn(12, 12, |i, j| {
            let x = ((i * 7 + j * 3) % 13) as f32 - 6.0;
            let y = ((j * 7 + i * 3) % 13) as f32 - 6.0;
            0.5 * (x + y)
        });
        let e = sym_eig(&a).unwrap();
        let vtv = e.vectors.matmul_tn(&e.vectors);
        for i in 0..12 {
            for j in 0..12 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv[(i, j)] - expect).abs() < 1e-4, "V'V[{i},{j}]={}", vtv[(i, j)]);
            }
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = Matrix::from_fn(9, 9, |i, j| {
            let v = ((i * j + i + j) % 5) as f32;
            if i == j {
                v + 4.0
            } else {
                v * 0.5
            }
        });
        let sym = a.add(&a.transpose()).map(|v| v * 0.5);
        let e = sym_eig(&sym).unwrap();
        let trace: f64 = (0..9).map(|i| sym[(i, i)] as f64).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-6);
    }

    #[test]
    fn psd_gram_has_nonnegative_spectrum() {
        let w = Matrix::from_fn(20, 8, |i, j| ((i * 5 + j * 11) % 17) as f32 * 0.1 - 0.8);
        let g = w.gram_f64();
        let gm = Matrix::from_f64_vec(8, 8, &g);
        let e = sym_eig(&gm).unwrap();
        for &v in &e.values {
            assert!(v > -1e-6, "negative eigenvalue {v} for a Gram matrix");
        }
        // descending
        for pair in e.values.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-9);
        }
    }

    #[test]
    fn rejects_non_square() {
        assert!(matches!(sym_eig(&Matrix::zeros(2, 3)), Err(LinalgError::ShapeMismatch { .. })));
    }

    #[test]
    fn zero_matrix_and_tiny_sizes() {
        let e = sym_eig(&Matrix::zeros(4, 4)).unwrap();
        assert!(e.values.iter().all(|&v| v == 0.0));
        let e1 = sym_eig(&Matrix::filled(1, 1, 7.0)).unwrap();
        assert_eq!(e1.values, vec![7.0]);
        let e0 = sym_eig(&Matrix::zeros(0, 0)).unwrap();
        assert!(e0.values.is_empty());
    }

    /// A well-conditioned symmetric test matrix big enough to take the
    /// round-robin sweep path.
    fn large_symmetric(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let x = ((i * 7 + j * 3) % 29) as f32 - 14.0;
            let y = ((j * 7 + i * 3) % 29) as f32 - 14.0;
            let diag = if i == j { n as f32 } else { 0.0 };
            0.25 * (x + y) + diag
        })
    }

    #[test]
    fn round_sweep_path_reconstructs_input() {
        let n = ROUND_SWEEP_MIN_N + 16;
        let a = large_symmetric(n);
        let e = sym_eig(&a).unwrap();
        let r = e.reconstruct();
        assert!(a.relative_error(&r) < 1e-6, "relative error {}", a.relative_error(&r));
    }

    #[test]
    fn round_sweep_path_gives_orthonormal_eigenvectors() {
        let n = ROUND_SWEEP_MIN_N + 2;
        let a = large_symmetric(n);
        let e = sym_eig(&a).unwrap();
        let vtv = e.vectors.matmul_tn(&e.vectors);
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv[(i, j)] - expect).abs() < 1e-4, "V'V[{i},{j}]={}", vtv[(i, j)]);
            }
        }
    }

    #[test]
    fn round_sweep_path_handles_odd_order_with_bye() {
        let n = ROUND_SWEEP_MIN_N + 3;
        assert_eq!(n % 2, 1, "test meant to cover the odd-n bye slot");
        let a = large_symmetric(n);
        let e = sym_eig(&a).unwrap();
        let trace: f64 = (0..n).map(|i| a[(i, i)] as f64).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-5 * trace.abs().max(1.0));
        let r = e.reconstruct();
        assert!(a.relative_error(&r) < 1e-6);
    }

    #[test]
    fn round_sweep_matches_row_cyclic_spectrum_on_gram_matrix() {
        // Same Gram matrix solved by both orderings: build it at a size on
        // the round-sweep side, then compare against eigenvalues of the
        // same matrix shrunk below the threshold... sizes differ, so
        // instead pin the round-sweep spectrum against an independent
        // invariant: eigenvalues of WᵀW are the squared singular values,
        // whose sum is ‖W‖²_F.
        let n = ROUND_SWEEP_MIN_N * 2;
        let w = Matrix::from_fn(3 * n, n, |i, j| ((i * 5 + j * 11) % 23) as f32 * 0.1 - 1.1);
        let gm = Matrix::from_f64_vec(n, n, &w.gram_f64());
        let e = sym_eig(&gm).unwrap();
        let frob_sq = w.frobenius_norm_sq();
        for &lam in &e.values {
            assert!(lam > -1e-9 * frob_sq, "Gram matrix eigenvalue {lam} below zero");
        }
        let sum: f64 = e.values.iter().sum();
        assert!((sum - frob_sq).abs() <= 1e-8 * frob_sq, "Σλ = {sum} but ‖W‖²_F = {frob_sq}");
    }

    #[test]
    fn asymmetric_input_is_symmetrized() {
        let a = mat(&[&[1.0, 2.0], &[0.0, 1.0]]);
        let e = sym_eig(&a).unwrap();
        // Spectrum of [[1,1],[1,1]] is {2, 0}.
        assert!((e.values[0] - 2.0).abs() < 1e-9);
        assert!(e.values[1].abs() < 1e-9);
    }
}
