//! im2col / col2im transforms.
//!
//! Convolution is lowered to matrix multiplication exactly as in Caffe (the
//! framework the paper used): the input tensor is unrolled so that every
//! output position becomes a row of patch values, and the filter bank is the
//! `(C·KH·KW) × out_channels` weight matrix — the same `N × M` matrix that
//! gets mapped onto crossbars (Fig. 1a: one filter per crossbar column).

use scissor_linalg::{run_row_panels, threads_for, transpose_into, Matrix, QuantActivations};

use crate::tensor::Tensor4;

/// Spatial output size of a convolution: `(h + 2·pad − k) / stride + 1`.
///
/// # Panics
///
/// Panics if the kernel exceeds the padded input or `stride == 0`.
pub fn conv_output_hw(
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> (usize, usize) {
    assert!(stride > 0, "stride must be positive");
    assert!(h + 2 * pad >= kh && w + 2 * pad >= kw, "kernel larger than padded input");
    ((h + 2 * pad - kh) / stride + 1, (w + 2 * pad - kw) / stride + 1)
}

/// Unrolls `input` into a `(B·OH·OW) × (C·KH·KW)` patch matrix.
///
/// Row `(b·OH + oh)·OW + ow` holds the receptive field of output position
/// `(oh, ow)` in sample `b`; column `(c·KH + kh)·KW + kw` selects the patch
/// element. Out-of-bounds (padding) positions contribute zeros.
pub fn im2col(input: &Tensor4, kh: usize, kw: usize, stride: usize, pad: usize) -> Matrix {
    let mut out = Matrix::default();
    im2col_into(input.as_slice(), input.shape(), kh, kw, stride, pad, &mut out);
    out
}

/// The kernel taps `[k0, k1)` of output coordinate `o` that land inside an
/// input axis of length `n`: tap `t` reads input `o·stride + t − pad`.
/// Computed once per output position, so the copy loops below move whole
/// contiguous runs instead of bounds-checking every tap.
fn tap_range(o: usize, stride: usize, pad: usize, k: usize, n: usize) -> (usize, usize) {
    let start = o * stride;
    let k0 = pad.saturating_sub(start).min(k);
    let k1 = (pad + n).saturating_sub(start).min(k);
    (k0, k1.max(k0))
}

/// Runs `f(sample, chunk)` over every `item_len`-element sample chunk of
/// `out`, with whole samples split across the pool by
/// [`run_row_panels`] under the matmul kernels' [`threads_for`] gate
/// (`out.len()` elements of work). Samples are disjoint, so the split
/// cannot change a bit.
fn for_each_sample<F>(out: &mut [f32], item_len: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if item_len == 0 {
        return;
    }
    run_row_panels(out, item_len, threads_for(out.len()), |first, panel| {
        for (i, chunk) in panel.chunks_exact_mut(item_len).enumerate() {
            f(first + i, chunk);
        }
    });
}

/// [`im2col`] over a raw NCHW buffer, writing into a caller-provided
/// matrix.
///
/// `out` is reshaped (reusing its allocation) and every element is
/// overwritten: a patch row that reaches into the padding is zeroed before
/// its in-bounds runs are copied. The result is identical to [`im2col`] —
/// this is the allocation-free entry used by the compiled inference plan.
///
/// # Panics
///
/// Panics if `src.len()` disagrees with `shape` or the kernel exceeds the
/// padded input.
pub fn im2col_into(
    src: &[f32],
    shape: (usize, usize, usize, usize),
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    out: &mut Matrix,
) {
    let (b, c, h, w) = shape;
    assert_eq!(src.len(), b * c * h * w, "im2col buffer/shape mismatch");
    let (oh, ow) = conv_output_hw(h, w, kh, kw, stride, pad);
    let patch = c * kh * kw;
    out.reset_for_overwrite(b * oh * ow, patch);
    for_each_sample(out.as_mut_slice(), oh * ow * patch, |bi, dst| {
        let sample = &src[bi * c * h * w..(bi + 1) * c * h * w];
        for oy in 0..oh {
            let (ky0, ky1) = tap_range(oy, stride, pad, kh, h);
            for ox in 0..ow {
                let (kx0, kx1) = tap_range(ox, stride, pad, kw, w);
                let row = &mut dst[(oy * ow + ox) * patch..][..patch];
                if ky1 - ky0 < kh || kx1 - kx0 < kw {
                    row.fill(0.0);
                }
                if kx1 == kx0 {
                    continue; // every tap of this position is padding
                }
                let (ix0, run) = (ox * stride + kx0 - pad, kx1 - kx0);
                for ci in 0..c {
                    for ky in ky0..ky1 {
                        let from = (ci * h + oy * stride + ky - pad) * w + ix0;
                        let to = (ci * kh + ky) * kw + kx0;
                        row[to..to + run].copy_from_slice(&sample[from..from + run]);
                    }
                }
            }
        }
    });
}

/// [`im2col_into`] on the int8 grid — the quantized serving plan's conv
/// lowering. `src` holds the conv input quantized **once per sample**
/// (`B` rows of `C·H·W` values, one scale each); its patches are gathered
/// by copying grid values, with every patch row of sample `b` inheriting
/// sample `b`'s scale. Element placement matches [`im2col_into`] exactly
/// (padding positions read 0, the quantized value of an f32 zero), but
/// the `KH·KW`-times duplicated patch matrix is never materialized in f32
/// or re-quantized — the cost that used to dominate the int8 conv pass.
///
/// The one semantic difference from quantizing the unrolled f32 matrix:
/// activation scales are per *sample*, not per patch. The grid still
/// resolves the sample's full dynamic range into 255 levels; the
/// end-to-end accuracy cost is covered by the serving-form acceptance
/// bound in `tests/quant_serving.rs`.
///
/// # Panics
///
/// Panics if `src` does not hold `b` rows of `c·h·w` values or the kernel
/// exceeds the padded input.
pub fn im2col_quant_into(
    src: &QuantActivations,
    shape: (usize, usize, usize, usize),
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    out: &mut QuantActivations,
) {
    let (b, c, h, w) = shape;
    assert_eq!((src.rows(), src.cols()), (b, c * h * w), "im2col_quant source/shape mismatch");
    let (oh, ow) = conv_output_hw(h, w, kh, kw, stride, pad);
    let patch = c * kh * kw;
    out.gather_from(src, b * oh * ow, patch, oh * ow, pad > 0, |row, sample, dst| {
        let rem = row % (oh * ow);
        let (oy, ox) = (rem / ow, rem % ow);
        for ci in 0..c {
            let chan_base = ci * h * w;
            for ky in 0..kh {
                let iy = (oy * stride + ky) as isize - pad as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                let src_row = chan_base + iy as usize * w;
                let dst_base = (ci * kh + ky) * kw;
                for kx in 0..kw {
                    let ix = (ox * stride + kx) as isize - pad as isize;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    dst[dst_base + kx] = sample[src_row + ix as usize];
                }
            }
        }
    });
}

/// Adjoint of [`im2col`]: scatters patch-space gradients back to input
/// space, accumulating where patches overlap.
///
/// Samples are split across the pool; within a sample the output positions
/// are visited in ascending order, so every input element sums its
/// overlapping taps in the same order on every path.
///
/// # Panics
///
/// Panics if `cols` does not have the shape [`im2col`] would produce for
/// the given geometry.
pub fn col2im(
    cols: &Matrix,
    input_shape: (usize, usize, usize, usize),
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Tensor4 {
    let (b, c, h, w) = input_shape;
    let (oh, ow) = conv_output_hw(h, w, kh, kw, stride, pad);
    let patch = c * kh * kw;
    assert_eq!(cols.shape(), (b * oh * ow, patch), "col2im shape mismatch");
    let mut out = Tensor4::zeros(b, c, h, w);
    for_each_sample(out.as_mut_slice(), c * h * w, |bi, dst| {
        let sample = &cols.as_slice()[bi * oh * ow * patch..(bi + 1) * oh * ow * patch];
        for oy in 0..oh {
            let (ky0, ky1) = tap_range(oy, stride, pad, kh, h);
            for ox in 0..ow {
                let (kx0, kx1) = tap_range(ox, stride, pad, kw, w);
                if kx1 == kx0 {
                    continue; // every tap of this position is padding
                }
                let row = &sample[(oy * ow + ox) * patch..][..patch];
                let (ix0, run) = (ox * stride + kx0 - pad, kx1 - kx0);
                for ci in 0..c {
                    for ky in ky0..ky1 {
                        let to = (ci * h + oy * stride + ky - pad) * w + ix0;
                        let from = (ci * kh + ky) * kw + kx0;
                        for (d, &v) in dst[to..to + run].iter_mut().zip(&row[from..from + run]) {
                            *d += v;
                        }
                    }
                }
            }
        }
    });
    out
}

/// Reinterprets a `(B·OH·OW) × C` matrix (conv matmul output) as an NCHW
/// tensor `(B, C, OH, OW)`.
pub fn rows_to_nchw(m: &Matrix, b: usize, c: usize, h: usize, w: usize) -> Tensor4 {
    let mut out = Tensor4::zeros(b, c, h, w);
    rows_to_nchw_into(m, b, c, h, w, out.as_mut_slice());
    out
}

/// [`rows_to_nchw`] writing into a caller-provided NCHW buffer (the
/// allocation-free entry used by the compiled inference plan). Every
/// destination element is overwritten: each sample's `(H·W) × C` block of
/// rows is transposed to `C × (H·W)`, samples split across the pool.
///
/// # Panics
///
/// Panics if `m` or `dst` disagrees with the requested shape.
pub fn rows_to_nchw_into(m: &Matrix, b: usize, c: usize, h: usize, w: usize, dst: &mut [f32]) {
    assert_eq!(m.shape(), (b * h * w, c), "rows_to_nchw shape mismatch");
    assert_eq!(dst.len(), b * c * h * w, "rows_to_nchw destination mismatch");
    let item = c * h * w;
    for_each_sample(dst, item, |bi, sample| {
        transpose_into(&m.as_slice()[bi * item..(bi + 1) * item], h * w, c, sample);
    });
}

/// Inverse of [`rows_to_nchw`]: flattens an NCHW tensor to
/// `(B·OH·OW) × C` rows, one per-sample `C × (H·W)` transpose each.
pub fn nchw_to_rows(t: &Tensor4) -> Matrix {
    let (b, c, h, w) = t.shape();
    let mut out = Matrix::zeros(b * h * w, c);
    let item = c * h * w;
    for_each_sample(out.as_mut_slice(), item, |bi, rows| {
        transpose_into(&t.as_slice()[bi * item..(bi + 1) * item], c, h * w, rows);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_hw_formulas() {
        assert_eq!(conv_output_hw(28, 28, 5, 5, 1, 0), (24, 24)); // LeNet conv1
        assert_eq!(conv_output_hw(32, 32, 5, 5, 1, 2), (32, 32)); // ConvNet conv1
        assert_eq!(conv_output_hw(7, 9, 3, 3, 2, 0), (3, 4));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1×1 kernel, no padding: im2col is just a reshaping.
        let t = Tensor4::from_vec(1, 2, 2, 2, (0..8).map(|i| i as f32).collect());
        let m = im2col(&t, 1, 1, 1, 0);
        assert_eq!(m.shape(), (4, 2));
        // row (oh,ow)=(0,0): channels 0 and 1 at position (0,0) → 0.0, 4.0
        assert_eq!(m.row(0), &[0.0, 4.0]);
        assert_eq!(m.row(3), &[3.0, 7.0]);
    }

    #[test]
    fn im2col_extracts_patches() {
        let t = Tensor4::from_vec(1, 1, 3, 3, (0..9).map(|i| i as f32).collect());
        let m = im2col(&t, 2, 2, 1, 0);
        assert_eq!(m.shape(), (4, 4));
        // top-left patch
        assert_eq!(m.row(0), &[0.0, 1.0, 3.0, 4.0]);
        // bottom-right patch
        assert_eq!(m.row(3), &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn im2col_zero_pads() {
        let t = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let m = im2col(&t, 3, 3, 1, 1);
        assert_eq!(m.shape(), (4, 9));
        // Center of the 3×3 patch at output (0,0) is input (0,0)=1; corners
        // off-image are zero.
        assert_eq!(m.row(0)[4], 1.0);
        assert_eq!(m.row(0)[0], 0.0);
    }

    #[test]
    fn conv_via_im2col_matches_direct_convolution() {
        let t = Tensor4::from_vec(1, 1, 4, 4, (0..16).map(|i| i as f32).collect());
        // One 3×3 averaging filter.
        let w = Matrix::filled(9, 1, 1.0 / 9.0);
        let cols = im2col(&t, 3, 3, 1, 0);
        let y = cols.matmul(&w);
        assert_eq!(y.shape(), (4, 1));
        // Direct computation of the first window mean.
        let expect: f32 = [0, 1, 2, 4, 5, 6, 8, 9, 10].iter().map(|&i| i as f32).sum::<f32>() / 9.0;
        assert!((y[(0, 0)] - expect).abs() < 1e-5);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining
        // property that makes the conv backward pass correct.
        let shape = (2, 2, 5, 4);
        let x = Tensor4::from_vec(
            shape.0,
            shape.1,
            shape.2,
            shape.3,
            (0..2 * 2 * 5 * 4).map(|i| ((i * 7 + 3) % 13) as f32 - 6.0).collect(),
        );
        let (kh, kw, s, p) = (3, 2, 2, 1);
        let cols = im2col(&x, kh, kw, s, p);
        let y =
            Matrix::from_fn(cols.rows(), cols.cols(), |i, j| ((i * 5 + j * 11) % 7) as f32 - 3.0);
        let lhs: f64 =
            cols.as_slice().iter().zip(y.as_slice()).map(|(&a, &b)| (a as f64) * (b as f64)).sum();
        let back = col2im(&y, shape, kh, kw, s, p);
        let rhs: f64 =
            x.as_slice().iter().zip(back.as_slice()).map(|(&a, &b)| (a as f64) * (b as f64)).sum();
        assert!((lhs - rhs).abs() < 1e-6, "adjoint identity violated: {lhs} vs {rhs}");
    }

    #[test]
    fn rows_nchw_round_trip() {
        let t = Tensor4::from_vec(2, 3, 2, 2, (0..24).map(|i| i as f32 * 0.5).collect());
        let m = nchw_to_rows(&t);
        assert_eq!(m.shape(), (8, 3));
        let back = rows_to_nchw(&m, 2, 3, 2, 2);
        assert_eq!(back, t);
    }

    #[test]
    fn batch_rows_are_grouped_by_sample() {
        let t = Tensor4::from_vec(2, 1, 2, 2, vec![0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]);
        let m = im2col(&t, 1, 1, 1, 0);
        assert_eq!(m.row(0), &[0.0]);
        assert_eq!(m.row(4), &[10.0]);
    }

    #[test]
    #[should_panic(expected = "kernel larger than padded input")]
    fn oversized_kernel_panics() {
        let _ = conv_output_hw(2, 2, 5, 5, 1, 0);
    }

    /// Quantizes `t` per sample and gathers patches; checks every element
    /// against the f32 im2col quantized with that sample's scale, and the
    /// scale fan-out. Exercises both the padded (zero-filling) and
    /// unpadded gather, plus buffer reuse across calls.
    fn check_quant_im2col(t: &Tensor4, kh: usize, kw: usize, stride: usize, pad: usize) {
        let (b, c, h, w) = t.shape();
        let flat = Matrix::from_fn(b, c * h * w, |bi, p| t.as_slice()[bi * c * h * w + p]);
        let mut qsrc = QuantActivations::new();
        qsrc.quantize_from(&flat);
        let mut out = QuantActivations::new();
        im2col_quant_into(&qsrc, t.shape(), kh, kw, stride, pad, &mut out);

        // The gather copies grid values verbatim, so running the f32
        // im2col over the *quantized* values (as f32) gives the exact
        // expected patch matrix — including 0 at padding positions.
        let tq = Tensor4::from_vec(
            b,
            c,
            h,
            w,
            (0..b).flat_map(|bi| qsrc.row(bi).iter().map(|&q| q as f32)).collect(),
        );
        let cols_q = im2col(&tq, kh, kw, stride, pad);
        let (oh, ow) = conv_output_hw(h, w, kh, kw, stride, pad);
        assert_eq!((out.rows(), out.cols()), cols_q.shape());
        for r in 0..out.rows() {
            let sample = r / (oh * ow);
            assert_eq!(
                out.scales()[r],
                qsrc.scales()[sample],
                "row {r} must carry sample {sample}'s scale"
            );
            for (p, (&got, &v)) in out.row(r).iter().zip(cols_q.row(r)).enumerate() {
                assert_eq!(got as f32, v, "row {r} col {p}");
            }
        }
    }

    #[test]
    fn quant_im2col_matches_f32_im2col_on_the_sample_grid() {
        let t = Tensor4::from_vec(
            2,
            2,
            5,
            4,
            (0..2 * 2 * 5 * 4).map(|i| ((i * 7 + 3) % 13) as f32 * 0.31 - 1.9).collect(),
        );
        check_quant_im2col(&t, 3, 2, 2, 0);
        check_quant_im2col(&t, 3, 3, 1, 1); // padded: unwritten positions must read 0
    }

    #[test]
    fn quant_im2col_reuses_its_buffer_without_stale_values() {
        // Two gathers with padding into the same buffer: the second must
        // not see the first call's values at positions padding leaves
        // unwritten (the `zero_first` contract).
        let mk = |seed: usize| {
            Tensor4::from_vec(
                1,
                1,
                3,
                3,
                (0..9).map(|i| ((i * 5 + seed) % 11) as f32 - 5.0).collect(),
            )
        };
        let mut out = QuantActivations::new();
        for seed in [1usize, 8] {
            let t = mk(seed);
            let flat = Matrix::from_fn(1, 9, |_, p| t.as_slice()[p]);
            let mut qsrc = QuantActivations::new();
            qsrc.quantize_from(&flat);
            im2col_quant_into(&qsrc, t.shape(), 3, 3, 1, 1, &mut out);
            let tq = Tensor4::from_vec(1, 1, 3, 3, qsrc.row(0).iter().map(|&q| q as f32).collect());
            let cols_q = im2col(&tq, 3, 3, 1, 1);
            for r in 0..out.rows() {
                for (&got, &v) in out.row(r).iter().zip(cols_q.row(r)) {
                    assert_eq!(got as f32, v, "seed {seed} row {r}");
                }
            }
        }
    }

    #[test]
    fn conv_output_hw_counts_valid_window_starts_exhaustively() {
        // Audit: the closed form must equal a direct count of the window
        // starts `q ∈ {0, s, 2s, …}` whose kernel fits inside the padded
        // input (`q + k ≤ h + 2·pad`) — every small geometry, including
        // strides that do not divide the span and kernels that only fit
        // thanks to padding.
        for h in 1..=10usize {
            for k in 1..=5usize {
                for s in 1..=4usize {
                    for p in 0..=2usize {
                        if h + 2 * p < k {
                            continue;
                        }
                        let brute = (0..).map(|i| i * s).take_while(|q| q + k <= h + 2 * p).count();
                        let (oh, ow) = conv_output_hw(h, h, k, k, s, p);
                        assert_eq!(oh, brute, "h {h} k {k} s {s} pad {p}");
                        assert_eq!(ow, brute);
                        assert!(oh >= 1, "a fitting kernel yields at least one position");
                    }
                }
            }
        }
    }

    #[test]
    fn im2col_handles_kernel_larger_than_unpadded_input() {
        // h = 2 < k = 3, but pad = 1 makes the padded input fit: each
        // 3×3 patch is centered on one input cell with off-image zeros.
        let t = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(conv_output_hw(2, 2, 3, 3, 1, 1), (2, 2));
        let m = im2col(&t, 3, 3, 1, 1);
        assert_eq!(m.shape(), (4, 9));
        // Output (0,0): patch rows −1..2 × cols −1..2 — center is input
        // (0,0), bottom-right is input (1,1), top-left is padding.
        assert_eq!(m.row(0)[4], 1.0);
        assert_eq!(m.row(0)[8], 4.0);
        assert_eq!(m.row(0)[0], 0.0);
        // Output (1,1): center input (1,1), top-left input (0,0).
        assert_eq!(m.row(3)[4], 4.0);
        assert_eq!(m.row(3)[0], 1.0);
        // Row sums: every input value appears once per patch that covers
        // it; patch (0,0) covers inputs (0..2, 0..2) entirely.
        let sum: f32 = m.row(0).iter().sum();
        assert_eq!(sum, 10.0);
    }
}
