//! Bit-identity guard for the training step at the benchmark's shapes.
//!
//! One `forward(.., Phase::Train)` plus `Network::backward`, fed a fixed
//! upstream gradient, must give logits and parameter gradients that equal a
//! reference step **bit for bit**. The reference is built here from the
//! single-threaded scalar kernels (`matmul_scalar`, `matmul_nt_scalar`,
//! `matmul_tn_scalar`) and serial im2col/col2im/NCHW loops that bounds-check
//! every tap, and it computes every layer's input gradient, the first one's
//! included. The fast step transposes `B` for `A·Bᵀ`, splits the data
//! movement across the pool and skips the first layer's input gradient;
//! all of that must leave each element's summation order unchanged.
//!
//! The upstream gradient is fixed instead of coming from the softmax loss,
//! so libm's `exp`/`ln` stay out of the comparison. The pool takes four
//! workers unless `RAYON_NUM_THREADS` is set, so the split really runs on
//! any host while a single-worker run still checks the inline path.

use std::sync::Once;

use rand::rngs::StdRng;
use rand::SeedableRng;

use scissor_linalg::Matrix;
use scissor_nn::im2col::{col2im, conv_output_hw, im2col, nchw_to_rows, rows_to_nchw};
use scissor_nn::layers::{
    Conv2d, ConvGeometry, Linear, LowRankConv2d, LowRankLinear, MaxPool2d, Relu,
};
use scissor_nn::{Layer, Network, NetworkBuilder, Phase, Tensor4};

/// Runs before any pool use, so the lazily built pool picks up the size.
fn init() {
    static POOL: Once = Once::new();
    POOL.call_once(|| {
        if std::env::var_os("RAYON_NUM_THREADS").is_none() {
            std::env::set_var("RAYON_NUM_THREADS", "4");
        }
    });
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

// ---- The serial data-movement oracle --------------------------------------

fn im2col_oracle(input: &Tensor4, kh: usize, kw: usize, stride: usize, pad: usize) -> Matrix {
    let (b, c, h, w) = input.shape();
    let (oh, ow) = conv_output_hw(h, w, kh, kw, stride, pad);
    let src = input.as_slice();
    let mut out = Matrix::zeros(b * oh * ow, c * kh * kw);
    for bi in 0..b {
        for oy in 0..oh {
            for ox in 0..ow {
                let dst = out.row_mut((bi * oh + oy) * ow + ox);
                for ci in 0..c {
                    let chan_base = (bi * c + ci) * h * w;
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
                            dst[dst_base + kx] = src[src_row + ix as usize];
                        }
                    }
                }
            }
        }
    }
    out
}

fn col2im_oracle(
    cols: &Matrix,
    (b, c, h, w): (usize, usize, usize, usize),
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Tensor4 {
    let (oh, ow) = conv_output_hw(h, w, kh, kw, stride, pad);
    let mut out = Tensor4::zeros(b, c, h, w);
    let dst = out.as_mut_slice();
    for bi in 0..b {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = cols.row((bi * oh + oy) * ow + ox);
                for ci in 0..c {
                    let chan_base = (bi * c + ci) * h * w;
                    for ky in 0..kh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let dst_row = chan_base + iy as usize * w;
                        let src_base = (ci * kh + ky) * kw;
                        for kx in 0..kw {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            dst[dst_row + ix as usize] += row[src_base + kx];
                        }
                    }
                }
            }
        }
    }
    out
}

fn rows_to_nchw_oracle(m: &Matrix, b: usize, c: usize, h: usize, w: usize) -> Tensor4 {
    let mut out = Tensor4::zeros(b, c, h, w);
    let dst = out.as_mut_slice();
    for bi in 0..b {
        for y in 0..h {
            for x in 0..w {
                let row = m.row((bi * h + y) * w + x);
                for (ci, &v) in row.iter().enumerate() {
                    dst[((bi * c + ci) * h + y) * w + x] = v;
                }
            }
        }
    }
    out
}

fn nchw_to_rows_oracle(t: &Tensor4) -> Matrix {
    let (b, c, h, w) = t.shape();
    let mut out = Matrix::zeros(b * h * w, c);
    let src = t.as_slice();
    for bi in 0..b {
        for y in 0..h {
            for x in 0..w {
                let dst = out.row_mut((bi * h + y) * w + x);
                for (ci, d) in dst.iter_mut().enumerate() {
                    *d = src[((bi * c + ci) * h + y) * w + x];
                }
            }
        }
    }
    out
}

// ---- The reference step ---------------------------------------------------

fn add_bias(y: &mut Matrix, bias: &Matrix) {
    for r in 0..y.rows() {
        for (o, &bv) in y.row_mut(r).iter_mut().zip(bias.row(0)) {
            *o += bv;
        }
    }
}

/// A parameter gradient as the layers hold it: accumulated into zeros.
fn accumulated(delta: &Matrix) -> Matrix {
    let mut grad = Matrix::zeros(delta.rows(), delta.cols());
    grad.axpy(1.0, delta);
    grad
}

fn bias_grad(g: &Matrix) -> Matrix {
    let mut db = Matrix::zeros(1, g.cols());
    for r in 0..g.rows() {
        for (d, &v) in db.row_mut(0).iter_mut().zip(g.row(r)) {
            *d += v;
        }
    }
    accumulated(&db)
}

/// What a reference layer keeps from its forward for its backward.
enum Saved {
    Conv { geom: ConvGeometry, cols: Matrix, shape: (usize, usize, usize, usize) },
    LowRankConv { geom: ConvGeometry, cols: Matrix, t: Matrix, shape: (usize, usize, usize, usize) },
    Linear { x: Matrix, shape: (usize, usize, usize, usize) },
    LowRankLinear { x: Matrix, t: Matrix, shape: (usize, usize, usize, usize) },
    Free(Box<dyn Layer>),
}

/// Runs the reference forward and full backward over `net`'s weights;
/// returns the logits and the parameter gradients in `net.params()` order.
fn reference_step(net: &Network, x: &Tensor4, upstream: &Tensor4) -> (Tensor4, Vec<Matrix>) {
    let mut saved = Vec::new();
    let mut act = x.clone();
    for name in net.layer_names() {
        let layer = net.layer(name).expect("enumerated");
        let any = layer.as_any();
        let params: Vec<Matrix> = layer.params().iter().map(|p| p.value().clone()).collect();
        let (b, _, h, w) = act.shape();
        if let Some(conv) = any.downcast_ref::<Conv2d>() {
            let g = conv.geometry();
            let (oh, ow) = conv_output_hw(h, w, g.kh, g.kw, g.stride, g.pad);
            let cols = im2col_oracle(&act, g.kh, g.kw, g.stride, g.pad);
            let mut y = cols.matmul_scalar(&params[0]);
            add_bias(&mut y, &params[1]);
            let next = rows_to_nchw_oracle(&y, b, params[0].cols(), oh, ow);
            saved.push((params, Saved::Conv { geom: g, cols, shape: act.shape() }));
            act = next;
        } else if let Some(conv) = any.downcast_ref::<LowRankConv2d>() {
            let g = conv.geometry();
            let (oh, ow) = conv_output_hw(h, w, g.kh, g.kw, g.stride, g.pad);
            let cols = im2col_oracle(&act, g.kh, g.kw, g.stride, g.pad);
            let t = cols.matmul_scalar(&params[0]);
            let mut y = t.matmul_nt_scalar(&params[1]);
            add_bias(&mut y, &params[2]);
            let next = rows_to_nchw_oracle(&y, b, params[1].rows(), oh, ow);
            saved.push((params, Saved::LowRankConv { geom: g, cols, t, shape: act.shape() }));
            act = next;
        } else if any.is::<Linear>() {
            let xm = act.to_matrix();
            let mut y = xm.matmul_scalar(&params[0]);
            add_bias(&mut y, &params[1]);
            let next = Tensor4::from_matrix(&y, params[0].cols(), 1, 1);
            saved.push((params, Saved::Linear { x: xm, shape: act.shape() }));
            act = next;
        } else if any.is::<LowRankLinear>() {
            let xm = act.to_matrix();
            let t = xm.matmul_scalar(&params[0]);
            let mut y = t.matmul_nt_scalar(&params[1]);
            add_bias(&mut y, &params[2]);
            let next = Tensor4::from_matrix(&y, params[1].rows(), 1, 1);
            saved.push((params, Saved::LowRankLinear { x: xm, t, shape: act.shape() }));
            act = next;
        } else {
            // Pooling and ReLU have no parameters and no part in this
            // change; fresh library instances supply their arithmetic.
            let mut free: Box<dyn Layer> = if let Some(pool) = any.downcast_ref::<MaxPool2d>() {
                let (kernel, stride, ceil_mode) = pool.geometry();
                Box::new(MaxPool2d::new(name, kernel, stride, ceil_mode))
            } else {
                assert!(any.is::<Relu>(), "unexpected layer {name}");
                Box::new(Relu::new(name))
            };
            act = free.forward(&act, Phase::Train);
            saved.push((params, Saved::Free(free)));
        }
    }
    let logits = act;

    let mut grads_rev: Vec<Vec<Matrix>> = Vec::new();
    let mut g = upstream.clone();
    for (params, state) in saved.iter_mut().rev() {
        let (layer_grads, dx) = match state {
            Saved::Conv { geom: cg, cols, shape } => {
                let gm = nchw_to_rows_oracle(&g);
                let dw = accumulated(&cols.matmul_tn_scalar(&gm));
                let dcols = gm.matmul_nt_scalar(&params[0]);
                let dx = col2im_oracle(&dcols, *shape, cg.kh, cg.kw, cg.stride, cg.pad);
                (vec![dw, bias_grad(&gm)], dx)
            }
            Saved::LowRankConv { geom: cg, cols, t, shape } => {
                let gm = nchw_to_rows_oracle(&g);
                let dv = accumulated(&gm.matmul_tn_scalar(t));
                let dt = gm.matmul_scalar(&params[1]);
                let du = accumulated(&cols.matmul_tn_scalar(&dt));
                let dcols = dt.matmul_nt_scalar(&params[0]);
                let dx = col2im_oracle(&dcols, *shape, cg.kh, cg.kw, cg.stride, cg.pad);
                (vec![du, dv, bias_grad(&gm)], dx)
            }
            Saved::Linear { x, shape } => {
                let gm = g.to_matrix();
                let dw = accumulated(&x.matmul_tn_scalar(&gm));
                let dx = gm.matmul_nt_scalar(&params[0]);
                (vec![dw, bias_grad(&gm)], Tensor4::from_matrix(&dx, shape.1, shape.2, shape.3))
            }
            Saved::LowRankLinear { x, t, shape } => {
                let gm = g.to_matrix();
                let dv = accumulated(&gm.matmul_tn_scalar(t));
                let dt = gm.matmul_scalar(&params[1]);
                let du = accumulated(&x.matmul_tn_scalar(&dt));
                let dx = dt.matmul_nt_scalar(&params[0]);
                let bias = bias_grad(&gm);
                (vec![du, dv, bias], Tensor4::from_matrix(&dx, shape.1, shape.2, shape.3))
            }
            Saved::Free(layer) => (Vec::new(), layer.backward(&g)),
        };
        grads_rev.push(layer_grads);
        g = dx;
    }
    (logits, grads_rev.into_iter().rev().flatten().collect())
}

// ---- The benchmark models -------------------------------------------------

fn lenet(rng: &mut StdRng) -> Network {
    NetworkBuilder::new((1, 28, 28))
        .conv("conv1", 20, 5, 1, 0, rng)
        .maxpool(2, 2)
        .conv("conv2", 50, 5, 1, 0, rng)
        .maxpool(2, 2)
        .linear("fc1", 500, rng)
        .relu()
        .linear("fc2", 10, rng)
        .build()
}

fn convnet(rng: &mut StdRng) -> Network {
    NetworkBuilder::new((3, 32, 32))
        .conv("conv1", 32, 5, 1, 2, rng)
        .maxpool_ceil(3, 2)
        .relu()
        .conv("conv2", 32, 5, 1, 2, rng)
        .relu()
        .maxpool_ceil(3, 2)
        .conv("conv3", 64, 5, 1, 2, rng)
        .relu()
        .maxpool_ceil(3, 2)
        .linear("fc1", 10, rng)
        .build()
}

/// Factors each named layer at its rank with random `U`, `V`, and gives
/// every bias nonzero values so the bias arithmetic is exercised.
fn clip(net: &mut Network, ranks: &[(&str, usize)], rng: &mut StdRng) {
    for &(name, k) in ranks {
        let layer = net.layer(name).expect("clip layer");
        let (fan_in, fan_out) = layer.weight_matrix().expect("dense").shape();
        let u = Matrix::random_uniform(fan_in, k, 0.2, rng);
        let v = Matrix::random_uniform(fan_out, k, 0.2, rng);
        let any = layer.as_any();
        let low: Box<dyn Layer> = match any.downcast_ref::<Conv2d>() {
            Some(conv) => Box::new(conv.to_low_rank(u, v)),
            None => Box::new(any.downcast_ref::<Linear>().expect("linear").to_low_rank(u, v)),
        };
        net.replace_layer(name, low).expect("replace");
    }
}

fn randomize_biases(net: &mut Network, rng: &mut StdRng) {
    for p in net.params_mut() {
        if p.name().ends_with(".bias") {
            let (r, c) = p.value().shape();
            *p.value_mut() = Matrix::random_uniform(r, c, 0.1, rng);
        }
    }
}

fn batch(b: usize, (c, h, w): (usize, usize, usize), rng: &mut StdRng) -> Tensor4 {
    let data = Matrix::random_uniform(b, c * h * w, 1.0, rng).into_vec();
    Tensor4::from_vec(b, c, h, w, data)
}

/// A fixed, sign-mixed upstream gradient for `b` samples of 10 logits.
fn upstream(b: usize) -> Tensor4 {
    Tensor4::from_vec(
        b,
        10,
        1,
        1,
        (0..b * 10).map(|i| ((i * 37 + 11) % 23) as f32 * 0.01 - 0.11).collect(),
    )
}

fn assert_step_matches_reference(mut net: Network, b: usize, rng: &mut StdRng) {
    init();
    randomize_biases(&mut net, rng);
    let x = batch(b, net.input_shape(), rng);
    let g = upstream(b);
    let (want_logits, want_grads) = reference_step(&net, &x, &g);

    net.zero_grads();
    let logits = net.forward(&x, Phase::Train);
    net.backward(&g);
    assert_bits(logits.as_slice(), want_logits.as_slice(), "logits");
    let params = net.params();
    assert_eq!(params.len(), want_grads.len(), "parameter count");
    for (p, want) in params.iter().zip(&want_grads) {
        assert_eq!(p.grad().shape(), want.shape(), "{} gradient shape", p.name());
        assert_bits(p.grad().as_slice(), want.as_slice(), p.name());
    }
}

#[test]
fn lenet_dense_step_is_bit_identical_to_the_reference() {
    let mut rng = StdRng::seed_from_u64(1);
    let net = lenet(&mut rng);
    assert_step_matches_reference(net, 32, &mut rng);
}

#[test]
fn lenet_clipped_step_is_bit_identical_to_the_reference() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut net = lenet(&mut rng);
    clip(&mut net, &[("conv1", 11), ("conv2", 38), ("fc1", 243)], &mut rng);
    assert_step_matches_reference(net, 32, &mut rng);
}

#[test]
fn convnet_dense_step_is_bit_identical_to_the_reference() {
    let mut rng = StdRng::seed_from_u64(3);
    let net = convnet(&mut rng);
    assert_step_matches_reference(net, 16, &mut rng);
}

#[test]
fn convnet_clipped_step_is_bit_identical_to_the_reference() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut net = convnet(&mut rng);
    clip(&mut net, &[("conv1", 28), ("conv2", 30), ("conv3", 58)], &mut rng);
    assert_step_matches_reference(net, 16, &mut rng);
}

/// Every small geometry — strides that skip input, paddings as wide as the
/// kernel (positions whose taps are all padding), kernels wider than the
/// unpadded input — plus one shape large enough to split across the pool.
#[test]
fn data_movement_matches_the_serial_oracle() {
    init();
    let mut rng = StdRng::seed_from_u64(5);
    let mut cases = vec![(5usize, 3usize, 20usize, 20usize, 5usize, 1usize, 2usize)];
    for h in 1..=6 {
        for k in 1..=4 {
            for stride in 1..=3 {
                for pad in 0..=k {
                    if h + 2 * pad >= k {
                        cases.push((3, 2, h, h + 1, k, stride, pad));
                    }
                }
            }
        }
    }
    for (b, c, h, w, k, stride, pad) in cases {
        let ctx = format!("b {b} c {c} {h}×{w} k {k} stride {stride} pad {pad}");
        let x = batch(b, (c, h, w), &mut rng);
        let cols = im2col(&x, k, k, stride, pad);
        assert_bits(cols.as_slice(), im2col_oracle(&x, k, k, stride, pad).as_slice(), &ctx);
        let dcols = Matrix::random_uniform(cols.rows(), cols.cols(), 1.0, &mut rng);
        let back = col2im(&dcols, x.shape(), k, k, stride, pad);
        let want = col2im_oracle(&dcols, x.shape(), k, k, stride, pad);
        assert_bits(back.as_slice(), want.as_slice(), &ctx);
        let rows = nchw_to_rows(&x);
        assert_bits(rows.as_slice(), nchw_to_rows_oracle(&x).as_slice(), &ctx);
        let nchw = rows_to_nchw(&rows, b, c, h, w);
        assert_bits(nchw.as_slice(), rows_to_nchw_oracle(&rows, b, c, h, w).as_slice(), &ctx);
    }
}
