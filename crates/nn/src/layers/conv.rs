//! Convolution layers: dense [`Conv2d`] and factored [`LowRankConv2d`].
//!
//! The dense layer's weight is the `(C·KH·KW) × out_channels` matrix of the
//! paper's Fig. 1 (one filter per column). Its low-rank counterpart holds
//! the clipped factors `U (fan_in × K)` and `V (out_ch × K)` so the layer
//! computes `y = (im2col(x)·U)·Vᵀ` — in hardware, two crossbar arrays in
//! series, which is what rank clipping maps onto the chip.

use std::any::Any;

use rand::Rng;

use scissor_linalg::Matrix;

use crate::im2col::{col2im, conv_output_hw, im2col, nchw_to_rows, rows_to_nchw};
use crate::init::xavier_uniform;
use crate::layer::{InferLayer, Layer};
use crate::param::Param;
use crate::tensor::Tensor4;

/// Adds a `1 × M` bias row to every row of `y` (the shared epilogue of all
/// matmul-lowered layers; kept in one place so the serving path in
/// `crate::compile` provably applies bits-identical arithmetic).
pub(crate) fn add_bias_rows(y: &mut Matrix, bias: &Matrix) {
    for r in 0..y.rows() {
        for (o, &bv) in y.row_mut(r).iter_mut().zip(bias.row(0)) {
            *o += bv;
        }
    }
}

/// The bias gradient of every matmul-lowered layer: `g`'s rows summed in
/// ascending order into one `1 × M` row.
pub(crate) fn sum_rows(g: &Matrix) -> Matrix {
    let mut db = Matrix::zeros(1, g.cols());
    for r in 0..g.rows() {
        for (d, &v) in db.row_mut(0).iter_mut().zip(g.row(r)) {
            *d += v;
        }
    }
    db
}

/// Shared convolution geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeometry {
    /// Patch length `C·KH·KW` — the weight matrix's fan-in.
    pub fn fan_in(&self) -> usize {
        self.in_channels * self.kh * self.kw
    }

    fn output_shape(&self, out_ch: usize, input: (usize, usize, usize)) -> (usize, usize, usize) {
        let (c, h, w) = input;
        assert_eq!(c, self.in_channels, "channel mismatch: got {c}, expected {}", self.in_channels);
        let (oh, ow) = conv_output_hw(h, w, self.kh, self.kw, self.stride, self.pad);
        (out_ch, oh, ow)
    }
}

struct ConvCache {
    cols: Matrix,
    input_shape: (usize, usize, usize, usize),
}

/// A dense 2-D convolution layer (im2col + matmul).
pub struct Conv2d {
    name: String,
    geom: ConvGeometry,
    weight: Param,
    bias: Param,
    cache: Option<ConvCache>,
}

impl Conv2d {
    /// Creates a Xavier-initialized convolution.
    pub fn new<R: Rng + ?Sized>(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        let name = name.into();
        let geom = ConvGeometry { in_channels, kh: kernel, kw: kernel, stride, pad };
        let weight = xavier_uniform(geom.fan_in(), out_channels, rng);
        Self {
            weight: Param::new(format!("{name}.w"), weight, true),
            bias: Param::new(format!("{name}.bias"), Matrix::zeros(1, out_channels), false),
            name,
            geom,
            cache: None,
        }
    }

    /// Builds a convolution from an explicit weight matrix
    /// (`fan_in × out_channels`) and bias (`1 × out_channels`).
    ///
    /// # Panics
    ///
    /// Panics if the weight's row count differs from the geometry's fan-in
    /// or the bias width differs from the weight's column count.
    pub fn from_weights(
        name: impl Into<String>,
        geom: ConvGeometry,
        weight: Matrix,
        bias: Matrix,
    ) -> Self {
        assert_eq!(weight.rows(), geom.fan_in(), "weight rows must equal fan-in");
        assert_eq!(bias.shape(), (1, weight.cols()), "bias must be 1 × out_channels");
        let name = name.into();
        Self {
            weight: Param::new(format!("{name}.w"), weight, true),
            bias: Param::new(format!("{name}.bias"), bias, false),
            name,
            geom,
            cache: None,
        }
    }

    /// Convolution geometry.
    pub fn geometry(&self) -> ConvGeometry {
        self.geom
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.weight.value().cols()
    }

    /// Converts to a low-rank convolution with the given factors, keeping
    /// the bias.
    ///
    /// # Panics
    ///
    /// Panics if factor shapes are inconsistent with this layer.
    pub fn to_low_rank(&self, u: Matrix, v: Matrix) -> LowRankConv2d {
        LowRankConv2d::from_factors(self.name.clone(), self.geom, u, v, self.bias.value().clone())
    }

    /// Shared forward computation: `(cols, output)`.
    fn run_forward(&self, input: &Tensor4) -> (Matrix, Tensor4) {
        let (b, _, h, w) = input.shape();
        let g = &self.geom;
        let (oh, ow) = conv_output_hw(h, w, g.kh, g.kw, g.stride, g.pad);
        let cols = im2col(input, g.kh, g.kw, g.stride, g.pad);
        let mut y = cols.matmul(self.weight.value());
        add_bias_rows(&mut y, self.bias.value());
        let out = rows_to_nchw(&y, b, self.out_channels(), oh, ow);
        (cols, out)
    }

    /// Accumulates the weight and bias gradients of the cached forward;
    /// returns `grad_out` as `(B·OH·OW) × out_ch` rows and the forward's
    /// input shape, for the input gradient.
    fn accumulate_param_grads(
        &mut self,
        grad_out: &Tensor4,
    ) -> (Matrix, (usize, usize, usize, usize)) {
        let cache = self.cache.as_ref().expect("backward requires a training-phase forward");
        let g = nchw_to_rows(grad_out);
        debug_assert_eq!(g.rows(), cache.cols.rows());
        self.weight.grad_mut().axpy(1.0, &cache.cols.matmul_tn(&g));
        self.bias.grad_mut().axpy(1.0, &sum_rows(&g));
        (g, cache.input_shape)
    }
}

impl InferLayer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn infer(&self, input: &Tensor4) -> Tensor4 {
        self.run_forward(input).1
    }

    fn output_shape(&self, input: (usize, usize, usize)) -> (usize, usize, usize) {
        self.geom.output_shape(self.out_channels(), input)
    }
}

impl Layer for Conv2d {
    fn forward_train(&mut self, input: &Tensor4) -> Tensor4 {
        let (cols, out) = self.run_forward(input);
        self.cache = Some(ConvCache { cols, input_shape: input.shape() });
        out
    }

    fn clear_cache(&mut self) {
        self.cache = None;
    }

    fn has_backward_cache(&self) -> bool {
        self.cache.is_some()
    }

    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let (g, input_shape) = self.accumulate_param_grads(grad_out);
        let dcols = g.matmul_nt(self.weight.value());
        let geom = self.geom;
        col2im(&dcols, input_shape, geom.kh, geom.kw, geom.stride, geom.pad)
    }

    fn backward_params(&mut self, grad_out: &Tensor4) {
        self.accumulate_param_grads(grad_out);
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn weight_matrix(&self) -> Option<&Matrix> {
        Some(self.weight.value())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct LowRankCache {
    cols: Matrix,
    t: Matrix,
    input_shape: (usize, usize, usize, usize),
}

/// A rank-factored 2-D convolution: `y = (im2col(x)·U)·Vᵀ + b`.
pub struct LowRankConv2d {
    name: String,
    geom: ConvGeometry,
    out_channels: usize,
    u: Param,
    v: Param,
    bias: Param,
    cache: Option<LowRankCache>,
}

impl LowRankConv2d {
    /// Builds the layer from explicit factors (`U: fan_in × K`,
    /// `V: out_ch × K`) and bias.
    ///
    /// # Panics
    ///
    /// Panics if `u.rows() != fan_in`, `u.cols() != v.cols()`, or the bias
    /// width differs from `v.rows()`.
    pub fn from_factors(
        name: impl Into<String>,
        geom: ConvGeometry,
        u: Matrix,
        v: Matrix,
        bias: Matrix,
    ) -> Self {
        assert_eq!(u.rows(), geom.fan_in(), "U rows must equal fan-in");
        assert_eq!(u.cols(), v.cols(), "factor ranks must match");
        assert_eq!(bias.shape(), (1, v.rows()), "bias must be 1 × out_channels");
        let name = name.into();
        Self {
            out_channels: v.rows(),
            u: Param::new(format!("{name}.u"), u, true),
            v: Param::new(format!("{name}.v"), v, true),
            bias: Param::new(format!("{name}.bias"), bias, false),
            name,
            geom,
            cache: None,
        }
    }

    /// Convolution geometry.
    pub fn geometry(&self) -> ConvGeometry {
        self.geom
    }

    /// Current rank `K`.
    pub fn rank(&self) -> usize {
        self.u.value().cols()
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The composed dense-equivalent weight `U·Vᵀ` (fan_in × out_ch).
    pub fn composed_weight(&self) -> Matrix {
        self.u.value().matmul_nt(self.v.value())
    }

    /// Shared forward computation: `(cols, t, output)`.
    fn run_forward(&self, input: &Tensor4) -> (Matrix, Matrix, Tensor4) {
        let (b, _, h, w) = input.shape();
        let g = &self.geom;
        let (oh, ow) = conv_output_hw(h, w, g.kh, g.kw, g.stride, g.pad);
        let cols = im2col(input, g.kh, g.kw, g.stride, g.pad);
        let t = cols.matmul(self.u.value());
        let mut y = t.matmul_nt(self.v.value());
        add_bias_rows(&mut y, self.bias.value());
        let out = rows_to_nchw(&y, b, self.out_channels, oh, ow);
        (cols, t, out)
    }

    /// Accumulates the `U`, `V` and bias gradients of the cached forward;
    /// returns `dT = g·V` and the forward's input shape, for the input
    /// gradient.
    fn accumulate_param_grads(
        &mut self,
        grad_out: &Tensor4,
    ) -> (Matrix, (usize, usize, usize, usize)) {
        let cache = self.cache.as_ref().expect("backward requires a training-phase forward");
        let g = nchw_to_rows(grad_out);
        // dV = gᵀ · T
        self.v.grad_mut().axpy(1.0, &g.matmul_tn(&cache.t));
        // dT = g · V
        let dt = g.matmul(self.v.value());
        // dU = colsᵀ · dT
        self.u.grad_mut().axpy(1.0, &cache.cols.matmul_tn(&dt));
        self.bias.grad_mut().axpy(1.0, &sum_rows(&g));
        (dt, cache.input_shape)
    }
}

impl InferLayer for LowRankConv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn infer(&self, input: &Tensor4) -> Tensor4 {
        self.run_forward(input).2
    }

    fn output_shape(&self, input: (usize, usize, usize)) -> (usize, usize, usize) {
        self.geom.output_shape(self.out_channels, input)
    }
}

impl Layer for LowRankConv2d {
    fn forward_train(&mut self, input: &Tensor4) -> Tensor4 {
        let (cols, t, out) = self.run_forward(input);
        self.cache = Some(LowRankCache { cols, t, input_shape: input.shape() });
        out
    }

    fn clear_cache(&mut self) {
        self.cache = None;
    }

    fn has_backward_cache(&self) -> bool {
        self.cache.is_some()
    }

    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let (dt, input_shape) = self.accumulate_param_grads(grad_out);
        // dX via dcols = dT · Uᵀ
        let dcols = dt.matmul_nt(self.u.value());
        let geom = self.geom;
        col2im(&dcols, input_shape, geom.kh, geom.kw, geom.stride, geom.pad)
    }

    fn backward_params(&mut self, grad_out: &Tensor4) {
        self.accumulate_param_grads(grad_out);
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.u, &self.v, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.u, &mut self.v, &mut self.bias]
    }

    fn low_rank_factors(&self) -> Option<(&Matrix, &Matrix)> {
        Some((self.u.value(), self.v.value()))
    }

    fn set_low_rank_factors(&mut self, u: Matrix, v: Matrix) -> bool {
        if u.rows() != self.geom.fan_in() || v.rows() != self.out_channels || u.cols() != v.cols() {
            return false;
        }
        self.u.replace_value(u);
        self.v.replace_value(v);
        self.cache = None;
        true
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Phase;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn input(b: usize, c: usize, h: usize, w: usize) -> Tensor4 {
        Tensor4::from_vec(
            b,
            c,
            h,
            w,
            (0..b * c * h * w).map(|i| ((i * 13 + 5) % 23) as f32 * 0.1 - 1.1).collect(),
        )
    }

    #[test]
    fn conv_forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new("c", 1, 4, 3, 1, 0, &mut rng);
        conv.params_mut()[1].value_mut().map_inplace(|_| 0.5);
        let x = input(2, 1, 6, 6);
        let y = conv.forward(&x, Phase::Eval);
        assert_eq!(y.shape(), (2, 4, 4, 4));
        assert_eq!(conv.output_shape((1, 6, 6)), (4, 4, 4));
        // With zero weights, output would equal bias; check bias path via a
        // zero-weight layer.
        let zero = Conv2d::from_weights(
            "z",
            ConvGeometry { in_channels: 1, kh: 3, kw: 3, stride: 1, pad: 0 },
            Matrix::zeros(9, 2),
            Matrix::from_rows(&[&[0.25, -0.5]]),
        );
        let mut zero = zero;
        let y = zero.forward(&x, Phase::Eval);
        assert!((y.at(0, 0, 0, 0) - 0.25).abs() < 1e-6);
        assert!((y.at(1, 1, 3, 3) + 0.5).abs() < 1e-6);
    }

    #[test]
    fn low_rank_matches_dense_when_factors_compose() {
        // If U·Vᵀ == W, both layers must produce identical outputs.
        let mut rng = StdRng::seed_from_u64(2);
        let geom = ConvGeometry { in_channels: 2, kh: 3, kw: 3, stride: 1, pad: 1 };
        let u = xavier_uniform(geom.fan_in(), 3, &mut rng);
        let v = xavier_uniform(5, 3, &mut rng);
        let w = u.matmul_nt(&v);
        let bias = Matrix::from_fn(1, 5, |_, j| j as f32 * 0.1);
        let mut dense = Conv2d::from_weights("d", geom, w, bias.clone());
        let mut lr = LowRankConv2d::from_factors("l", geom, u, v, bias);
        let x = input(2, 2, 5, 5);
        let yd = dense.forward(&x, Phase::Eval);
        let yl = lr.forward(&x, Phase::Eval);
        assert_eq!(yd.shape(), yl.shape());
        let diff: f32 =
            yd.as_slice().iter().zip(yl.as_slice()).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max);
        assert!(diff < 1e-4, "max diff {diff}");
    }

    #[test]
    fn set_low_rank_factors_validates_shapes() {
        let geom = ConvGeometry { in_channels: 1, kh: 3, kw: 3, stride: 1, pad: 0 };
        let mut lr = LowRankConv2d::from_factors(
            "l",
            geom,
            Matrix::zeros(9, 4),
            Matrix::zeros(6, 4),
            Matrix::zeros(1, 6),
        );
        assert_eq!(lr.rank(), 4);
        assert!(lr.set_low_rank_factors(Matrix::zeros(9, 2), Matrix::zeros(6, 2)));
        assert_eq!(lr.rank(), 2);
        assert!(!lr.set_low_rank_factors(Matrix::zeros(8, 2), Matrix::zeros(6, 2)));
        assert!(!lr.set_low_rank_factors(Matrix::zeros(9, 2), Matrix::zeros(6, 3)));
    }

    #[test]
    fn backward_panics_without_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new("c", 1, 2, 3, 1, 0, &mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            conv.backward(&Tensor4::zeros(1, 2, 4, 4));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn grad_accumulates_across_batches() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new("c", 1, 2, 3, 1, 0, &mut rng);
        let x = input(1, 1, 5, 5);
        let y = conv.forward(&x, Phase::Train);
        let g = Tensor4::from_vec(1, 2, 3, 3, vec![0.1; 18]);
        let _ = y;
        conv.backward(&g);
        let norm1 = conv.params()[0].grad().frobenius_norm();
        conv.forward(&x, Phase::Train);
        conv.backward(&g);
        let norm2 = conv.params()[0].grad().frobenius_norm();
        assert!((norm2 - 2.0 * norm1).abs() < 1e-4, "gradients must accumulate");
    }

    #[test]
    fn composed_weight_shape() {
        let geom = ConvGeometry { in_channels: 2, kh: 2, kw: 2, stride: 1, pad: 0 };
        let lr = LowRankConv2d::from_factors(
            "l",
            geom,
            Matrix::zeros(8, 3),
            Matrix::zeros(7, 3),
            Matrix::zeros(1, 7),
        );
        assert_eq!(lr.composed_weight().shape(), (8, 7));
        assert_eq!(lr.low_rank_factors().unwrap().0.shape(), (8, 3));
    }
}
