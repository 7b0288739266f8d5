//! Fully-connected layers: dense [`Linear`] and factored [`LowRankLinear`].
//!
//! The weight is stored `fan_in × fan_out` (`N × M`): each column holds the
//! synapses of one output neuron, matching the paper's crossbar mapping. The
//! layer flattens whatever spatial shape it receives, so an explicit flatten
//! layer is unnecessary.

use std::any::Any;

use rand::Rng;

use scissor_linalg::Matrix;

use super::conv::{add_bias_rows, sum_rows};
use crate::init::xavier_uniform;
use crate::layer::{InferLayer, Layer};
use crate::param::Param;
use crate::tensor::Tensor4;

struct LinearCache {
    x: Matrix,
    input_shape: (usize, usize, usize, usize),
}

/// A dense fully-connected layer `y = x·W + b`.
pub struct Linear {
    name: String,
    weight: Param,
    bias: Param,
    cache: Option<LinearCache>,
}

impl Linear {
    /// Creates a Xavier-initialized fully-connected layer.
    pub fn new<R: Rng + ?Sized>(
        name: impl Into<String>,
        fan_in: usize,
        fan_out: usize,
        rng: &mut R,
    ) -> Self {
        let name = name.into();
        Self {
            weight: Param::new(format!("{name}.w"), xavier_uniform(fan_in, fan_out, rng), true),
            bias: Param::new(format!("{name}.bias"), Matrix::zeros(1, fan_out), false),
            name,
            cache: None,
        }
    }

    /// Builds the layer from an explicit weight (`fan_in × fan_out`) and
    /// bias (`1 × fan_out`).
    ///
    /// # Panics
    ///
    /// Panics if the bias width differs from the weight's column count.
    pub fn from_weights(name: impl Into<String>, weight: Matrix, bias: Matrix) -> Self {
        assert_eq!(bias.shape(), (1, weight.cols()), "bias must be 1 × fan_out");
        let name = name.into();
        Self {
            weight: Param::new(format!("{name}.w"), weight, true),
            bias: Param::new(format!("{name}.bias"), bias, false),
            name,
            cache: None,
        }
    }

    /// Input feature count `N`.
    pub fn fan_in(&self) -> usize {
        self.weight.value().rows()
    }

    /// Output feature count `M`.
    pub fn fan_out(&self) -> usize {
        self.weight.value().cols()
    }

    /// Converts to a low-rank layer with the given factors, keeping the bias.
    ///
    /// # Panics
    ///
    /// Panics if factor shapes are inconsistent with this layer.
    pub fn to_low_rank(&self, u: Matrix, v: Matrix) -> LowRankLinear {
        assert_eq!(u.rows(), self.fan_in(), "U rows must equal fan-in");
        assert_eq!(v.rows(), self.fan_out(), "V rows must equal fan-out");
        LowRankLinear::from_factors(self.name.clone(), u, v, self.bias.value().clone())
    }

    /// Shared forward computation: `(x-as-matrix, output)`.
    fn run_forward(&self, input: &Tensor4) -> (Matrix, Tensor4) {
        let x = input.to_matrix();
        assert_eq!(
            x.cols(),
            self.fan_in(),
            "linear layer fed {} features, expected {}",
            x.cols(),
            self.fan_in()
        );
        let mut y = x.matmul(self.weight.value());
        add_bias_rows(&mut y, self.bias.value());
        let out = Tensor4::from_matrix(&y, self.fan_out(), 1, 1);
        (x, out)
    }

    /// Accumulates the weight and bias gradients of the cached forward;
    /// returns `grad_out` as a matrix and the forward's input shape, for
    /// the input gradient.
    fn accumulate_param_grads(
        &mut self,
        grad_out: &Tensor4,
    ) -> (Matrix, (usize, usize, usize, usize)) {
        let cache = self.cache.as_ref().expect("backward requires a training-phase forward");
        let g = grad_out.to_matrix();
        self.weight.grad_mut().axpy(1.0, &cache.x.matmul_tn(&g));
        self.bias.grad_mut().axpy(1.0, &sum_rows(&g));
        (g, cache.input_shape)
    }
}

impl InferLayer for Linear {
    fn name(&self) -> &str {
        &self.name
    }

    fn infer(&self, input: &Tensor4) -> Tensor4 {
        self.run_forward(input).1
    }

    fn output_shape(&self, _input: (usize, usize, usize)) -> (usize, usize, usize) {
        (self.fan_out(), 1, 1)
    }
}

impl Layer for Linear {
    fn forward_train(&mut self, input: &Tensor4) -> Tensor4 {
        let (x, out) = self.run_forward(input);
        self.cache = Some(LinearCache { x, input_shape: input.shape() });
        out
    }

    fn clear_cache(&mut self) {
        self.cache = None;
    }

    fn has_backward_cache(&self) -> bool {
        self.cache.is_some()
    }

    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let (g, (_, c, h, w)) = self.accumulate_param_grads(grad_out);
        let dx = g.matmul_nt(self.weight.value());
        Tensor4::from_matrix(&dx, c, h, w)
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

struct LowRankLinearCache {
    x: Matrix,
    t: Matrix,
    input_shape: (usize, usize, usize, usize),
}

/// A rank-factored fully-connected layer `y = (x·U)·Vᵀ + b`.
pub struct LowRankLinear {
    name: String,
    fan_out: usize,
    u: Param,
    v: Param,
    bias: Param,
    cache: Option<LowRankLinearCache>,
}

impl LowRankLinear {
    /// Builds the layer from explicit factors (`U: fan_in × K`,
    /// `V: fan_out × K`) and bias (`1 × fan_out`).
    ///
    /// # Panics
    ///
    /// Panics if `u.cols() != v.cols()` or the bias width differs from
    /// `v.rows()`.
    pub fn from_factors(name: impl Into<String>, u: Matrix, v: Matrix, bias: Matrix) -> Self {
        assert_eq!(u.cols(), v.cols(), "factor ranks must match");
        assert_eq!(bias.shape(), (1, v.rows()), "bias must be 1 × fan_out");
        let name = name.into();
        Self {
            fan_out: v.rows(),
            u: Param::new(format!("{name}.u"), u, true),
            v: Param::new(format!("{name}.v"), v, true),
            bias: Param::new(format!("{name}.bias"), bias, false),
            name,
            cache: None,
        }
    }

    /// Current rank `K`.
    pub fn rank(&self) -> usize {
        self.u.value().cols()
    }

    /// Input feature count `N`.
    pub fn fan_in(&self) -> usize {
        self.u.value().rows()
    }

    /// Output feature count `M`.
    pub fn fan_out(&self) -> usize {
        self.fan_out
    }

    /// The composed dense-equivalent weight `U·Vᵀ`.
    pub fn composed_weight(&self) -> Matrix {
        self.u.value().matmul_nt(self.v.value())
    }

    /// Shared forward computation: `(x-as-matrix, t, output)`.
    fn run_forward(&self, input: &Tensor4) -> (Matrix, Matrix, Tensor4) {
        let x = input.to_matrix();
        assert_eq!(
            x.cols(),
            self.fan_in(),
            "low-rank linear fed {} features, expected {}",
            x.cols(),
            self.fan_in()
        );
        let t = x.matmul(self.u.value());
        let mut y = t.matmul_nt(self.v.value());
        add_bias_rows(&mut y, self.bias.value());
        let out = Tensor4::from_matrix(&y, self.fan_out, 1, 1);
        (x, t, out)
    }

    /// Accumulates the `U`, `V` and bias gradients of the cached forward;
    /// returns `dT = g·V` and the forward's input shape, for the input
    /// gradient.
    fn accumulate_param_grads(
        &mut self,
        grad_out: &Tensor4,
    ) -> (Matrix, (usize, usize, usize, usize)) {
        let cache = self.cache.as_ref().expect("backward requires a training-phase forward");
        let g = grad_out.to_matrix();
        self.v.grad_mut().axpy(1.0, &g.matmul_tn(&cache.t));
        let dt = g.matmul(self.v.value());
        self.u.grad_mut().axpy(1.0, &cache.x.matmul_tn(&dt));
        self.bias.grad_mut().axpy(1.0, &sum_rows(&g));
        (dt, cache.input_shape)
    }
}

impl InferLayer for LowRankLinear {
    fn name(&self) -> &str {
        &self.name
    }

    fn infer(&self, input: &Tensor4) -> Tensor4 {
        self.run_forward(input).2
    }

    fn output_shape(&self, _input: (usize, usize, usize)) -> (usize, usize, usize) {
        (self.fan_out, 1, 1)
    }
}

impl Layer for LowRankLinear {
    fn forward_train(&mut self, input: &Tensor4) -> Tensor4 {
        let (x, t, out) = self.run_forward(input);
        self.cache = Some(LowRankLinearCache { x, t, input_shape: input.shape() });
        out
    }

    fn clear_cache(&mut self) {
        self.cache = None;
    }

    fn has_backward_cache(&self) -> bool {
        self.cache.is_some()
    }

    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let (dt, (_, c, h, w)) = self.accumulate_param_grads(grad_out);
        let dx = dt.matmul_nt(self.u.value());
        Tensor4::from_matrix(&dx, c, h, w)
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
        if u.rows() != self.fan_in() || v.rows() != self.fan_out || u.cols() != v.cols() {
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

    #[test]
    fn linear_forward_matches_hand_math() {
        let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[1.0, 1.0]]);
        let b = Matrix::from_rows(&[&[0.5, -0.5]]);
        let mut lin = Linear::from_weights("fc", w, b);
        let x = Tensor4::from_vec(1, 3, 1, 1, vec![1.0, 2.0, 3.0]);
        let y = lin.forward(&x, Phase::Eval);
        assert_eq!(y.shape(), (1, 2, 1, 1));
        assert!((y.at(0, 0, 0, 0) - 4.5).abs() < 1e-6); // 1+3+0.5
        assert!((y.at(0, 1, 0, 0) - 6.5).abs() < 1e-6); // 4+3-0.5
    }

    #[test]
    fn linear_flattens_spatial_input() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut lin = Linear::new("fc", 2 * 3 * 3, 4, &mut rng);
        let x = Tensor4::zeros(5, 2, 3, 3);
        let y = lin.forward(&x, Phase::Eval);
        assert_eq!(y.shape(), (5, 4, 1, 1));
        assert_eq!(lin.output_shape((2, 3, 3)), (4, 1, 1));
    }

    #[test]
    fn low_rank_equals_dense_composition() {
        let mut rng = StdRng::seed_from_u64(2);
        let u = xavier_uniform(6, 2, &mut rng);
        let v = xavier_uniform(4, 2, &mut rng);
        let b = Matrix::from_fn(1, 4, |_, j| j as f32 * 0.2);
        let mut dense = Linear::from_weights("d", u.matmul_nt(&v), b.clone());
        let mut lr = LowRankLinear::from_factors("l", u, v, b);
        let x = Tensor4::from_vec(3, 6, 1, 1, (0..18).map(|i| i as f32 * 0.1 - 0.9).collect());
        let yd = dense.forward(&x, Phase::Eval);
        let yl = lr.forward(&x, Phase::Eval);
        let diff = yd
            .as_slice()
            .iter()
            .zip(yl.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(diff < 1e-5, "max diff {diff}");
    }

    #[test]
    fn backward_restores_input_spatial_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut lin = Linear::new("fc", 2 * 2 * 2, 3, &mut rng);
        let x = Tensor4::from_vec(2, 2, 2, 2, (0..16).map(|i| i as f32 * 0.1).collect());
        lin.forward(&x, Phase::Train);
        let dx = lin.backward(&Tensor4::from_vec(2, 3, 1, 1, vec![0.1; 6]));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn rank_and_factor_replacement() {
        let mut lr = LowRankLinear::from_factors(
            "l",
            Matrix::zeros(10, 5),
            Matrix::zeros(8, 5),
            Matrix::zeros(1, 8),
        );
        assert_eq!(lr.rank(), 5);
        assert!(lr.set_low_rank_factors(Matrix::zeros(10, 3), Matrix::zeros(8, 3)));
        assert_eq!(lr.rank(), 3);
        assert!(!lr.set_low_rank_factors(Matrix::zeros(10, 3), Matrix::zeros(7, 3)));
        assert_eq!(lr.composed_weight().shape(), (10, 8));
    }

    #[test]
    fn param_names_are_dotted() {
        let mut rng = StdRng::seed_from_u64(4);
        let lin = Linear::new("fc1", 4, 2, &mut rng);
        let names: Vec<&str> = lin.params().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["fc1.w", "fc1.bias"]);
    }
}
