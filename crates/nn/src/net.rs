//! Sequential network container, builder, training and evaluation loops.

use rand::Rng;

use scissor_linalg::Matrix;

use crate::compile::CompiledNet;
use crate::error::{NnError, Result};
use crate::layer::{Layer, Phase};
use crate::layers::{Conv2d, Linear, MaxPool2d, Relu};
use crate::loss::{accuracy, argmax_classes, SoftmaxCrossEntropy};
use crate::optim::Sgd;
use crate::param::Param;
use crate::tensor::Tensor4;

/// A sequential feed-forward network.
///
/// Layers are identified by stable names; rank clipping and group deletion
/// replace or edit layers/parameters by name while training continues.
pub struct Network {
    input_shape: (usize, usize, usize),
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Creates an empty network expecting `(channels, height, width)` input.
    pub fn new(input_shape: (usize, usize, usize)) -> Self {
        Self { input_shape, layers: Vec::new() }
    }

    /// Declared input shape `(c, h, w)`.
    pub fn input_shape(&self) -> (usize, usize, usize) {
        self.input_shape
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Layer names in order.
    pub fn layer_names(&self) -> Vec<&str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Looks a layer up by name.
    pub fn layer(&self, name: &str) -> Option<&dyn Layer> {
        self.layers.iter().find(|l| l.name() == name).map(|b| b.as_ref())
    }

    /// Mutable layer lookup by name.
    pub fn layer_mut(&mut self, name: &str) -> Option<&mut Box<dyn Layer>> {
        self.layers.iter_mut().find(|l| l.name() == name)
    }

    /// Replaces the layer called `name` with `replacement` (same position).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownLayer`] if no layer has that name.
    pub fn replace_layer(&mut self, name: &str, replacement: Box<dyn Layer>) -> Result<()> {
        match self.layers.iter_mut().find(|l| l.name() == name) {
            Some(slot) => {
                *slot = replacement;
                Ok(())
            }
            None => Err(NnError::UnknownLayer { name: name.into() }),
        }
    }

    /// Runs the forward pass.
    ///
    /// `Phase::Eval` drops every layer's backward cache and routes through
    /// the shared-state [`crate::InferLayer::infer`] path, so an eval
    /// forward never retains training state.
    pub fn forward(&mut self, input: &Tensor4, phase: Phase) -> Tensor4 {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, phase);
        }
        x
    }

    /// Shared-state forward pass (`&self`): the inference contract without
    /// the container mutability `forward` demands.
    ///
    /// Unlike `forward(.., Phase::Eval)` this cannot drop stale backward
    /// caches (it has no mutable access); results are identical. For hot
    /// serving paths prefer [`Network::compile`] — the compiled plan is
    /// also allocation-free.
    pub fn infer(&self, input: &Tensor4) -> Tensor4 {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.infer(&x);
        }
        x
    }

    /// Drops every layer's backward cache.
    pub fn clear_caches(&mut self) {
        for layer in &mut self.layers {
            layer.clear_cache();
        }
    }

    /// Whether any layer holds a live backward cache from a training-phase
    /// forward.
    pub fn has_backward_caches(&self) -> bool {
        self.layers.iter().any(|l| l.has_backward_cache())
    }

    /// Freezes the network into its forward-only serving plan.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnsupportedLayer`] for layer types the plan
    /// cannot freeze.
    pub fn compile(&self) -> Result<CompiledNet> {
        CompiledNet::compile(self)
    }

    /// Freezes the network into an int8 serving plan: weights quantized
    /// with one symmetric scale per `group_size` output channels (see
    /// [`CompiledNet::compile_quantized`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnsupportedLayer`] for layer types the plan
    /// cannot freeze.
    ///
    /// # Panics
    ///
    /// Panics if `group_size == 0`.
    pub fn compile_quantized(&self, group_size: usize) -> Result<CompiledNet> {
        CompiledNet::compile_quantized(self, group_size)
    }

    /// Backpropagates from the loss gradient; parameter gradients accumulate
    /// inside the layers.
    ///
    /// The walk stops at the first layer with parameters, which only
    /// accumulates its parameter gradients ([`Layer::backward_params`]): no
    /// input gradient is computed for it, and parameter-free layers in
    /// front of it are not visited.
    pub fn backward(&mut self, grad: &Tensor4) {
        let Some(first) = self.layers.iter().position(|l| !l.params().is_empty()) else {
            return;
        };
        let mut g: Option<Tensor4> = None;
        for layer in self.layers[first + 1..].iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(grad)));
        }
        self.layers[first].backward_params(g.as_ref().unwrap_or(grad));
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grads(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// All parameters, immutable, in layer order.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// All parameters, mutable, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    /// Looks a parameter up by dotted name (e.g. `"fc1.u"`).
    pub fn param(&self, name: &str) -> Option<&Param> {
        self.params().into_iter().find(|p| p.name() == name)
    }

    /// Mutable parameter lookup by dotted name.
    pub fn param_mut(&mut self, name: &str) -> Option<&mut Param> {
        self.params_mut().into_iter().find(|p| p.name() == name)
    }

    /// Total trainable scalar count.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.value().len()).sum()
    }

    /// One SGD training step on a batch; returns the batch loss.
    ///
    /// Equivalent to `forward → loss → backward → step`, with gradients
    /// zeroed by the optimizer. Callers inserting regularizers (group lasso)
    /// or masks should use the unbundled methods instead.
    pub fn train_step(
        &mut self,
        images: &Tensor4,
        labels: &[usize],
        sgd: &Sgd,
        iter: usize,
    ) -> f64 {
        let loss_fn = SoftmaxCrossEntropy::new();
        let logits = self.forward(images, Phase::Train);
        let out = loss_fn.forward(&logits, labels);
        let grad = loss_fn.backward(&out.probs, labels);
        self.backward(&grad);
        sgd.step(&mut self.params_mut(), iter);
        out.loss
    }

    /// Predicted classes for a batch.
    pub fn predict(&mut self, images: &Tensor4) -> Vec<usize> {
        let logits = self.forward(images, Phase::Eval);
        argmax_classes(&logits)
    }

    /// Classification accuracy over a dataset, evaluated in mini-batches.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the number of samples or
    /// `batch == 0`.
    pub fn evaluate(&mut self, images: &Tensor4, labels: &[usize], batch: usize) -> f64 {
        assert!(batch > 0, "batch size must be positive");
        assert_eq!(images.batch(), labels.len(), "images/labels mismatch");
        let n = images.batch();
        let mut predictions = Vec::with_capacity(n);
        let mut start = 0;
        while start < n {
            let end = (start + batch).min(n);
            let idx: Vec<usize> = (start..end).collect();
            let chunk = images.gather(&idx);
            predictions.extend(self.predict(&chunk));
            start = end;
        }
        accuracy(&predictions, labels)
    }

    /// Snapshot of every parameter value, keyed by dotted name.
    pub fn state_dict(&self) -> Vec<(String, Matrix)> {
        self.params().iter().map(|p| (p.name().to_string(), p.value().clone())).collect()
    }

    /// Restores parameter values from a [`Network::state_dict`] snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownParam`] for names not present in the
    /// network and [`NnError::StateShapeMismatch`] on shape disagreement.
    pub fn load_state_dict(&mut self, state: &[(String, Matrix)]) -> Result<()> {
        for (name, value) in state {
            let param =
                self.param_mut(name).ok_or_else(|| NnError::UnknownParam { name: name.clone() })?;
            if param.value().shape() != value.shape() {
                return Err(NnError::StateShapeMismatch {
                    name: name.clone(),
                    stored: value.shape(),
                    expected: param.value().shape(),
                });
            }
            *param.value_mut() = value.clone();
        }
        Ok(())
    }

    /// Output shape `(c, h, w)` after all layers, from the declared input.
    pub fn output_shape(&self) -> (usize, usize, usize) {
        let mut s = self.input_shape;
        for layer in &self.layers {
            s = layer.output_shape(s);
        }
        s
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Network(input={:?}, layers=[{}], params={})",
            self.input_shape,
            self.layer_names().join(", "),
            self.param_count()
        )
    }
}

/// Incremental constructor that tracks activation shapes so fully-connected
/// layers size themselves automatically.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use scissor_nn::NetworkBuilder;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = NetworkBuilder::new((1, 28, 28))
///     .conv("conv1", 20, 5, 1, 0, &mut rng)
///     .maxpool(2, 2)
///     .conv("conv2", 50, 5, 1, 0, &mut rng)
///     .maxpool(2, 2)
///     .linear("fc1", 500, &mut rng)
///     .relu()
///     .linear("fc2", 10, &mut rng)
///     .build();
/// assert_eq!(net.output_shape(), (10, 1, 1));
/// ```
pub struct NetworkBuilder {
    net: Network,
    shape: (usize, usize, usize),
    pool_counter: usize,
    relu_counter: usize,
}

impl NetworkBuilder {
    /// Starts a builder for `(c, h, w)` inputs.
    pub fn new(input_shape: (usize, usize, usize)) -> Self {
        Self {
            net: Network::new(input_shape),
            shape: input_shape,
            pool_counter: 0,
            relu_counter: 0,
        }
    }

    fn track(&mut self, layer: Box<dyn Layer>) {
        self.shape = layer.output_shape(self.shape);
        self.net.push(layer);
    }

    /// Adds a Xavier-initialized convolution.
    pub fn conv<R: Rng + ?Sized>(
        mut self,
        name: &str,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        let layer = Conv2d::new(name, self.shape.0, out_channels, kernel, stride, pad, rng);
        self.track(Box::new(layer));
        self
    }

    /// Adds floor-mode max pooling.
    pub fn maxpool(mut self, kernel: usize, stride: usize) -> Self {
        self.pool_counter += 1;
        let layer = MaxPool2d::new(format!("pool{}", self.pool_counter), kernel, stride, false);
        self.track(Box::new(layer));
        self
    }

    /// Adds Caffe-style ceil-mode max pooling (used by ConvNet).
    pub fn maxpool_ceil(mut self, kernel: usize, stride: usize) -> Self {
        self.pool_counter += 1;
        let layer = MaxPool2d::new(format!("pool{}", self.pool_counter), kernel, stride, true);
        self.track(Box::new(layer));
        self
    }

    /// Adds a ReLU.
    pub fn relu(mut self) -> Self {
        self.relu_counter += 1;
        let layer = Relu::new(format!("relu{}", self.relu_counter));
        self.track(Box::new(layer));
        self
    }

    /// Adds a Xavier-initialized fully-connected layer sized from the
    /// current activation shape.
    pub fn linear<R: Rng + ?Sized>(mut self, name: &str, fan_out: usize, rng: &mut R) -> Self {
        let fan_in = self.shape.0 * self.shape.1 * self.shape.2;
        let layer = Linear::new(name, fan_in, fan_out, rng);
        self.track(Box::new(layer));
        self
    }

    /// Adds an arbitrary layer.
    pub fn layer(mut self, layer: Box<dyn Layer>) -> Self {
        self.track(layer);
        self
    }

    /// Finishes construction.
    pub fn build(self) -> Network {
        self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(rng: &mut StdRng) -> Network {
        NetworkBuilder::new((1, 6, 6))
            .conv("conv1", 3, 3, 1, 0, rng)
            .relu()
            .maxpool(2, 2)
            .linear("fc1", 4, rng)
            .build()
    }

    #[test]
    fn builder_tracks_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = tiny_net(&mut rng);
        assert_eq!(net.output_shape(), (4, 1, 1));
        assert_eq!(net.layer_names(), vec!["conv1", "relu1", "pool1", "fc1"]);
    }

    #[test]
    fn forward_shape_and_param_lookup() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = tiny_net(&mut rng);
        let x = Tensor4::zeros(2, 1, 6, 6);
        let y = net.forward(&x, Phase::Eval);
        assert_eq!(y.shape(), (2, 4, 1, 1));
        assert!(net.param("conv1.w").is_some());
        assert!(net.param("fc1.bias").is_some());
        assert!(net.param("nope.w").is_none());
        // conv1: 9*3+3; fc1: 12*4+4
        assert_eq!(net.param_count(), 30 + 52);
    }

    #[test]
    fn train_step_reduces_loss_on_separable_toy_data() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = NetworkBuilder::new((1, 2, 2)).linear("fc", 2, &mut rng).build();
        // Class 0: all pixels +1; class 1: all −1.
        let mut images = Tensor4::zeros(8, 1, 2, 2);
        let mut labels = vec![0usize; 8];
        for (i, label) in labels.iter_mut().enumerate() {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            for v in images.sample_mut(i) {
                *v = sign;
            }
            *label = if i % 2 == 0 { 0 } else { 1 };
        }
        let sgd = Sgd::new(0.5);
        let first = net.train_step(&images, &labels, &sgd, 0);
        let mut last = first;
        for it in 1..30 {
            last = net.train_step(&images, &labels, &sgd, it);
        }
        assert!(last < first * 0.1, "loss should collapse: {first} → {last}");
        assert_eq!(net.evaluate(&images, &labels, 4), 1.0);
    }

    #[test]
    fn state_dict_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = tiny_net(&mut rng);
        let state = net.state_dict();
        // Perturb, then restore.
        net.param_mut("fc1.w").unwrap().value_mut().map_inplace(|v| v + 1.0);
        net.load_state_dict(&state).unwrap();
        let restored = net.state_dict();
        for ((n1, m1), (n2, m2)) in state.iter().zip(&restored) {
            assert_eq!(n1, n2);
            assert_eq!(m1, m2);
        }
    }

    #[test]
    fn load_state_dict_validates() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = tiny_net(&mut rng);
        let bad_name = vec![("ghost.w".to_string(), Matrix::zeros(1, 1))];
        assert!(matches!(net.load_state_dict(&bad_name), Err(NnError::UnknownParam { .. })));
        let bad_shape = vec![("fc1.w".to_string(), Matrix::zeros(1, 1))];
        assert!(matches!(net.load_state_dict(&bad_shape), Err(NnError::StateShapeMismatch { .. })));
    }

    #[test]
    fn replace_layer_swaps_in_place() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = tiny_net(&mut rng);
        let fc = net.layer("fc1").unwrap();
        let fan_in = fc.weight_matrix().unwrap().rows();
        let fan_out = fc.weight_matrix().unwrap().cols();
        let lr = crate::layers::LowRankLinear::from_factors(
            "fc1",
            Matrix::zeros(fan_in, 2),
            Matrix::zeros(fan_out, 2),
            Matrix::zeros(1, fan_out),
        );
        net.replace_layer("fc1", Box::new(lr)).unwrap();
        assert!(net.layer("fc1").unwrap().low_rank_factors().is_some());
        assert!(net.param("fc1.u").is_some());
        assert!(net.replace_layer("ghost", Box::new(Relu::new("x"))).is_err());
    }

    #[test]
    fn zero_grads_clears_everything() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = tiny_net(&mut rng);
        let x = Tensor4::from_vec(1, 1, 6, 6, (0..36).map(|i| i as f32 * 0.1).collect());
        let y = net.forward(&x, Phase::Train);
        net.backward(&y);
        assert!(net.params().iter().any(|p| p.grad().frobenius_norm() > 0.0));
        net.zero_grads();
        assert!(net.params().iter().all(|p| p.grad().frobenius_norm() == 0.0));
    }
}
