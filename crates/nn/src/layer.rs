//! The layer traits — the unit of composition for networks.
//!
//! The execution model is split into two contracts:
//!
//! * [`InferLayer`] — the **serving** contract: a forward pass through
//!   shared state (`&self`, `Send + Sync`) that never touches backward
//!   caches. This is what evaluation, the compiled inference plan
//!   (`crate::compile`) and the batched server build on.
//! * [`Layer`] — the **training** contract: adds the mutable
//!   [`Layer::forward_train`] / [`Layer::backward`] pair, backward-cache
//!   management and parameter access on top of `InferLayer`.

use std::any::Any;

use scissor_linalg::Matrix;

use crate::param::Param;
use crate::tensor::Tensor4;

/// Forward-pass phase; some layers behave differently in training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Training: caches are kept for the backward pass.
    Train,
    /// Inference: no backward state is required.
    Eval,
}

/// The shared-state inference contract.
///
/// `infer` must be a pure function of the layer's parameters and the input:
/// no interior mutability, no backward caches. Because it takes `&self` and
/// the trait requires `Send + Sync`, any number of threads may run
/// inference through the same layer concurrently.
pub trait InferLayer: Send + Sync {
    /// Stable layer name (`"conv1"`, `"fc2"`, `"relu3"` …).
    fn name(&self) -> &str;

    /// Computes the layer output without touching any training state.
    fn infer(&self, input: &Tensor4) -> Tensor4;

    /// Output shape `(c, h, w)` for a given input shape.
    fn output_shape(&self, input: (usize, usize, usize)) -> (usize, usize, usize);
}

/// The training contract: a differentiable network layer.
///
/// Layers own their parameters ([`Param`]) and any activation caches needed
/// by backpropagation. The contract is the usual one: `backward` must be
/// called after [`Layer::forward_train`] (or
/// `forward(.., Phase::Train)`) on the same input, and returns the gradient
/// with respect to that input while accumulating parameter gradients
/// internally.
pub trait Layer: InferLayer {
    /// Computes the layer output, retaining whatever caches `backward`
    /// needs.
    fn forward_train(&mut self, input: &Tensor4) -> Tensor4;

    /// Backpropagates `grad_out`, accumulating parameter gradients and
    /// returning the gradient w.r.t. the last training-phase forward input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before a training-phase forward.
    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4;

    /// Accumulates parameter gradients from `grad_out` like
    /// [`Layer::backward`], without computing the input gradient.
    ///
    /// `Network::backward` calls this on the first layer that has
    /// parameters, whose input gradient nothing reads. The default runs
    /// `backward` and drops the result; layers whose input gradient costs a
    /// product (conv, linear and their low-rank forms) override it.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before a training-phase forward.
    fn backward_params(&mut self, grad_out: &Tensor4) {
        let _ = self.backward(grad_out);
    }

    /// Drops any backward caches held from a previous training forward.
    fn clear_cache(&mut self) {}

    /// Whether a backward cache from a training forward is currently live.
    ///
    /// Used by the eval-phase audit: after `forward(.., Phase::Eval)` this
    /// must be `false` for every layer.
    fn has_backward_cache(&self) -> bool {
        false
    }

    /// Phase-dispatching forward pass.
    ///
    /// `Phase::Train` runs [`Layer::forward_train`]; `Phase::Eval` drops any
    /// stale backward cache and runs the shared-state
    /// [`InferLayer::infer`] — eval forwards never retain backward state.
    fn forward(&mut self, input: &Tensor4, phase: Phase) -> Tensor4 {
        match phase {
            Phase::Train => self.forward_train(input),
            Phase::Eval => {
                self.clear_cache();
                self.infer(input)
            }
        }
    }

    /// Trainable parameters (empty for stateless layers).
    fn params(&self) -> Vec<&Param> {
        vec![]
    }

    /// Mutable access to trainable parameters.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![]
    }

    /// The dense weight matrix (`N×M`, fan-in × fan-out) for layers that
    /// have one (Conv2d, Linear); `None` otherwise.
    fn weight_matrix(&self) -> Option<&Matrix> {
        None
    }

    /// The `(U, V)` factor pair for low-rank layers; `None` otherwise.
    fn low_rank_factors(&self) -> Option<(&Matrix, &Matrix)> {
        None
    }

    /// Replaces the `(U, V)` factors of a low-rank layer (used by rank
    /// clipping when it shrinks the rank). Returns `false` for layers that
    /// are not low-rank.
    fn set_low_rank_factors(&mut self, _u: Matrix, _v: Matrix) -> bool {
        false
    }

    /// Upcast helper for downcasting to concrete layer types.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast helper.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}
