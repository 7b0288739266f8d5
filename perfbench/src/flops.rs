//! Work per train step and per inference batch, computed from the layer
//! shapes at the network's current ranks. These are computed, not
//! measured: they let later kernel changes quote achieved rates.
//!
//! A weight layer with fan-in `n`, fan-out `m` and `p` output positions
//! per sample costs `2·p·n·m` flops per sample when dense and
//! `2·p·k·(n+m)` at rank `k`. A train step is counted as three forwards
//! (forward, input gradient, weight gradient). Bytes are the compulsory
//! traffic: each weight once plus each layer's input and output
//! activations once per pass. Pooling and activation layers are counted
//! for bytes only.

use scissor_nn::Network;

/// Computed forward cost of one network at a given batch size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Work {
    /// Floating-point (or integer multiply-add) operations.
    pub flops: f64,
    /// Activation bytes read and written (4 bytes per value).
    pub activation_bytes: f64,
    /// Weight parameters read (multiply by the bytes per weight).
    pub weights: f64,
}

impl Work {
    /// Total bytes when each weight takes `weight_bytes` bytes.
    pub fn bytes(&self, weight_bytes: f64) -> f64 {
        self.activation_bytes + self.weights * weight_bytes
    }
}

/// Forward cost of `net` at batch size `batch`.
pub fn forward(net: &Network, batch: usize) -> Work {
    let b = batch as f64;
    let mut shape = net.input_shape();
    let mut work = Work { flops: 0.0, activation_bytes: 0.0, weights: 0.0 };
    for name in net.layer_names() {
        let layer = net.layer(name).expect("listed layer exists");
        let out = layer.output_shape(shape);
        let positions = (out.1 * out.2) as f64;
        let (macs, weights) = if let Some(w) = layer.weight_matrix() {
            let (n, m) = w.shape();
            ((n * m) as f64, (n * m + m) as f64)
        } else if let Some((u, v)) = layer.low_rank_factors() {
            let (n, k) = u.shape();
            let m = v.rows();
            ((k * (n + m)) as f64, (k * (n + m) + m) as f64)
        } else {
            (0.0, 0.0)
        };
        work.flops += 2.0 * b * positions * macs;
        work.weights += weights;
        let elems = |s: (usize, usize, usize)| (s.0 * s.1 * s.2) as f64;
        work.activation_bytes += 4.0 * b * (elems(shape) + elems(out));
        shape = out;
    }
    work
}

/// Computed cost of one training step (forward plus backward) at batch
/// size `batch`: three forwards' flops; weights read and gradients
/// written twice more.
pub fn train_step(net: &Network, batch: usize) -> Work {
    let f = forward(net, batch);
    Work {
        flops: 3.0 * f.flops,
        activation_bytes: 3.0 * f.activation_bytes,
        weights: 3.0 * f.weights,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scissor_nn::NetworkBuilder;

    #[test]
    fn dense_linear_and_conv_costs_match_hand_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = NetworkBuilder::new((1, 6, 6))
            .conv("c", 2, 3, 1, 0, &mut rng) // 4x4 positions, n = 9, m = 2
            .linear("fc", 5, &mut rng) // n = 32, m = 5
            .build();
        let w = forward(&net, 2);
        assert_eq!(w.flops, 2.0 * 2.0 * (16.0 * 9.0 * 2.0 + 32.0 * 5.0));
        assert_eq!(w.weights, (9.0 * 2.0 + 2.0) + (32.0 * 5.0 + 5.0));
        assert_eq!(w.activation_bytes, 4.0 * 2.0 * ((36.0 + 32.0) + (32.0 + 5.0)));
        assert_eq!(train_step(&net, 2).flops, 3.0 * w.flops);
    }

    #[test]
    fn low_rank_layers_cost_k_times_n_plus_m() {
        use scissor_linalg::Matrix;
        use scissor_nn::layers::Linear;
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = NetworkBuilder::new((1, 1, 40)).linear("fc", 30, &mut rng).build();
        let lin = net.layer("fc").unwrap().as_any().downcast_ref::<Linear>().unwrap();
        let lr = lin.to_low_rank(Matrix::zeros(40, 3), Matrix::zeros(30, 3));
        net.replace_layer("fc", Box::new(lr)).unwrap();
        assert_eq!(forward(&net, 1).flops, 2.0 * 3.0 * 70.0);
    }
}
