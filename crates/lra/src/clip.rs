//! Rank clipping — the paper's Algorithm 2.
//!
//! Instead of factorizing once after training (which collapses accuracy,
//! Table 1), rank clipping interleaves *gentle* clips with training: every
//! `S` iterations each low-rank layer's `U` factor is re-analyzed by PCA,
//! and if a lower-rank subspace reconstructs `U` within the tolerable error
//! `ε`, the layer shrinks to it (`U ← Û`, `Vᵀ ← V̂ᵀ·Vᵀ`). Training then
//! recovers the small perturbation before the next clip, so layers converge
//! to their optimal ranks without accuracy loss (Fig. 3).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use scissor_data::Dataset;
use scissor_nn::{Network, Sgd};

use crate::convert::{layer_rank, to_full_rank};
use crate::error::{LraError, Result};
use crate::method::LraMethod;

/// Configuration of the rank-clipping trainer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankClipConfig {
    /// Tolerable clipping error `ε` of Algorithm 2 (e.g. 0.03).
    pub eps: f64,
    /// Clip cadence `S`: train this many iterations between clips.
    pub clip_every: usize,
    /// Total training iterations `I`.
    pub max_iters: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Optimizer settings for the interleaved training.
    pub sgd: Sgd,
    /// LRA back-end (PCA in the paper; SVD for the §3.1 comparison).
    pub method: LraMethod,
    /// Names of the layers to clip (the paper clips everything except the
    /// final classifier, whose rank already equals the class count).
    pub layers: Vec<String>,
    /// RNG seed for batch shuffling.
    pub seed: u64,
    /// Batch size used for accuracy evaluation at trace points.
    pub eval_batch: usize,
}

impl RankClipConfig {
    /// A reasonable starting configuration for the given layers.
    pub fn new(eps: f64, layers: Vec<String>) -> Self {
        Self {
            eps,
            clip_every: 100,
            max_iters: 1000,
            batch_size: 32,
            sgd: Sgd::with_momentum(0.01),
            method: LraMethod::Pca,
            layers,
            seed: 0,
            eval_batch: 256,
        }
    }
}

/// One trace point of a rank-clipping run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClipRecord {
    /// Training iteration at which the record was taken.
    pub iter: usize,
    /// Rank of each clipped layer, in `layer_names` order.
    pub ranks: Vec<usize>,
    /// Test accuracy at this point.
    pub accuracy: f64,
}

/// Result of a rank-clipping run (the data behind Fig. 3 and Table 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankClipOutcome {
    /// Layer names, aligning with every record's `ranks` vector.
    pub layer_names: Vec<String>,
    /// Per-clip-step trace (iteration, ranks, accuracy).
    pub trace: Vec<ClipRecord>,
    /// Ranks after the final iteration.
    pub final_ranks: Vec<usize>,
    /// Test accuracy after the final iteration.
    pub final_accuracy: f64,
    /// Full ranks (`M`) of each layer, for rank-ratio reporting.
    pub full_ranks: Vec<usize>,
}

impl RankClipOutcome {
    /// `(layer, K/M)` rank ratios at the end of the run (Fig. 3's y-axis).
    pub fn final_rank_ratios(&self) -> Vec<(String, f64)> {
        self.layer_names
            .iter()
            .zip(self.final_ranks.iter().zip(&self.full_ranks))
            .map(|(n, (&k, &m))| (n.clone(), if m == 0 { 0.0 } else { k as f64 / m as f64 }))
            .collect()
    }

    /// `(layer, final rank)` pairs.
    pub fn final_rank_map(&self) -> Vec<(String, usize)> {
        self.layer_names.iter().cloned().zip(self.final_ranks.iter().copied()).collect()
    }
}

/// Clips every registered layer once (Algorithm 2, lines 5–12).
/// Returns `true` if any rank changed.
fn clip_step(net: &mut Network, cfg: &RankClipConfig) -> Result<bool> {
    let mut changed = false;
    for name in &cfg.layers {
        let layer = net.layer(name).ok_or_else(|| LraError::UnknownLayer { name: name.clone() })?;
        let (u, v) = match layer.low_rank_factors() {
            Some((u, v)) => (u.clone(), v.clone()),
            None => return Err(LraError::NotFactorizable { name: name.clone() }),
        };
        let k_now = u.cols();
        if k_now <= 1 {
            continue;
        }
        // One fit serves both the rank search and the factor split.
        let fit = cfg.method.fit(&u)?;
        let k_hat = fit.min_rank_for_error(cfg.eps).max(1);
        if k_hat < k_now {
            // U ≈ Û·V̂ᵀ  ⇒  W ≈ Û·(V·V̂)ᵀ
            let (u_hat, v_hat) = fit.factors(&u, k_hat)?;
            let v_new = v.matmul(&v_hat);
            let layer =
                net.layer_mut(name).ok_or_else(|| LraError::UnknownLayer { name: name.clone() })?;
            if !layer.set_low_rank_factors(u_hat, v_new) {
                return Err(LraError::NotFactorizable { name: name.clone() });
            }
            changed = true;
        }
    }
    Ok(changed)
}

/// Runs rank clipping (Algorithm 2) on `net`.
///
/// Dense layers named in the config are first converted to exact full-rank
/// factorizations; the loop then alternates clip steps and `S` training
/// iterations until `max_iters`.
///
/// # Errors
///
/// Fails if a named layer is missing or not factorizable, or an LRA solve
/// fails.
pub fn rank_clip(
    net: &mut Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &RankClipConfig,
) -> Result<RankClipOutcome> {
    // Record full ranks before conversion (M = fan-out of each layer).
    let full_ranks: Vec<usize> =
        cfg.layers.iter().map(|n| crate::convert::layer_fan_out(net, n)).collect::<Result<_>>()?;
    to_full_rank(net, &cfg.layers, cfg.method)?;

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut trace = Vec::new();
    let mut iter = 0usize;
    let mut batches: Vec<Vec<usize>> = Vec::new();

    let record = |net: &mut Network, iter: usize, trace: &mut Vec<ClipRecord>| -> Result<()> {
        let ranks: Vec<usize> =
            cfg.layers.iter().map(|n| layer_rank(net, n)).collect::<Result<_>>()?;
        // Trace accuracy is a pure serving workload: run it through the
        // frozen forward-only plan (bitwise-identical logits, no backward
        // caches disturbed mid-training). Networks carrying layer types
        // the plan cannot freeze (the Layer trait is open) fall back to
        // the container's eval forward — same results either way.
        let accuracy = match net.compile() {
            Ok(plan) => plan.evaluate(test.images(), test.labels(), cfg.eval_batch),
            Err(_) => net.evaluate(test.images(), test.labels(), cfg.eval_batch),
        };
        trace.push(ClipRecord { iter, ranks, accuracy });
        Ok(())
    };

    while iter < cfg.max_iters {
        clip_step(net, cfg)?;
        record(net, iter, &mut trace)?;
        let stint = cfg.clip_every.min(cfg.max_iters - iter);
        for _ in 0..stint {
            if batches.is_empty() {
                batches = train.shuffled_batches(cfg.batch_size, &mut rng);
                batches.reverse(); // pop from the back in shuffled order
            }
            let idx = batches.pop().expect("refilled when empty");
            let (images, labels) = train.batch(&idx);
            net.train_step(&images, &labels, &cfg.sgd, iter);
            iter += 1;
        }
    }
    // Final clip + record so the outcome reflects the converged ranks.
    clip_step(net, cfg)?;
    record(net, iter, &mut trace)?;

    let last = trace.last().expect("at least one record");
    Ok(RankClipOutcome {
        layer_names: cfg.layers.clone(),
        final_ranks: last.ranks.clone(),
        final_accuracy: last.accuracy,
        trace,
        full_ranks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scissor_data::{synth_mnist, SynthOptions};
    use scissor_nn::NetworkBuilder;

    /// A small net on low-res synth digits: fast enough for unit tests.
    fn small_setup() -> (Network, Dataset, Dataset) {
        let mut rng = StdRng::seed_from_u64(7);
        let net = NetworkBuilder::new((1, 28, 28))
            .conv("conv1", 8, 5, 2, 0, &mut rng)
            .maxpool(2, 2)
            .linear("fc1", 24, &mut rng)
            .relu()
            .linear("fc2", 10, &mut rng)
            .build();
        let train = synth_mnist(300, 11, SynthOptions::default());
        let test = synth_mnist(100, 12, SynthOptions::default());
        (net, train, test)
    }

    fn pretrain(net: &mut Network, train: &Dataset, iters: usize) {
        let mut rng = StdRng::seed_from_u64(21);
        let sgd = Sgd::with_momentum(0.02);
        let mut i = 0;
        'outer: loop {
            for idx in train.shuffled_batches(32, &mut rng) {
                if i >= iters {
                    break 'outer;
                }
                let (x, y) = train.batch(&idx);
                net.train_step(&x, &y, &sgd, i);
                i += 1;
            }
        }
    }

    #[test]
    fn ranks_shrink_and_accuracy_survives() {
        let (mut net, train, test) = small_setup();
        pretrain(&mut net, &train, 80);
        let baseline = net.evaluate(test.images(), test.labels(), 100);
        let mut cfg = RankClipConfig::new(0.05, vec!["conv1".into(), "fc1".into()]);
        cfg.max_iters = 160;
        cfg.clip_every = 40;
        cfg.sgd = Sgd::with_momentum(0.02);
        let outcome = rank_clip(&mut net, &train, &test, &cfg).unwrap();

        assert_eq!(outcome.full_ranks, vec![8, 24]);
        // Ranks must be non-increasing over the trace.
        for pair in outcome.trace.windows(2) {
            for (a, b) in pair[0].ranks.iter().zip(&pair[1].ranks) {
                assert!(b <= a, "ranks must never grow");
            }
        }
        // Something must actually have been clipped.
        assert!(
            outcome.final_ranks.iter().zip(&outcome.full_ranks).any(|(k, m)| k < m),
            "no layer was clipped: {:?}",
            outcome.final_ranks
        );
        // Accuracy must stay in the neighborhood of the baseline.
        assert!(
            outcome.final_accuracy >= baseline - 0.15,
            "accuracy collapsed: {} vs baseline {}",
            outcome.final_accuracy,
            baseline
        );
    }

    #[test]
    fn tighter_eps_clips_less() {
        let (mut net, train, test) = small_setup();
        pretrain(&mut net, &train, 60);
        let snapshot = net.state_dict();

        let run = |state: &[(String, scissor_linalg::Matrix)], eps: f64| {
            let (mut n, _, _) = small_setup();
            n.load_state_dict(state).unwrap();
            let mut cfg = RankClipConfig::new(eps, vec!["fc1".into()]);
            cfg.max_iters = 40;
            cfg.clip_every = 20;
            rank_clip(&mut n, &train, &test, &cfg).unwrap().final_ranks[0]
        };
        let tight = run(&snapshot, 0.001);
        let loose = run(&snapshot, 0.3);
        assert!(loose <= tight, "looser eps must clip at least as hard: {loose} vs {tight}");
    }

    #[test]
    fn rank_ratios_and_map() {
        let outcome = RankClipOutcome {
            layer_names: vec!["a".into(), "b".into()],
            trace: vec![],
            final_ranks: vec![5, 10],
            final_accuracy: 0.9,
            full_ranks: vec![20, 10],
        };
        let ratios = outcome.final_rank_ratios();
        assert_eq!(ratios[0], ("a".to_string(), 0.25));
        assert_eq!(ratios[1].1, 1.0);
        assert_eq!(outcome.final_rank_map()[0], ("a".to_string(), 5));
    }

    #[test]
    fn unknown_layer_is_an_error() {
        let (mut net, train, test) = small_setup();
        let cfg = RankClipConfig::new(0.05, vec!["ghost".into()]);
        assert!(matches!(
            rank_clip(&mut net, &train, &test, &cfg),
            Err(LraError::UnknownLayer { .. })
        ));
    }
}
