//! Acceptance tests for the training/serving split at model scale:
//! `CompiledNet` logits must be **bitwise identical** to
//! `Network::forward(.., Phase::Eval)` on LeNet and ConvNet — dense,
//! rank-clipped (low-rank) and group-deleted (masked) variants — and the
//! batching replica must preserve that identity end to end.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use group_scissor_repro::data::SynthOptions;
use group_scissor_repro::lra::{direct_lra, LraMethod};
use group_scissor_repro::nn::{InferScratch, Phase, Tensor4};
use group_scissor_repro::pipeline::ModelKind;
use group_scissor_repro::serve::{Replica, ServeConfig, Telemetry};

fn assert_bitwise_identical(model: ModelKind, net: &mut group_scissor_repro::nn::Network) {
    let plan = net.compile().expect("compile");
    assert_eq!(plan.output_shape(), net.output_shape());
    let data = model.dataset(12, 3, SynthOptions::default());
    let mut scratch = InferScratch::new();
    for batch in [1usize, 5, 12] {
        let idx: Vec<usize> = (0..batch).collect();
        let x = data.images().gather(&idx);
        let expect = net.forward(&x, Phase::Eval);
        let got = plan.infer_into(&x, &mut scratch);
        assert_eq!(got.shape().0, batch);
        let identical =
            got.as_slice().iter().zip(expect.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(identical, "{model}: compiled logits must be bitwise identical at batch {batch}");
    }
}

#[test]
fn lenet_compiled_matches_eval_bitwise_dense_and_clipped() {
    let model = ModelKind::LeNet;
    let mut rng = StdRng::seed_from_u64(17);
    let mut net = model.build(&mut rng);
    assert_bitwise_identical(model, &mut net);
    // Rank-clip to the paper's Table 1 ranks: both low-rank step kinds.
    let ranks: Vec<(String, usize)> =
        model.paper_clipped_ranks().into_iter().map(|(n, k)| (n.to_string(), k)).collect();
    direct_lra(&mut net, &ranks, LraMethod::Pca).expect("clip");
    assert_bitwise_identical(model, &mut net);
}

#[test]
fn convnet_compiled_matches_eval_bitwise_dense_and_clipped() {
    let model = ModelKind::ConvNet;
    let mut rng = StdRng::seed_from_u64(19);
    let mut net = model.build(&mut rng);
    assert_bitwise_identical(model, &mut net);
    let ranks: Vec<(String, usize)> =
        model.paper_clipped_ranks().into_iter().map(|(n, k)| (n.to_string(), k)).collect();
    direct_lra(&mut net, &ranks, LraMethod::Pca).expect("clip");
    assert_bitwise_identical(model, &mut net);
}

#[test]
fn deleted_weights_survive_compilation_and_masking() {
    use group_scissor_repro::prune::MaskSet;
    let model = ModelKind::LeNet;
    let mut rng = StdRng::seed_from_u64(23);
    let mut net = model.build(&mut rng);
    // Emulate group deletion: zero a stripe of conv2's weight, capture the
    // pattern, compile with the mask pre-applied.
    {
        let p = net.param_mut("conv2.w").expect("conv2.w");
        for j in 0..p.value().cols() {
            for i in 0..40 {
                p.value_mut()[(i, j)] = 0.0;
            }
        }
    }
    let masks = MaskSet::capture_nonzero(&net, &["conv2.w".into()]).expect("capture");
    let mut plan = net.compile().expect("compile");
    masks.apply_to_compiled(&mut plan).expect("mask");
    let data = model.dataset(6, 5, SynthOptions::default());
    let x = data.images().gather(&[0, 1, 2, 3, 4, 5]);
    let expect = net.forward(&x, Phase::Eval);
    assert_eq!(plan.infer(&x).as_slice(), expect.as_slice());
}

#[test]
fn served_lenet_logits_are_bitwise_identical_to_eval() {
    let model = ModelKind::LeNet;
    let mut rng = StdRng::seed_from_u64(29);
    let mut net = model.build(&mut rng);
    let ranks: Vec<(String, usize)> =
        model.paper_clipped_ranks().into_iter().map(|(n, k)| (n.to_string(), k)).collect();
    direct_lra(&mut net, &ranks, LraMethod::Pca).expect("clip");

    let n = 24;
    let data = model.dataset(n, 7, SynthOptions::default());
    let images = data.images().clone();
    let idx: Vec<usize> = (0..n).collect();
    let expect = net.forward(&images.gather(&idx), Phase::Eval);

    let replica = Arc::new(Replica::start(
        Arc::new(net.compile().expect("compile")),
        ServeConfig { max_batch: 8, max_wait: Duration::from_millis(1), ..ServeConfig::default() },
        Telemetry::default(),
    ));
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let replica = Arc::clone(&replica);
            let images = images.clone();
            std::thread::spawn(move || {
                (t..n)
                    .step_by(4)
                    .map(|s| (s, replica.submit(&images.gather(&[s])).expect("submit").wait()))
                    .collect::<Vec<(usize, Vec<f32>)>>()
            })
        })
        .collect();
    for h in handles {
        for (s, got) in h.join().expect("caller") {
            let want = expect.sample(s);
            let identical = got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(identical, "sample {s}: served logits must be bitwise identical");
        }
    }
    assert_eq!(replica.stats().requests as usize, n);
}

#[test]
fn tiled_inference_is_bitwise_identical_at_model_scale() {
    use group_scissor_repro::nn::TileConfig;

    // The tentpole acceptance shape: at LeNet/ConvNet scale (rank-clipped,
    // so all six step kinds run at real geometry), every tile size —
    // dividing the batch or not — and the auto-planned tile reproduce the
    // untiled batch logits bit for bit.
    for model in [ModelKind::LeNet, ModelKind::ConvNet] {
        let mut rng = StdRng::seed_from_u64(37);
        let mut net = model.build(&mut rng);
        let ranks: Vec<(String, usize)> =
            model.paper_clipped_ranks().into_iter().map(|(n, k)| (n.to_string(), k)).collect();
        direct_lra(&mut net, &ranks, LraMethod::Pca).expect("clip");
        let mut plan = net.compile().expect("compile");

        let batch = 12;
        let data = model.dataset(batch, 3, SynthOptions::default());
        let x = data.images().clone();

        plan.set_tile_config(TileConfig::untiled());
        let mut scratch = InferScratch::new();
        let expect = plan.infer_into(&x, &mut scratch).as_slice().to_vec();

        let auto_tile = {
            plan.set_tile_config(TileConfig::auto());
            plan.plan_tile(batch)
        };
        for (label, cfg) in [
            ("tile 1", TileConfig::fixed(1)),
            ("tile 3", TileConfig::fixed(3)),
            ("tile 4", TileConfig::fixed(4)),
            ("tile 5", TileConfig::fixed(5)),
            ("tile 8", TileConfig::fixed(8)),
            ("tile 12", TileConfig::fixed(12)),
            ("auto", TileConfig::auto()),
        ] {
            plan.set_tile_config(cfg);
            let mut scratch = plan.warm_scratch(batch);
            let got = plan.infer_into(&x, &mut scratch);
            let identical =
                got.as_slice().iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                identical,
                "{model}: {label} (auto plans {auto_tile}) must match the untiled pass bitwise"
            );
        }
    }
}

#[test]
fn compiled_plan_rejects_unknown_layer_types() {
    use group_scissor_repro::nn::layer::{InferLayer, Layer};
    use group_scissor_repro::nn::NnError;

    struct Mystery;
    impl InferLayer for Mystery {
        fn name(&self) -> &str {
            "mystery"
        }
        fn infer(&self, input: &Tensor4) -> Tensor4 {
            input.clone()
        }
        fn output_shape(&self, input: (usize, usize, usize)) -> (usize, usize, usize) {
            input
        }
    }
    impl Layer for Mystery {
        fn forward_train(&mut self, input: &Tensor4) -> Tensor4 {
            input.clone()
        }
        fn backward(&mut self, grad: &Tensor4) -> Tensor4 {
            grad.clone()
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    let mut net = group_scissor_repro::nn::Network::new((1, 2, 2));
    net.push(Box::new(Mystery));
    assert!(matches!(net.compile(), Err(NnError::UnsupportedLayer { .. })));
}
