//! Acceptance tests for the int8 group-quantized serving form end to end:
//! both pipeline presets export an f32 and an int8 plan whose test
//! accuracies agree within a documented bound, and the serving stack
//! (server + router) reports the form it is running.

use std::sync::Arc;

use group_scissor_repro::ncs::INT8_MAGNITUDES;
use group_scissor_repro::nn::ServingForm;
use group_scissor_repro::pipeline::{run_pipeline_on, GroupScissorConfig, ModelKind, TrainConfig};
use group_scissor_repro::router::{ModelConfig, Router};
use group_scissor_repro::serve::{Replica, ServeConfig, Telemetry};

/// Documented accuracy tolerance of int8 group quantization on the smoke
/// presets: symmetric per-group int8 keeps every layer's weights within
/// half a scale step (1/254 of the group max), and on these test sets a
/// logit perturbation of that size flips at most a couple of borderline
/// samples. 60-sample smoke test sets quantize accuracy itself in steps
/// of 1/60 ≈ 1.7 pts, so the bound is 2 flipped samples ≈ 3.4 pts.
const SMOKE_ACCURACY_BOUND: f64 = 2.0 / 60.0 + 1e-9;

/// Shrinks a fast-preset config to smoke-test budgets (mirrors
/// `tests/smoke.rs`).
fn smoke_budget(mut cfg: GroupScissorConfig) -> GroupScissorConfig {
    cfg.train_samples = 120;
    cfg.test_samples = 60;
    cfg.baseline = TrainConfig::new(12);
    cfg.clip_iters = 9;
    cfg.clip_every = 3;
    cfg.deletion.iters = 6;
    cfg.deletion.finetune_iters = 3;
    cfg.deletion.record_every = 6;
    cfg
}

fn check_dual_form_export(model: ModelKind) {
    let cfg = smoke_budget(GroupScissorConfig::fast(model));
    let (train, test) = cfg.datasets();
    let outcome = run_pipeline_on(&cfg, &train, &test).expect("pipeline must run");

    // The f32 export is the bit-equality baseline.
    assert_eq!(outcome.compiled.serving_form(), ServingForm::F32);
    assert_eq!(
        outcome.f32_accuracy, outcome.deletion.final_accuracy,
        "{model}: f32 export must reproduce the final accuracy exactly"
    );

    // The int8 export's group size is the crossbar column count, so the
    // quantization groups line up with the area model's crossbars.
    assert_eq!(
        outcome.compiled_int8.serving_form(),
        ServingForm::Int8 { group_size: cfg.spec.max_cols() }
    );
    assert!(
        outcome.compiled_int8.resident_weight_bytes()
            < outcome.compiled.resident_weight_bytes() / 2,
        "{model}: int8 weights must cut resident bytes at least in half"
    );

    // Accuracy cost of quantization stays within the documented bound.
    let delta = outcome.quant_accuracy_delta().abs();
    assert!(
        delta <= SMOKE_ACCURACY_BOUND,
        "{model}: |f32 {} - int8 {}| = {delta} exceeds the documented bound {SMOKE_ACCURACY_BOUND}",
        outcome.f32_accuracy,
        outcome.int8_accuracy,
    );

    // The crossbar device grid the int8 form assumes is the one the ncs
    // consistency check reasons about (255 levels = 128 magnitudes).
    assert_eq!(INT8_MAGNITUDES, 128);
}

#[test]
fn lenet_smoke_int8_accuracy_delta_is_bounded() {
    check_dual_form_export(ModelKind::LeNet);
}

#[test]
fn convnet_smoke_int8_accuracy_delta_is_bounded() {
    check_dual_form_export(ModelKind::ConvNet);
}

#[test]
fn server_and_router_surface_the_serving_form() {
    let cfg = smoke_budget(GroupScissorConfig::fast(ModelKind::LeNet));
    let (train, test) = cfg.datasets();
    let outcome = run_pipeline_on(&cfg, &train, &test).expect("pipeline must run");

    // Replica level: a replica reports its plan's form; the plan is shared
    // (one Arc) between the replica and the router registration below.
    let int8_plan = Arc::new(outcome.compiled_int8);
    let mut replica =
        Replica::start(Arc::clone(&int8_plan), ServeConfig::default(), Telemetry::default());
    assert_eq!(replica.serving_form(), ServingForm::Int8 { group_size: cfg.spec.max_cols() });
    let sample = test.images().gather(&[0]);
    let logits = replica.submit(&sample).expect("submit").wait();
    assert_eq!(logits.len(), 10);
    replica.shutdown();

    // Router: per-model stats carry each plan's form.
    let router = Router::new();
    router.register("lenet-f32", outcome.compiled, ModelConfig::default()).expect("register f32");
    router
        .register_shared("lenet-int8", int8_plan, ModelConfig::with_replicas(2))
        .expect("register int8");
    let f32_stats = router.model_stats("lenet-f32").expect("f32 stats");
    assert_eq!(f32_stats.form, ServingForm::F32);
    let int8_stats = router.model_stats("lenet-int8").expect("int8 stats");
    assert_eq!(int8_stats.form, ServingForm::Int8 { group_size: cfg.spec.max_cols() });

    // Both forms answer through the router front door.
    for model in ["lenet-f32", "lenet-int8"] {
        let logits = router.submit(model, &sample).expect("submit").wait();
        assert_eq!(logits.len(), 10, "{model} must answer");
    }
    router.shutdown();
}
