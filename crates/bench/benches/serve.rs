//! Serving throughput: per-sample eval loop vs compiled batch pass vs the
//! micro-batching replica, on the rank-clipped LeNet (paper Table 1 ranks).
//!
//! The acceptance shape: one batch-32 compiled pass must clearly beat 32
//! single-sample forwards through the training container — batch rows are
//! what feed the matmul micro-kernel's 4-row register tiles (a batch-1
//! fully-connected layer runs the scalar row-remainder path).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use rand::rngs::StdRng;
use rand::SeedableRng;

use group_scissor::ModelKind;
use scissor_data::SynthOptions;
use scissor_nn::{InferScratch, Network, Phase, Tensor4, TileConfig};
use scissor_serve::{Replica, ServeConfig, Telemetry};

const BATCH: usize = 32;

fn clipped_lenet() -> Network {
    let model = ModelKind::LeNet;
    let mut rng = StdRng::seed_from_u64(7);
    let mut net = model.build(&mut rng);
    let ranks: Vec<(String, usize)> =
        model.paper_clipped_ranks().into_iter().map(|(n, k)| (n.to_string(), k)).collect();
    scissor_lra::direct_lra(&mut net, &ranks, scissor_lra::LraMethod::Pca).expect("direct lra");
    net
}

fn batch_images() -> Tensor4 {
    ModelKind::LeNet.dataset(BATCH, 1, SynthOptions::default()).images().clone()
}

fn bench_serving(c: &mut Criterion) {
    let mut net = clipped_lenet();
    let plan = net.compile().expect("compile");
    let images = batch_images();
    let singles: Vec<Tensor4> = (0..BATCH).map(|s| images.gather(&[s])).collect();

    let mut g = c.benchmark_group("serve");
    g.sample_size(15);

    // Baseline: 32 single-sample forwards through the training container.
    g.bench_function("net_per_sample_loop_32", |bench| {
        bench.iter(|| {
            for x in &singles {
                criterion::black_box(net.forward(x, Phase::Eval));
            }
        });
    });

    // Same 32 samples, one compiled allocation-free batch pass.
    let mut scratch = InferScratch::new();
    g.bench_function("compiled_batch_pass_32", |bench| {
        bench
            .iter(|| criterion::black_box(plan.infer_into(&images, &mut scratch).as_slice().len()));
    });

    // Compiled plan driven one sample at a time (isolates batching from
    // the plan's own overhead savings).
    g.bench_function("compiled_per_sample_loop_32", |bench| {
        bench.iter(|| {
            for x in &singles {
                criterion::black_box(plan.infer_into(x, &mut scratch).as_slice().len());
            }
        });
    });
    g.finish();
}

/// The cache-tiling sweep: the same batch-32 compiled pass executed in
/// sub-batches of 1/4/8/16/32 plus the explicitly-untiled and the
/// auto-planned tile — the locality win (or its absence on a big-LLC
/// host) is measured, not asserted.
fn bench_tile_sweep(c: &mut Criterion) {
    let net = clipped_lenet();
    let mut plan = net.compile().expect("compile");
    let images = batch_images();

    let auto = TileConfig::auto();
    plan.set_tile_config(auto);
    eprintln!(
        "[tile] auto budget {} KiB → tile {} for batch {}; working set: untiled {} KiB, \
         auto-tiled {} KiB",
        auto.budget_bytes / 1024,
        plan.plan_tile(BATCH),
        BATCH,
        plan.working_set_bytes(BATCH) / 1024,
        plan.working_set_bytes(plan.plan_tile(BATCH)) / 1024,
    );

    let mut g = c.benchmark_group("serve_tile_sweep");
    g.sample_size(15);
    for tile in [1usize, 4, 8, 16, 32] {
        plan.set_tile_config(TileConfig::fixed(tile));
        let mut scratch = plan.warm_scratch(BATCH);
        g.bench_function(&format!("batch32_tile_{tile}"), |bench| {
            bench.iter(|| {
                criterion::black_box(plan.infer_into(&images, &mut scratch).as_slice().len())
            });
        });
    }
    plan.set_tile_config(TileConfig::untiled());
    let mut scratch = plan.warm_scratch(BATCH);
    g.bench_function("batch32_untiled", |bench| {
        bench
            .iter(|| criterion::black_box(plan.infer_into(&images, &mut scratch).as_slice().len()));
    });
    plan.set_tile_config(auto);
    let auto_tile = plan.plan_tile(BATCH);
    let mut scratch = plan.warm_scratch(BATCH);
    g.bench_function(&format!("batch32_auto_tile_{auto_tile}"), |bench| {
        bench
            .iter(|| criterion::black_box(plan.infer_into(&images, &mut scratch).as_slice().len()));
    });
    g.finish();
}

/// Serving-form sweep: the same batch-32 compiled pass in f32 vs int8
/// group-quantized form (group 64 = the crossbar column count the
/// pipeline exports with). The int8 pass moves 4× fewer weight bytes
/// through the cache per tile; the resident-bytes reduction is printed
/// alongside the timings.
fn bench_quant_forms(c: &mut Criterion) {
    let net = clipped_lenet();
    let f32_plan = net.compile().expect("compile");
    let int8_plan = net.compile_quantized(64).expect("compile int8");
    let images = batch_images();

    eprintln!(
        "[quant] resident weight bytes: f32 {} → int8 {} ({:.2}× smaller)",
        f32_plan.resident_weight_bytes(),
        int8_plan.resident_weight_bytes(),
        f32_plan.resident_weight_bytes() as f64 / int8_plan.resident_weight_bytes() as f64,
    );

    let mut g = c.benchmark_group("serve_quant");
    g.sample_size(15);
    let mut scratch = f32_plan.warm_scratch(BATCH);
    g.bench_function("batch32_f32", |bench| {
        bench.iter(|| {
            criterion::black_box(f32_plan.infer_into(&images, &mut scratch).as_slice().len())
        });
    });
    let mut scratch = int8_plan.warm_scratch(BATCH);
    g.bench_function("batch32_int8_g64", |bench| {
        bench.iter(|| {
            criterion::black_box(int8_plan.infer_into(&images, &mut scratch).as_slice().len())
        });
    });
    g.finish();
}

fn bench_replica_end_to_end(c: &mut Criterion) {
    let net = clipped_lenet();
    let images = batch_images();
    let singles: Arc<Vec<Tensor4>> = Arc::new((0..BATCH).map(|s| images.gather(&[s])).collect());

    let mut g = c.benchmark_group("serve_end_to_end");
    g.sample_size(10);

    // 4 caller threads push 32 requests through the micro-batcher.
    let replica = Arc::new(Replica::start(
        Arc::new(net.compile().expect("compile")),
        ServeConfig {
            max_batch: BATCH,
            max_wait: Duration::from_micros(500),
            workers: 1,
            ..ServeConfig::default()
        },
        Telemetry::default(),
    ));
    g.bench_function("replica_32_requests_4_callers", |bench| {
        bench.iter(|| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let replica = Arc::clone(&replica);
                    let singles = Arc::clone(&singles);
                    std::thread::spawn(move || {
                        for x in singles.iter().skip(t).step_by(4) {
                            criterion::black_box(replica.submit(x).expect("serve").wait());
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("caller");
            }
        });
    });
    g.finish();

    let stats = replica.stats();
    eprintln!(
        "[serve] {} requests, {} batches (mean {:.1}, {} full), latency mean {:.2?} max {:.2?}, \
         inference throughput {:.0} samples/s",
        stats.requests,
        stats.batches,
        stats.mean_batch_size(),
        stats.full_batches,
        stats.mean_latency(),
        stats.max_latency(),
        stats.infer_throughput()
    );
}

criterion_group!(
    benches,
    bench_serving,
    bench_tile_sweep,
    bench_quant_forms,
    bench_replica_end_to_end
);
criterion_main!(benches);
