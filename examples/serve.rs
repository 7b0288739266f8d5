//! Serve: batched inference over a compiled compressed network.
//!
//! Builds a rank-clipped LeNet (paper Table 1 ranks, random weights — the
//! serving data flow is identical to a trained checkpoint), freezes it into
//! a [`CompiledNet`], then contrasts three ways of answering the same 256
//! single-sample requests:
//!
//! 1. the training container's per-sample eval loop,
//! 2. a direct `CompiledNet` batch pass,
//! 3. concurrent callers through the `scissor_serve` micro-batcher.
//!
//! ```text
//! cargo run --release --example serve
//! ```
//!
//! [`CompiledNet`]: group_scissor_repro::nn::CompiledNet

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use group_scissor_repro::data::SynthOptions;
use group_scissor_repro::nn::{InferScratch, Phase};
use group_scissor_repro::pipeline::ModelKind;
use group_scissor_repro::serve::{Replica, ServeConfig, Telemetry};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = ModelKind::LeNet;
    let mut rng = StdRng::seed_from_u64(7);
    let mut net = model.build(&mut rng);

    // Compress to the paper's clipped ranks (random weights; the plan's
    // structure — two crossbars per clipped layer — is what matters here).
    let ranks: Vec<(String, usize)> =
        model.paper_clipped_ranks().into_iter().map(|(n, k)| (n.to_string(), k)).collect();
    group_scissor_repro::lra::direct_lra(
        &mut net,
        &ranks,
        group_scissor_repro::lra::LraMethod::Pca,
    )?;
    let plan = net.compile()?;
    println!("serving plan: {plan:?}");

    // 256 requests' worth of synthetic MNIST.
    let n = 256;
    let data = model.dataset(n, 1, SynthOptions::default());
    let images = data.images();

    // 1. Per-sample eval loop through the training container.
    let start = Instant::now();
    let mut per_sample_logits = Vec::with_capacity(n);
    for s in 0..n {
        let x = images.gather(&[s]);
        per_sample_logits.push(net.forward(&x, Phase::Eval));
    }
    let per_sample = start.elapsed();
    println!(
        "per-sample eval loop:   {per_sample:>10.2?}  ({:.0} samples/s)",
        n as f64 / per_sample.as_secs_f64()
    );

    // 2. Direct compiled batch passes at batch 32.
    let mut scratch = InferScratch::new();
    let batch = 32;
    let start = Instant::now();
    let mut batched_logits: Vec<f32> = Vec::with_capacity(n * 10);
    let mut s0 = 0;
    while s0 < n {
        let idx: Vec<usize> = (s0..(s0 + batch).min(n)).collect();
        let chunk = images.gather(&idx);
        batched_logits.extend_from_slice(plan.infer_into(&chunk, &mut scratch).as_slice());
        s0 += batch;
    }
    let batched = start.elapsed();
    println!(
        "compiled batch-{batch} pass: {batched:>10.2?}  ({:.0} samples/s, {:.2}x)",
        n as f64 / batched.as_secs_f64(),
        per_sample.as_secs_f64() / batched.as_secs_f64()
    );

    // The batched logits are bitwise identical to the per-sample loop.
    let flat_per_sample: Vec<f32> =
        per_sample_logits.iter().flat_map(|t| t.as_slice().to_vec()).collect();
    assert_eq!(flat_per_sample, batched_logits, "serving must not change a single bit");

    // 3. Concurrent callers through the micro-batching replica.
    let replica = Arc::new(Replica::start(
        Arc::new(net.compile()?),
        ServeConfig {
            max_batch: batch,
            max_wait: Duration::from_millis(2),
            workers: 1,
            ..ServeConfig::default()
        },
        Telemetry::default(),
    ));
    let callers = 8;
    let start = Instant::now();
    let handles: Vec<_> = (0..callers)
        .map(|t| {
            let replica = Arc::clone(&replica);
            let images = images.clone();
            std::thread::spawn(move || {
                for s in (t..n).step_by(callers) {
                    let sample = images.gather(&[s]);
                    replica.submit(&sample).expect("serve").wait();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("caller thread");
    }
    let served = start.elapsed();
    let stats = replica.stats();
    println!(
        "micro-batched serving:  {served:>10.2?}  ({:.0} samples/s end-to-end)",
        n as f64 / served.as_secs_f64()
    );
    println!(
        "  {} requests in {} batches (mean batch {:.1}, {} full / {} timeout)",
        stats.requests,
        stats.batches,
        stats.mean_batch_size(),
        stats.full_batches,
        stats.timeout_batches()
    );
    println!(
        "  latency mean {:.2?} / p50 {:.2?} / p95 {:.2?} / p99 {:.2?} / max {:.2?}",
        stats.mean_latency(),
        stats.p50_latency(),
        stats.p95_latency(),
        stats.p99_latency(),
        stats.max_latency()
    );
    println!("  inference throughput {:.0} samples/s", stats.infer_throughput());
    Ok(())
}
