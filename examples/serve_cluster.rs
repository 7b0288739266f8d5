//! Serve cluster: two compiled models × two replicas behind the
//! `scissor_router` front door, driven by open-loop traffic with
//! deliberate overload.
//!
//! Builds rank-clipped LeNet and ConvNet plans (paper Table 1 ranks,
//! random weights — the serving data flow is identical to trained
//! checkpoints), registers both on a [`Router`], then:
//!
//! 1. sprays async (non-blocking) requests at both models from several
//!    caller threads, redeeming tickets out of order;
//! 2. verifies a routed subset bit-for-bit against direct compiled passes;
//! 3. demonstrates backpressure: a paused model with a small admission
//!    bound sheds the overflow with `RouterError::Overloaded` instead of
//!    letting the backlog grow;
//! 4. drains everything on shutdown and prints the per-model stats
//!    (batches, queue depth, shed count, latency percentiles).
//!
//! ```text
//! cargo run --release --example serve_cluster
//! ```
//!
//! [`Router`]: group_scissor_repro::router::Router

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use group_scissor_repro::data::SynthOptions;
use group_scissor_repro::nn::CompiledNet;
use group_scissor_repro::pipeline::ModelKind;
use group_scissor_repro::router::{ModelConfig, Router, RouterError, ServeConfig};

/// Builds the rank-clipped serving plan for a model (paper Table 1 ranks).
fn clipped_plan(model: ModelKind) -> Result<CompiledNet, Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut net = model.build(&mut rng);
    let ranks: Vec<(String, usize)> =
        model.paper_clipped_ranks().into_iter().map(|(n, k)| (n.to_string(), k)).collect();
    group_scissor_repro::lra::direct_lra(
        &mut net,
        &ranks,
        group_scissor_repro::lra::LraMethod::Pca,
    )?;
    Ok(net.compile()?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lenet = Arc::new(clipped_plan(ModelKind::LeNet)?);
    let convnet = Arc::new(clipped_plan(ModelKind::ConvNet)?);
    println!("lenet plan:   {lenet:?}");
    println!("convnet plan: {convnet:?}");

    let router = Arc::new(Router::new());
    let cfg = ModelConfig {
        replicas: 2,
        queue_high_water: 256,
        replica: ServeConfig {
            max_batch: 32,
            max_wait: Duration::from_millis(2),
            ..ServeConfig::default()
        },
    };
    router.register_shared("lenet", Arc::clone(&lenet), cfg)?;
    router.register_shared("convnet", Arc::clone(&convnet), cfg)?;
    println!("router: {router:?}\n");

    // Open-loop traffic: 4 callers × 64 requests per model, tickets
    // redeemed after both submissions (submit never blocks).
    let n = 256;
    let mnist = Arc::new(ModelKind::LeNet.dataset(n, 1, SynthOptions::default()).images().clone());
    let cifar =
        Arc::new(ModelKind::ConvNet.dataset(n, 2, SynthOptions::default()).images().clone());
    let callers = 4;
    let start = Instant::now();
    let handles: Vec<_> = (0..callers)
        .map(|t| {
            let router = Arc::clone(&router);
            let mnist = Arc::clone(&mnist);
            let cifar = Arc::clone(&cifar);
            std::thread::spawn(move || {
                let mut results = Vec::new();
                for s in (t..n).step_by(callers) {
                    let ta = router.submit("lenet", &mnist.gather(&[s])).expect("lenet admit");
                    let tb = router.submit("convnet", &cifar.gather(&[s])).expect("convnet admit");
                    results.push((s, ta.wait(), tb.wait()));
                }
                results
            })
        })
        .collect();
    let mut served = Vec::new();
    for h in handles {
        served.extend(h.join().expect("caller thread"));
    }
    let elapsed = start.elapsed();
    println!(
        "routed {} requests (2 models × {n} samples) in {elapsed:.2?} ({:.0} requests/s)",
        2 * n,
        (2 * n) as f64 / elapsed.as_secs_f64()
    );

    // Spot-check bit-equality against direct compiled passes.
    let mut scratch_a = lenet.warm_scratch(1);
    let mut scratch_b = convnet.warm_scratch(1);
    for (s, got_a, got_b) in &served {
        let want_a = lenet.infer_into(&mnist.gather(&[*s]), &mut scratch_a);
        assert_eq!(got_a.as_slice(), want_a.row(0), "lenet sample {s}");
        let want_b = convnet.infer_into(&cifar.gather(&[*s]), &mut scratch_b);
        assert_eq!(got_b.as_slice(), want_b.row(0), "convnet sample {s}");
    }
    println!("all routed logits bitwise identical to direct compiled inference\n");

    // Backpressure demo: bound a third registration tightly, pause its
    // replicas, and pour requests in until the admission gate sheds.
    router.register_shared(
        "lenet-canary",
        Arc::clone(&lenet),
        ModelConfig { replicas: 1, queue_high_water: 8, ..ModelConfig::default() },
    )?;
    router.pause("lenet-canary")?;
    let mut admitted = Vec::new();
    let mut shed = 0usize;
    for s in 0..32 {
        match router.submit("lenet-canary", &mnist.gather(&[s])) {
            Ok(ticket) => admitted.push(ticket),
            Err(RouterError::Overloaded { depth, high_water, .. }) => {
                if shed == 0 {
                    println!(
                        "canary shed begins at depth {depth} (high water {high_water}): \
                         RouterError::Overloaded"
                    );
                }
                shed += 1;
            }
            Err(e) => return Err(e.into()),
        }
    }
    println!("canary admitted {} / shed {shed} of 32 open-loop submissions", admitted.len());
    router.resume("lenet-canary")?;
    for t in admitted {
        t.wait(); // every admitted ticket is still delivered
    }
    println!("every admitted canary ticket delivered after resume\n");

    println!("== per-model stats ==");
    for (name, s) in router.stats() {
        println!(
            "{name:>14}: {} reqs in {} batches (mean {:.1}), shed {}, depth {}",
            s.serve.requests,
            s.serve.batches,
            s.serve.mean_batch_size(),
            s.shed,
            s.serve.queue_depth,
        );
        println!(
            "{:>14}  latency p50 {:.2?} / p95 {:.2?} / p99 {:.2?} / max {:.2?}; \
             infer throughput {:.0} samples/s",
            "",
            s.serve.p50_latency(),
            s.serve.p95_latency(),
            s.serve.p99_latency(),
            s.serve.max_latency(),
            s.serve.infer_throughput()
        );
    }

    // Graceful drain: stops admission, delivers anything still queued,
    // joins every batcher thread (shutdown takes &self, so it works
    // through the Arc the caller threads shared).
    router.shutdown();
    println!("\nrouter drained and shut down");
    Ok(())
}
