//! Observability tour: request tracing, per-step profiling and the
//! one-document JSON export, on a live routed workload.
//!
//! Builds the rank-clipped LeNet serving plan with per-step profiling
//! enabled, registers it on a [`Router`] with tracing on, runs an
//! open-loop burst, then prints:
//!
//! 1. the span log of one request's full lifecycle
//!    (`Queued → Batched → Executed` with clock timestamps);
//! 2. the per-step profile table — where inference time goes, and the
//!    working-set bytes each step touches at the served tile size;
//! 3. the metrics-registry table after the supervisor ran a few ticks;
//! 4. the whole `Router::observability_snapshot()` JSON document.
//!
//! ```text
//! cargo run --release --example observability
//! ```
//!
//! [`Router`]: group_scissor_repro::router::Router

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use group_scissor_repro::data::SynthOptions;
use group_scissor_repro::nn::CompiledNet;
use group_scissor_repro::pipeline::ModelKind;
use group_scissor_repro::router::control::{ControlConfig, Supervisor};
use group_scissor_repro::router::{ModelConfig, Router};

/// Builds the rank-clipped LeNet serving plan (paper Table 1 ranks).
fn clipped_lenet() -> Result<CompiledNet, Box<dyn std::error::Error>> {
    let model = ModelKind::LeNet;
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
    let plan = Arc::new(clipped_lenet()?);
    let profiler = plan.enable_profiling(); // or launch with GS_OBS_PROFILE=1

    let router = Arc::new(Router::new());
    router.enable_tracing(); // or launch with GS_OBS_TRACE=1
    router.register_shared("lenet", Arc::clone(&plan), ModelConfig::with_replicas(2))?;

    // Open-loop burst: submit everything, then redeem out of order.
    let images = ModelKind::LeNet.dataset(48, 1, SynthOptions::default()).images().clone();
    let tickets: Vec<_> =
        (0..48).map(|s| router.submit("lenet", &images.gather(&[s]))).collect::<Result<_, _>>()?;
    println!("== burst: 48 requests over 2 replicas ==");
    for t in tickets {
        let _ = t.wait();
    }

    // 1. One request's lifecycle from the span log.
    let spans = router.trace_log().spans();
    let first = spans.first().expect("tracing was on").trace;
    println!("\n== spans of request {first} ==");
    for s in spans.iter().filter(|s| s.trace == first) {
        println!(
            "  {:<9} @ {:>12} ns   replica {}  batch {:>2}  form {}",
            s.kind.label(),
            s.at_ns,
            s.replica,
            s.batch,
            s.form
        );
    }
    let log = router.trace_log();
    println!(
        "log: minted {}, recorded {}, dropped {} (cap {})",
        log.minted(),
        log.recorded(),
        log.dropped(),
        log.capacity()
    );

    // 2. Per-step profile: time and working set per compiled step.
    let snap = profiler.snapshot();
    println!(
        "\n== per-step profile ({} forwards, {} samples, last tile {}) ==",
        snap.forwards, snap.samples, snap.last_tile
    );
    println!(
        "  {:<10} {:<13} {:>6} {:>12} {:>12} {:>14}",
        "step", "kind", "calls", "mean ns", "max ns", "ws @ tile"
    );
    for s in &snap.steps {
        println!(
            "  {:<10} {:<13} {:>6} {:>12.0} {:>12} {:>14}",
            s.name,
            s.kind,
            s.calls,
            s.mean_ns(),
            s.max_ns,
            s.working_set_bytes(snap.last_tile)
        );
    }

    // 3. A few supervisor ticks, then the registry as a text table.
    let mut sup = Supervisor::new(Arc::clone(&router), ControlConfig::default());
    for _ in 0..3 {
        sup.tick();
    }
    router.calibrate_tiles("lenet", 2)?;
    println!("\n== metrics registry ==");
    println!("{}", router.registry().snapshot().render_table());

    // 4. The whole document.
    println!("== observability_snapshot() ==");
    println!("{}", router.observability_json());
    Ok(())
}
