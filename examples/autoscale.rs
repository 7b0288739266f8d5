//! Autoscaling demo: a [`Supervisor`] control loop watching one model on
//! a [`Router`], scaling replicas up under sustained overload and back
//! down when the traffic goes away.
//!
//! The script:
//!
//! 1. registers a rank-clipped LeNet plan with a single replica and a
//!    64-deep admission bound, then spawns the supervisor on its own
//!    thread (`ControlConfig::from_env()` picks up any `GS_CTRL_*`
//!    overrides; the literal fields below tighten the loop so the demo
//!    finishes in milliseconds);
//! 2. manufactures an overload: pauses the replica and pours in 96
//!    open-loop submissions — the backlog pins the queue at its high
//!    water and the overflow sheds, which the supervisor reads as an
//!    overloaded streak and answers with `ScaleUp` (and, once at the
//!    replica ceiling, `ResizeHighWater`);
//! 3. resumes, redeems every admitted ticket, and spot-checks the
//!    results bit-for-bit against direct compiled inference — scaling
//!    actions never touch correctness;
//! 4. idles until the supervisor walks the capacity back down, then
//!    prints the full decision log with reasons.
//!
//! ```text
//! cargo run --release --example autoscale
//! ```
//!
//! [`Router`]: group_scissor_repro::router::Router
//! [`Supervisor`]: group_scissor_repro::router::control::Supervisor

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use group_scissor_repro::data::SynthOptions;
use group_scissor_repro::nn::CompiledNet;
use group_scissor_repro::pipeline::ModelKind;
use group_scissor_repro::router::control::{ControlConfig, Supervisor};
use group_scissor_repro::router::{ModelConfig, Router, RouterError, ServeConfig};

/// Builds the rank-clipped serving plan (paper Table 1 ranks).
fn clipped_plan() -> Result<CompiledNet, Box<dyn std::error::Error>> {
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
    let plan = Arc::new(clipped_plan()?);
    let router = Arc::new(Router::new());
    router.register_shared(
        "lenet",
        Arc::clone(&plan),
        ModelConfig {
            replicas: 1,
            queue_high_water: 64,
            replica: ServeConfig {
                max_batch: 32,
                max_wait: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        },
    )?;

    // Env first (`GS_CTRL_*` overrides apply), then tighten the loop so
    // the whole demo plays out in tens of milliseconds.
    let cfg = ControlConfig {
        interval: Duration::from_millis(2),
        up_streak: 2,
        down_streak: 5,
        cooldown_ticks: 1,
        max_replicas: 3,
        // Warm-up calibration runs real timed forwards, which would eat
        // this demo's tight timeline — it is driven explicitly below.
        calibrate_rounds: 0,
        ..ControlConfig::from_env()
    };
    println!("supervisor config: {cfg:?}\n");
    let stop = Arc::new(AtomicBool::new(false));
    let supervisor = Supervisor::new(Arc::clone(&router), cfg).spawn(Arc::clone(&stop));

    // Overload: park the replica and pour in more than the admission
    // bound. The backlog pins the queue at its high water; the overflow
    // sheds. Both signals read as "overloaded" to the supervisor.
    let n = 96;
    let images = Arc::new(ModelKind::LeNet.dataset(n, 1, SynthOptions::default()).images().clone());
    router.pause("lenet")?;
    let mut admitted = Vec::new();
    let mut shed = 0usize;
    for s in 0..n {
        match router.submit("lenet", &images.gather(&[s])) {
            Ok(ticket) => admitted.push((s, ticket)),
            Err(RouterError::Overloaded { .. }) => shed += 1,
            Err(e) => return Err(e.into()),
        }
    }
    println!("burst: admitted {} / shed {shed} of {n} open-loop submissions", admitted.len());
    std::thread::sleep(Duration::from_millis(40)); // let the streak build
    println!("under overload: {} replica(s)", router.replica_count("lenet").expect("registered"));

    // Drain: every admitted ticket is delivered, and scaling never
    // changes a single output bit.
    router.resume("lenet")?;
    let mut scratch = plan.warm_scratch(1);
    for (s, ticket) in admitted {
        let got = ticket.wait();
        let want = plan.infer_into(&images.gather(&[s]), &mut scratch);
        assert_eq!(got.as_slice(), want.row(0), "sample {s} bit-equal through scaling");
    }
    println!("all admitted tickets delivered, bit-equal to direct inference");

    // Idle: with the backlog gone and no fresh traffic, the supervisor
    // walks the capacity back down to the floor.
    std::thread::sleep(Duration::from_millis(60));
    println!("after idle: {} replica(s)\n", router.replica_count("lenet").expect("registered"));

    stop.store(true, Ordering::Release);
    let supervisor = supervisor.join().expect("supervisor thread");
    println!("== decision log (non-heartbeat) ==");
    for d in supervisor.actions() {
        println!("  t={:>9}ns {:<18} {}", d.at_ns, format!("{:?}", d.action), d.reason);
    }
    // Measured-adaptive tiles: time 2-3 candidate tiles on the live plan
    // and install the winner (bitwise-invariant, so safe at any time).
    let cal = router.calibrate_tiles("lenet", 2)?;
    println!("\ntile calibration over batch {}:", cal.batch);
    for t in &cal.timings {
        println!(
            "  tile {:>3}: best {:>9}ns{}",
            t.tile,
            t.best_ns,
            if t.tile == cal.chosen { "  <- chosen" } else { "" }
        );
    }
    assert_eq!(plan.tile_override(), Some(cal.chosen));

    let stats = router.model_stats("lenet").expect("registered");
    println!(
        "\nlenet: {} reqs in {} batches (mean {:.1}), shed {}, p50 {:.2?} / p99 {:.2?}",
        stats.serve.requests,
        stats.serve.batches,
        stats.serve.mean_batch_size(),
        stats.shed,
        stats.serve.p50_latency(),
        stats.serve.p99_latency(),
    );
    router.shutdown();
    println!("router drained and shut down");
    Ok(())
}
