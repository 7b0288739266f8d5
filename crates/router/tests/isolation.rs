//! Shedding-storm regression: an overload storm hammering one model must
//! not starve, shed, or destabilize a second healthy model on the same
//! router — per-model admission gates and per-model control state are
//! the isolation boundary.

use std::sync::Arc;
use std::time::Duration;

use scissor_nn::{CompiledNet, NetworkBuilder, Tensor4};
use scissor_router::control::{ControlConfig, ScalingAction, Supervisor};
use scissor_router::{ModelConfig, Router, RouterError, ServeConfig};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn plan(seed: u64) -> CompiledNet {
    let mut rng = StdRng::seed_from_u64(seed);
    NetworkBuilder::new((1, 5, 5))
        .conv("conv1", 2, 3, 1, 0, &mut rng)
        .relu()
        .linear("fc", 4, &mut rng)
        .build()
        .compile()
        .expect("compile")
}

fn sample(seed: usize) -> Tensor4 {
    Tensor4::from_vec(
        1,
        1,
        5,
        5,
        (0..25).map(|i| ((i * 13 + seed * 7) % 31) as f32 * 0.06 - 0.9).collect(),
    )
}

/// An overload storm against a capacity-starved model sheds there and
/// only there: the healthy neighbor admits and serves every one of its
/// own submissions bit-equal, with zero sheds.
#[test]
fn storm_on_one_model_does_not_shed_or_starve_the_other() {
    let healthy_plan = Arc::new(plan(1));
    let router = Arc::new(Router::new());
    // "noisy": one paused replica behind a 4-deep gate — every storm
    // submission beyond 4 bounces.
    router
        .register(
            "noisy",
            plan(2),
            ModelConfig {
                replicas: 1,
                queue_high_water: 4,
                replica: ServeConfig {
                    max_batch: 4,
                    max_wait: Duration::ZERO,
                    queue_cap: 4,
                    ..ServeConfig::default()
                },
            },
        )
        .unwrap();
    router.pause("noisy").unwrap();
    router
        .register_shared(
            "healthy",
            Arc::clone(&healthy_plan),
            ModelConfig {
                replicas: 2,
                queue_high_water: 4096,
                replica: ServeConfig {
                    max_batch: 8,
                    max_wait: Duration::from_micros(100),
                    ..ServeConfig::default()
                },
            },
        )
        .unwrap();

    // The storm: 4 threads bounce 200 submissions each off noisy's gate.
    let stormers: Vec<_> = (0..4)
        .map(|t| {
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                let mut shed = 0u32;
                for s in 0..200 {
                    if let Err(RouterError::Overloaded { .. }) =
                        router.submit("noisy", &sample(t * 1000 + s))
                    {
                        shed += 1;
                    }
                }
                shed
            })
        })
        .collect();

    // Meanwhile the healthy model's traffic must flow untouched.
    for s in 0..100 {
        let got = router.submit("healthy", &sample(s)).expect("healthy must admit").wait();
        assert_eq!(
            got.as_slice(),
            healthy_plan.infer(&sample(s)).as_slice(),
            "healthy sample {s} must be bit-equal mid-storm"
        );
    }

    let shed_by_storm: u32 = stormers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(shed_by_storm > 700, "the storm must actually have bounced: {shed_by_storm}");

    let healthy = router.model_stats("healthy").unwrap();
    assert_eq!(healthy.total_shed(), 0, "healthy model shed under a neighbor's storm");
    assert_eq!(healthy.serve.requests, 100, "every healthy request delivered");
    let noisy = router.model_stats("noisy").unwrap();
    assert_eq!(u32::try_from(noisy.total_shed()).unwrap(), shed_by_storm);
    assert!(noisy.serve.queue_depth <= 4, "noisy backlog stayed bounded");

    router.resume("noisy").unwrap();
    router.shutdown();
}

/// Control-plane isolation: the supervisor reacting to the noisy model's
/// storm (scale-up, admission resize) takes no action against the
/// healthy model — per-model streaks and cooldowns do not bleed across.
#[test]
fn supervisor_actions_stay_on_the_stormed_model() {
    let router = Arc::new(Router::new());
    for (name, hw) in [("noisy", 4usize), ("healthy", 4096)] {
        router
            .register(
                name,
                plan(3),
                ModelConfig {
                    replicas: 1,
                    queue_high_water: hw,
                    replica: ServeConfig {
                        max_batch: 8,
                        max_wait: Duration::ZERO,
                        queue_cap: hw,
                        ..ServeConfig::default()
                    },
                },
            )
            .unwrap();
    }
    router.pause("noisy").unwrap();
    let mut sup = Supervisor::new(
        Arc::clone(&router),
        ControlConfig {
            up_streak: 2,
            down_streak: 1_000_000, // never walk anything down in this test
            cooldown_ticks: 0,
            pressure_pct: 80,
            max_replicas: 3,
            min_replicas: 1,
            calibrate_rounds: 0,
            ..ControlConfig::default()
        },
    );

    // Storm noisy past its gate; trickle healthy traffic between ticks.
    for round in 0..6 {
        for s in 0..8 {
            let _ = router.submit("noisy", &sample(round * 10 + s));
        }
        let got = router.submit("healthy", &sample(round)).expect("healthy admits").wait();
        assert_eq!(got.len(), 4);
        sup.tick();
    }

    let actions = sup.actions();
    assert!(!actions.is_empty(), "the storm must provoke the supervisor");
    assert!(
        actions.iter().all(|d| d.model == "noisy"),
        "supervisor acted on the healthy model: {actions:?}"
    );
    assert!(
        actions.iter().any(|d| d.action == ScalingAction::ScaleUp),
        "sustained storm should add noisy capacity: {actions:?}"
    );
    assert_eq!(router.model_stats("healthy").unwrap().total_shed(), 0);
    assert_eq!(router.replica_count("healthy"), Some(1), "healthy capacity untouched");

    router.resume("noisy").unwrap();
    router.shutdown();
}
