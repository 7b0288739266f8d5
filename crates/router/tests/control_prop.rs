//! Property tests for the routing and control-plane invariants:
//! replica selection never steers work at a paused replica while an
//! active one exists, the chosen replica's expected-completion score is
//! minimal, and the admission-bound resize actuator can never clamp below
//! the in-flight depth.

use proptest::prelude::*;

use std::time::Duration;

use scissor_nn::{NetworkBuilder, Tensor4};
use scissor_router::{select_replica, ModelConfig, ReplicaSnapshot, Router, ServeConfig};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn snapshot_strategy() -> impl Strategy<Value = Vec<ReplicaSnapshot>> {
    proptest::collection::vec(
        (0usize..50, 0u64..100_000, 0u64..2).prop_map(|(depth, ewma_service_ns, p)| {
            ReplicaSnapshot { depth, ewma_service_ns, paused: p == 1 }
        }),
        1..8,
    )
}

fn score(r: &ReplicaSnapshot) -> u128 {
    (r.depth as u128 + 1).saturating_mul(u128::from(r.ewma_service_ns.max(1)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The load-bearing safety property: a paused (draining/maintenance)
    /// replica never receives fresh traffic while any active replica
    /// exists — from any rotation origin.
    #[test]
    fn selection_never_picks_a_paused_replica_while_an_active_exists(
        snaps in snapshot_strategy(),
        start in 0usize..64,
    ) {
        let chosen = select_replica(start, &snaps).expect("non-empty");
        prop_assert!(chosen < snaps.len());
        if snaps.iter().any(|r| !r.paused) {
            prop_assert!(
                !snaps[chosen].paused,
                "picked paused replica {chosen} of {snaps:?}"
            );
        }
    }

    /// The chosen replica's score is minimal among the eligible set, and
    /// among minimal-score candidates its depth is minimal — the
    /// selector's stated contract, checked against a brute-force oracle.
    #[test]
    fn selection_score_is_minimal_over_eligible_replicas(
        snaps in snapshot_strategy(),
        start in 0usize..64,
    ) {
        let chosen = select_replica(start, &snaps).expect("non-empty");
        let any_active = snaps.iter().any(|r| !r.paused);
        let eligible = |r: &ReplicaSnapshot| !any_active || !r.paused;
        let best = snaps.iter().filter(|r| eligible(r)).map(score).min()
            .expect("at least one eligible");
        prop_assert_eq!(score(&snaps[chosen]), best);
        let min_depth_at_best = snaps
            .iter()
            .filter(|r| eligible(r) && score(r) == best)
            .map(|r| r.depth)
            .min()
            .expect("non-empty");
        prop_assert_eq!(snaps[chosen].depth, min_depth_at_best);
    }

    /// Rotation fairness: with identical replicas the rotating origin is
    /// honored exactly, so ties spread instead of piling onto replica 0.
    #[test]
    fn ties_follow_the_rotation_origin(n in 1usize..8, start in 0usize..64) {
        let snaps = vec![ReplicaSnapshot { depth: 3, ewma_service_ns: 500, paused: false }; n];
        prop_assert_eq!(select_replica(start, &snaps), Some(start % n));
    }

    /// Selection is total on non-empty input and `None` on empty input.
    #[test]
    fn selection_is_total(start in 0usize..64) {
        prop_assert_eq!(select_replica(start, &[]), None);
    }
}

fn tiny_plan() -> scissor_nn::CompiledNet {
    let mut rng = StdRng::seed_from_u64(5);
    NetworkBuilder::new((1, 4, 4))
        .conv("conv1", 2, 3, 1, 0, &mut rng)
        .relu()
        .linear("fc", 2, &mut rng)
        .build()
        .compile()
        .expect("compile")
}

fn sample(seed: usize) -> Tensor4 {
    Tensor4::from_vec(
        1,
        1,
        4,
        4,
        (0..16).map(|i| ((i * 3 + seed * 7) % 19) as f32 * 0.1 - 0.9).collect(),
    )
}

proptest! {
    // Each case spins up real batcher threads; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `ResizeHighWater` can never clamp the admission bound below the
    /// requests already in flight (or below 1): shrinking the bound must
    /// not retroactively shed admitted work.
    #[test]
    fn resize_high_water_never_clamps_below_inflight_depth(
        parked in 0usize..10,
        requested in 0usize..64,
    ) {
        let router = Router::new();
        let cfg = ModelConfig {
            replicas: 2,
            queue_high_water: 32,
            replica: ServeConfig {
                max_batch: 4,
                max_wait: Duration::ZERO,
                ..ServeConfig::default()
            },
        };
        router.register("m", tiny_plan(), cfg).unwrap();
        router.pause("m").unwrap();
        let _tickets: Vec<_> =
            (0..parked).map(|s| router.submit("m", &sample(s)).expect("admitted")).collect();

        let effective = router.set_high_water("m", requested).unwrap();
        prop_assert_eq!(effective, requested.max(parked).max(1));
        prop_assert!(effective >= parked, "bound below in-flight depth");
        prop_assert_eq!(router.model_stats("m").unwrap().queue_high_water, effective);
        router.resume("m").unwrap();
        router.shutdown();
    }
}

/// The all-paused fallback arm on a live router: when every replica is
/// paused, selection falls back to spreading least-loaded across all of
/// them instead of refusing to route (deterministic because nothing
/// drains while paused).
#[test]
fn live_router_spreads_evenly_when_every_replica_is_paused() {
    let router = Router::new();
    let cfg = ModelConfig {
        replicas: 2,
        queue_high_water: 1024,
        replica: ServeConfig { max_batch: 4, max_wait: Duration::ZERO, ..ServeConfig::default() },
    };
    router.register("m", tiny_plan(), cfg).unwrap();
    router.pause("m").unwrap();
    for s in 0..6 {
        router.submit("m", &sample(s)).unwrap();
    }
    assert_eq!(router.replica_queue_depths("m"), Some(vec![3, 3]), "all-paused fallback spreads");
    router.resume("m").unwrap();
    router.shutdown();
}
