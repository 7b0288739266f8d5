//! Deterministic control-plane simulation: scripted load profiles driven
//! entirely on a [`VirtualClock`], asserting the *exact* sequence of
//! supervisor decisions.
//!
//! Determinism strategy (the convention these suites share): replicas are
//! **paused** while a profile builds queue state — depths are then exact,
//! not a race against the batchers — and `max_wait: Duration::ZERO` means
//! drains flush whatever is queued the moment a batcher looks. All
//! latency/EWMA accounting flows through the virtual clock (frozen unless
//! the script advances it), and the supervisor's policy is a pure
//! function of observations, so every tick's decision is reproducible.
//! No `thread::sleep` anywhere; the only waiting is a yield-spin on a
//! drain that is already in flight.

use std::sync::Arc;
use std::time::Duration;

use scissor_nn::{NetworkBuilder, Tensor4};
use scissor_router::control::{ControlConfig, ScalingAction, Supervisor};
use scissor_router::{Clock, ModelConfig, Router, ServeConfig, VirtualClock};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_plan(seed: u64) -> scissor_nn::CompiledNet {
    let mut rng = StdRng::seed_from_u64(seed);
    NetworkBuilder::new((1, 4, 4))
        .conv("conv1", 2, 3, 1, 0, &mut rng)
        .relu()
        .linear("fc", 3, &mut rng)
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
        (0..16).map(|i| ((i * 7 + seed * 13) % 23) as f32 * 0.1 - 1.0).collect(),
    )
}

/// The sim's policy knobs: tight streaks so profiles stay short, one
/// cooldown tick, calibration off (it measures real wall time).
fn sim_config() -> ControlConfig {
    ControlConfig {
        up_streak: 2,
        down_streak: 3,
        cooldown_ticks: 1,
        pressure_pct: 50,
        max_replicas: 2,
        min_replicas: 1,
        drift_pct: 300,
        calibrate_rounds: 0,
        ..ControlConfig::default()
    }
}

fn paused_model(router: &Router, model: &str, replicas: usize, high_water: usize) {
    let cfg = ModelConfig {
        replicas,
        queue_high_water: high_water,
        replica: ServeConfig {
            max_batch: 8,
            max_wait: Duration::ZERO,
            queue_cap: high_water,
            ..ServeConfig::default()
        },
    };
    router.register(model, tiny_plan(11), cfg).unwrap();
    router.pause(model).unwrap();
}

fn drain(router: &Router, model: &str) {
    router.resume(model).unwrap();
    let mut spins = 0u64;
    while router.queue_depth(model).unwrap() > 0 {
        std::thread::yield_now();
        spins += 1;
        assert!(spins < 100_000_000, "queue must drain");
    }
}

/// Burst profile: a backlog parks above the pressure threshold, the
/// supervisor scales up, hits the replica ceiling, widens admission;
/// after the burst drains it scales back down and restores the original
/// bound. Every tick's action is asserted, in order.
#[test]
fn burst_profile_emits_the_exact_decision_sequence() {
    let clock = VirtualClock::shared();
    let router = Arc::new(Router::with_clock(clock.clone()));
    paused_model(&router, "m", 1, 8);
    let mut sup = Supervisor::new(Arc::clone(&router), sim_config());

    // Park 4 requests: 4/8 = 50% ≥ pressure 50% → overloaded.
    let tickets: Vec<_> = (0..4).map(|s| router.submit("m", &sample(s)).unwrap()).collect();

    let mut actions = Vec::new();
    let tick = |sup: &mut Supervisor, actions: &mut Vec<ScalingAction>| {
        clock.advance(Duration::from_millis(1));
        let decisions = sup.tick();
        assert_eq!(decisions.len(), 1, "one model → one decision per tick");
        actions.push(decisions[0].action.clone());
    };

    for _ in 0..6 {
        tick(&mut sup, &mut actions);
    }
    assert_eq!(
        actions,
        vec![
            ScalingAction::NoAction,                           // overload streak 1 of 2
            ScalingAction::ScaleUp,                            // streak hit → add replica
            ScalingAction::NoAction,                           // cooldown
            ScalingAction::ResizeHighWater { high_water: 12 }, // streak again, at ceiling
            ScalingAction::NoAction,                           // cooldown; 4/12 < 50% now
            ScalingAction::NoAction,                           // steady
        ],
    );
    assert_eq!(router.replica_count("m"), Some(2), "scale-up actuated");
    assert_eq!(router.model_stats("m").unwrap().queue_high_water, 12, "resize actuated");

    // The burst ends: drain, then watch the supervisor walk capacity back.
    drain(&router, "m");
    for t in tickets {
        assert_eq!(t.wait().len(), 3, "parked tickets all delivered by the drain");
    }
    let mut actions = Vec::new();
    for _ in 0..9 {
        tick(&mut sup, &mut actions);
    }
    assert_eq!(
        actions,
        vec![
            ScalingAction::NoAction, // delivery counters moved: healthy, not idle
            ScalingAction::NoAction, // idle streak 1 of 3
            ScalingAction::NoAction, // idle streak 2 of 3
            ScalingAction::ScaleDown,
            ScalingAction::NoAction,                          // cooldown
            ScalingAction::NoAction,                          // idle streak 2 of 3
            ScalingAction::ResizeHighWater { high_water: 8 }, // restore base bound
            ScalingAction::NoAction,                          // cooldown
            ScalingAction::NoAction, // idle at floor and base: converged, no flap
        ],
    );
    assert_eq!(router.replica_count("m"), Some(1));
    assert_eq!(router.model_stats("m").unwrap().queue_high_water, 8);

    // The decision log is timestamped on virtual time, strictly
    // increasing because the script advanced the clock before each tick.
    let stamps: Vec<u64> = sup.decisions().iter().map(|d| d.at_ns).collect();
    assert!(stamps.windows(2).all(|w| w[0] < w[1]), "virtual timestamps must increase");
    assert_eq!(stamps.len(), 15);
    assert_eq!(*stamps.last().unwrap(), clock.now_ns());
    router.shutdown();
}

/// Ramp profile: pressure that approaches the threshold from below never
/// triggers anything (hysteresis); only a *sustained* crossing does, and
/// exactly once.
#[test]
fn ramp_crosses_the_threshold_only_on_sustained_pressure() {
    let router = Arc::new(Router::with_clock(VirtualClock::shared()));
    paused_model(&router, "m", 1, 100);
    let mut sup = Supervisor::new(
        Arc::clone(&router),
        ControlConfig { pressure_pct: 80, cooldown_ticks: 0, ..sim_config() },
    );

    // Ramp: 40 → 60 → 79 pending, all below 80% of 100.
    let mut submitted = 0;
    for target in [40usize, 60, 79] {
        while submitted < target {
            router.submit("m", &sample(submitted)).unwrap();
            submitted += 1;
        }
        let d = sup.tick();
        assert_eq!(d[0].action, ScalingAction::NoAction, "below threshold: {}", d[0].reason);
    }

    // Cross it: 80 pending. One tick builds the streak, the second acts.
    router.submit("m", &sample(submitted)).unwrap();
    assert_eq!(sup.tick()[0].action, ScalingAction::NoAction);
    let d = sup.tick();
    assert_eq!(d[0].action, ScalingAction::ScaleUp);
    assert!(d[0].reason.contains("overloaded 2 consecutive ticks"), "{}", d[0].reason);
    assert_eq!(sup.actions().len(), 1, "exactly one actuation across the whole ramp");

    drain(&router, "m");
    router.shutdown();
}

/// Idle profile: a model that never sees traffic is walked down to the
/// replica floor once and then left alone forever — no flapping.
#[test]
fn idle_profile_converges_to_the_floor_without_flapping() {
    let router = Arc::new(Router::with_clock(VirtualClock::shared()));
    paused_model(&router, "m", 2, 64);
    let mut sup = Supervisor::new(Arc::clone(&router), sim_config());

    for _ in 0..12 {
        sup.tick();
    }
    let actions: Vec<_> = sup.actions().iter().map(|d| d.action.clone()).collect();
    assert_eq!(actions, vec![ScalingAction::ScaleDown], "one walk-down, then converged");
    assert_eq!(router.replica_count("m"), Some(1));
    router.shutdown();
}

/// Shed-triggered overload: a storm that bounces off the admission gate
/// counts as overload through the shed delta even while the queue itself
/// stays shallow — and a consumed delta is not re-counted.
#[test]
fn shed_delta_drives_scale_up_without_queue_pressure() {
    let router = Arc::new(Router::with_clock(VirtualClock::shared()));
    // Wide admission bound (never pressured) but a tiny per-replica cap:
    // overload shows up *only* as replica-level sheds, never as depth.
    let cfg = ModelConfig {
        replicas: 1,
        queue_high_water: 100,
        replica: ServeConfig {
            max_batch: 8,
            max_wait: Duration::ZERO,
            queue_cap: 2,
            ..ServeConfig::default()
        },
    };
    router.register("m", tiny_plan(11), cfg).unwrap();
    router.pause("m").unwrap();
    let mut sup = Supervisor::new(
        Arc::clone(&router),
        ControlConfig { pressure_pct: 100, cooldown_ticks: 0, ..sim_config() },
    );
    sup.tick(); // baseline tick: records cumulative counters

    // Fill the replica cap, then bounce 3 submissions off it.
    let tickets: Vec<_> = (0..2).map(|s| router.submit("m", &sample(s)).unwrap()).collect();
    for s in 0..3 {
        assert!(router.submit("m", &sample(s)).is_err(), "beyond the cap: shed");
    }
    assert_eq!(sup.tick()[0].action, ScalingAction::NoAction); // shed streak 1 of 2
    for s in 0..3 {
        assert!(router.submit("m", &sample(s)).is_err(), "still shedding");
    }
    let d = sup.tick();
    assert_eq!(d[0].action, ScalingAction::ScaleUp, "{}", d[0].reason);
    assert!(d[0].reason.contains("shed +"), "{}", d[0].reason);
    assert_eq!(router.queue_depth("m"), Some(2), "depth 2/100 never pressured the gate");

    // The consumed shed delta is not re-counted: no new sheds → calm.
    assert_eq!(sup.tick()[0].action, ScalingAction::NoAction);
    drain(&router, "m");
    for t in tickets {
        assert_eq!(t.wait().len(), 3);
    }
    router.shutdown();
}

/// Multi-model ticks observe models in sorted id order, every tick, so
/// interleaved decision logs are reproducible run to run.
#[test]
fn multi_model_ticks_are_deterministically_ordered() {
    let router = Arc::new(Router::with_clock(VirtualClock::shared()));
    paused_model(&router, "zeta", 1, 16);
    paused_model(&router, "alpha", 1, 16);
    let mut sup = Supervisor::new(Arc::clone(&router), sim_config());
    for _ in 0..3 {
        let d = sup.tick();
        let order: Vec<&str> = d.iter().map(|x| x.model.as_str()).collect();
        assert_eq!(order, vec!["alpha", "zeta"]);
    }
    router.shutdown();
}
