//! Fault injection for the scale-down teardown path: tearing a replica
//! out from under live traffic (or a paused backlog) must lose no
//! admitted ticket, and every ticket must still resolve **bit-equal** to
//! a direct `CompiledNet::infer` over the same sample.
//!
//! Also holds the missed-wakeup regression for `Ticket::wait`: the
//! rendezvous is fill-under-lock + notify-before-unlock on the slot
//! mutex, so a waiter is either already parked in `Condvar::wait` (and
//! receives the notify) or has yet to acquire the lock (and observes
//! `Ready` before parking). The stress tests here race hundreds of
//! waiters against fulfilment — including fulfilment via the
//! reroute-after-teardown path — to pin that invariant down.

use std::sync::Arc;
use std::time::Duration;

use scissor_nn::{CompiledNet, NetworkBuilder, Tensor4};
use scissor_router::{ModelConfig, Router, RouterError, ServeConfig, Ticket};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn plan() -> CompiledNet {
    let mut rng = StdRng::seed_from_u64(99);
    NetworkBuilder::new((1, 6, 6))
        .conv("conv1", 3, 3, 1, 0, &mut rng)
        .relu()
        .linear("fc", 5, &mut rng)
        .build()
        .compile()
        .expect("compile")
}

fn sample(seed: usize) -> Tensor4 {
    Tensor4::from_vec(
        1,
        1,
        6,
        6,
        (0..36).map(|i| ((i * 11 + seed * 17) % 29) as f32 * 0.07 - 1.0).collect(),
    )
}

fn busy_config(replicas: usize) -> ModelConfig {
    ModelConfig {
        replicas,
        queue_high_water: 100_000,
        replica: ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(100),
            ..ServeConfig::default()
        },
    }
}

/// Teardown under live fire: replicas are repeatedly removed and added
/// while submissions stream in. Every admitted ticket resolves, bit-equal
/// to the reference forward, and nothing is shed.
#[test]
fn scale_down_mid_traffic_loses_no_ticket() {
    let reference = Arc::new(plan());
    let router = Arc::new(Router::new());
    router.register_shared("m", Arc::clone(&reference), busy_config(3)).unwrap();

    let mut tickets: Vec<(usize, Ticket)> = Vec::new();
    for s in 0..300 {
        tickets.push((s, router.submit("m", &sample(s)).expect("admitted")));
        // Churn the replica set in the middle of the stream: two
        // teardowns and two scale-ups, at staggered points.
        match s {
            75 | 150 => {
                router.scale_down("m").unwrap();
            }
            110 | 220 => {
                router.scale_up("m").unwrap();
            }
            _ => {}
        }
    }
    assert_eq!(router.replica_count("m"), Some(3));

    for (s, t) in tickets {
        assert_eq!(
            t.wait().as_slice(),
            reference.infer(&sample(s)).as_slice(),
            "sample {s} must be bit-equal through teardown churn"
        );
    }
    let stats = router.model_stats("m").unwrap();
    assert_eq!(stats.total_shed(), 0, "admitted-once means never shed");
    assert_eq!(stats.serve.requests, 300, "every request delivered exactly once");
    router.shutdown();
}

/// Teardown during a pause: the victim's parked backlog is rerouted into
/// the surviving (still paused) replicas with nothing lost, queue caps
/// notwithstanding, and resumes deliver bit-equal results.
#[test]
fn scale_down_during_pause_reroutes_every_parked_ticket() {
    let reference = Arc::new(plan());
    let router = Arc::new(Router::new());
    // Tight per-replica caps: after two teardowns the single survivor
    // holds 30 pending against a cap of 10 — proof the reroute path
    // bypasses caps for already-admitted work.
    let cfg = ModelConfig {
        replicas: 3,
        queue_high_water: 30,
        replica: ServeConfig {
            max_batch: 4,
            max_wait: Duration::ZERO,
            queue_cap: 10,
            ..ServeConfig::default()
        },
    };
    router.register_shared("m", Arc::clone(&reference), cfg).unwrap();
    router.pause("m").unwrap();

    let tickets: Vec<(usize, Ticket)> =
        (0..30).map(|s| (s, router.submit("m", &sample(s)).expect("admitted"))).collect();
    assert_eq!(router.queue_depth("m"), Some(30));

    router.scale_down("m").unwrap();
    assert_eq!(router.queue_depth("m"), Some(30), "teardown #1 lost nothing");
    router.scale_down("m").unwrap();
    assert_eq!(router.replica_count("m"), Some(1));
    assert_eq!(router.queue_depth("m"), Some(30), "teardown #2 lost nothing");
    assert_eq!(router.replica_queue_depths("m"), Some(vec![30]), "all parked on the survivor");

    router.resume("m").unwrap();
    for (s, t) in tickets {
        assert_eq!(
            t.wait().as_slice(),
            reference.infer(&sample(s)).as_slice(),
            "sample {s} must survive two teardowns bit-equal"
        );
    }
    assert_eq!(router.model_stats("m").unwrap().total_shed(), 0);
    router.shutdown();
}

/// Missed-wakeup regression: waiter threads park on tickets *before*
/// fulfilment is possible (model paused), fulfilment then arrives — for
/// half the cycles via the reroute-after-teardown path — and every
/// waiter must return. A missed wakeup hangs the test harness; there are
/// no sleeps and no timing assertions.
#[test]
fn every_parked_waiter_wakes_through_teardown_and_resume() {
    let reference = Arc::new(plan());
    let router = Arc::new(Router::new());
    router.register_shared("m", Arc::clone(&reference), busy_config(2)).unwrap();

    for cycle in 0..4 {
        router.pause("m").unwrap();
        let waiters: Vec<_> = (0..64)
            .map(|s| {
                let t = router.submit("m", &sample(s)).expect("admitted");
                std::thread::spawn(move || (s, t.wait()))
            })
            .collect();
        // Give the waiters a chance to actually park before fulfilment.
        for _ in 0..100 {
            std::thread::yield_now();
        }
        if cycle % 2 == 0 {
            // Odd path: the backlog moves replicas before delivery.
            router.scale_down("m").unwrap();
            router.scale_up("m").unwrap();
        }
        router.resume("m").unwrap();
        for w in waiters {
            let (s, got) = w.join().expect("waiter must wake and finish");
            assert_eq!(got.as_slice(), reference.infer(&sample(s)).as_slice());
        }
    }
    router.shutdown();
}

/// The teardown guard rails: no scaling below one replica, no scaling on
/// unknown models, none of it after shutdown.
#[test]
fn scaling_error_paths() {
    let router = Arc::new(Router::new());
    router.register("m", plan(), busy_config(1)).unwrap();
    assert!(matches!(router.scale_down("m"), Err(RouterError::InvalidConfig { .. })));
    assert!(matches!(router.scale_up("ghost"), Err(RouterError::UnknownModel { .. })));
    assert!(matches!(router.scale_down("ghost"), Err(RouterError::UnknownModel { .. })));
    assert!(matches!(router.set_high_water("ghost", 5), Err(RouterError::UnknownModel { .. })));
    assert!(matches!(router.rebalance("ghost"), Err(RouterError::UnknownModel { .. })));
    router.scale_up("m").unwrap();
    assert_eq!(router.replica_count("m"), Some(2));
    router.shutdown();
    assert!(matches!(router.scale_up("m"), Err(RouterError::ShuttingDown)));
    assert!(matches!(router.scale_down("m"), Err(RouterError::ShuttingDown)));
}
