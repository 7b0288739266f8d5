//! Router stress tests: many caller threads spraying requests across
//! multiple models × multiple replicas must get logits bitwise identical
//! to direct `CompiledNet::infer_into` passes, shed cleanly at the
//! admission bound, and lose nothing admitted on shutdown.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use scissor_nn::{CompiledNet, NetworkBuilder, Tensor4};
use scissor_router::{ModelConfig, Router, RouterError, ServeConfig, Ticket};

/// A LeNet-shaped mini plan (1×6×6 input) and a ConvNet-shaped one
/// (2×6×6), distinct enough that routing to the wrong model would change
/// every logit.
fn plan_a() -> CompiledNet {
    let mut rng = StdRng::seed_from_u64(31);
    NetworkBuilder::new((1, 6, 6))
        .conv("conv1", 4, 3, 1, 1, &mut rng)
        .relu()
        .maxpool(2, 2)
        .linear("fc", 5, &mut rng)
        .build()
        .compile()
        .expect("compile")
}

fn plan_b() -> CompiledNet {
    let mut rng = StdRng::seed_from_u64(32);
    NetworkBuilder::new((2, 6, 6))
        .conv("conv1", 3, 3, 1, 0, &mut rng)
        .relu()
        .linear("fc", 4, &mut rng)
        .build()
        .compile()
        .expect("compile")
}

fn sample_a(thread: usize, request: usize) -> Tensor4 {
    let seed = thread * 1009 + request * 31;
    Tensor4::from_vec(
        1,
        1,
        6,
        6,
        (0..36).map(|i| ((i * 7 + seed) % 53) as f32 * 0.07 - 1.7).collect(),
    )
}

fn sample_b(thread: usize, request: usize) -> Tensor4 {
    let seed = thread * 911 + request * 17;
    Tensor4::from_vec(
        1,
        2,
        6,
        6,
        (0..72).map(|i| ((i * 5 + seed) % 47) as f32 * 0.09 - 1.9).collect(),
    )
}

#[test]
fn two_models_two_replicas_concurrent_bit_equality() {
    let ref_a = Arc::new(plan_a());
    let ref_b = Arc::new(plan_b());
    let router = Arc::new(Router::new());
    let cfg = ModelConfig {
        replicas: 2,
        queue_high_water: 10_000,
        replica: ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(200),
            ..ServeConfig::default()
        },
    };
    router.register_shared("lenet", Arc::clone(&ref_a), cfg).unwrap();
    router.register_shared("convnet", Arc::clone(&ref_b), cfg).unwrap();

    // 8 threads interleave submissions to both models, redeeming tickets
    // out of order (half polled, half blocked) to stress the slots.
    let threads = 8;
    let requests = 20;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for r in 0..requests {
                    let ta = router.submit("lenet", &sample_a(t, r)).expect("submit a");
                    let tb = router.submit("convnet", &sample_b(t, r)).expect("submit b");
                    // Redeem b first (reverse submission order), poll a.
                    let got_b = tb.wait();
                    let got_a = loop {
                        if let Some(v) = ta.try_take() {
                            break v;
                        }
                        std::thread::yield_now();
                    };
                    out.push((r, got_a, got_b));
                }
                out
            })
        })
        .collect();

    for (t, h) in handles.into_iter().enumerate() {
        for (r, got_a, got_b) in h.join().expect("caller thread") {
            let want_a = ref_a.infer(&sample_a(t, r));
            let want_b = ref_b.infer(&sample_b(t, r));
            let bits_a =
                got_a.iter().zip(want_a.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits());
            let bits_b =
                got_b.iter().zip(want_b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(bits_a, "thread {t} request {r}: lenet logits must be bitwise identical");
            assert!(bits_b, "thread {t} request {r}: convnet logits must be bitwise identical");
        }
    }

    let stats = router.stats();
    let total: u64 = stats.iter().map(|(_, s)| s.serve.requests).sum();
    assert_eq!(total as usize, threads * requests * 2);
    for (name, s) in &stats {
        assert_eq!(s.shed, 0, "{name} must not shed under the huge bound");
        assert_eq!(s.serve.queue_depth, 0, "{name} backlog must be drained");
        assert_eq!(s.serve.samples, s.serve.requests);
        assert!(s.serve.p50_latency() <= s.serve.p99_latency());
    }
}

#[test]
fn open_loop_overload_sheds_and_recovers() {
    // Paused model with a 12-deep admission bound: 4 threads fire 30
    // non-blocking submissions each. Exactly 12 are admitted (modulo the
    // documented racer overshoot — here submissions are concurrent, so
    // allow admitted ∈ [12, 12 + threads]), the rest shed with
    // `Overloaded`, and every admitted ticket delivers exact logits after
    // resume.
    let reference = Arc::new(plan_a());
    let router = Arc::new(Router::new());
    let high_water = 12;
    let cfg = ModelConfig {
        replicas: 2,
        queue_high_water: high_water,
        replica: ServeConfig { max_batch: 4, max_wait: Duration::ZERO, ..ServeConfig::default() },
    };
    router.register_shared("m", Arc::clone(&reference), cfg).unwrap();
    router.pause("m").unwrap();

    let threads = 4;
    let per_thread = 30;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                (0..per_thread)
                    .map(|r| (t, r, router.submit("m", &sample_a(t, r))))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let outcomes: Vec<(usize, usize, Result<Ticket, RouterError>)> =
        handles.into_iter().flat_map(|h| h.join().expect("caller thread")).collect();

    let admitted = outcomes.iter().filter(|(_, _, o)| o.is_ok()).count();
    let shed = outcomes
        .iter()
        .filter(|(_, _, o)| matches!(o, Err(RouterError::Overloaded { .. })))
        .count();
    assert_eq!(admitted + shed, threads * per_thread, "every outcome is admit or shed");
    assert!(
        admitted >= high_water && admitted <= high_water + threads,
        "admitted {admitted} outside [{high_water}, {}]",
        high_water + threads
    );
    // Each rejection lands in exactly one counter: the router's admission
    // gate or (for gate-racers) the chosen replica's own cap.
    let stats = router.model_stats("m").unwrap();
    assert_eq!(stats.total_shed() as usize, shed);
    assert_eq!(stats.serve.queue_depth as usize, admitted);

    router.resume("m").unwrap();
    for (t, r, outcome) in outcomes {
        if let Ok(ticket) = outcome {
            let want = reference.infer(&sample_a(t, r));
            let got = ticket.wait();
            let bits = got.iter().zip(want.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(bits, "thread {t} request {r}: admitted logits must be exact");
        }
    }
    // Recovered: the backlog is gone and fresh admissions flow again.
    assert_eq!(router.queue_depth("m"), Some(0));
    let t = router.submit("m", &sample_a(9, 9)).unwrap();
    assert_eq!(t.wait().as_slice(), reference.infer(&sample_a(9, 9)).as_slice());
}

#[test]
fn shutdown_drains_every_admitted_ticket_across_models() {
    let ref_a = Arc::new(plan_a());
    let ref_b = Arc::new(plan_b());
    let router = Router::new();
    let cfg = ModelConfig {
        replicas: 2,
        queue_high_water: 64,
        replica: ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(50),
            ..ServeConfig::default()
        },
    };
    router.register_shared("a", Arc::clone(&ref_a), cfg).unwrap();
    router.register_shared("b", Arc::clone(&ref_b), cfg).unwrap();
    router.pause("a").unwrap();
    router.pause("b").unwrap();
    let tickets_a: Vec<Ticket> =
        (0..10).map(|r| router.submit("a", &sample_a(0, r)).expect("admit a")).collect();
    let tickets_b: Vec<Ticket> =
        (0..10).map(|r| router.submit("b", &sample_b(0, r)).expect("admit b")).collect();

    // Shutdown must override the pause, deliver everything admitted, and
    // only then return.
    router.shutdown();
    for (r, t) in tickets_a.into_iter().enumerate() {
        let got = t.try_take().expect("ticket a drained");
        assert_eq!(got.as_slice(), ref_a.infer(&sample_a(0, r)).as_slice(), "a/{r}");
    }
    for (r, t) in tickets_b.into_iter().enumerate() {
        let got = t.try_take().expect("ticket b drained");
        assert_eq!(got.as_slice(), ref_b.infer(&sample_b(0, r)).as_slice(), "b/{r}");
    }
    assert!(matches!(router.submit("a", &sample_a(0, 0)), Err(RouterError::ShuttingDown)));
}

#[test]
fn replicas_share_one_plan_zero_weight_copies() {
    let plan = Arc::new(plan_a());
    let router = Router::new();
    router.register_shared("m", Arc::clone(&plan), ModelConfig::with_replicas(4)).unwrap();
    // 4 replicas + the registry entry + ours: replication did not clone
    // the plan.
    assert_eq!(Arc::strong_count(&plan), 6);
    drop(router);
    assert_eq!(Arc::strong_count(&plan), 1);
}
