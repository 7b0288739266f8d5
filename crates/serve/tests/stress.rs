//! Concurrency stress tests: N threads × M requests through the
//! micro-batcher must return exactly — bit for bit — the logits a direct
//! `CompiledNet` batch pass produces, under every flush regime (full
//! batches, max-wait timeouts, shutdown drains).

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use scissor_nn::{CompiledNet, NetworkBuilder, Tensor4};
use scissor_serve::{Replica, ServeConfig, ServeError, Telemetry};

fn plan() -> CompiledNet {
    let mut rng = StdRng::seed_from_u64(23);
    NetworkBuilder::new((2, 6, 6))
        .conv("conv1", 4, 3, 1, 1, &mut rng)
        .relu()
        .maxpool(2, 2)
        .linear("fc1", 8, &mut rng)
        .relu()
        .linear("fc2", 5, &mut rng)
        .build()
        .compile()
        .expect("compile")
}

fn start(cfg: ServeConfig) -> Arc<Replica> {
    Arc::new(Replica::start(Arc::new(plan()), cfg, Telemetry::default()))
}

/// Deterministic per-request sample, distinct across (thread, request).
fn sample(thread: usize, request: usize) -> Tensor4 {
    let seed = thread * 1009 + request * 31;
    Tensor4::from_vec(
        1,
        2,
        6,
        6,
        (0..72).map(|i| ((i * 7 + seed) % 53) as f32 * 0.07 - 1.7).collect(),
    )
}

/// Runs `threads × requests` submissions and checks every response against
/// the direct batch pass over the identical samples.
fn stress(cfg: ServeConfig, threads: usize, requests: usize) {
    let reference_plan = plan();
    let replica = start(cfg);
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let replica = Arc::clone(&replica);
            std::thread::spawn(move || {
                (0..requests)
                    .map(|r| replica.submit(&sample(t, r)).expect("submit").wait())
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let responses: Vec<Vec<Vec<f32>>> =
        handles.into_iter().map(|h| h.join().expect("caller thread")).collect();

    // Direct batch pass over all samples at once — the ground truth.
    let mut flat = Vec::new();
    for t in 0..threads {
        for r in 0..requests {
            flat.extend_from_slice(sample(t, r).as_slice());
        }
    }
    let all = Tensor4::from_vec(threads * requests, 2, 6, 6, flat);
    let expect = reference_plan.infer(&all);

    for (t, per_thread) in responses.iter().enumerate() {
        for (r, got) in per_thread.iter().enumerate() {
            let want = expect.sample(t * requests + r);
            assert_eq!(got.len(), want.len());
            let bits_match = got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(bits_match, "thread {t} request {r}: logits must be bitwise identical");
        }
    }

    let stats = replica.stats();
    assert_eq!(stats.requests as usize, threads * requests);
    assert_eq!(stats.samples, stats.requests);
    assert_eq!(stats.full_batches + stats.timeout_batches(), stats.batches);
}

#[test]
fn concurrent_submissions_match_direct_batch_bitwise() {
    stress(
        ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            workers: 1,
            ..ServeConfig::default()
        },
        8,
        25,
    );
}

#[test]
fn zero_max_wait_still_delivers_exact_logits() {
    // Every batch flushes with whatever is queued the moment a batcher
    // looks — heavy timeout/partial-batch traffic.
    stress(
        ServeConfig {
            max_batch: 16,
            max_wait: Duration::ZERO,
            workers: 1,
            ..ServeConfig::default()
        },
        4,
        20,
    );
}

#[test]
fn multiple_batcher_workers_preserve_bit_equality() {
    stress(
        ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_micros(200),
            workers: 3,
            ..ServeConfig::default()
        },
        6,
        15,
    );
}

#[test]
fn batch_one_server_degenerates_to_single_sample_passes() {
    stress(
        ServeConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            workers: 2,
            ..ServeConfig::default()
        },
        3,
        10,
    );
}

#[test]
fn underfull_batch_flushes_on_max_wait_and_all_callers_complete() {
    // max_batch far above the request count: the only way out is the
    // max-wait timer. Every caller must still get exact logits, and every
    // batch must be accounted a timeout flush.
    let reference_plan = plan();
    let replica = start(ServeConfig {
        max_batch: 64,
        max_wait: Duration::from_millis(5),
        workers: 1,
        ..ServeConfig::default()
    });
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let replica = Arc::clone(&replica);
            std::thread::spawn(move || replica.submit(&sample(t, 0)).expect("submit").wait())
        })
        .collect();
    for (t, h) in handles.into_iter().enumerate() {
        let got = h.join().expect("caller");
        let want = reference_plan.infer(&sample(t, 0));
        assert_eq!(got.as_slice(), want.as_slice(), "caller {t}");
    }
    let stats = replica.stats();
    assert_eq!(stats.requests, 6);
    assert_eq!(stats.full_batches, 0, "nothing can fill a 64-slot batch here");
    assert!(stats.timeout_batches() >= 1);
    assert!(stats.max_latency() >= Duration::from_millis(5) || stats.batches > 1);
}

#[test]
fn concurrent_open_loop_overload_sheds_and_delivers_the_rest() {
    // 6 threads fire-and-forget 40 async submissions each at a replica
    // whose queue holds 16: some must shed with `Overloaded`, and every
    // ADMITTED ticket must still deliver logits bitwise identical to a
    // direct compiled pass. Pausing the replica for the submission phase
    // makes the shed count deterministic (exactly total - cap admitted).
    let reference_plan = plan();
    let cap = 16;
    let replica = start(ServeConfig {
        max_batch: 8,
        max_wait: Duration::ZERO,
        queue_cap: cap,
        ..ServeConfig::default()
    });
    replica.pause();
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let replica = Arc::clone(&replica);
            std::thread::spawn(move || {
                (0..40).map(|r| (t, r, replica.submit(&sample(t, r)))).collect::<Vec<_>>()
            })
        })
        .collect();
    let outcomes: Vec<_> =
        handles.into_iter().flat_map(|h| h.join().expect("caller thread")).collect();

    let admitted = outcomes.iter().filter(|(_, _, o)| o.is_ok()).count();
    let shed =
        outcomes.iter().filter(|(_, _, o)| matches!(o, Err(ServeError::Overloaded { .. }))).count();
    assert_eq!(admitted, cap, "paused replica admits exactly queue_cap requests");
    assert_eq!(shed, 6 * 40 - cap, "everything else sheds");
    assert_eq!(replica.stats().shed as usize, shed);
    assert_eq!(replica.queue_depth(), cap);

    replica.resume();
    for (t, r, outcome) in outcomes {
        if let Ok(ticket) = outcome {
            let want = reference_plan.infer(&sample(t, r));
            let got = ticket.wait();
            let bits = got.iter().zip(want.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(bits, "thread {t} request {r}: admitted logits must be exact");
        }
    }
    assert_eq!(replica.stats().requests as usize, cap);
}

#[test]
fn latency_percentiles_are_ordered_and_populated_under_load() {
    let replica = start(ServeConfig {
        max_batch: 8,
        max_wait: Duration::from_micros(300),
        ..ServeConfig::default()
    });
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let replica = Arc::clone(&replica);
            std::thread::spawn(move || {
                for r in 0..25 {
                    replica.submit(&sample(t, r)).expect("submit").wait();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("caller");
    }
    let stats = replica.stats();
    assert_eq!(stats.requests, 100);
    assert_eq!(stats.latency.buckets.iter().sum::<u64>(), 100);
    let (p50, p95, p99) = (stats.p50_latency(), stats.p95_latency(), stats.p99_latency());
    assert!(p50 > Duration::ZERO);
    assert!(p50 <= p95 && p95 <= p99);
    // Reported percentiles are bucket upper bounds clamped to the
    // observed max, so no quantile may ever read above it.
    assert!(p99 <= stats.max_latency());
    assert!(stats.mean_latency() <= stats.max_latency());
}
