//! Router throughput: 1 vs N replicas under open-loop load, plus the
//! front-door overhead of routing vs a bare replica.
//!
//! Open-loop means the submitter never waits for a response before the
//! next submission — the admission queue absorbs the burst and the
//! replica batchers drain it. On a single-core host extra replicas cannot
//! add compute (the matmul already owns the core), so the interesting
//! numbers here are the absorption behavior — realized batch sizes, shed
//! counts (zero under these bounds) — and that N replicas cost no
//! throughput; on multicore hosts the same harness shows replica scaling.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use rand::rngs::StdRng;
use rand::SeedableRng;

use group_scissor::ModelKind;
use scissor_data::SynthOptions;
use scissor_nn::{CompiledNet, Tensor4};
use scissor_router::{ModelConfig, Router, ServeConfig};
use scissor_serve::{Replica, Telemetry};

const OPEN_LOOP_REQUESTS: usize = 64;

fn clipped_lenet_plan() -> CompiledNet {
    let model = ModelKind::LeNet;
    let mut rng = StdRng::seed_from_u64(7);
    let mut net = model.build(&mut rng);
    let ranks: Vec<(String, usize)> =
        model.paper_clipped_ranks().into_iter().map(|(n, k)| (n.to_string(), k)).collect();
    scissor_lra::direct_lra(&mut net, &ranks, scissor_lra::LraMethod::Pca).expect("direct lra");
    net.compile().expect("compile")
}

fn singles(n: usize) -> Vec<Tensor4> {
    let images = ModelKind::LeNet.dataset(n, 1, SynthOptions::default()).images().clone();
    (0..n).map(|s| images.gather(&[s])).collect()
}

/// One open-loop burst: submit everything without waiting, then redeem
/// every ticket.
fn open_loop_burst(router: &Router, samples: &[Tensor4]) {
    let tickets: Vec<_> =
        samples.iter().map(|x| router.submit("lenet", x).expect("admit")).collect();
    for t in tickets {
        criterion::black_box(t.wait());
    }
}

fn bench_replica_scaling(c: &mut Criterion) {
    let plan = Arc::new(clipped_lenet_plan());
    let samples = singles(OPEN_LOOP_REQUESTS);

    let mut g = c.benchmark_group("router_open_loop");
    g.sample_size(10);
    for replicas in [1usize, 2, 4] {
        let router = Router::new();
        router
            .register_shared(
                "lenet",
                Arc::clone(&plan),
                ModelConfig {
                    replicas,
                    queue_high_water: 4 * OPEN_LOOP_REQUESTS,
                    replica: ServeConfig {
                        max_batch: 32,
                        max_wait: Duration::from_micros(500),
                        ..ServeConfig::default()
                    },
                },
            )
            .expect("register");
        g.bench_function(&format!("burst_{OPEN_LOOP_REQUESTS}_replicas_{replicas}"), |bench| {
            bench.iter(|| open_loop_burst(&router, &samples));
        });
        let stats = router.model_stats("lenet").expect("stats");
        eprintln!(
            "[router] {replicas} replica(s): {} reqs in {} batches (mean {:.1}), shed {}, \
             p50 {:.2?} p99 {:.2?}",
            stats.serve.requests,
            stats.serve.batches,
            stats.serve.mean_batch_size(),
            stats.shed,
            stats.serve.p50_latency(),
            stats.serve.p99_latency(),
        );
        assert_eq!(stats.shed, 0, "bounds are sized so the bench never sheds");
    }
    g.finish();
}

fn bench_front_door_overhead(c: &mut Criterion) {
    // Single blocking request through the router vs through a bare
    // replica: the difference is the registry lookup and the replica
    // scan.
    let plan = Arc::new(clipped_lenet_plan());
    let sample = singles(1).remove(0);
    let cfg = ServeConfig { max_batch: 32, max_wait: Duration::ZERO, ..ServeConfig::default() };

    let mut g = c.benchmark_group("router_front_door");
    g.sample_size(15);

    let replica = Replica::start(Arc::clone(&plan), cfg, Telemetry::default());
    g.bench_function("direct_replica_submit_wait", |bench| {
        bench.iter(|| criterion::black_box(replica.submit(&sample).expect("admit").wait()));
    });

    let router = Router::new();
    router
        .register_shared(
            "lenet",
            Arc::clone(&plan),
            ModelConfig { replicas: 2, queue_high_water: 1024, replica: cfg },
        )
        .expect("register");
    g.bench_function("routed_submit_wait", |bench| {
        bench.iter(|| criterion::black_box(router.submit("lenet", &sample).expect("admit").wait()));
    });
    g.finish();
}

criterion_group!(benches, bench_replica_scaling, bench_front_door_overhead);
criterion_main!(benches);
