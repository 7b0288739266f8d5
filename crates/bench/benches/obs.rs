//! Observability overhead smoke: the cost of reading a populated metrics
//! registry, and — the acceptance criterion — the cost request tracing
//! adds to a routed open-loop burst. Tracing is one relaxed load per
//! submission when disabled and a handful of atomic ops plus one short
//! mutexed ring append per span when enabled, so the traced burst must
//! stay within a few percent of the untraced one (< 2% acceptance,
//! printed below; min-over-rounds so scheduler noise does not dominate).

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use group_scissor::ModelKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scissor_data::SynthOptions;
use scissor_nn::{CompiledNet, Tensor4};
use scissor_obs::Registry;
use scissor_router::{ModelConfig, Router, ServeConfig};

const BURST: usize = 64;

/// The serving artifact the router benches use: LeNet at the paper's
/// clipped ranks — real per-request inference cost, so the span-recording
/// overhead is measured against a realistic denominator.
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

/// One open-loop burst: submit everything, then redeem every ticket.
fn burst(router: &Router, samples: &[Tensor4]) {
    let tickets: Vec<_> = samples.iter().map(|x| router.submit("m", x).expect("admit")).collect();
    for t in tickets {
        criterion::black_box(t.wait());
    }
}

fn bench_registry_reads(c: &mut Criterion) {
    // A registry populated like a busy router's: 20 counters, 20 gauges,
    // 10 histograms — ~50 metrics per snapshot.
    let reg = Registry::new();
    for i in 0..20u64 {
        reg.counter(&format!("bench.counter.{i}")).add(i);
        reg.gauge(&format!("bench.gauge.{i}")).set(i * 7);
    }
    for i in 0..10 {
        let h = reg.histogram(&format!("bench.hist.{i}"));
        for v in 0..64u64 {
            h.record(v * v * 1_000);
        }
    }
    let mut g = c.benchmark_group("obs");
    g.bench_function("registry_snapshot_50_metrics", |bench| {
        bench.iter(|| criterion::black_box(reg.snapshot()));
    });
    g.bench_function("registry_snapshot_to_json", |bench| {
        bench.iter(|| criterion::black_box(serde_json::to_string(&reg.snapshot()).expect("json")));
    });
    g.finish();
}

fn bench_tracing_overhead(c: &mut Criterion) {
    let plan = Arc::new(clipped_lenet_plan());
    let samples = singles(BURST);
    let cfg = ModelConfig {
        replicas: 2,
        queue_high_water: 4 * BURST,
        replica: ServeConfig {
            max_batch: 16,
            max_wait: Duration::from_micros(200),
            ..ServeConfig::default()
        },
    };
    let untraced = Router::new();
    untraced.register_shared("m", Arc::clone(&plan), cfg).expect("register");
    let traced = Router::new();
    traced.register_shared("m", Arc::clone(&plan), cfg).expect("register");
    traced.enable_tracing();

    let mut g = c.benchmark_group("obs");
    g.sample_size(10);
    g.bench_function(&format!("router_burst_{BURST}_untraced"), |bench| {
        bench.iter(|| burst(&untraced, &samples));
    });
    g.bench_function(&format!("router_burst_{BURST}_traced"), |bench| {
        bench.iter(|| burst(&traced, &samples));
    });
    g.finish();

    // The acceptance number: best-of-30 bursts each way, interleaved
    // warm-up so frequency/cache drift hits both routers alike.
    let time_min = |router: &Router| {
        let mut best = u64::MAX;
        for _ in 0..30 {
            let t0 = Instant::now();
            burst(router, &samples);
            best = best.min(t0.elapsed().as_nanos() as u64);
        }
        best
    };
    let _ = time_min(&untraced);
    let _ = time_min(&traced);
    let base = time_min(&untraced);
    let with_trace = time_min(&traced);
    let overhead_pct = (with_trace as f64 - base as f64) / base as f64 * 100.0;
    let verdict = if overhead_pct < 2.0 { "PASS" } else { "CHECK" };
    println!(
        "tracing overhead: untraced {base} ns, traced {with_trace} ns → {overhead_pct:+.2}% \
         (acceptance < 2%: {verdict})"
    );
    let log = traced.trace_log();
    println!(
        "trace log after benches: minted {}, recorded {}, dropped {} (cap {})",
        log.minted(),
        log.recorded(),
        log.dropped(),
        log.capacity()
    );
}

criterion_group!(benches, bench_registry_reads, bench_tracing_overhead);
criterion_main!(benches);
