//! The serving phase of both workloads: one `Router` serving the plans the
//! compression phase exported, registered once as f32 and once as int8.
//!
//! Phase 1 is an open loop: seeded Poisson arrivals at a fixed total rate,
//! split evenly between the two forms, timed from the scheduled send, plus
//! one `observability_snapshot()` scrape per second. Phase 2 is a closed
//! loop: one client keeps a fixed number of requests in flight. Every
//! response is compared bit for bit with `CompiledNet::infer_into` on the
//! same plan and sample.

use std::collections::{HashMap, VecDeque};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use group_scissor::ModelKind;
use scissor_data::SynthOptions;
use scissor_nn::{CompiledNet, InferScratch, Tensor4};
use scissor_router::{ModelConfig, Router, RouterError, SpanKind, SpanRecord, Ticket};

use crate::compress::{layer_group, net_at_ranks, Exported};
use crate::flops;
use crate::record::Record;
use crate::stats::{beyond, median, percentile};

/// Open-loop arrival rate over both forms, requests per second: about a
/// tenth of what the closed loop completes on two quiet cores, so the
/// queue stays short even when the host runs at half speed.
pub fn open_rate(model: ModelKind) -> f64 {
    match model {
        ModelKind::LeNet => 300.0,
        ModelKind::ConvNet => 50.0,
    }
}

/// Requests the closed-loop client keeps in flight: four full batches, so
/// the replica still finds a full batch waiting when the client, starved
/// of a core by the matmul pool, falls a batch behind.
pub const IN_FLIGHT: usize = 128;
/// Closed-loop throughput is timed over blocks of this many completions.
const RATE_BLOCK: usize = 64;
/// Completions in the first this long of each form's closed loop, which
/// the switch between forms disturbs, are left out of its throughput.
const RATE_WARMUP: Duration = Duration::from_millis(500);
/// Open-loop latencies are grouped by the window their send was due in.
const LAT_WINDOW_NS: u64 = 500_000_000;
/// Share of the measured time spent in the open loop.
const OPEN_SHARE: f64 = 0.5;
/// Distinct input samples the requests draw from.
const POOL: usize = 256;
/// Deployment repetitions per run; the serving share of `setup_s` is
/// their median.
const SETUP_REPS: usize = 3;
/// The two registered serving forms.
const FORMS: [&str; 2] = ["f32", "int8"];

/// One scheduled open-loop request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Offset of the scheduled send from the phase start.
    pub due_ns: u64,
    /// Index into [`FORMS`]; arrivals alternate between the two.
    pub form: usize,
    /// Index into the sample pool.
    pub sample: usize,
}

/// Seeded Poisson arrivals at `rate` per second over `secs` seconds. A
/// longer schedule extends a shorter one of the same seed and rate.
pub fn schedule(seed: u64, rate: f64, secs: f64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0a11_5eed);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= secs {
            return out;
        }
        let sample = rng.gen_range(0..POOL);
        out.push(Arrival { due_ns: (t * 1e9) as u64, form: out.len() % 2, sample });
    }
}

/// Registers both plans on a fresh `Router` under the default
/// `ModelConfig` and warms each form with one batch of 32.
fn deploy(plans: &[Arc<CompiledNet>; 2], warm: &[f32]) -> Router {
    let router = Router::new();
    for (form, plan) in FORMS.iter().zip(plans) {
        router.register_shared(form, Arc::clone(plan), ModelConfig::default()).expect("register");
    }
    for form in FORMS {
        let tickets: Vec<Ticket> = (0..32)
            .map(|_| router.submit_features(form, warm).expect("warm-up admitted"))
            .collect();
        for t in tickets {
            t.wait();
        }
    }
    router
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn tensor(shape: (usize, usize, usize), samples: &[&[f32]]) -> Tensor4 {
    let (c, h, w) = shape;
    Tensor4::from_vec(samples.len(), c, h, w, samples.concat())
}

/// What both phases measured.
#[derive(Default)]
struct Phases {
    open_lat_ms: Vec<f64>,
    /// Window of the open loop each latency's request was due in.
    open_window: Vec<u64>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    snapshot_ms: Vec<f64>,
    /// `[sent, ok, failed]` per phase.
    open: [u64; 3],
    closed: [u64; 3],
    peak_rps: f64,
    spans: Vec<SpanRecord>,
}

impl Phases {
    /// Lower quartile over the open loop's [`LAT_WINDOW_NS`] windows of
    /// each window's `q` percentile latency. On a shared host the
    /// hypervisor stalls this machine for whole windows at a time; stalls
    /// that hit fewer than three quarters of the windows do not move the
    /// figure.
    fn window_percentile(&self, q: f64) -> f64 {
        let windows = self.open_window.iter().max().map_or(0, |&w| w + 1);
        let per_window: Vec<f64> = (0..windows)
            .map(|w| {
                let lat = self.open_lat_ms.iter().zip(&self.open_window);
                let v: Vec<f64> = lat.filter(|(_, &at)| at == w).map(|(l, _)| *l).collect();
                percentile(&v, q)
            })
            .filter(|p| !p.is_nan())
            .collect();
        percentile(&per_window, 25.0)
    }
}

/// Serves `exported` for `seconds`. Returns the record, the deployment
/// time (median of [`SETUP_REPS`]) and the router's spans. Traced runs turn
/// on the router's span ring and the plans' per-step profiler and add the
/// per-layer metrics.
pub fn run(
    model: ModelKind,
    exported: Exported,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> (Record, f64, Vec<SpanRecord>) {
    let mut rec = Record::default();
    let shape = model.input_shape();
    let data = model.dataset(POOL, seed ^ 0x5e7e, SynthOptions::default());
    let pool: Vec<Vec<f32>> =
        (0..POOL).map(|s| data.images().gather(&[s]).as_slice().to_vec()).collect();
    let plans = exported.plans.map(Arc::new);

    let mut setups = Vec::new();
    let mut deployed: Option<Router> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let router = deploy(&plans, &pool[0]);
        setups.push(t.elapsed().as_secs_f64());
        if let Some(old) = deployed.replace(router) {
            old.shutdown();
        }
    }
    let router = deployed.expect("at least one set-up");

    let refs: Vec<Vec<Vec<f32>>> = plans
        .iter()
        .map(|plan| {
            let mut scratch = InferScratch::new();
            pool.iter()
                .map(|x| plan.infer_into(&tensor(shape, &[x]), &mut scratch).as_slice().to_vec())
                .collect()
        })
        .collect();

    let profilers = if traced {
        let net = net_at_ranks(model, &exported.ranks, seed);
        infer_metrics(&mut rec, &plans, &net, &pool);
        router.enable_tracing();
        Some(plans.each_ref().map(|p| p.enable_profiling()))
    } else {
        None
    };
    let before: Vec<_> = FORMS.iter().map(|f| router.model_stats(f).expect("registered")).collect();

    let open_secs = seconds * OPEN_SHARE;
    let sched = schedule(seed, open_rate(model), open_secs);
    let mut ph = Phases::default();
    open_loop(&router, &pool, &refs, &sched, traced, &mut ph);
    closed_loop(&router, &pool, &refs, seed, seconds - open_secs, traced, &mut ph);
    if traced {
        ph.spans.extend(router.trace_log().drain());
    }

    rec.checks(ph.open[0], ph.open[2], "open-loop requests (failed or not bitwise equal)");
    rec.checks(ph.closed[0], ph.closed[2], "closed-loop requests (failed or not bitwise equal)");
    rec.metric("serve_p50_ms", ph.window_percentile(50.0), "ms");
    rec.metric("serve_p90_ms", ph.window_percentile(90.0), "ms");
    rec.metric("serve_peak_rps", ph.peak_rps, "req/s");
    rec.notes.push(format!(
        "open loop: sent {} ok {} failed {}; closed loop: sent {} ok {} failed {}; \
         generator late p99 {:.3} ms",
        ph.open[0],
        ph.open[1],
        ph.open[2],
        ph.closed[0],
        ph.closed[1],
        ph.closed[2],
        percentile(&ph.late_ms, 99.0)
    ));

    if traced {
        let after: Vec<_> =
            FORMS.iter().map(|f| router.model_stats(f).expect("registered")).collect();
        let delta = |pick: fn(&scissor_router::ModelStats) -> u64| -> f64 {
            after.iter().zip(&before).map(|(a, b)| pick(a) - pick(b)).sum::<u64>() as f64
        };
        let batches = delta(|s| s.serve.batches).max(1.0);
        rec.metric("serve.batch_mean", delta(|s| s.serve.requests) / batches, "count");
        rec.metric("serve.full_batch_frac", delta(|s| s.serve.full_batches) / batches, "ratio");
        rec.metric("router.shed", delta(|s| s.total_shed()), "count");
        phase_metrics(&mut rec, &ph);
        span_metrics(&mut rec, &ph.spans);
        rec.metric("trace.dropped_spans", router.trace_log().dropped() as f64, "count");
        for (form, prof) in FORMS.iter().zip(profilers.expect("traced")) {
            let steps = prof.snapshot().steps;
            for group in ["conv", "pool", "fc", "relu"] {
                let us: f64 = steps
                    .iter()
                    .filter(|s| layer_group(&s.name) == group)
                    .map(|s| s.mean_ns() * 1e-3)
                    .sum();
                rec.metric(format!("nn.infer_step_us.{form}.{group}"), us, "us");
            }
        }
    }
    router.shutdown();
    (rec, median(&setups), ph.spans)
}

/// The router's spans as a JSON array of
/// `[trace, kind, at_ns, replica, batch, form]`.
pub fn spans_json(spans: &[SpanRecord]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            let (id, kind) = (s.trace.as_u64(), s.kind.label());
            format!("[{id},\"{kind}\",{},{},{},\"{}\"]", s.at_ns, s.replica, s.batch, s.form)
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// Direct `infer_into` timings per form at batch 1 and 32, plus the
/// computed work of a batch of 32 at the plans' ranks.
fn infer_metrics(
    rec: &mut Record,
    plans: &[Arc<CompiledNet>; 2],
    net: &scissor_nn::Network,
    pool: &[Vec<f32>],
) {
    let shape = net.input_shape();
    let b1 = tensor(shape, &[&pool[0]]);
    let b32 = tensor(shape, &pool[..32].iter().map(Vec::as_slice).collect::<Vec<_>>());
    for (form, plan) in FORMS.iter().zip(plans) {
        let mut scratch = plan.warm_scratch(32);
        for (label, x, reps) in [("b1", &b1, 400), ("b32", &b32, 60)] {
            let times: Vec<f64> = (0..reps)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(plan.infer_into(x, &mut scratch));
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            rec.metric(format!("nn.infer_ms.{form}.{label}"), median(&times), "ms");
        }
    }
    let w = flops::forward(net, 32);
    rec.metric("nn.infer_mflop.b32", w.flops * 1e-6, "MFLOP");
    rec.metric("nn.infer_mb.b32.f32", w.bytes(4.0) / (1 << 20) as f64, "MB");
    rec.metric("nn.infer_mb.b32.int8", w.bytes(1.0) / (1 << 20) as f64, "MB");
}

fn phase_metrics(rec: &mut Record, ph: &Phases) {
    rec.metric("serve.lat_p99_ms", percentile(&ph.open_lat_ms, 99.0), "ms");
    rec.metric("serve.lat_p99_beyond", beyond(&ph.open_lat_ms, 99.0) as f64, "count");
    rec.metric("serve.lat_p999_ms", percentile(&ph.open_lat_ms, 99.9), "ms");
    rec.metric("serve.lat_p999_beyond", beyond(&ph.open_lat_ms, 99.9) as f64, "count");
    rec.metric("serve.lat_samples", ph.open_lat_ms.len() as f64, "count");
    rec.metric("router.submit_us.p50", percentile(&ph.submit_us, 50.0), "us");
    rec.metric("router.submit_us.p99", percentile(&ph.submit_us, 99.0), "us");
    rec.metric("obs.snapshot_ms", median(&ph.snapshot_ms), "ms");
    rec.metric("gen.late_ms.p99", percentile(&ph.late_ms, 99.0), "ms");
    for (phase, c) in [("open", ph.open), ("closed", ph.closed)] {
        rec.metric(format!("gen.{phase}_sent"), c[0] as f64, "count");
        rec.metric(format!("gen.{phase}_ok"), c[1] as f64, "count");
        rec.metric(format!("gen.{phase}_failed"), c[2] as f64, "count");
    }
}

/// Queue wait (Queued → Batched) and execution (Batched → Executed) per
/// request from the router's spans.
fn span_metrics(rec: &mut Record, spans: &[SpanRecord]) {
    let mut by_id: HashMap<u64, [Option<u64>; 3]> = HashMap::new();
    for s in spans {
        let slot = match s.kind {
            SpanKind::Queued => 0,
            SpanKind::Batched => 1,
            SpanKind::Executed => 2,
        };
        by_id.entry(s.trace.as_u64()).or_default()[slot].get_or_insert(s.at_ns);
    }
    let (mut queue, mut exec) = (Vec::new(), Vec::new());
    for t in by_id.values() {
        if let [Some(q), Some(b), Some(e)] = *t {
            queue.push(b.saturating_sub(q) as f64 * 1e-6);
            exec.push(e.saturating_sub(b) as f64 * 1e-6);
        }
    }
    for (name, v) in [("queue", &queue), ("exec", &exec)] {
        rec.metric(format!("serve.{name}_ms.p50"), percentile(v, 50.0), "ms");
        rec.metric(format!("serve.{name}_ms.p99"), percentile(v, 99.0), "ms");
    }
    rec.metric("serve.traced_requests", queue.len() as f64, "count");
}

/// Phase 1: one sender thread follows the schedule, this thread collects.
fn open_loop(
    router: &Router,
    pool: &[Vec<f32>],
    refs: &[Vec<Vec<f32>>],
    sched: &[Arrival],
    traced: bool,
    ph: &mut Phases,
) {
    let (tx, rx) = mpsc::channel::<(usize, Result<Ticket, RouterError>)>();
    let start = Instant::now();
    let sender = |tx: mpsc::Sender<(usize, Result<Ticket, RouterError>)>| {
        let (mut late, mut submit, mut scrapes, mut spans) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut next_scrape = Duration::from_secs(1);
        for (i, a) in sched.iter().enumerate() {
            let due = Duration::from_nanos(a.due_ns);
            if due >= next_scrape {
                let t = Instant::now();
                std::hint::black_box(router.observability_snapshot());
                scrapes.push(t.elapsed().as_secs_f64() * 1e3);
                if traced {
                    spans.extend(router.trace_log().drain());
                }
                next_scrape += Duration::from_secs(1);
            }
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                thread::sleep(wait);
            }
            let t = Instant::now();
            let res = router.submit_features(FORMS[a.form], &pool[a.sample]);
            submit.push(t.elapsed().as_secs_f64() * 1e6);
            late.push(t.duration_since(start).saturating_sub(due).as_secs_f64() * 1e3);
            if tx.send((i, res)).is_err() {
                break;
            }
        }
        (late, submit, scrapes, spans)
    };
    let (late, submit, scrapes, spans) = thread::scope(|s| {
        let handle = s.spawn(move || sender(tx));
        for (i, res) in rx {
            let a = sched[i];
            ph.open[0] += 1;
            let ok = match res {
                Ok(ticket) => {
                    let logits = ticket.wait();
                    let done = start.elapsed();
                    ph.open_lat_ms.push(
                        done.saturating_sub(Duration::from_nanos(a.due_ns)).as_secs_f64() * 1e3,
                    );
                    ph.open_window.push(a.due_ns / LAT_WINDOW_NS);
                    same_bits(&logits, &refs[a.form][a.sample])
                }
                Err(_) => false,
            };
            ph.open[if ok { 1 } else { 2 }] += 1;
        }
        handle.join().expect("sender thread")
    });
    ph.late_ms = late;
    ph.submit_us.extend(submit);
    ph.snapshot_ms = scrapes;
    ph.spans.extend(spans);
}

/// Phase 2: one client keeps [`IN_FLIGHT`] requests outstanding for
/// `secs` seconds, to the f32 form for the first half and the int8 form
/// for the second, so each replica runs back-to-back full batches.
/// Throughput is the mean over the two forms of the upper quartile of the
/// rates over blocks of [`RATE_BLOCK`] consecutive completions, after
/// [`RATE_WARMUP`].
fn closed_loop(
    router: &Router,
    pool: &[Vec<f32>],
    refs: &[Vec<Vec<f32>>],
    seed: u64,
    secs: f64,
    traced: bool,
    ph: &mut Phases,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc105_ed00);
    let half = Duration::from_secs_f64(secs / 2.0);
    let mut rates = [0.0; 2];
    for (form, rate) in rates.iter_mut().enumerate() {
        let mut inflight: VecDeque<(Ticket, usize)> = VecDeque::with_capacity(IN_FLIGHT);
        let mut done: Vec<Instant> = Vec::new();
        let start = Instant::now();
        loop {
            while inflight.len() < IN_FLIGHT && start.elapsed() < half {
                let sample = rng.gen_range(0..POOL);
                ph.closed[0] += 1;
                let t = Instant::now();
                let res = router.submit_features(FORMS[form], &pool[sample]);
                ph.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                match res {
                    Ok(ticket) => inflight.push_back((ticket, sample)),
                    Err(_) => ph.closed[2] += 1,
                }
            }
            let Some((ticket, sample)) = inflight.pop_front() else { break };
            let logits = ticket.wait();
            let at = Instant::now();
            let ok = same_bits(&logits, &refs[form][sample]);
            ph.closed[if ok { 1 } else { 2 }] += 1;
            if at.duration_since(start) >= RATE_WARMUP {
                done.push(at);
            }
            if traced && done.len() % 256 == 255 {
                ph.spans.extend(router.trace_log().drain());
            }
        }
        *rate = block_rate(&done);
    }
    ph.peak_rps = (rates[0] + rates[1]) / 2.0;
}

/// Upper quartile of the completions per second over consecutive blocks
/// of [`RATE_BLOCK`] completions, so hypervisor stalls that slow fewer than
/// three quarters of the blocks do not move it; `NaN` with fewer than one
/// block.
fn block_rate(done: &[Instant]) -> f64 {
    let rates: Vec<f64> = done
        .iter()
        .step_by(RATE_BLOCK)
        .zip(done.iter().skip(RATE_BLOCK).step_by(RATE_BLOCK))
        .map(|(a, b)| RATE_BLOCK as f64 / b.duration_since(*a).as_secs_f64())
        .collect();
    percentile(&rates, 75.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = schedule(5, 600.0, 2.0);
        assert_eq!(a, schedule(5, 600.0, 2.0));
        assert_ne!(a, schedule(6, 600.0, 2.0));
        assert_eq!(a[..], schedule(5, 600.0, 3.0)[..a.len()]);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|x| x.due_ns < 2_000_000_000 && x.sample < POOL));
        // Poisson at 600/s over 2 s: 1200 expected, well inside ±15%.
        assert!((1020..1380).contains(&a.len()), "{}", a.len());
        let f32_share = a.iter().filter(|x| x.form == 0).count() as f64 / a.len() as f64;
        assert!((f32_share - 0.5).abs() < 0.01);
    }

    #[test]
    fn block_rate_takes_the_upper_quartile_block() {
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        // Four blocks of 64 completions: 64, 32, 640 and 128 ms long, at
        // 1000, 2000, 100 and 500 completions per second.
        let mut done: Vec<Instant> = (0..64).map(ms).collect();
        done.extend((0..64).map(|i| ms(64 + i / 2)));
        done.extend((0..64).map(|i| ms(96 + 10 * i)));
        done.extend((0..64).map(|i| ms(736 + 2 * i)));
        done.push(ms(864));
        assert!((block_rate(&done) - 1000.0).abs() < 1e-6, "{}", block_rate(&done));
        assert!(block_rate(&done[..64]).is_nan());
    }

    #[test]
    fn stalled_windows_do_not_move_the_percentiles() {
        let mut ph = Phases::default();
        let lats = [2.0, 2.5, 3.0, 40.0, 40.0, 40.0, 40.0, 40.0];
        for (window, lat) in lats.into_iter().enumerate() {
            for _ in 0..100 {
                ph.open_lat_ms.push(lat);
                ph.open_window.push(window as u64);
            }
        }
        // Five stalled windows of eight: the lower quartile is the second
        // quickest window.
        assert_eq!(ph.window_percentile(90.0), 2.5);
    }

    #[test]
    fn served_responses_equal_infer_into() {
        let model = ModelKind::LeNet;
        let ranks: Vec<(String, usize)> =
            model.paper_clipped_ranks().into_iter().map(|(l, k)| (l.to_string(), k)).collect();
        let net = net_at_ranks(model, &ranks, 2);
        let plans = [net.compile().unwrap(), net.compile_quantized(16).unwrap()];
        let (rec, setup_s, spans) = run(model, Exported { plans, ranks }, 2, 0.5, true);
        assert!(setup_s > 0.0);
        assert!(spans_json(&spans).starts_with("[[1,\"queued\","));
        assert_eq!(rec.failed, 0, "{:?}", rec.notes);
        assert!(rec.attempted > 100);
        assert!(rec.get("serve.traced_requests").unwrap() > 0.0);
        assert!(rec.get("nn.infer_step_us.f32.conv").unwrap() > 0.0);
        assert!(rec.get("nn.infer_step_us.int8.relu").unwrap() > 0.0);
    }
}
