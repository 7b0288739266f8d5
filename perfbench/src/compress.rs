//! The compression phase of both workloads: `run_pipeline_on` for LeNet
//! (PCA) and ConvNet (SVD) on the synthetic MNIST/CIFAR stand-ins. Its
//! exported f32 and int8 plans are what the serving phase serves.
//!
//! The untraced run calls `run_pipeline_on` itself. The traced run repeats
//! its stages and the loops of `train_baseline`, `rank_clip` and
//! `group_connection_deletion` through the same public calls in the same
//! order, with a span around each call, so its outcome must equal the
//! untraced one bit for bit.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use group_scissor::{area_report_at_ranks, run_pipeline_on, GroupScissorConfig, ModelKind};
use group_scissor::{PipelineOutcome, TrainConfig};
use rand::Rng;
use scissor_data::Dataset;
use scissor_linalg::Matrix;
use scissor_lra::convert::layer_fan_out;
use scissor_lra::{factorize_layer, layer_kind, layer_rank, LayerKind, LraMethod};
use scissor_lra::{ClipRecord, RankClipConfig, RankClipOutcome};
use scissor_ncs::{AreaReport, RoutingAnalysis};
use scissor_nn::layers::{Conv2d, Linear};
use scissor_nn::{CompiledNet, Layer, Network, Phase, Sgd, SoftmaxCrossEntropy, Tensor4};
use scissor_prune::{DeletionConfig, DeletionOutcome, DeletionRecord, GroupLassoRegularizer};
use scissor_prune::{MaskSet, PruneError};

use crate::flops;
use crate::record::{Fnv, Record};
use crate::stats::median;
use crate::tracer::Tracer;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The workload's pipeline configuration. Budgets are sized so one run
/// fits the benchmark's time limit while rank clipping still ends well
/// below the Eq. 2 break-even and deletion still removes groups.
pub fn config(model: ModelKind, seed: u64) -> GroupScissorConfig {
    let mut cfg = GroupScissorConfig::fast(model);
    match model {
        ModelKind::LeNet => {
            cfg.train_samples = 1000;
            cfg.test_samples = 400;
            cfg.baseline = TrainConfig::new(60);
            cfg.clip_every = 5;
            cfg.clip_iters = 30;
            cfg.deletion.iters = 150;
            cfg.deletion.finetune_iters = 80;
        }
        ModelKind::ConvNet => {
            // Half-size batches keep the run inside the time limit; the
            // SVD factors need the low deletion rate to stay stable.
            cfg.train_samples = 1000;
            cfg.test_samples = 100;
            cfg.method = LraMethod::Svd;
            cfg.baseline = TrainConfig::new(100);
            cfg.baseline.batch_size = 16;
            cfg.clip_every = 10;
            cfg.clip_iters = 30;
            cfg.deletion.iters = 40;
            cfg.deletion.finetune_iters = 20;
            cfg.deletion.batch_size = 16;
            cfg.deletion.sgd = Sgd::with_momentum(0.003);
        }
    }
    // Trace records only at the start and end of deletion: evaluations
    // would otherwise rival training in these short schedules.
    cfg.deletion.record_every = usize::MAX;
    cfg.data_seed = seed;
    cfg.init_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(7);
    cfg.baseline.seed = seed;
    cfg.deletion.seed = seed.wrapping_add(1);
    cfg
}

/// The quality side of one outcome, plus its bit-level fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct Quality {
    /// Test accuracy of the dense baseline.
    pub baseline_accuracy: f64,
    /// Final rank of each clipped layer.
    pub ranks: Vec<usize>,
    /// Full rank of each clipped layer.
    pub full_ranks: Vec<usize>,
    /// `PipelineOutcome::crossbar_area_ratio()`.
    pub crossbar_area_ratio: f64,
    /// `PipelineOutcome::routing_area_ratio()`.
    pub routing_area_ratio: f64,
    /// Test accuracy of the exported f32 plan.
    pub accuracy_f32: f64,
    /// Test accuracy of the exported int8 plan.
    pub accuracy_int8: f64,
    /// Mean share of groups at or below the deletion threshold at the end.
    pub deleted_group_frac: f64,
    /// Hash of everything above plus both state dicts.
    pub fingerprint: u64,
}

/// What the compression phase hands to the serving phase.
pub struct Exported {
    /// The exported f32 and int8 plans, deletion masks applied.
    pub plans: [CompiledNet; 2],
    /// Final rank of each clipped layer.
    pub ranks: Vec<(String, usize)>,
}

/// The model at the given ranks with seeded random factors: the layer
/// shapes of an exported plan, for computing its work. No solver runs.
pub fn net_at_ranks(model: ModelKind, ranks: &[(String, usize)], seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = model.build(&mut rng);
    for (name, k) in ranks {
        let layer = net.layer(name).expect("clipped layers exist");
        let (n, m) = layer.weight_matrix().expect("dense before factoring").shape();
        // Var(U·Vᵀ) = k · (1/n) · (1/k) = 1/n, the Xavier scale.
        let (a, b) = ((3.0 / n as f32).sqrt(), (3.0 / *k as f32).sqrt());
        let u = Matrix::from_fn(n, *k, |_, _| rng.gen_range(-a..a));
        let v = Matrix::from_fn(m, *k, |_, _| rng.gen_range(-b..b));
        let any = layer.as_any();
        let low_rank: Box<dyn Layer> = match any.downcast_ref::<Conv2d>() {
            Some(conv) => Box::new(conv.to_low_rank(u, v)),
            None => {
                Box::new(any.downcast_ref::<Linear>().expect("conv or linear").to_low_rank(u, v))
            }
        };
        net.replace_layer(name, low_rank).expect("layer exists");
    }
    net
}

/// The kind a layer name reports under, so both models print the same
/// per-layer metrics: `conv`, `fc`, `pool`, `relu`, or `other`.
pub fn layer_group(name: &str) -> &'static str {
    match name.trim_end_matches(|c: char| c.is_ascii_digit()) {
        "conv" => "conv",
        "fc" => "fc",
        "pool" => "pool",
        "relu" => "relu",
        _ => "other",
    }
}

/// The clipped layer with the largest weight matrix (LeNet's fc1,
/// ConvNet's conv3): the one whose spectral fits cost most.
fn largest_clip_layer(model: ModelKind) -> String {
    let clip = model.clip_layers();
    let shapes = model.layer_shapes();
    let size = |l: &String| shapes.iter().find(|s| s.0 == l).map_or(0, |s| s.1 * s.2);
    clip.iter().max_by_key(|l| size(l)).expect("a model clips at least one layer").clone()
}

/// The parts of a pipeline outcome the quality summary reads; filled by
/// `run_pipeline_on` in the untraced run and by the replay in the traced
/// one.
struct Parts<'a> {
    baseline_accuracy: f64,
    direct_lra_accuracy: f64,
    clip: &'a RankClipOutcome,
    area: &'a AreaReport,
    deletion: &'a DeletionOutcome,
    baseline_state: &'a [(String, Matrix)],
    final_state: &'a [(String, Matrix)],
    f32_accuracy: f64,
    int8_accuracy: f64,
}

impl Parts<'_> {
    fn of(o: &PipelineOutcome) -> Parts<'_> {
        Parts {
            baseline_accuracy: o.baseline.final_accuracy,
            direct_lra_accuracy: o.direct_lra_accuracy,
            clip: &o.clip,
            area: &o.area,
            deletion: &o.deletion,
            baseline_state: &o.baseline_state,
            final_state: &o.final_state,
            f32_accuracy: o.f32_accuracy,
            int8_accuracy: o.int8_accuracy,
        }
    }

    fn quality(&self) -> Quality {
        let deleted = self.deletion.trace.last().map_or(0.0, |r| {
            r.deleted_fraction.iter().sum::<f64>() / r.deleted_fraction.len().max(1) as f64
        });
        let q = Quality {
            baseline_accuracy: self.baseline_accuracy,
            ranks: self.clip.final_ranks.clone(),
            full_ranks: self.clip.full_ranks.clone(),
            crossbar_area_ratio: self.area.total_ratio(),
            routing_area_ratio: self.deletion.mean_area_fraction(),
            accuracy_f32: self.f32_accuracy,
            accuracy_int8: self.int8_accuracy,
            deleted_group_frac: deleted,
            fingerprint: 0,
        };
        let mut h = Fnv::default();
        for state in [self.baseline_state, self.final_state] {
            for (name, m) in state {
                h.bytes(name.as_bytes());
                h.f32s(m.as_slice());
            }
        }
        for &k in &q.ranks {
            h.u64(k as u64);
        }
        for v in [
            q.baseline_accuracy,
            self.direct_lra_accuracy,
            q.crossbar_area_ratio,
            q.routing_area_ratio,
            q.accuracy_f32,
            q.accuracy_int8,
            q.deleted_group_frac,
        ] {
            h.f64(v);
        }
        Quality { fingerprint: h.finish(), ..q }
    }
}

/// Generates the datasets and builds the model once, timing both.
fn setup(cfg: &GroupScissorConfig) -> (Dataset, Dataset, f64, f64) {
    let t = Instant::now();
    let (train, test) = cfg.datasets();
    let synth_s = t.elapsed().as_secs_f64();
    let mut rng = StdRng::seed_from_u64(cfg.init_seed);
    std::hint::black_box(cfg.model.build(&mut rng));
    (train, test, synth_s, t.elapsed().as_secs_f64())
}

/// Set-up `SETUP_REPS` times; returns the last datasets and the medians
/// of the data-generation and whole set-up times.
fn setup_reps(cfg: &GroupScissorConfig) -> (Dataset, Dataset, f64, f64) {
    let (mut synth, mut total) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (train, test, s, t) = setup(cfg);
        synth.push(s);
        total.push(t);
        last = Some((train, test));
    }
    let (train, test) = last.expect("at least one set-up");
    (train, test, median(&synth), median(&total))
}

fn quality_metrics(rec: &mut Record, q: &Quality) {
    rec.metric("crossbar_area_ratio", q.crossbar_area_ratio, "ratio");
    rec.metric("routing_area_ratio", q.routing_area_ratio, "ratio");
    rec.metric("accuracy_f32", q.accuracy_f32, "ratio");
    rec.metric("accuracy_int8", q.accuracy_int8, "ratio");
}

fn describe(q: &Quality) -> String {
    format!(
        "ranks {:?} of {:?}, crossbar {:.4}, routing {:.4}, accuracy baseline {:.4} f32 {:.4} \
         int8 {:.4}, deleted groups {:.3}",
        q.ranks,
        q.full_ranks,
        q.crossbar_area_ratio,
        q.routing_area_ratio,
        q.baseline_accuracy,
        q.accuracy_f32,
        q.accuracy_int8,
        q.deleted_group_frac
    )
}

/// Whether the outcome shows what the workload is meant to exercise:
/// LeNet compresses both areas within 0.01 of its baseline accuracy;
/// every ConvNet layer ends below full rank at accuracy 0.5 or more.
fn expectation(model: ModelKind, q: &Quality) -> String {
    let met = match model {
        ModelKind::LeNet => {
            q.crossbar_area_ratio < 1.0
                && q.routing_area_ratio < 1.0
                && q.accuracy_f32 >= q.baseline_accuracy - 0.01
        }
        ModelKind::ConvNet => {
            q.ranks.iter().zip(&q.full_ranks).all(|(k, m)| k < m) && q.accuracy_f32 >= 0.5
        }
    };
    format!("workload expectation {}", if met { "met" } else { "NOT met" })
}

fn exported(model: ModelKind, q: &Quality, plans: [CompiledNet; 2]) -> Exported {
    Exported { plans, ranks: model.clip_layers().into_iter().zip(q.ranks.clone()).collect() }
}

/// The untraced run: one `run_pipeline_on`. Returns the record, the
/// set-up time (median of [`SETUP_REPS`]) and the exported plans.
pub fn run_untraced(model: ModelKind, seed: u64) -> (Record, f64, Option<Exported>) {
    let cfg = config(model, seed);
    let mut rec = Record::default();
    let (train, test, _, setup_s) = setup_reps(&cfg);
    let t = Instant::now();
    let outcome = run_pipeline_on(&cfg, &train, &test);
    rec.metric("compress_s", t.elapsed().as_secs_f64(), "s");
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            rec.check(false, &format!("run_pipeline_on failed: {e}"));
            return (rec, setup_s, None);
        }
    };
    rec.check(true, "run_pipeline_on");
    let q = Parts::of(&o).quality();
    quality_metrics(&mut rec, &q);
    rec.fingerprint = Some(q.fingerprint);
    rec.notes.push(describe(&q));
    rec.notes.push(expectation(model, &q));
    let out = exported(model, &q, [o.compiled, o.compiled_int8]);
    (rec, setup_s, Some(out))
}

/// The traced run: one replayed pipeline with spans, plus the per-layer
/// metrics derived from them.
pub fn run_traced(model: ModelKind, seed: u64) -> (Record, Tracer, Option<Exported>) {
    let cfg = config(model, seed);
    let mut rec = Record::default();
    let (train, test, synth_s, _) = setup_reps(&cfg);
    let mut replay = Replay::new(&cfg);
    let root = replay.tr.begin("core.pipeline");
    let outcome = replay.pipeline(&cfg, &train, &test);
    replay.tr.end(root);
    let wall = replay.tr.secs(root);
    let mut out = None;
    match outcome {
        Ok((q, plans)) => {
            rec.check(true, "replayed pipeline");
            rec.fingerprint = Some(q.fingerprint);
            rec.notes.push(describe(&q));
            rec.metric("prune.deleted_group_frac", q.deleted_group_frac, "ratio");
            out = Some(exported(model, &q, plans));
        }
        Err(e) => rec.check(false, &format!("replayed pipeline failed: {e}")),
    }
    let attributed = replay.tr.attributed_frac(root);
    rec.check(attributed >= 0.9, "leaf spans cover at least 90% of the traced run");
    rec.metric("trace.wall_s", wall, "s");
    rec.metric("trace.attributed_frac", attributed, "ratio");
    rec.metric("data.synth_s", synth_s, "s");
    replay.metrics(&mut rec, model);
    (rec, replay.tr, out)
}

/// Span-instrumented replay of `run_pipeline_on`.
struct Replay {
    tr: Tracer,
    layers: Vec<String>,
    fwd: Vec<String>,
    bwd: Vec<String>,
    steps: u64,
    step_gflop: f64,
    step_mb: f64,
    clips: u64,
    fits: u64,
    probes: u64,
    useful_probes: u64,
    eval_samples: u64,
    lasso_steps: u64,
    mask_steps: u64,
}

impl Replay {
    fn new(cfg: &GroupScissorConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.init_seed);
        let net = cfg.model.build(&mut rng);
        let weighted: Vec<&str> = cfg.model.layer_shapes().iter().map(|s| s.0).collect();
        let layers: Vec<String> = net.layer_names().iter().map(|s| s.to_string()).collect();
        let span = |dir: &str, l: &String| {
            let who = if weighted.contains(&l.as_str()) { layer_group(l) } else { "other" };
            format!("nn.{dir}.{who}")
        };
        Self {
            tr: Tracer::new(),
            fwd: layers.iter().map(|l| span("fwd", l)).collect(),
            bwd: layers.iter().map(|l| span("bwd", l)).collect(),
            layers,
            steps: 0,
            step_gflop: 0.0,
            step_mb: 0.0,
            clips: 0,
            fits: 0,
            probes: 0,
            useful_probes: 0,
            eval_samples: 0,
            lasso_steps: 0,
            mask_steps: 0,
        }
    }

    /// Stage for stage `run_pipeline_on`.
    fn pipeline(
        &mut self,
        cfg: &GroupScissorConfig,
        train: &Dataset,
        test: &Dataset,
    ) -> Res<(Quality, [CompiledNet; 2])> {
        let stage = self.tr.begin("core.baseline");
        let mut rng = StdRng::seed_from_u64(cfg.init_seed);
        let mut net = self.tr.span("nn.build", || cfg.model.build(&mut rng));
        let baseline_accuracy = self.train_baseline(&mut net, train, test, &cfg.baseline);
        let baseline_state = self.tr.span("nn.state_dict", || net.state_dict());
        self.tr.end(stage);

        let stage = self.tr.begin("core.clip");
        let clip = self.rank_clip(&mut net, train, test, &cfg.clip_config())?;
        self.tr.end(stage);

        let stage = self.tr.begin("core.direct_lra");
        let mut rng = StdRng::seed_from_u64(cfg.init_seed);
        let mut dnet = self.tr.span("nn.build", || cfg.model.build(&mut rng));
        self.tr.span("nn.state_dict", || dnet.load_state_dict(&baseline_state))?;
        for (name, k) in clip.final_rank_map() {
            self.fit(&name, || factorize_layer(&mut dnet, &name, k, cfg.method))?;
        }
        let direct_lra_accuracy = self.eval_net(&mut dnet, test, cfg.baseline.eval_batch);
        self.tr.end(stage);

        let area = self.tr.span("ncs.report", || {
            area_report_at_ranks(cfg.model, &clip.final_rank_map(), &cfg.spec)
        });

        let stage = self.tr.begin("core.deletion");
        let reg = self.tr.span("prune.register", || {
            GroupLassoRegularizer::auto_register(&net, &cfg.spec, cfg.lambda)
        })?;
        let deletion = self.deletion(&mut net, train, test, &reg, &cfg.deletion)?;
        self.tr.end(stage);
        let final_state = self.tr.span("nn.state_dict", || net.state_dict());

        let stage = self.tr.begin("core.export");
        let mut compiled = self.tr.span("nn.compile", || net.compile())?;
        self.tr.span("prune.mask", || deletion.masks.apply_to_compiled(&mut compiled))?;
        let mut compiled_int8 =
            self.tr.span("nn.compile", || net.compile_quantized(cfg.spec.max_cols()))?;
        self.tr.span("prune.mask", || deletion.masks.apply_to_compiled(&mut compiled_int8))?;
        let eval_batch = cfg.deletion.eval_batch;
        let f32_accuracy = self.eval_plan(&compiled, test, eval_batch);
        let int8_accuracy = self.eval_plan(&compiled_int8, test, eval_batch);
        self.tr.end(stage);

        let q = Parts {
            baseline_accuracy,
            direct_lra_accuracy,
            clip: &clip,
            area: &area,
            deletion: &deletion,
            baseline_state: &baseline_state,
            final_state: &final_state,
            f32_accuracy,
            int8_accuracy,
        }
        .quality();
        Ok((q, [compiled, compiled_int8]))
    }

    fn batch(
        &mut self,
        train: &Dataset,
        batches: &mut Vec<Vec<usize>>,
        rng: &mut StdRng,
        batch_size: usize,
    ) -> (Tensor4, Vec<usize>) {
        self.tr.span("data.batch", || {
            if batches.is_empty() {
                *batches = train.shuffled_batches(batch_size, rng);
                batches.reverse();
            }
            let idx = batches.pop().expect("refilled when empty");
            train.batch(&idx)
        })
    }

    /// `Network::forward(.., Phase::Train)` one layer at a time.
    fn forward(&mut self, net: &mut Network, input: &Tensor4) -> Tensor4 {
        let mut x = self.tr.span("nn.fwd.other", || input.clone());
        for (i, name) in self.layers.iter().enumerate() {
            let layer = net.layer_mut(name).expect("layer names are stable");
            x = self.tr.span(&self.fwd[i], || layer.forward(&x, Phase::Train));
        }
        x
    }

    /// `Network::backward` one layer at a time.
    fn backward(&mut self, net: &mut Network, grad: &Tensor4) {
        let mut g = self.tr.span("nn.bwd.other", || grad.clone());
        for (i, name) in self.layers.iter().enumerate().rev() {
            let layer = net.layer_mut(name).expect("layer names are stable");
            g = self.tr.span(&self.bwd[i], || layer.backward(&g));
        }
    }

    fn count_step(&mut self, net: &Network, batch: usize) {
        let w = flops::train_step(net, batch);
        self.steps += 1;
        self.step_gflop += w.flops * 1e-9;
        self.step_mb += w.bytes(4.0) / (1 << 20) as f64;
    }

    /// One optimizer step: `Network::train_step`, or the deletion loop's
    /// step when a regularizer or masks are given.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        net: &mut Network,
        images: &Tensor4,
        labels: &[usize],
        sgd: &Sgd,
        iter: usize,
        reg: Option<&GroupLassoRegularizer>,
        masks: Option<&MaskSet>,
    ) -> Res<()> {
        self.count_step(net, labels.len());
        let step = self.tr.begin("nn.step");
        let loss_fn = SoftmaxCrossEntropy::new();
        let logits = self.forward(net, images);
        let out = self.tr.span("nn.loss", || loss_fn.forward(&logits, labels));
        let grad = self.tr.span("nn.loss", || loss_fn.backward(&out.probs, labels));
        self.backward(net, &grad);
        if let Some(reg) = reg {
            self.lasso_steps += 1;
            self.tr.span("prune.lasso", || reg.accumulate_grads(net))?;
        }
        if let Some(masks) = masks {
            self.mask_steps += 1;
            self.tr.span("prune.mask", || masks.apply_to_grads(net))?;
        }
        self.tr.span("nn.sgd", || sgd.step(&mut net.params_mut(), iter));
        if let Some(masks) = masks {
            self.tr.span("prune.mask", || masks.apply_to_values(net))?;
        }
        self.tr.end(step);
        Ok(())
    }

    fn eval_net(&mut self, net: &mut Network, test: &Dataset, batch: usize) -> f64 {
        self.eval_samples += test.len() as u64;
        self.tr.span("nn.eval", || net.evaluate(test.images(), test.labels(), batch))
    }

    fn eval_plan(&mut self, plan: &CompiledNet, test: &Dataset, batch: usize) -> f64 {
        self.eval_samples += test.len() as u64;
        self.tr.span("nn.eval", || plan.evaluate(test.images(), test.labels(), batch))
    }

    /// One spectral solver call on `layer`.
    fn fit<T, E>(&mut self, layer: &str, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        self.fits += 1;
        self.tr.span(&format!("lra.fit.{layer}"), f)
    }

    /// `train_baseline`; returns the final test accuracy.
    fn train_baseline(
        &mut self,
        net: &mut Network,
        train: &Dataset,
        test: &Dataset,
        cfg: &TrainConfig,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut batches = Vec::new();
        for iter in 0..cfg.iters {
            let (images, labels) = self.batch(train, &mut batches, &mut rng, cfg.batch_size);
            self.step(net, &images, &labels, &cfg.sgd, iter, None, None)
                .expect("a plain step has no fallible part");
            if cfg.record_every > 0 && (iter + 1) % cfg.record_every == 0 {
                self.eval_net(net, test, cfg.eval_batch);
            }
        }
        self.eval_net(net, test, cfg.eval_batch)
    }

    /// `rank_clip` (Algorithm 2).
    fn rank_clip(
        &mut self,
        net: &mut Network,
        train: &Dataset,
        test: &Dataset,
        cfg: &RankClipConfig,
    ) -> Res<RankClipOutcome> {
        let full_ranks =
            cfg.layers.iter().map(|n| layer_fan_out(net, n)).collect::<Result<Vec<_>, _>>()?;
        for name in &cfg.layers {
            if layer_kind(net, name)? == LayerKind::LowRank {
                continue;
            }
            let m = layer_fan_out(net, name)?;
            self.fit(name, || factorize_layer(net, name, m, cfg.method))?;
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut trace = Vec::new();
        let mut iter = 0usize;
        let mut batches = Vec::new();
        while iter < cfg.max_iters {
            self.clip_step(net, cfg)?;
            self.clip_record(net, test, cfg, iter, &mut trace)?;
            let stint = cfg.clip_every.min(cfg.max_iters - iter);
            for _ in 0..stint {
                let (images, labels) = self.batch(train, &mut batches, &mut rng, cfg.batch_size);
                self.step(net, &images, &labels, &cfg.sgd, iter, None, None)?;
                iter += 1;
            }
        }
        self.clip_step(net, cfg)?;
        self.clip_record(net, test, cfg, iter, &mut trace)?;
        let last = trace.last().expect("at least one record").clone();
        Ok(RankClipOutcome {
            layer_names: cfg.layers.clone(),
            final_ranks: last.ranks,
            final_accuracy: last.accuracy,
            trace,
            full_ranks,
        })
    }

    /// `rank_clip`'s clip step (Algorithm 2, lines 5–12).
    fn clip_step(&mut self, net: &mut Network, cfg: &RankClipConfig) -> Res<()> {
        self.clips += 1;
        for name in &cfg.layers {
            let factors = self.tr.span("lra.apply", || {
                net.layer(name)
                    .and_then(|l| l.low_rank_factors())
                    .map(|(u, v)| (u.clone(), v.clone()))
            });
            let (u, v) = factors.ok_or_else(|| format!("layer {name} is not low-rank"))?;
            let k_now = u.cols();
            if k_now <= 1 {
                continue;
            }
            self.probes += 1;
            let k_hat = self.fit(name, || cfg.method.min_rank_for_error(&u, cfg.eps))?.max(1);
            if k_hat < k_now {
                self.useful_probes += 1;
                let (u_hat, v_hat) = self.fit(name, || cfg.method.factorize(&u, k_hat))?;
                let set = self.tr.span("lra.apply", || {
                    let v_new = v.matmul(&v_hat);
                    net.layer_mut(name).is_some_and(|l| l.set_low_rank_factors(u_hat, v_new))
                });
                if !set {
                    return Err(format!("layer {name} refused its clipped factors").into());
                }
            }
        }
        Ok(())
    }

    /// `rank_clip`'s trace record: ranks plus accuracy through the
    /// compiled plan.
    fn clip_record(
        &mut self,
        net: &mut Network,
        test: &Dataset,
        cfg: &RankClipConfig,
        iter: usize,
        trace: &mut Vec<ClipRecord>,
    ) -> Res<()> {
        let ranks = cfg.layers.iter().map(|n| layer_rank(net, n)).collect::<Result<Vec<_>, _>>()?;
        let accuracy = match self.tr.span("nn.compile", || net.compile()) {
            Ok(plan) => self.eval_plan(&plan, test, cfg.eval_batch),
            Err(_) => self.eval_net(net, test, cfg.eval_batch),
        };
        trace.push(ClipRecord { iter, ranks, accuracy });
        Ok(())
    }

    /// `group_connection_deletion`.
    fn deletion(
        &mut self,
        net: &mut Network,
        train: &Dataset,
        test: &Dataset,
        reg: &GroupLassoRegularizer,
        cfg: &DeletionConfig,
    ) -> Res<DeletionOutcome> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut batches = Vec::new();
        let mut trace = Vec::new();
        let entry_names = reg.entry_names();
        self.deletion_record(net, test, reg, cfg, 0, &mut trace)?;
        for iter in 0..cfg.iters {
            let (images, labels) = self.batch(train, &mut batches, &mut rng, cfg.batch_size);
            self.step(net, &images, &labels, &cfg.sgd, iter, Some(reg), None)?;
            if (iter + 1) % cfg.record_every == 0 {
                self.deletion_record(net, test, reg, cfg, iter + 1, &mut trace)?;
            }
        }
        self.tr.span("prune.delete", || reg.delete_small_groups(net, cfg.threshold))?;
        let accuracy_after_deletion = self.eval_net(net, test, cfg.eval_batch);
        let masks = self.tr.span("prune.mask", || MaskSet::capture_nonzero(net, &entry_names))?;
        let mut ft_batches = Vec::new();
        for iter in 0..cfg.finetune_iters {
            let (images, labels) = self.batch(train, &mut ft_batches, &mut rng, cfg.batch_size);
            self.step(net, &images, &labels, &cfg.finetune_sgd, iter, None, Some(&masks))?;
        }
        let final_accuracy = self.eval_net(net, test, cfg.eval_batch);
        self.deletion_record(net, test, reg, cfg, cfg.iters + cfg.finetune_iters, &mut trace)?;
        let routing = self.tr.span("ncs.report", || {
            reg.entries()
                .iter()
                .map(|entry| {
                    let p = net
                        .param(entry.param())
                        .ok_or_else(|| PruneError::UnknownParam { name: entry.param().into() })?;
                    Ok(RoutingAnalysis::analyze(entry.param(), p.value(), entry.tiling(), 0.0)?)
                })
                .collect::<Res<Vec<_>>>()
        })?;
        Ok(DeletionOutcome {
            entry_names,
            trace,
            routing,
            accuracy_after_deletion,
            final_accuracy,
            masks,
        })
    }

    fn deletion_record(
        &mut self,
        net: &mut Network,
        test: &Dataset,
        reg: &GroupLassoRegularizer,
        cfg: &DeletionConfig,
        iter: usize,
        trace: &mut Vec<DeletionRecord>,
    ) -> Res<()> {
        let deleted = self.tr.span("prune.norms", || reg.deleted_fraction(net, cfg.threshold))?;
        let accuracy = self.eval_net(net, test, cfg.eval_batch);
        let deleted_fraction = deleted.into_iter().map(|(_, f)| f).collect();
        trace.push(DeletionRecord { iter, deleted_fraction, accuracy });
        Ok(())
    }

    /// Per-layer metrics from the spans and counters.
    fn metrics(&self, rec: &mut Record, model: ModelKind) {
        let t = |n: &str| self.tr.total(n);
        for stage in ["baseline", "clip", "direct_lra", "deletion", "export"] {
            rec.metric(format!("core.{stage}_s"), t(&format!("core.{stage}")).secs(), "s");
        }
        let steps = self.steps.max(1) as f64;
        let per_step = |n: &str| t(n).total_ns as f64 * 1e-6 / steps;
        rec.metric("data.batch_ms", t("data.batch").mean_ms(), "ms");
        rec.metric("nn.train_steps", self.steps as f64, "count");
        rec.metric("nn.step_ms", t("nn.step").mean_ms(), "ms");
        for dir in ["fwd", "bwd"] {
            for g in ["conv", "fc", "other"] {
                rec.metric(format!("nn.{dir}_ms.{g}"), per_step(&format!("nn.{dir}.{g}")), "ms");
            }
        }
        rec.metric("nn.loss_ms", per_step("nn.loss"), "ms");
        rec.metric("nn.sgd_ms", per_step("nn.sgd"), "ms");
        rec.metric("nn.step_gflop", self.step_gflop / steps, "GFLOP");
        rec.metric("nn.step_mb", self.step_mb / steps, "MB");
        rec.metric("nn.compile_ms", t("nn.compile").mean_ms(), "ms");
        rec.metric("nn.evals", t("nn.eval").count as f64, "count");
        let eval_us = t("nn.eval").total_ns as f64 * 1e-3 / self.eval_samples.max(1) as f64;
        rec.metric("nn.eval_us_per_sample", eval_us, "us");
        rec.metric("lra.clips", self.clips as f64, "count");
        rec.metric("lra.fits", self.fits as f64, "count");
        let fit_s: f64 =
            model.clip_layers().iter().map(|l| t(&format!("lra.fit.{l}")).secs()).sum();
        rec.metric("lra.fit_s", fit_s, "s");
        let largest = t(&format!("lra.fit.{}", largest_clip_layer(model))).secs();
        rec.metric("lra.fit_s.largest_layer", largest, "s");
        let useful = self.useful_probes as f64 / self.probes.max(1) as f64;
        rec.metric("lra.useful_fit_frac", useful, "ratio");
        let lasso = t("prune.lasso").total_ns as f64 * 1e-6 / self.lasso_steps.max(1) as f64;
        rec.metric("prune.lasso_ms", lasso, "ms");
        let mask = t("prune.mask").total_ns as f64 * 1e-6 / self.mask_steps.max(1) as f64;
        rec.metric("prune.mask_ms", mask, "ms");
        rec.metric("ncs.report_ms", t("ncs.report").total_ns as f64 * 1e-6, "ms");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny ConvNet run: the replay must reproduce `run_pipeline_on`
    /// bit for bit.
    #[test]
    fn traced_replay_equals_untraced_pipeline() {
        let mut cfg = config(ModelKind::ConvNet, 3);
        cfg.train_samples = 48;
        cfg.test_samples = 16;
        cfg.baseline = TrainConfig::new(4);
        cfg.baseline.batch_size = 8;
        cfg.baseline.eval_batch = 16;
        cfg.clip_every = 2;
        cfg.clip_iters = 4;
        cfg.deletion.iters = 3;
        cfg.deletion.finetune_iters = 2;
        cfg.deletion.record_every = 2;
        cfg.deletion.batch_size = 8;
        let (train, test) = cfg.datasets();
        let outcome = run_pipeline_on(&cfg, &train, &test).unwrap();
        let untraced = Parts::of(&outcome).quality();

        let mut replay = Replay::new(&cfg);
        let root = replay.tr.begin("core.pipeline");
        let (traced, plans) = replay.pipeline(&cfg, &train, &test).unwrap();
        replay.tr.end(root);
        assert_eq!(traced, untraced);
        let x = test.images().gather(&[0, 1]);
        for (plan, exported) in [&outcome.compiled, &outcome.compiled_int8].iter().zip(&plans) {
            assert_eq!(plan.infer(&x).as_slice(), exported.infer(&x).as_slice());
        }
        assert_eq!(replay.steps, 4 + 4 + 3 + 2);
        assert!(replay.tr.attributed_frac(root) > 0.5);
    }

    #[test]
    fn both_models_report_the_same_layer_groups() {
        assert_eq!(largest_clip_layer(ModelKind::LeNet), "fc1");
        assert_eq!(largest_clip_layer(ModelKind::ConvNet), "conv3");
        for model in [ModelKind::LeNet, ModelKind::ConvNet] {
            let mut rng = StdRng::seed_from_u64(1);
            let mut groups: Vec<&str> =
                model.build(&mut rng).layer_names().iter().map(|l| layer_group(l)).collect();
            groups.sort_unstable();
            groups.dedup();
            assert_eq!(groups, ["conv", "fc", "pool", "relu"], "{model}");
        }
        let ranks = vec![("conv1".to_string(), 3), ("conv2".to_string(), 4), ("fc1".into(), 5)];
        let net = net_at_ranks(ModelKind::LeNet, &ranks, 1);
        assert_eq!(layer_rank(&net, "fc1").unwrap(), 5);
    }

    #[test]
    fn workload_seed_drives_data_and_init() {
        let a = config(ModelKind::LeNet, 1);
        let b = config(ModelKind::LeNet, 2);
        assert_ne!(a.data_seed, b.data_seed);
        assert_ne!(a.init_seed, b.init_seed);
        assert_eq!(a, config(ModelKind::LeNet, 1));
    }
}
