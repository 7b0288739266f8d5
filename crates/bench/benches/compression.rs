//! Compression throughput — the serving-fleet scenario behind the
//! work-stealing pool: several models re-compressing *concurrently* on one
//! shared pool must each finish in close to their solo wall-time instead of
//! collapsing under contention.
//!
//! Three sections:
//!
//! 1. spectral kernels — `svd` at the 200×64 bench shape, PCA at the
//!    common clipping shapes, and the fused low-rank reconstruction;
//! 2. solo pipelines — micro-budget `train→clip→prune→compile` per model
//!    (LeNet clips with PCA, ConvNet with SVD), each run alone;
//! 3. concurrent pipelines — the same two runs in flight at once on the
//!    shared pool, reporting per-model concurrent/solo ratios and the
//!    aggregate efficiency `Σ solo / concurrent wall`.
//!
//! Reading the numbers: on a multi-core host each model's concurrent time
//! should stay close to its solo time (ratio ≲ 1.3) and efficiency lands
//! near the core count captured by two jobs. On a single core the ratios
//! are necessarily ~2 (the jobs time-share), so the collapse signal is the
//! *efficiency*: ≈ 1.0 means the pool interleaved both jobs without
//! overhead; well below 1.0 means contention burned real time.

use std::time::{Duration, Instant};

use group_scissor::report::text_table;
use group_scissor::{run_pipeline_on, GroupScissorConfig, ModelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scissor_lra::LraMethod;

use scissor_linalg::{svd, Matrix, Pca};

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::random_uniform(rows, cols, 0.5, &mut rng)
}

fn ms(d: Duration) -> String {
    format!("{:.1} ms", d.as_secs_f64() * 1e3)
}

/// Median wall-time of `reps` runs.
fn median_time<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// A micro-budget pipeline config: the full `train→clip→prune→compile`
/// sequence with iteration counts cut to seconds-scale so the target can
/// run as a CI smoke. The *work shape* (layer sizes, pool fan-out) matches
/// the fast preset; only the budgets shrink.
fn micro_cfg(model: ModelKind) -> GroupScissorConfig {
    let mut cfg = GroupScissorConfig::fast(model);
    cfg.train_samples = match model {
        ModelKind::LeNet => 400,
        ModelKind::ConvNet => 320,
    };
    cfg.test_samples = 120;
    cfg.baseline.iters = 60;
    cfg.clip_every = 10;
    cfg.clip_iters = 30;
    cfg.deletion.iters = 40;
    cfg.deletion.finetune_iters = 20;
    cfg.deletion.record_every = 20;
    // LeNet clips with the paper's preferred PCA; ConvNet takes the SVD
    // back-end so the concurrent phase drives both spectral solvers.
    cfg.method = match model {
        ModelKind::LeNet => LraMethod::Pca,
        ModelKind::ConvNet => LraMethod::Svd,
    };
    cfg
}

/// One full micro pipeline; returns its wall-time.
fn run_one(cfg: &GroupScissorConfig) -> Duration {
    let (train, test) = cfg.datasets();
    let t0 = Instant::now();
    let outcome = run_pipeline_on(cfg, &train, &test).expect("pipeline");
    std::hint::black_box(outcome);
    t0.elapsed()
}

fn spectral_section() {
    println!("== spectral kernels ==\n");
    let w = rand_matrix(200, 64, 8);
    // One unmeasured decomposition absorbs process warmup (page faults,
    // allocator growth) so the first-timed kernel isn't penalized.
    std::hint::black_box(svd(&w).expect("warmup"));
    let svd_time = median_time(5, || svd(&w).expect("svd"));
    let decomp = svd(&w).expect("svd");
    let recon = median_time(20, || decomp.reconstruct(16));
    let pca = {
        let w = rand_matrix(500, 50, 7);
        median_time(5, || Pca::fit(&w).expect("fit"))
    };
    let rows = vec![
        vec!["svd_200x64".into(), ms(svd_time)],
        vec!["svd_reconstruct_k16 (fused)".into(), ms(recon)],
        vec!["pca_conv2_500x50".into(), ms(pca)],
    ];
    println!("{}", text_table(&["kernel", "median wall"], &rows));
}

fn main() {
    println!("== Compression throughput: solo vs concurrent pipelines ==\n");
    eprintln!("[compression] pool workers: {}", scissor_linalg::matmul_worker_threads());

    spectral_section();

    let lenet = micro_cfg(ModelKind::LeNet);
    let convnet = micro_cfg(ModelKind::ConvNet);

    println!("\n== solo micro pipelines (train→clip→prune→compile) ==\n");
    let solo_lenet = run_one(&lenet);
    let solo_convnet = run_one(&convnet);
    println!(
        "{}",
        text_table(
            &["model", "LRA", "solo wall"],
            &[
                vec!["LeNet".into(), "pca".into(), ms(solo_lenet)],
                vec!["ConvNet".into(), "svd".into(), ms(solo_convnet)],
            ],
        )
    );

    println!("== concurrent micro pipelines (both in flight) ==\n");
    let wall0 = Instant::now();
    let (conc_lenet, conc_convnet) = std::thread::scope(|s| {
        let a = s.spawn(|| run_one(&lenet));
        let b = s.spawn(|| run_one(&convnet));
        (a.join().expect("lenet pipeline"), b.join().expect("convnet pipeline"))
    });
    let wall = wall0.elapsed();

    let ratio = |conc: Duration, solo: Duration| {
        format!("{:.2}x", conc.as_secs_f64() / solo.as_secs_f64().max(1e-9))
    };
    let rows = vec![
        vec!["LeNet".into(), ms(solo_lenet), ms(conc_lenet), ratio(conc_lenet, solo_lenet)],
        vec![
            "ConvNet".into(),
            ms(solo_convnet),
            ms(conc_convnet),
            ratio(conc_convnet, solo_convnet),
        ],
    ];
    println!("{}", text_table(&["model", "solo", "concurrent", "conc/solo"], &rows));

    let sum_solo = solo_lenet + solo_convnet;
    let efficiency = sum_solo.as_secs_f64() / wall.as_secs_f64().max(1e-9);
    println!(
        "concurrent wall {} | Σ solo {} | efficiency {:.2}",
        ms(wall),
        ms(sum_solo),
        efficiency
    );
    println!(
        "multi-core: per-model conc/solo ≲ 1.3 and efficiency → job overlap;\n\
         single core: conc/solo ≈ 2 is expected time-sharing — contention collapse\n\
         shows up as efficiency well below 1.0."
    );
}
