//! Criterion micro-benchmarks of the computational kernels underlying the
//! reproduction: matmul at layer shapes, im2col/col2im, one whole training
//! step per benchmark model, the spectral solvers, the group-lasso gradient
//! and the hardware analyses.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use group_scissor::ModelKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scissor_linalg::{svd, Matrix, Pca};
use scissor_ncs::{CrossbarSpec, GroupPartition, RoutingAnalysis, Tiling};
use scissor_nn::im2col::{col2im, im2col};
use scissor_nn::layers::{Conv2d, Linear};
use scissor_nn::{Layer, Network, Sgd, Tensor4};

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::random_uniform(rows, cols, 0.5, &mut rng)
}

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    // LeNet conv2 forward: im2col(2048×500) × weight(500×50).
    let a = rand_matrix(2048, 500, 1);
    let b = rand_matrix(500, 50, 2);
    g.bench_function("conv2_forward_2048x500x50", |bench| {
        bench.iter(|| a.matmul(&b));
    });
    // The same shape on the scalar blocked reference kernel: the gap is the
    // register-tiled micro-kernel's contribution.
    g.bench_function("conv2_forward_scalar_blocked", |bench| {
        bench.iter(|| a.matmul_scalar(&b));
    });
    // fc1 low-rank: (32×800)·(800×36).
    let x = rand_matrix(32, 800, 3);
    let u = rand_matrix(800, 36, 4);
    g.bench_function("fc1_lowrank_32x800x36", |bench| {
        bench.iter(|| x.matmul(&u));
    });
    g.bench_function("fc1_lowrank_scalar_blocked", |bench| {
        bench.iter(|| x.matmul_scalar(&u));
    });
    // Gradient shape: Aᵀ·B at conv2 sizes.
    let gout = rand_matrix(2048, 50, 5);
    g.bench_function("conv2_wgrad_tn_500x2048x50", |bench| {
        bench.iter(|| a.matmul_tn(&gout));
    });
    g.bench_function("conv2_wgrad_tn_scalar_blocked", |bench| {
        bench.iter(|| a.matmul_tn_scalar(&gout));
    });
    // ConvNet conv2's input gradient at batch 16: dcols = g·Wᵀ with
    // g 4096×32 and W 800×32 — `matmul_nt` (transpose + tiled kernel)
    // beside the dot-product reference it equals bit for bit.
    let g16 = rand_matrix(4096, 32, 6);
    let w2 = rand_matrix(800, 32, 7);
    g.bench_function("convnet_conv2_dcols_nt_4096x32x800", |bench| {
        bench.iter(|| g16.matmul_nt(&w2));
    });
    g.bench_function("convnet_conv2_dcols_nt_scalar", |bench| {
        bench.iter(|| g16.matmul_nt_scalar(&w2));
    });
    g.finish();
}

/// Reference triple loop (j-inner, no blocking) — the baseline the blocked
/// kernel is measured against.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(n, m);
    for i in 0..n {
        for j in 0..m {
            let mut acc = 0.0_f32;
            for p in 0..k {
                acc += a[(i, p)] * b[(p, j)];
            }
            c[(i, j)] = acc;
        }
    }
    c
}

/// Serial vs rayon-parallel blocked matmul on square operands at and above
/// the 512×512 point (the acceptance shape for the pool dispatch).
fn bench_matmul_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul_parallel");
    g.sample_size(10);
    eprintln!("[kernels] matmul worker threads: {}", scissor_linalg::matmul_worker_threads());
    for n in [512usize, 768] {
        let a = rand_matrix(n, n, 20 + n as u64);
        let b = rand_matrix(n, n, 21 + n as u64);
        if n == 512 {
            g.bench_function(&format!("naive_{n}x{n}"), |bench| {
                bench.iter(|| naive_matmul(&a, &b));
            });
        }
        g.bench_function(&format!("serial_blocked_{n}x{n}"), |bench| {
            bench.iter(|| a.matmul_serial(&b));
        });
        g.bench_function(&format!("parallel_blocked_{n}x{n}"), |bench| {
            bench.iter(|| a.matmul_parallel(&b));
        });
    }
    g.finish();
}

fn bench_im2col(c: &mut Criterion) {
    let mut g = c.benchmark_group("im2col");
    let lenet_in = Tensor4::zeros(32, 20, 12, 12);
    g.bench_function("lenet_conv2_b32", |bench| {
        bench.iter(|| im2col(&lenet_in, 5, 5, 1, 0));
    });
    let convnet_in = Tensor4::zeros(32, 32, 16, 16);
    g.bench_function("convnet_conv2_b32", |bench| {
        bench.iter(|| im2col(&convnet_in, 5, 5, 1, 2));
    });
    g.finish();
    // The adjoint at ConvNet conv2's training batch of 16.
    let mut g = c.benchmark_group("col2im");
    let dcols = rand_matrix(16 * 16 * 16, 32 * 5 * 5, 10);
    g.bench_function("convnet_conv2_b16", |bench| {
        bench.iter(|| col2im(&dcols, (16, 32, 16, 16), 5, 5, 1, 2));
    });
    g.finish();
}

/// A benchmark model, dense or with its clip layers factored at `ranks`
/// (random factors: the step's cost depends only on the shapes).
fn model(kind: ModelKind, ranks: Option<[usize; 3]>) -> Network {
    let mut rng = StdRng::seed_from_u64(11);
    let mut net = kind.build(&mut rng);
    for (name, k) in kind.clip_layers().iter().zip(ranks.into_iter().flatten()) {
        let layer = net.layer(name).expect("clip layer");
        let (fan_in, fan_out) = layer.weight_matrix().expect("dense weight").shape();
        let u = Matrix::random_uniform(fan_in, k, 0.1, &mut rng);
        let v = Matrix::random_uniform(fan_out, k, 0.1, &mut rng);
        let any = layer.as_any();
        let low: Box<dyn Layer> = match any.downcast_ref::<Conv2d>() {
            Some(conv) => Box::new(conv.to_low_rank(u, v)),
            None => Box::new(any.downcast_ref::<Linear>().expect("linear").to_low_rank(u, v)),
        };
        net.replace_layer(name, low).expect("replace");
    }
    net
}

/// One SGD step — forward, softmax loss, backward, update — at the
/// benchmark's training batches (LeNet 32, ConvNet 16), dense and at the
/// ranks the benchmark's compression ends at.
fn bench_train_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("train_step");
    g.sample_size(10);
    let sgd = Sgd::new(1e-3);
    for (kind, batch, ranks, label) in [
        (ModelKind::LeNet, 32, None, "lenet_b32_dense"),
        (ModelKind::LeNet, 32, Some([11, 38, 243]), "lenet_b32_ranks_11_38_243"),
        (ModelKind::ConvNet, 16, None, "convnet_b16_dense"),
        (ModelKind::ConvNet, 16, Some([28, 30, 58]), "convnet_b16_ranks_28_30_58"),
    ] {
        let mut net = model(kind, ranks);
        let (ch, h, w) = kind.input_shape();
        let data = rand_matrix(batch, ch * h * w, 12).into_vec();
        let images = Tensor4::from_vec(batch, ch, h, w, data);
        let labels: Vec<usize> = (0..batch).map(|i| i % 10).collect();
        g.bench_function(label, |bench| {
            bench.iter(|| net.train_step(&images, &labels, &sgd, 0));
        });
    }
    g.finish();
}

fn bench_spectral(c: &mut Criterion) {
    let mut g = c.benchmark_group("spectral");
    g.sample_size(10);
    // PCA of the layer shapes rank clipping sees most often, plus the dense
    // fc1 weight behind its first fc1 fit and Direct LRA (the largest fit).
    for (n, m, name) in [
        (500usize, 50usize, "pca_conv2_500x50"),
        (800, 128, "pca_fc1u_800x128"),
        (800, 500, "pca_fc1_800x500"),
    ] {
        let w = rand_matrix(n, m, 7);
        g.bench_function(name, |bench| {
            bench.iter(|| Pca::fit(&w).expect("fit"));
        });
    }
    let w = rand_matrix(200, 64, 8);
    g.bench_function("svd_200x64", |bench| {
        bench.iter(|| svd(&w).expect("svd"));
    });
    g.finish();
}

fn bench_hardware(c: &mut Criterion) {
    let mut g = c.benchmark_group("hardware");
    let spec = CrossbarSpec::default();
    let w = rand_matrix(800, 36, 9);
    let tiling = Tiling::plan(800, 36, &spec).expect("tile");
    g.bench_function("tiling_plan_800x36", |bench| {
        bench.iter(|| Tiling::plan(800, 36, &spec).expect("tile"));
    });
    g.bench_function("routing_analysis_800x36", |bench| {
        bench.iter(|| RoutingAnalysis::analyze("w", &w, &tiling, 0.0).expect("analyze"));
    });
    let partition = GroupPartition::from_tiling(&tiling);
    g.bench_function("group_norms_800x36", |bench| {
        bench.iter(|| {
            let r = partition.row_group_norms(&w);
            let c2 = partition.col_group_norms(&w);
            (r, c2)
        });
    });
    g.bench_function("zero_small_groups_800x36", |bench| {
        bench.iter_batched(
            || w.clone(),
            |mut m| partition.zero_small_groups(&mut m, 0.5),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_matmul_parallel,
    bench_im2col,
    bench_train_step,
    bench_spectral,
    bench_hardware
);
criterion_main!(benches);
