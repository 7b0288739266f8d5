//! Criterion micro-benchmarks of the computational kernels underlying the
//! reproduction: matmul at layer shapes, im2col, the spectral solvers, the
//! group-lasso gradient and the hardware analyses.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use rand::rngs::StdRng;
use rand::SeedableRng;
use scissor_linalg::{svd, Matrix, Pca};
use scissor_ncs::{CrossbarSpec, GroupPartition, RoutingAnalysis, Tiling};
use scissor_nn::im2col::im2col;
use scissor_nn::Tensor4;

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
    bench_spectral,
    bench_hardware
);
criterion_main!(benches);
