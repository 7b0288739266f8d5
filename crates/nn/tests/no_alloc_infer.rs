//! Proves the compiled plan's warm-path claim: after a warm-up pass,
//! `CompiledNet::infer_into` performs **zero heap allocation**.
//!
//! A global allocator wraps the system one and counts each thread's
//! allocations; the network is sized so every matmul stays below
//! `PARALLEL_FLOP_THRESHOLD` (the rayon pool's job dispatch is the one
//! legitimate allocator user on larger shapes, and it is bypassed below the
//! threshold — each window checks that, which keeps the assertion exact on
//! any host core count).

mod alloc_counter;

use rand::rngs::StdRng;
use rand::SeedableRng;

use alloc_counter::{Window, SERIAL};
use scissor_nn::{InferScratch, NetworkBuilder, Tensor4, TileConfig};

#[test]
fn warm_compiled_forward_allocates_nothing() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(3);
    // Small enough that every product is under the parallel threshold;
    // still one of each step kind (conv, pool, relu, linear).
    let net = NetworkBuilder::new((1, 6, 6))
        .conv("conv1", 3, 3, 1, 0, &mut rng)
        .relu()
        .maxpool(2, 2)
        .linear("fc", 4, &mut rng)
        .build();
    let plan = net.compile().expect("compile");
    let batch = 4;
    let x = Tensor4::from_vec(
        batch,
        1,
        6,
        6,
        (0..batch * 36).map(|i| ((i * 5 + 1) % 17) as f32 * 0.1 - 0.8).collect(),
    );
    let mut scratch = InferScratch::new();

    // Warm-up: the scratch buffers size themselves here.
    let warm = plan.infer_into(&x, &mut scratch).as_slice().to_vec();
    let _ = plan.infer_into(&x, &mut scratch);

    let window = Window::open();
    let logits = plan.infer_into(&x, &mut scratch);
    assert_eq!(logits.as_slice(), warm.as_slice(), "warm passes must agree");
    let allocations = window.close();
    assert_eq!(allocations, 0, "warm compiled forward must not allocate");
}

#[test]
fn warm_scratch_makes_the_first_real_pass_allocation_free() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(5);
    let net = NetworkBuilder::new((1, 6, 6))
        .conv("conv1", 3, 3, 1, 0, &mut rng)
        .relu()
        .maxpool(2, 2)
        .linear("fc", 4, &mut rng)
        .build();
    let plan = net.compile().expect("compile");
    let max_batch = 4;
    let mut scratch = plan.warm_scratch(max_batch);
    // Inputs at max batch and below; buffers were pre-sized by the zero
    // pass, so even the FIRST real forward must not touch the allocator.
    for batch in [max_batch, 2, 1] {
        let x = Tensor4::from_vec(
            batch,
            1,
            6,
            6,
            (0..batch * 36).map(|i| ((i * 3 + 2) % 19) as f32 * 0.1 - 0.9).collect(),
        );
        let window = Window::open();
        let logits = plan.infer_into(&x, &mut scratch);
        let allocations = window.close();
        assert_eq!(logits.as_slice().len(), batch * 4);
        assert_eq!(allocations, 0, "warmed scratch pass (batch {batch}) must not allocate");
    }
    // And the result matches a cold-scratch pass bitwise.
    let x = Tensor4::from_vec(
        2,
        1,
        6,
        6,
        (0..72).map(|i| ((i * 3 + 2) % 19) as f32 * 0.1 - 0.9).collect(),
    );
    let warm = plan.infer_into(&x, &mut scratch).as_slice().to_vec();
    let cold = plan.infer(&x);
    assert_eq!(warm.as_slice(), cold.as_slice());
}

#[test]
fn tiled_warm_forward_allocates_nothing() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(6);
    let net = NetworkBuilder::new((1, 6, 6))
        .conv("conv1", 3, 3, 1, 0, &mut rng)
        .relu()
        .maxpool(2, 2)
        .linear("fc", 4, &mut rng)
        .build();
    let mut plan = net.compile().expect("compile");
    // Force real tiling: batch 6 in sub-batches of 2 (3 tiles) plus a
    // non-dividing tile over batch 5 (2 + 2 + 1).
    plan.set_tile_config(TileConfig::fixed(2));
    let mut scratch = plan.warm_scratch(6);
    for batch in [6usize, 5, 3, 1] {
        let x = Tensor4::from_vec(
            batch,
            1,
            6,
            6,
            (0..batch * 36).map(|i| ((i * 7 + 5) % 23) as f32 * 0.1 - 1.0).collect(),
        );
        let window = Window::open();
        let logits = plan.infer_into(&x, &mut scratch);
        let allocations = window.close();
        assert_eq!(logits.shape(), (batch, 4));
        assert_eq!(allocations, 0, "warm tiled forward (batch {batch}) must not allocate");
    }
    // And tiled output equals the untiled pass bitwise.
    let x = Tensor4::from_vec(
        5,
        1,
        6,
        6,
        (0..180).map(|i| ((i * 7 + 5) % 23) as f32 * 0.1 - 1.0).collect(),
    );
    let tiled = plan.infer_into(&x, &mut scratch).as_slice().to_vec();
    plan.set_tile_config(TileConfig::untiled());
    let untiled = plan.infer(&x);
    assert_eq!(tiled.as_slice(), untiled.as_slice());
}

#[test]
fn evaluate_chunks_add_no_allocations_beyond_warmup() {
    // Regression for the eval path's per-chunk `Vec<usize>` index +
    // `gather` copy: chunks are zero-copy `batch_range` views now, so an
    // evaluation with many chunks must allocate exactly as much as one
    // with a single chunk (the predictions vector + scratch warm-up) —
    // chunk count must not appear in the allocation count.
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(8);
    let net = NetworkBuilder::new((1, 6, 6))
        .conv("conv1", 3, 3, 1, 0, &mut rng)
        .relu()
        .maxpool(2, 2)
        .linear("fc", 4, &mut rng)
        .build();
    let plan = net.compile().expect("compile");
    let batch = 4;
    let count_eval = |n: usize| {
        let x = Tensor4::from_vec(
            n,
            1,
            6,
            6,
            (0..n * 36).map(|i| ((i * 11 + 3) % 29) as f32 * 0.1 - 1.2).collect(),
        );
        let labels: Vec<usize> = (0..n).map(|i| i % 4).collect();
        let window = Window::open();
        let _ = plan.evaluate(&x, &labels, batch);
        window.close()
    };
    let one_chunk = count_eval(batch);
    let six_chunks = count_eval(6 * batch);
    assert_eq!(
        six_chunks, one_chunk,
        "6-chunk evaluation must allocate exactly what a 1-chunk one does"
    );
}

#[test]
fn predict_into_is_allocation_free_when_warm() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(9);
    let net = NetworkBuilder::new((1, 6, 6))
        .conv("conv1", 3, 3, 1, 0, &mut rng)
        .relu()
        .linear("fc", 4, &mut rng)
        .build();
    let plan = net.compile().expect("compile");
    let batch = 4;
    let x = Tensor4::from_vec(
        batch,
        1,
        6,
        6,
        (0..batch * 36).map(|i| ((i * 13 + 1) % 31) as f32 * 0.1 - 1.4).collect(),
    );
    let mut scratch = plan.warm_scratch(batch);
    let mut preds = Vec::with_capacity(batch);
    let window = Window::open();
    plan.predict_into(x.batch_range(0..batch), &mut scratch, &mut preds);
    let allocations = window.close();
    assert_eq!(preds.len(), batch);
    assert_eq!(allocations, 0, "warm predict_into must not allocate");
    assert_eq!(preds, plan.predict(&x, &mut scratch), "into-variant matches the convenience path");
}

#[test]
fn smaller_batches_through_a_warm_scratch_allocate_nothing() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(4);
    let net = NetworkBuilder::new((1, 5, 5))
        .conv("conv1", 2, 3, 1, 0, &mut rng)
        .relu()
        .linear("fc", 3, &mut rng)
        .build();
    let plan = net.compile().expect("compile");
    let big = Tensor4::zeros(6, 1, 5, 5);
    let small = Tensor4::zeros(2, 1, 5, 5);
    let mut scratch = InferScratch::new();
    let _ = plan.infer_into(&big, &mut scratch);

    let window = Window::open();
    let _ = plan.infer_into(&small, &mut scratch);
    let _ = plan.infer_into(&big, &mut scratch);
    let allocations = window.close();
    assert_eq!(allocations, 0, "shrink/regrow within warmed capacity must not allocate");
}
