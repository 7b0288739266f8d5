//! Zero-overhead-when-disabled regression for the per-step profiler: the
//! warm `infer_into` path with profiling off must allocate nothing and
//! pay nothing beyond one relaxed load per sub-batch and one untaken
//! branch per step of the shared forward loop, and even the *enabled*
//! warm path must stay allocation-free (recording is relaxed atomics into
//! slots preallocated at `enable_profiling` time).
//!
//! Same per-thread counting allocator as `no_alloc_infer.rs`: the network
//! is sized below `PARALLEL_FLOP_THRESHOLD` so the rayon pool's job
//! dispatch (the one legitimate allocator user) is bypassed, each window
//! checks that, and the assertions are exact on any host.

mod alloc_counter;

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use alloc_counter::{Window, SERIAL};
use scissor_nn::{CompiledNet, InferScratch, NetworkBuilder, Tensor4};

fn tiny_plan(seed: u64) -> CompiledNet {
    let mut rng = StdRng::seed_from_u64(seed);
    NetworkBuilder::new((1, 6, 6))
        .conv("conv1", 3, 3, 1, 0, &mut rng)
        .relu()
        .maxpool(2, 2)
        .linear("fc", 4, &mut rng)
        .build()
        .compile()
        .expect("compile")
}

fn input(batch: usize) -> Tensor4 {
    Tensor4::from_vec(
        batch,
        1,
        6,
        6,
        (0..batch * 36).map(|i| ((i * 5 + 1) % 17) as f32 * 0.1 - 0.8).collect(),
    )
}

#[test]
fn warm_forward_with_profiling_never_enabled_allocates_nothing() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let plan = tiny_plan(3);
    assert!(!plan.profiling_enabled());
    assert!(plan.profiler().is_none(), "no profiler is even built until enabled");
    let x = input(4);
    let mut scratch = plan.warm_scratch(4);
    let window = Window::open();
    for _ in 0..8 {
        let _ = plan.infer_into(&x, &mut scratch);
    }
    let allocations = window.close();
    assert_eq!(allocations, 0, "profiling-off warm forwards must not allocate");
}

#[test]
fn warm_forward_after_enable_then_disable_allocates_nothing() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let plan = tiny_plan(5);
    let profiler = plan.enable_profiling();
    plan.disable_profiling();
    assert!(!plan.profiling_enabled());
    let x = input(4);
    let mut scratch = plan.warm_scratch(4);
    let forwards_before = profiler.snapshot().forwards;
    let window = Window::open();
    for _ in 0..8 {
        let _ = plan.infer_into(&x, &mut scratch);
    }
    let allocations = window.close();
    assert_eq!(allocations, 0, "disabled-after-enable warm forwards must not allocate");
    assert_eq!(
        profiler.snapshot().forwards,
        forwards_before,
        "a disabled profiler records nothing"
    );
}

#[test]
fn warm_forward_with_profiling_enabled_allocates_nothing() {
    // The *enabled* path's claim: recording is relaxed atomics into
    // preallocated slots, so it is allocation-free too.
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let plan = tiny_plan(7);
    let profiler = plan.enable_profiling();
    let x = input(4);
    let mut scratch = plan.warm_scratch(4);
    let _ = plan.infer_into(&x, &mut scratch);
    let window = Window::open();
    for _ in 0..8 {
        let _ = plan.infer_into(&x, &mut scratch);
    }
    let allocations = window.close();
    assert_eq!(allocations, 0, "profiling-on warm forwards must not allocate");
    assert!(profiler.snapshot().forwards >= 8);
}

#[test]
fn profiler_counts_match_the_plan() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let plan = tiny_plan(9);
    let profiler = plan.enable_profiling();
    let x = input(3);
    let mut scratch = InferScratch::new();
    let reference = {
        let off = tiny_plan(9);
        off.infer(&x)
    };
    let logits = plan.infer_into(&x, &mut scratch);
    assert_eq!(logits.as_slice(), reference.as_slice(), "profiling never changes results");

    let snap = profiler.snapshot();
    assert_eq!(snap.forwards, 1);
    assert_eq!(snap.samples, 3);
    assert_eq!(snap.last_tile, 3);
    let names: Vec<&str> = snap.steps.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, plan.layer_names(), "one profiled step per compiled step, in order");
    let kinds: Vec<&str> = snap.steps.iter().map(|s| s.kind).collect();
    assert_eq!(kinds, vec!["conv", "relu", "maxpool", "linear"]);
    assert!(snap.steps.iter().all(|s| s.calls == 1), "each step ran once for one sub-batch");
    // The specs carry the tile planner's footprint model: the worst step's
    // working set at any tile must agree with the plan's own estimate.
    for tile in [1usize, 3, 8] {
        let worst =
            snap.steps.iter().map(|s| s.working_set_bytes(tile)).max().unwrap_or(0) as usize;
        assert_eq!(worst, plan.working_set_bytes(tile));
    }

    profiler.reset();
    assert_eq!(profiler.snapshot().forwards, 0);
}

#[test]
fn disabled_profiling_adds_no_measurable_per_step_cost() {
    // Timing guard for the one-relaxed-load claim. Min-over-rounds is the
    // robust estimator under scheduler noise, and the acceptance bound is
    // deliberately loose (3×) — this is a regression tripwire for
    // accidentally introducing per-step work on the disabled path, not a
    // micro-benchmark.
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let baseline_plan = tiny_plan(11);
    let machinery_plan = tiny_plan(11);
    // Build the profiler machinery, then disable: the hot path now has
    // the flag load and a populated OnceLock to not look at.
    machinery_plan.enable_profiling();
    machinery_plan.disable_profiling();

    let x = input(4);
    let mut scratch_a = baseline_plan.warm_scratch(4);
    let mut scratch_b = machinery_plan.warm_scratch(4);

    let time_min = |plan: &CompiledNet, scratch: &mut InferScratch| {
        let mut best = u64::MAX;
        for _ in 0..200 {
            let t0 = Instant::now();
            let _ = plan.infer_into(&x, scratch);
            best = best.min(t0.elapsed().as_nanos() as u64);
        }
        best
    };
    // Interleave to equalize frequency/cache drift between the two.
    let _ = time_min(&baseline_plan, &mut scratch_a);
    let _ = time_min(&machinery_plan, &mut scratch_b);
    let base = time_min(&baseline_plan, &mut scratch_a);
    let with_machinery = time_min(&machinery_plan, &mut scratch_b);
    assert!(
        with_machinery <= base.saturating_mul(3).max(base + 50_000),
        "disabled profiling must not slow the forward: baseline {base} ns, \
         with machinery {with_machinery} ns"
    );
}
