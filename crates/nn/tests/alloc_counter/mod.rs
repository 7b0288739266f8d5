//! Counting global allocator shared by the allocation-free-path suites.
//!
//! Only the measuring thread's allocations count: the test harness spawns
//! threads and reports results while a test runs, and a process-wide
//! counter would see those. A measured path that fanned work out to the
//! rayon pool would allocate on worker threads, out of this count's sight,
//! so every [`Window`] also asserts that the pool ran no job while it was
//! open. The suites size their networks below `PARALLEL_FLOP_THRESHOLD`,
//! which keeps every product inline on any host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

thread_local! {
    /// `const`-initialised and without a destructor, so reading or bumping
    /// it never allocates and the allocator cannot recurse into itself.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The pool counters a [`Window`] checks are process-global and the
/// harness runs a binary's tests on concurrent threads; each test holds
/// this lock across its whole body so no other test's pool jobs can land
/// inside its windows.
pub static SERIAL: Mutex<()> = Mutex::new(());

/// An open measurement of the calling thread's allocations.
pub struct Window {
    allocations: usize,
    pool: rayon::PoolStats,
}

impl Window {
    /// Starts counting. The pool is read first, since its first use builds
    /// the pool, which allocates.
    pub fn open() -> Window {
        let pool = rayon::pool_stats();
        Window { allocations: ALLOCATIONS.with(Cell::get), pool }
    }

    /// Allocations this thread made since [`Window::open`].
    ///
    /// # Panics
    ///
    /// If the pool ran a job in the meantime: its allocations would have
    /// gone uncounted.
    pub fn close(mut self) -> usize {
        let allocations = ALLOCATIONS.with(Cell::get) - self.allocations;
        let jobs = rayon::pool_stats_delta(&mut self.pool);
        assert_eq!(jobs.total_pushes(), 0, "the measured window ran pool jobs: {jobs:?}");
        allocations
    }
}
