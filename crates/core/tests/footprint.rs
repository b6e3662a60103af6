//! Heap footprint of a simulator: what a build and a warm fork allocate.
//!
//! The large tables (cache tag arrays, the L2BTB, the snoop-filter
//! directory) store a set only once it is first written, so a fresh
//! simulator and a clone of a briefly warmed one pay for the sets a run
//! reached, not for every table's capacity (2.5–7.1 MiB per generation
//! when the tables were dense).
//!
//! A counting global allocator sees every allocation in this binary, so
//! the file holds a single test: no other test allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use exynos_core::builder::SimBuilder;
use exynos_core::config::CoreConfig;
use exynos_trace::standard_suite;

/// Bytes requested from the allocator so far (a realloc counts its new
/// size); frees are not subtracted.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes `f` allocates, and its result.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATED.load(Ordering::Relaxed) - before, out)
}

const MIB: usize = 1 << 20;

#[test]
fn builds_and_warm_clones_allocate_only_what_was_written() {
    let slice = &standard_suite(1)[0];
    for (i, cfg) in CoreConfig::all_generations().into_iter().enumerate() {
        let (fresh, sim) = allocated_by(|| SimBuilder::config(cfg).build().unwrap());
        assert!(
            fresh < MIB,
            "M{}: a fresh simulator allocated {fresh} bytes (bound {MIB})",
            i + 1
        );
        let mut sim = sim;
        let mut g = slice.build().unwrap();
        sim.run_warmup(&mut *g, 40_000).unwrap();
        let (warm, fork) = allocated_by(|| sim.clone());
        assert!(
            warm < MIB * 3 / 2,
            "M{}: cloning after 40k steps allocated {warm} bytes (bound {})",
            i + 1,
            MIB * 3 / 2
        );
        drop(fork);
    }
}
