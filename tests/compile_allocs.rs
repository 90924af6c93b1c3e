//! Heap allocations per compile, gated. A cold compile used to spend
//! most of its time copying the IR; the ceilings below keep copies from
//! creeping back. Each sits 15 % above the count measured when it was
//! set, with the count before the compile path stopped copying beside it.
//!
//! The counting allocator counts per thread, because the test harness
//! runs tests on parallel threads.

use hipacc_core::{Operator, Target};
use hipacc_filters::bilateral::bilateral_operator;
use hipacc_filters::median::median3_operator;
use hipacc_hwmodel::device::tesla_c2050;
use hipacc_image::BoundaryMode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made by one 16x16 compile of `op` for the Tesla C2050
/// (CUDA) at the default `opt_level` 1, the `cold_sweep` setting.
fn allocations_per_compile(op: &Operator) -> u64 {
    let target = Target::cuda(tesla_c2050());
    let before = ALLOCATIONS.with(Cell::get);
    let compiled = op.compile(&target, 16, 16).expect("compile");
    let after = ALLOCATIONS.with(Cell::get);
    drop(compiled);
    after - before
}

#[test]
fn bilateral_13x13_mirror_compile_stays_under_its_ceiling() {
    let n = allocations_per_compile(&bilateral_operator(3, 5, true, BoundaryMode::Mirror));
    println!("bilateral 13x13 Mirror: {n} allocations per compile");
    assert!(
        n <= CEILING_BILATERAL,
        "{n} allocations > {CEILING_BILATERAL}"
    );
}

#[test]
fn median3_clamp_compile_stays_under_its_ceiling() {
    let n = allocations_per_compile(&median3_operator(BoundaryMode::Clamp));
    println!("median3 Clamp: {n} allocations per compile");
    assert!(n <= CEILING_MEDIAN, "{n} allocations > {CEILING_MEDIAN}");
}

/// 9 388 allocations plus 15 % (37 646 before the compile path stopped
/// copying).
const CEILING_BILATERAL: u64 = 10_796;
/// 13 493 allocations plus 15 % (20 623 before the compile path stopped
/// copying).
const CEILING_MEDIAN: u64 = 15_517;
