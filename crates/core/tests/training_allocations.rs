//! Heap allocations of one steady-state training epoch, counted.
//!
//! The taped path records an example into flat slabs that `run_shard`
//! hands from one example to the next, so once every buffer has met its
//! largest example a training pair should allocate nothing of its own.
//! This binary installs a counting `#[global_allocator]` (which is why
//! it holds exactly one test) and reads the count of the **second**
//! epoch of a run — after the first has warmed every buffer — as the
//! difference between a two-epoch and a one-epoch `fit_epochs` from the
//! same start: same seed, same first epoch, so the difference is the
//! second epoch's allocations exactly.
//!
//! An exact count, reported as a count. On `training_identity.rs`'s
//! 22-pair world the per-step tape this replaced made 7,810 allocations
//! in that epoch — 355.0 per pair (529 per pair at the `hx-train`
//! shape, d = 32 and |V| = 1,017, where examples are longer) — and the
//! flat tape makes 12, 0.5 per pair. The bound asserted is 80 per pair;
//! what is left is per *batch*: the shard list, the boxed pool jobs,
//! the embedding's sorted copy of its touched rows.

mod support;

use ncl_core::comaid::{ComAid, OntologyIndex, Variant};
use ncl_nn::optimizer::LrSchedule;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use support::{config, world};

thread_local! {
    /// Allocations made by this thread while it is counting. `const`
    /// initialised and without a destructor, so touching it from inside
    /// the allocator never allocates.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

fn tick() {
    COUNT.with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a plain thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) the calling thread makes inside `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.take()).expect("counting was on")
}

#[test]
fn a_steady_state_epoch_allocates_at_most_80_times_per_pair() {
    let (o, vocab, pairs) = world();
    let config = config(Variant::Full);
    let model = ComAid::new(vocab, config, None);
    let index = OntologyIndex::build(&o, model.vocab(), 2);
    let count = |epochs: usize| {
        let mut model = model.clone();
        allocations_in(|| {
            model.fit_epochs(&index, &pairs, epochs, LrSchedule::constant(0.1));
        })
    };
    // Once per process, not per epoch: the SIMD dispatcher reads an
    // environment variable on its first call.
    let _ = ncl_tensor::simd::active();
    let (one, two) = (count(1), count(2));
    assert_eq!(
        (one, two),
        (count(1), count(2)),
        "the count repeats exactly"
    );
    let steady = two - one;
    println!(
        "allocations: first epoch (cold) {one}, second epoch {steady} = {:.1} per pair over {} pairs",
        steady as f64 / pairs.len() as f64,
        pairs.len()
    );
    assert!(
        steady <= 80 * pairs.len() as u64,
        "a warmed-up epoch made {steady} allocations for {} pairs",
        pairs.len()
    );
    // The tape is warm after the first epoch: the second adds less than
    // the first did.
    assert!(steady < one);
}
