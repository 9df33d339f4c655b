//! Heap allocations of building a linker, counted.
//!
//! `Linker::new` reads the ontology's text once into a linker-local
//! interner and flat id arrays (`serving::ontology_text`), so what that
//! pass allocates scales with the number of distinct *words*, not with
//! the number of concepts: two `String`s per word in the interner, two
//! per term in the TF-IDF index, one per word in the rewriter's
//! edit-distance index, and a fixed handful of arrays (each counted
//! once per doubling as it grows). It then freezes the concept
//! cache, whose four arrays (rows, paths, slot references, heads) are
//! each allocated once, in one loop over the chapters that reuses one
//! set of scratch — the prefix trie's maps and per-chapter arenas, the
//! `⟨BOS⟩` decode buffers — which grows only when a chapter outgrows
//! every one before it. The build the text pass replaced made
//! a `String` per token and a `Vec` per concept four times over —
//! 994,809 allocations for 31,881 concepts, 31 per concept.
//!
//! This binary installs a counting `#[global_allocator]` (which is why
//! it holds exactly one test). Exact counts, reported as counts.

use ncl_core::comaid::{ComAid, ComAidConfig, OntologyIndex};
use ncl_core::{HotSwapCell, Linker, LinkerConfig};
use ncl_datagen::ontology_gen::generate_icd10cm_at_least;
use ncl_ontology::Ontology;
use ncl_text::{for_each_token, Vocab};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Allocations (and reallocations) the calling thread makes inside `f`,
/// dropping what `f` built included.
fn allocations_in<T>(f: impl FnOnce() -> T) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    drop(f());
    COUNT.with(|c| c.take()).expect("counting was on")
}

/// An untrained model over the ontology's description words, and |V|,
/// the number of those words.
fn model_for(o: &Ontology) -> (ComAid, u64) {
    let mut vocab = Vocab::new();
    for (_, c) in o.iter() {
        for_each_token(&c.canonical, |t| {
            vocab.add(t);
        });
    }
    let words = vocab.iter_words().count() as u64;
    (ComAid::new(vocab, ComAidConfig::tiny(), None), words)
}

#[test]
fn building_a_linker_allocates_per_word_not_per_concept() {
    // Once per process: the SIMD dispatcher reads an environment
    // variable on its first call.
    let _ = ncl_tensor::simd::active();

    let o = generate_icd10cm_at_least(2_000, 17);
    let (model, words) = model_for(&o);
    let config = LinkerConfig::default();
    let beta = model.config().beta;

    let build = || allocations_in(|| Linker::new(&model, &o, config));
    let new = build();
    assert_eq!(new, build(), "the count repeats exactly");
    let rows = |m, o| Linker::new(m, o, config).cache().unwrap().row_count();

    let cell = HotSwapCell::new(&model, &o, config);
    let snap = cell.snapshot();
    let through_generation = allocations_in(|| snap.linker(&o));

    let index = allocations_in(|| OntologyIndex::build(&o, model.vocab(), beta));

    // The same count at the benchmark's scale: ~16 times the concepts,
    // the same words.
    let large = generate_icd10cm_at_least(31_000, 17);
    let (large_model, large_words) = model_for(&large);
    let large_new = allocations_in(|| Linker::new(&large_model, &large, config));

    println!(
        "allocations: Linker::new {new} ({} concepts, |V| = {words}, {} cache rows), \
         ModelGeneration::linker {through_generation}, OntologyIndex::build {index}; \
         Linker::new {large_new} ({} concepts, |V| = {large_words}, {} cache rows)",
        o.num_concepts(),
        rows(&model, &o),
        large.num_concepts(),
        rows(&large_model, &large),
    );
    assert!(o.num_concepts() >= 2_000 && large.num_concepts() >= 31_000);
    let bound = 4 * words + 600;
    assert!(new <= bound, "Linker::new: {new} > {bound}");
    assert!(
        through_generation <= new,
        "a generation's linker builds no cache of its own: {through_generation} > {new}"
    );
    assert!(index <= words + 64, "OntologyIndex::build: {index}");
    assert!(
        large_new < 2_000,
        "Linker::new at 31k concepts: {large_new}"
    );
}
