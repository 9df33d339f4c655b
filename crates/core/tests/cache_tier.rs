//! Cache-tier acceptance suite (ISSUE 8): the `Compact` tier must be a
//! pure memory trade — epsilon-bounded scores, explicitly flagged via
//! [`ConceptCache::tier`], batched ≡ single bitwise within the tier —
//! and *when* a chapter freezes must be invisible: a shard frozen on
//! first touch holds the rows and serves the scores of one frozen by
//! [`ConceptCache::warm`], and untouched chapters cost zero resident
//! bytes.
//!
//! These tests run (and must pass) under `NCL_FORCE_SCALAR=1` too: the
//! bf16 widen/narrow kernels are bit-exact across dispatch levels, so
//! tier behaviour is identical on the scalar fallback.

use ncl_core::comaid::{CacheTier, ComAid, ComAidConfig, ConceptCache, OntologyIndex, Variant};
use ncl_ontology::{ConceptId, Ontology, OntologyBuilder};
use ncl_text::{tokenize, Vocab};

/// A layered chapter/category/leaf ontology: `chapters` first-level
/// concepts, each with `cats` children and `cats · leaves` grandchildren.
/// Every leaf carries a unique token so the vocabulary (and with it the
/// step-0 logits table the Compact tier drops) grows with the ontology,
/// as it does for real ICD-10-CM descriptions.
fn world(chapters: usize, cats: usize, leaves: usize) -> (Ontology, Vocab) {
    let mut b = OntologyBuilder::new();
    for i in 0..chapters {
        let ch = b.add_root_concept(format!("C{i:02}"), format!("system {i} disorders"));
        for j in 0..cats {
            let cat = b.add_child(
                ch,
                format!("C{i:02}.{j}"),
                format!("system {i} disorder group {j}"),
            );
            for k in 0..leaves {
                b.add_child(
                    cat,
                    format!("C{i:02}.{j}{k}"),
                    format!("system {i} disorder group {j} type t{i}x{j}x{k}"),
                );
            }
        }
    }
    let o = b.build().unwrap();
    let mut v = Vocab::new();
    for (_, c) in o.iter() {
        for t in tokenize(&c.canonical) {
            v.add(&t);
        }
    }
    (o, v)
}

fn model_for(vocab: Vocab) -> ComAid {
    let config = ComAidConfig {
        dim: 10,
        beta: 2,
        variant: Variant::Full,
        seed: 41,
        ..ComAidConfig::tiny()
    };
    ComAid::new(vocab, config, None)
}

fn score_all(
    m: &ComAid,
    idx: &OntologyIndex,
    cache: &ConceptCache,
    o: &Ontology,
    target: &[u32],
) -> Vec<f32> {
    let mask = vec![true; target.len()];
    o.all_concepts()
        .map(|c| m.log_prob_ids_masked_cached(idx, cache, c, target, &mask))
        .collect()
}

#[test]
fn first_touch_matches_warm_in_both_tiers() {
    let (o, v) = world(4, 3, 3);
    let idx = OntologyIndex::build(&o, &v, 2);
    let m = model_for(v);
    for tier in [CacheTier::Exact, CacheTier::Compact] {
        let warmed = m.freeze_tiered(&idx, tier);
        warmed.warm(&m, &idx);
        assert_eq!(warmed.shard_count(), 4 + 1, "one shard per chapter + root");
        assert_eq!(warmed.frozen_shard_count(), warmed.shard_count());

        let touched = m.freeze_tiered(&idx, tier);
        assert_eq!(touched.frozen_shard_count(), 0);
        let target = m.encode_text("system 1 disorder group 2 type t1x2x0");
        let leaf = o.by_code("C01.20").unwrap();
        let mask = vec![true; target.len()];
        let _ = m.log_prob_ids_masked_cached(&idx, &touched, leaf, &target, &mask);
        assert_eq!(touched.frozen_shard_count(), 1, "{}", tier.name());

        let a = score_all(&m, &idx, &warmed, &o, &target);
        let b = score_all(&m, &idx, &touched, &o, &target);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{} concept #{i}", tier.name());
        }
        for c in o.all_concepts() {
            assert_eq!(
                warmed.encoder_states(&m, &idx, c),
                touched.encoder_states(&m, &idx, c),
                "{} {:?}",
                tier.name(),
                o.concept(c).code
            );
        }
        // Scoring every concept touched every chapter — but never the
        // root slot's shard (the root is not a concept of the ontology
        // proper); `warm` picks up what is left.
        assert_eq!(touched.frozen_shard_count(), touched.shard_count() - 1);
        touched.warm(&m, &idx);
        assert_eq!(touched.frozen_shard_count(), touched.shard_count());
    }
}

#[test]
fn untouched_chapters_cost_nothing() {
    let (o, v) = world(4, 3, 3);
    let idx = OntologyIndex::build(&o, &v, 2);
    let m = model_for(v);
    let cache = m.freeze(&idx);

    let r0 = cache.memory_report();
    assert_eq!(r0.frozen_shards, 0);
    assert_eq!(r0.frozen_concepts, 0);
    assert_eq!(
        r0.enc_state_bytes + r0.ancestor_bytes + r0.decoder_state_bytes + r0.step0_bytes,
        0,
        "skeleton holds no per-concept state"
    );
    assert_eq!(r0.concepts, idx.len());

    // Score one leaf: exactly its chapter's shard freezes.
    let target = m.encode_text("system 0 disorder group 0 type t0x0x0");
    let mask = vec![true; target.len()];
    let leaf = o.by_code("C00.00").unwrap();
    let _ = m.log_prob_ids_masked_cached(&idx, &cache, leaf, &target, &mask);
    let r1 = cache.memory_report();
    assert_eq!(r1.frozen_shards, 1);
    // Chapter subtree: the chapter + 3 categories + 9 leaves.
    assert_eq!(r1.frozen_concepts, 1 + 3 + 3 * 3);
    assert!(r1.total_bytes() > r0.total_bytes());
}

#[test]
fn compact_scores_epsilon_bounded_and_flagged() {
    let (o, v) = world(4, 3, 3);
    let idx = OntologyIndex::build(&o, &v, 2);
    let m = model_for(v);
    let exact = m.freeze(&idx);
    let compact = m.freeze_tiered(&idx, CacheTier::Compact);
    assert_eq!(exact.tier(), CacheTier::Exact);
    assert_eq!(compact.tier(), CacheTier::Compact);
    assert_eq!(CacheTier::default(), CacheTier::Exact, "Exact is opt-out");

    let target = m.encode_text("system 2 disorder group 1 type t2x1x1");
    let a = score_all(&m, &idx, &exact, &o, &target);
    let b = score_all(&m, &idx, &compact, &o, &target);
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        // bf16 rows round at 2⁻⁹ relative; the decoder recurrence and
        // attention amplify that only mildly. The bound is loose on
        // purpose — the tier promises "epsilon-bounded", not a precise
        // ulp count.
        assert!(
            (x - y).abs() < 5e-2 * x.abs().max(1.0),
            "concept #{i}: exact {x} compact {y}"
        );
    }
}

#[test]
fn compact_batch_bit_identical_to_compact_single() {
    let (o, v) = world(3, 3, 2);
    let idx = OntologyIndex::build(&o, &v, 2);
    let m = model_for(v);
    let compact = m.freeze_tiered(&idx, CacheTier::Compact);
    let target = m.encode_text("system 0 disorder group 2 type t0x2x1");
    let concepts: Vec<ConceptId> = o.all_concepts().collect();
    // Masks that differ per candidate, including a masked-off step 0.
    let counts: Vec<Vec<bool>> = (0..concepts.len())
        .map(|i| (0..target.len()).map(|t| (t + i) % 3 != 0).collect())
        .collect();
    let batch = m.log_prob_batch_cached(&idx, &compact, &concepts, &target, &counts);
    for ((&c, mask), lp) in concepts.iter().zip(&counts).zip(&batch) {
        let single = m.log_prob_ids_masked_cached(&idx, &compact, c, &target, mask);
        assert_eq!(single.to_bits(), lp.to_bits(), "{:?}", o.concept(c).code);
    }
}

#[test]
fn compact_memory_at_least_2x_smaller_with_shared_ancestors() {
    let (o, v) = world(6, 5, 4);
    let idx = OntologyIndex::build(&o, &v, 2);
    let m = model_for(v);
    let warm_report = |tier| {
        let cache = m.freeze_tiered(&idx, tier);
        cache.warm(&m, &idx);
        cache.memory_report()
    };
    let exact = warm_report(CacheTier::Exact);
    let compact = warm_report(CacheTier::Compact);

    assert_eq!(exact.frozen_concepts, idx.len());
    assert_eq!(compact.frozen_concepts, idx.len());
    // The Exact tier clones one row per ancestor slot; Compact shares.
    assert!((exact.ancestor_dedup_ratio() - 1.0).abs() < 1e-9);
    assert!(
        compact.ancestor_dedup_ratio() > 1.5,
        "dedup ratio {}",
        compact.ancestor_dedup_ratio()
    );
    assert_eq!(
        compact.ancestor_rows_stored, compact.ancestor_rows_unique,
        "pool stores exactly one row per distinct ancestor"
    );
    assert_eq!(compact.step0_bytes, 0, "Compact drops the step-0 table");
    assert!(
        compact.bytes_per_concept() * 2.0 <= exact.bytes_per_concept(),
        "compact {} vs exact {} bytes/concept",
        compact.bytes_per_concept(),
        exact.bytes_per_concept()
    );
    // memory_floats is the report's total in f32-equivalents.
    let cache = m.freeze(&idx);
    assert_eq!(
        cache.memory_floats(),
        cache.memory_report().total_bytes() / 4
    );
}
