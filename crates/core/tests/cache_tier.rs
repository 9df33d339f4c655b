//! Cache-tier acceptance suite: the `Compact` tier must be a pure
//! memory trade — epsilon-bounded scores, explicitly flagged via
//! [`ConceptCache::tier`], bit-reproducible within the tier — and
//! *when* a chapter freezes must be invisible: a shard frozen on first
//! touch holds the rows and serves the scores of one frozen by
//! [`ConceptCache::warm`], untouched chapters cost zero resident bytes,
//! and what is resident is exactly what [`CacheMemoryReport`] says.
//! `serving_cache.rs`'s trie proptest checks the same first-touch
//! property shard by shard on drawn ontologies.
//!
//! These tests run (and must pass) under `NCL_FORCE_SCALAR=1` too: the
//! bf16 widen/narrow kernels are bit-exact across dispatch levels, so
//! tier behaviour is identical on the scalar fallback.

use ncl_core::comaid::{
    CacheMemoryReport, CacheTier, ComAid, ComAidConfig, ConceptCache, OntologyIndex, Variant,
};
use ncl_ontology::{ConceptId, Ontology, OntologyBuilder};
use ncl_tensor::simd;
use ncl_text::{tokenize, Vocab};
use std::collections::HashSet;

/// A layered chapter/category/leaf ontology: `chapters` first-level
/// concepts, each with `cats` children and `cats · leaves` grandchildren.
/// Every leaf carries a unique token so the vocabulary grows with the
/// ontology, as it does for real ICD-10-CM descriptions.
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

/// "Deterministic at every dispatch level": a Compact cache frozen and
/// read under each SIMD level serves the scalar level's bits, under
/// masks that differ per candidate (a masked-off first word included).
#[test]
fn compact_scores_bit_reproducible_at_every_dispatch_level() {
    let (o, v) = world(3, 3, 2);
    let idx = OntologyIndex::build(&o, &v, 2);
    let m = model_for(v);
    let target = m.encode_text("system 0 disorder group 2 type t0x2x1");
    let scores = || -> Vec<u32> {
        let compact = m.freeze_tiered(&idx, CacheTier::Compact);
        o.all_concepts()
            .enumerate()
            .map(|(i, c)| {
                let mask: Vec<bool> = (0..target.len()).map(|t| (t + i) % 3 != 0).collect();
                m.log_prob_ids_masked_cached(&idx, &compact, c, &target, &mask)
                    .to_bits()
            })
            .collect()
    };
    let reference = simd::with_level(simd::Level::Scalar, scores);
    for level in simd::supported_levels() {
        assert_eq!(
            simd::with_level(level, scores),
            reference,
            "{}",
            level.name()
        );
    }
}

/// The report is a by-hand sum of what the layout holds: per shard one
/// row (f32 or bf16) per distinct description prefix of its chapter
/// plus the zero row; per node a `u32` per description token (its
/// path), one path offset and β `u32` slot references; a `3d + 1`-float
/// head per fine-grained concept only — and nothing per ancestor slot
/// beyond the reference, in either tier.
#[test]
fn memory_report_is_a_by_hand_sum_in_both_tiers() {
    let (chapters, cats, leaves) = (3usize, 2usize, 2usize);
    let (o, v) = world(chapters, cats, leaves);
    let vocab = v.len();
    let idx = OntologyIndex::build(&o, &v, 2);
    let m = model_for(v);
    let (d, beta) = (10usize, 2usize);
    let nodes = idx.len();
    assert_eq!(nodes, 1 + chapters * (1 + cats + cats * leaves));
    let shards = chapters + 1;
    let fine = o.fine_grained().len();
    assert_eq!(fine, chapters * cats * leaves);
    let tokens: usize = o.all_concepts().map(|c| idx.tokens(c).len()).sum();
    // Distinct non-empty description prefixes per chapter: one encoder
    // step and one stored row each.
    let mut prefixes: HashSet<(ConceptId, &[u32])> = HashSet::new();
    for c in o.all_concepts() {
        let mut chapter = c;
        while let Some(p) = o.parent(chapter).filter(|&p| p != Ontology::ROOT) {
            chapter = p;
        }
        let toks = idx.tokens(c);
        prefixes.extend((1..=toks.len()).map(|n| (chapter, &toks[..n])));
    }
    // "system i" is shared by a whole chapter, "... group j type" by a
    // category's leaves: 13 of the chapter's 41 tokens are new.
    assert_eq!((prefixes.len(), tokens), (chapters * 13, chapters * 41));
    let rows = shards + prefixes.len();
    // Both LSTM plans: W and U transposed (d × 4d each) plus 4d biases;
    // the composite (3d → d) and output (d → |V|) transposes; and the
    // node → shard map: shard, local position, head slot and member
    // list per node, one member-list offset per shard and a closing one.
    let plans = 2 * (2 * d * 4 * d + 4 * d) + 3 * d * d + d * vocab;
    let skeleton_bytes = (plans + 4 * nodes + shards + 1) * 4;

    let report = |tier| -> CacheMemoryReport {
        let cache = m.freeze_tiered(&idx, tier);
        cache.warm(&m, &idx);
        let r = cache.memory_report();
        assert_eq!(cache.memory_floats(), r.total_bytes() / 4);
        r
    };
    let exact = report(CacheTier::Exact);
    let compact = report(CacheTier::Compact);
    for (r, row_bytes) in [(&exact, 4 * d), (&compact, 2 * d)] {
        let name = r.tier.name();
        assert_eq!(
            (r.frozen_concepts, r.frozen_shards),
            (nodes, shards),
            "{name}"
        );
        // Heads for the fine-grained concepts, and for nothing else.
        assert_eq!(r.decoder_state_bytes, fine * 2 * d * 4, "{name}");
        assert_eq!(r.step0_bytes, fine * (d + 1) * 4, "{name}");
        // The rows, 4 B of path per token, one path offset per node
        // plus one closing offset per shard.
        assert_eq!(
            r.enc_state_bytes,
            rows * row_bytes + tokens * 4 + (nodes + shards) * 4,
            "{name}"
        );
        assert_eq!(r.encoder_tokens, tokens, "{name}");
        assert_eq!(r.encoder_steps_run, prefixes.len(), "{name}");
        // Every node but the root slot has β slots…
        assert_eq!(r.ancestor_slots, (nodes - 1) * beta, "{name}");
        assert_eq!(r.ancestor_bytes, r.ancestor_slots * 4, "{name}");
        // …and they name chapters and categories only, each the row its
        // own path ends on.
        assert_eq!(r.ancestor_rows_stored, chapters * (1 + cats), "{name}");
        assert!(r.ancestor_dedup_ratio() > 1.5, "{name}");
        assert_eq!(r.plan_bytes, skeleton_bytes, "{name}");
        assert_eq!(
            r.total_bytes(),
            r.enc_state_bytes
                + r.ancestor_bytes
                + r.decoder_state_bytes
                + r.step0_bytes
                + skeleton_bytes,
            "{name}"
        );
    }
    // The tiers differ in the width of the stored rows and nothing
    // else; that alone keeps Compact clear of the collapse floor fig17
    // asserts.
    assert_eq!(
        exact.total_bytes() - compact.total_bytes(),
        rows * 2 * d,
        "bf16 rows are the whole difference"
    );
    assert!(exact.bytes_per_concept() > 1.2 * compact.bytes_per_concept());
}
