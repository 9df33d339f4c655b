//! Serving-cache acceptance suite (ISSUE 2): the frozen concept-encoding
//! cache must be *invisible* except for speed — a linker serving from it
//! and one whose every cache read misses (the uncached
//! `log_prob_ids_masked` path) return bit-identical ranked results, a
//! cache outlives neither
//! a training step nor a checkpoint round-trip.

use ncl_core::comaid::{
    CacheTier, ComAid, ComAidConfig, ConceptCache, OntologyIndex, TrainPair, Variant,
};
use ncl_core::{Degradation, FaultKind, FaultPlan, LinkBudget, LinkResult, Linker, LinkerConfig};
use ncl_ontology::{ConceptId, Ontology, OntologyBuilder};
use ncl_tensor::{simd, Vector};
use ncl_text::{tokenize, Vocab};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// A small trained world shared by the deterministic tests.
fn trained_world() -> (Ontology, ComAid) {
    let mut b = OntologyBuilder::new();
    let n18 = b.add_root_concept("N18", "chronic kidney disease");
    let n185 = b.add_child(n18, "N18.5", "chronic kidney disease stage 5");
    let n189 = b.add_child(n18, "N18.9", "chronic kidney disease unspecified");
    let r10 = b.add_root_concept("R10", "abdominal pain");
    let r100 = b.add_child(r10, "R10.0", "acute abdomen");
    let r109 = b.add_child(r10, "R10.9", "unspecified abdominal pain");
    b.add_alias(n185, "ckd stage 5");
    b.add_alias(n185, "renal disease stage 5");
    b.add_alias(n189, "ckd unspecified");
    b.add_alias(r100, "acute abdominal syndrome");
    b.add_alias(r109, "abdomen pain");
    let o = b.build().unwrap();

    let mut vocab = Vocab::new();
    let mut pairs = Vec::new();
    for (_, c) in o.iter() {
        for t in tokenize(&c.canonical) {
            vocab.add(&t);
        }
        for alias in &c.aliases {
            for t in tokenize(alias) {
                vocab.add(&t);
            }
        }
    }
    for (id, c) in o.iter() {
        for alias in &c.aliases {
            pairs.push(TrainPair {
                concept: id,
                target: tokenize(alias)
                    .iter()
                    .map(|t| vocab.get_or_unk(t))
                    .collect(),
            });
        }
        pairs.push(TrainPair {
            concept: id,
            target: tokenize(&c.canonical)
                .iter()
                .map(|t| vocab.get_or_unk(t))
                .collect(),
        });
    }
    let config = ComAidConfig {
        dim: 10,
        beta: 2,
        variant: Variant::Full,
        epochs: 15,
        lr: 0.3,
        lr_decay: 0.97,
        batch_size: 4,
        seed: 5,
        ..ComAidConfig::default()
    };
    let mut model = ComAid::new(vocab, config, None);
    let index = OntologyIndex::build(&o, model.vocab(), 2);
    model.fit(&index, &pairs);
    (o, model)
}

/// The uncached reference linker: an `ed.cache` fault on every visit
/// sends each candidate down `ComAid::log_prob_ids_masked`.
fn uncached<'a>(model: &'a ComAid, o: &'a Ontology, config: LinkerConfig) -> Linker<'a> {
    let plan = FaultPlan::new(0).with_rule("ed.cache", FaultKind::Io, 1.0);
    Linker::new(model, o, config).with_faults(Arc::new(plan))
}

const QUERIES: &[&str] = &[
    "ckd stage 5",
    "abdominal pain",
    "renal disease stage 5",
    "unspecified disease",
    "acute abdominal syndrome",
];

fn assert_bit_identical(a: &LinkResult, b: &LinkResult, ctx: &str) {
    assert_eq!(a.ranked_ids(), b.ranked_ids(), "{ctx}: ranking differs");
    for (&(ca, sa), &(cb, sb)) in a.ranked.iter().zip(&b.ranked) {
        assert_eq!(ca, cb, "{ctx}");
        assert_eq!(
            sa.to_bits(),
            sb.to_bits(),
            "{ctx}: score differs for {ca:?} ({sa} vs {sb})"
        );
    }
}

/// Mutating the model after a freeze (a feedback-driven training step)
/// must invalidate the cache; a rebuilt linker then serves the *new*
/// parameters, again bit-identically to the uncached path.
#[test]
fn training_after_freeze_invalidates_and_rebuild_recovers() {
    let (o, mut model) = trained_world();
    let index = OntologyIndex::build(&o, model.vocab(), 2);
    let cache = model.freeze(&index);
    assert!(cache.is_valid_for(&model));

    // One more epoch through the training chokepoint.
    let c = o.by_code("N18.5").unwrap();
    let target = model.encode_text("ckd stage 5");
    let pairs = vec![TrainPair {
        concept: c,
        target: target.clone(),
    }];
    model.fit_epochs(
        &index,
        &pairs,
        1,
        ncl_nn::optimizer::LrSchedule::constant(0.05),
    );
    assert!(
        !cache.is_valid_for(&model),
        "a training step must invalidate the frozen cache"
    );

    // The stale cache falls back to live parameters (correct score)…
    let mask = vec![true; target.len()];
    let live = model.log_prob_ids_masked(&index, c, &target, &mask);
    let via_stale = model.log_prob_ids_masked_cached(&index, &cache, c, &target, &mask);
    assert_eq!(live.to_bits(), via_stale.to_bits());

    // …and a rebuilt linker (fresh freeze) serves bit-identically.
    let cached = Linker::new(&model, &o, LinkerConfig::default());
    assert!(cached.cache().is_some_and(|cc| cc.is_valid_for(&model)));
    let uncached = uncached(&model, &o, LinkerConfig::default());
    for q in QUERIES {
        assert_bit_identical(&cached.link_text(q), &uncached.link_text(q), q);
    }
}

/// A checkpoint round-trip yields a new parameter generation, so caches
/// frozen before the save never match the loaded model — the persist
/// layer's cache-invalidation-on-load rule.
#[test]
fn checkpoint_round_trip_invalidates_pre_save_caches() {
    let (o, model) = trained_world();
    let index = OntologyIndex::build(&o, model.vocab(), 2);
    let cache = model.freeze(&index);

    let mut bytes = Vec::new();
    model.save(&mut bytes).expect("save");
    let loaded = ComAid::load_bytes(&bytes).expect("load");

    assert!(cache.is_valid_for(&model));
    assert!(
        !cache.is_valid_for(&loaded),
        "a loaded model must not accept a pre-save cache"
    );

    // The loaded model freezes its own cache and serves identically to
    // the original (identical parameters, fresh generation).
    let fresh = loaded.freeze(&index);
    assert!(fresh.is_valid_for(&loaded));
    let c = o.by_code("N18.9").unwrap();
    let target = loaded.encode_text("ckd unspecified");
    let mask = vec![true; target.len()];
    let a = model.log_prob_ids_masked_cached(&index, &cache, c, &target, &mask);
    let b = loaded.log_prob_ids_masked_cached(&index, &fresh, c, &target, &mask);
    assert_eq!(a.to_bits(), b.to_bits());
}

/// A deadline only decides *whether* a candidate is scored — with no
/// fault plan attached either, a budgeted request runs the very decode
/// an unbudgeted one does. An ED budget cut somewhere inside the phase
/// leaves `PartialEd`: the scored candidates are a prefix of Phase I's
/// order and carry the unbudgeted answer's score bits; the rest keep
/// their Phase-I order, unscored.
#[test]
fn budgeted_scoring_keeps_the_unbudgeted_bits_on_a_phase_one_prefix() {
    let mut b = OntologyBuilder::new();
    for i in 0..2 {
        let ch = b.add_root_concept(format!("S{i}"), format!("system {i} disorders"));
        for k in 0..8 {
            b.add_child(
                ch,
                format!("S{i}.{k}"),
                format!("system {i} disorder type t{k}"),
            );
        }
    }
    let o = b.build().unwrap();
    let mut v = Vocab::new();
    for (_, c) in o.iter() {
        for t in tokenize(&c.canonical) {
            v.add(&t);
        }
    }
    let config = ComAidConfig {
        dim: 16,
        beta: 2,
        seed: 9,
        ..ComAidConfig::tiny()
    };
    let model = ComAid::new(v, config, None);
    // A long query makes one candidate's decode long against the clock
    // reads between candidates.
    let query = tokenize(&"system disorder type t3 ".repeat(12));
    let unbudgeted = Linker::new(&model, &o, LinkerConfig::default());
    unbudgeted.warm();
    let _ = unbudgeted.link(&query);
    let full = unbudgeted.link(&query);
    assert!(
        full.candidates.len() >= 12,
        "{} candidates",
        full.candidates.len()
    );
    assert_eq!(full.degradation, Degradation::None);
    let full_score = |c: ConceptId| full.ranked.iter().find(|&&(id, _)| id == c).unwrap().1;
    let ed_wall = full.trace.stage_wall(ncl_core::StageKind::Score);

    let mut partial = 0;
    // The cut lands where the scheduler lets it; sweep it across the
    // phase until some requests stop mid-way.
    for attempt in 0..40u32 {
        let budgeted = Linker::new(
            &model,
            &o,
            LinkerConfig {
                budget: LinkBudget::with_ed(ed_wall * (1 + attempt % 8) / 10),
                ..LinkerConfig::default()
            },
        );
        budgeted.warm();
        let res = budgeted.link(&query);
        assert_eq!(res.candidates, full.candidates, "Phase I is untouched");
        let scored = match res.degradation {
            Degradation::None => res.candidates.len(),
            Degradation::PartialEd { scored, total, .. } => {
                assert_eq!(total, res.candidates.len());
                partial += 1;
                scored
            }
            Degradation::TfIdfOnly { .. } => 0,
        };
        let (head, tail) = res.ranked.split_at(scored);
        let mut head_ids: Vec<ConceptId> = head.iter().map(|&(c, _)| c).collect();
        let mut prefix = res.candidates[..scored].to_vec();
        head_ids.sort();
        prefix.sort();
        assert_eq!(head_ids, prefix, "scored set is a Phase-I prefix");
        for &(c, s) in head {
            assert_eq!(s.to_bits(), full_score(c).to_bits(), "{c:?}");
        }
        let tail_ids: Vec<ConceptId> = tail.iter().map(|&(c, _)| c).collect();
        assert_eq!(
            tail_ids,
            res.candidates[scored..],
            "unscored tail in Phase-I order"
        );
        assert!(tail.iter().all(|&(_, s)| s == f32::NEG_INFINITY));
        if partial >= 3 {
            break;
        }
    }
    assert!(partial > 0, "no budget cut the phase mid-way");
}

/// Deterministic word pool for the generated ontologies.
const WORDS: &[&str] = &[
    "renal", "disease", "pain", "acute", "chronic", "stage", "kidney", "failure", "syndrome",
    "severe",
];

/// Builds an ontology whose descriptions are hostile to the freeze's
/// prefix sharing. Each entry packs a `(parent, kind, word)` draw and
/// attaches one concept whose description either extends its parent's by a word (the
/// ICD regularity the trie exploits), repeats it verbatim (duplicate
/// descriptions — and a strict prefix of every sibling that extends),
/// drops its last word, has no tokens at all, consists only of
/// out-of-vocabulary words (every token is `UNK`, so different surface
/// forms collide on one trie path), or starts afresh.
fn build_prefix_world(shape: &[usize]) -> (Ontology, Vocab) {
    // Survives `OntologyBuilder::build` (non-blank) yet tokenises to
    // nothing.
    const TOKENLESS: &str = "--";
    let mut b = OntologyBuilder::new();
    let mut nodes: Vec<(ConceptId, String)> = Vec::new();
    for (i, &s) in shape.iter().enumerate() {
        let (psel, kind, wsel) = (s % 50, s / 50 % 6, s / 300);
        let parent =
            (!nodes.is_empty() && psel % 4 != 0).then(|| nodes[psel % nodes.len()].clone());
        let base = tokenize(parent.as_ref().map_or("", |(_, d)| d.as_str()));
        let word = WORDS[wsel % WORDS.len()].to_string();
        let tokens: Vec<String> = match kind {
            0 => base.iter().cloned().chain([word]).collect(),
            1 => base,
            2 => base[..base.len().saturating_sub(1)].to_vec(),
            3 => Vec::new(),
            4 => vec![format!("oov{wsel}"); 1 + wsel % 3],
            _ => vec![
                word,
                WORDS[(wsel / WORDS.len() + i) % WORDS.len()].to_string(),
            ],
        };
        let canonical = if tokens.is_empty() {
            TOKENLESS.to_string()
        } else {
            tokens.join(" ")
        };
        let code = format!("H{i}");
        let id = match &parent {
            Some((p, _)) => b.add_child(*p, code, canonical.clone()),
            None => b.add_root_concept(code, canonical.clone()),
        };
        nodes.push((id, canonical));
    }
    let mut v = Vocab::new();
    for w in WORDS {
        v.add(w);
    }
    (b.build().unwrap(), v)
}

/// What a per-concept encoder pass produces: `Lstm::forward_states` from
/// the zero state over the description's embeddings.
fn reference_encoder_states(model: &ComAid, index: &OntologyIndex, c: ConceptId) -> Vec<Vector> {
    let xs = model.embedding().lookup_seq(index.tokens(c));
    let zero = Vector::zeros(model.config().dim);
    model.encoder().forward_states(&xs, &zero, &zero).0
}

/// The `Compact` tier's stored form of an exact row.
fn through_bf16(v: &Vector) -> Vector {
    let mut q = vec![0u16; v.len()];
    simd::narrow_bf16(&mut q, v.as_slice());
    let mut out = Vector::zeros(v.len());
    simd::widen_bf16(out.as_mut_slice(), &q);
    out
}

fn assert_rows_bit_identical(got: &[Vector], want: &[Vector], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: row count");
    for (t, (g, w)) in got.iter().zip(want).enumerate() {
        for (k, (a, b)) in g.iter().zip(w.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{ctx}: h_{}[{k}] {a} vs {b}",
                t + 1
            );
        }
    }
}

proptest! {
    /// Property: the prefix-trie freeze stores, for every concept, exactly
    /// the states a per-concept `Lstm::forward_states` pass produces —
    /// on first touch and after `warm`, in both tiers — runs one encoder
    /// step per distinct prefix of a chapter, and (the final cell and the
    /// frozen BOS step ride on the scores) serves bit-identically to the
    /// uncached model: in every architecture variant, for the empty
    /// target, and whether the mask counts every word, none, or some.
    /// There is one shard per chapter plus the root slot's; a touch
    /// freezes its own chapter's shard and no other, and `warm` after
    /// first touches freezes exactly what is left.
    #[test]
    fn trie_shared_freeze_equals_per_concept_encoder_passes(
        shape in proptest::collection::vec(0usize..50 * 6 * 40, 2..14),
        qsel in proptest::collection::vec(0usize..WORDS.len(), 0..4),
        seed in 0u64..1000,
        variant in 0usize..Variant::ALL.len(),
        mask_kind in 0usize..3,
    ) {
        let (o, v) = build_prefix_world(&shape);
        let config = ComAidConfig {
            dim: 6,
            beta: 2,
            variant: Variant::ALL[variant],
            seed,
            ..ComAidConfig::tiny()
        };
        let model = ComAid::new(v, config, None);
        let index = OntologyIndex::build(&o, model.vocab(), 2);
        // The root slot has a run of its own, like any node.
        let concepts: Vec<ConceptId> =
            std::iter::once(Ontology::ROOT).chain(o.all_concepts()).collect();
        let target: Vec<u32> = qsel.iter().map(|&i| model.vocab().get_or_unk(WORDS[i])).collect();
        let mask: Vec<bool> = (0..target.len())
            .map(|t| [true, false, t % 2 == 0][mask_kind])
            .collect();
        let score = |cache: &ConceptCache, c: ConceptId| {
            model.log_prob_ids_masked_cached(&index, cache, c, &target, &mask).to_bits()
        };

        // The chapter a node's shard is keyed by: its top-level
        // ancestor, or the root slot itself.
        let chapter = |c: ConceptId| {
            let mut chapter = c;
            while let Some(p) = o.parent(chapter).filter(|&p| p != Ontology::ROOT) {
                chapter = p;
            }
            chapter
        };
        let shards = concepts.iter().map(|&c| chapter(c)).collect::<HashSet<_>>().len();
        // The named counts: tokens a per-concept pass would step through,
        // and distinct non-empty prefixes per chapter (a shard's trie).
        let mut tokens = 0usize;
        let mut prefixes: HashSet<(ConceptId, &[u32])> = HashSet::new();
        for &c in &concepts {
            let toks = index.tokens(c);
            tokens += toks.len();
            prefixes.extend((1..=toks.len()).map(|n| (chapter(c), &toks[..n])));
        }

        for tier in [CacheTier::Exact, CacheTier::Compact] {
            let warmed = model.freeze_tiered(&index, tier);
            warmed.warm(&model, &index);
            prop_assert_eq!((warmed.shard_count(), warmed.frozen_shard_count()), (shards, shards));
            let touched = model.freeze_tiered(&index, tier);
            prop_assert_eq!(touched.frozen_shard_count(), 0);
            // First-touch the shards in the opposite order to `warm`'s
            // sweep. The root slot comes last: `warm` freezes it, the one
            // shard no touch has reached.
            let mut seen = HashSet::new();
            for &c in concepts.iter().rev() {
                if c == Ontology::ROOT {
                    prop_assert_eq!(touched.frozen_shard_count(), shards - 1);
                    touched.warm(&model, &index);
                }
                let reference = reference_encoder_states(&model, &index, c);
                let want: Vec<Vector> = match tier {
                    CacheTier::Exact => reference,
                    CacheTier::Compact => reference.iter().map(through_bf16).collect(),
                };
                let ctx = format!("{} {:?}", tier.name(), o.concept(c).canonical);
                assert_rows_bit_identical(&touched.encoder_states(&model, &index, c), &want, &ctx);
                assert_rows_bit_identical(&warmed.encoder_states(&model, &index, c), &want, &ctx);
                prop_assert_eq!(score(&warmed, c), score(&touched, c), "{}", ctx);
                if tier == CacheTier::Exact {
                    let plain = model.log_prob_ids_masked(&index, c, &target, &mask);
                    prop_assert_eq!(score(&warmed, c), plain.to_bits(), "{}", ctx);
                }
                seen.insert(chapter(c));
                prop_assert_eq!(touched.frozen_shard_count(), seen.len(), "{}", ctx);
            }
            for report in [warmed.memory_report(), touched.memory_report()] {
                prop_assert_eq!(report.encoder_tokens, tokens);
                prop_assert_eq!(report.encoder_steps_run, prefixes.len());
                prop_assert!(report.encoder_share_ratio() >= 1.0);
            }
        }
    }
}
