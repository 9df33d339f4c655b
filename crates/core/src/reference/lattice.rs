//! One proptest over what is left of the serving lattice, against
//! [`reference_link`]: `cache_tier × fast_math × {first touch, warm} ×
//! {link, link_batch, link_document spans} × {no plan, every cache read
//! misses} × Variant`; a second over drawn fault plans and ED budgets,
//! where the reference still owns every score that was made; and a
//! third over drawn ontology shapes, untrained, at the exact points.

use super::{reference_link, reference_score, ReferenceResult};
use crate::comaid::{CacheTier, ComAid, ComAidConfig, OntologyIndex, TrainPair, Variant};
use crate::faults::{FaultKind, FaultPlan};
use crate::linker::Linker;
use crate::serving::{Degradation, LinkBudget, LinkResult, LinkerConfig, ProposeConfig};
use ncl_ontology::{ConceptId, Ontology, OntologyBuilder};
use ncl_text::{tokenize, Vocab};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A three-level ontology with aliases, trained once per variant.
/// `R10.0` and `R10.1` share a description (and a parent), so their
/// scores tie bit for bit and only the id tie-break orders them;
/// depth-1 concepts have fewer than β ancestors, so their context
/// repeats a slot.
fn world() -> &'static (Ontology, Vec<ComAid>) {
    static WORLD: OnceLock<(Ontology, Vec<ComAid>)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut b = OntologyBuilder::new();
        let n18 = b.add_root_concept("N18", "chronic kidney disease");
        let n185 = b.add_child(n18, "N18.5", "chronic kidney disease stage 5");
        let n189 = b.add_child(n18, "N18.9", "chronic kidney disease unspecified");
        let r10 = b.add_root_concept("R10", "abdominal pain");
        let r100 = b.add_child(r10, "R10.0", "acute abdomen");
        b.add_child(r10, "R10.1", "acute abdomen");
        let r109 = b.add_child(r10, "R10.9", "unspecified abdominal pain");
        let r1091 = b.add_child(r109, "R10.91", "unspecified abdominal pain chronic");
        b.add_alias(n185, "ckd stage 5");
        b.add_alias(n185, "renal disease stage 5");
        b.add_alias(n189, "ckd unspecified");
        b.add_alias(r100, "acute abdominal syndrome");
        b.add_alias(r1091, "abdomen pain");
        let o = b.build().unwrap();

        let mut vocab = Vocab::new();
        let mut texts: Vec<(ConceptId, Vec<String>)> = Vec::new();
        for (id, c) in o.iter() {
            for text in std::iter::once(&c.canonical).chain(&c.aliases) {
                let tokens = tokenize(text);
                tokens.iter().for_each(|t| {
                    vocab.add(t);
                });
                texts.push((id, tokens));
            }
        }
        let pairs: Vec<TrainPair> = texts
            .iter()
            .map(|(id, tokens)| TrainPair {
                concept: *id,
                target: tokens.iter().map(|t| vocab.get_or_unk(t)).collect(),
            })
            .collect();
        let models = Variant::ALL
            .iter()
            .map(|&variant| {
                let config = ComAidConfig {
                    dim: 10,
                    beta: 2,
                    variant,
                    epochs: 8,
                    lr: 0.3,
                    batch_size: 4,
                    seed: 5,
                    ..ComAidConfig::tiny()
                };
                let mut model = ComAid::new(vocab.clone(), config, None);
                let index = OntologyIndex::build(&o, model.vocab(), 2);
                model.fit(&index, &pairs);
                model
            })
            .collect();
        (o, models)
    })
}

/// In-vocabulary, alias-only, numeric, typo, and pure-OOV words, so
/// drawn queries exercise shared-word masking, both rewrite paths,
/// retrieval misses and the empty candidate set; the last three (past
/// [`QUERY_WORDS`]) are note filler no rewrite reaches.
const WORDS: &[&str] = &[
    "chronic",
    "kidney",
    "disease",
    "stage",
    "5",
    "unspecified",
    "abdominal",
    "pain",
    "acute",
    "abdomen",
    "ckd",
    "renal",
    "syndrome",
    "abdomne",
    "stge",
    "zzzgibberish",
    "9",
    "qqqqqqqqqqqq",
    "wwwwwwwwwwww",
    "xxxxxxxxxxxx",
];

const QUERY_WORDS: usize = 17;

/// The head of [`WORDS`] a drawn ontology's descriptions use: every
/// real word, none of the typos or filler.
const DESCRIPTION_WORDS: usize = 13;

fn words(idx: &[usize]) -> Vec<String> {
    idx.iter().map(|&i| WORDS[i].to_string()).collect()
}

/// A plan whose only rule fails every `ed.cache` visit: each candidate
/// takes the uncached safety path, which scores exactly in every tier
/// and kernel mode.
fn every_cache_read_misses() -> Arc<FaultPlan> {
    Arc::new(FaultPlan::new(0).with_rule("ed.cache", FaultKind::Io, 1.0))
}

/// `got` against the reference: Phase I exactly, `Degradation::None`,
/// and the ranking bit for bit (`eps == 0`) or the same candidates with
/// every score within `eps · max(|score|, 1)`.
pub(super) fn assert_matches(got: &LinkResult, want: &ReferenceResult, eps: f32, what: &str) {
    assert_eq!(got.rewritten, want.rewritten, "{what}: rewritten");
    assert_eq!(got.candidates, want.candidates, "{what}: candidates");
    assert_eq!(got.degradation, Degradation::None, "{what}");
    assert_eq!(
        got.ranked.len(),
        want.ranked.len(),
        "{what}: ranking length"
    );
    if eps == 0.0 {
        for (g, w) in got.ranked.iter().zip(&want.ranked) {
            assert_eq!(
                (g.0, g.1.to_bits()),
                (w.0, w.1.to_bits()),
                "{what}: {g:?} vs {w:?}"
            );
        }
        return;
    }
    for &(c, s) in &got.ranked {
        let (_, r) = want.ranked.iter().find(|(w, _)| *w == c).expect(what);
        assert!(
            (s - r).abs() <= eps * r.abs().max(1.0),
            "{what}: {c:?} {s} vs {r}"
        );
    }
}

/// An ontology drawn from `shape`: entry `i` attaches concept `C{i}`,
/// to the root or under an earlier concept, described by two of the
/// first [`DESCRIPTION_WORDS`] of [`WORDS`]. The vocabulary is the
/// descriptions' words; query words outside it take the rewrite path.
fn drawn_world(shape: &[usize]) -> (Ontology, Vocab) {
    let mut b = OntologyBuilder::new();
    let mut ids = Vec::new();
    for (i, &s) in shape.iter().enumerate() {
        let w1 = WORDS[s % DESCRIPTION_WORDS];
        let w2 = WORDS[(s / DESCRIPTION_WORDS + i) % DESCRIPTION_WORDS];
        let (code, canonical) = (format!("C{i}"), format!("{w1} {w2}"));
        let id = if ids.is_empty() || s % 3 == 0 {
            b.add_root_concept(code, canonical)
        } else {
            b.add_child(ids[s % ids.len()], code, canonical)
        };
        ids.push(id);
    }
    let o = b.build().unwrap();
    let mut vocab = Vocab::new();
    for (_, c) in o.iter() {
        for t in tokenize(&c.canonical) {
            vocab.add(&t);
        }
    }
    (o, vocab)
}

/// How far a lattice point may be from the reference: exact unless the
/// cache is read in a relaxed mode. The bounds are `cache_tier.rs`'s
/// for Compact and `cache.rs`'s for the relaxed kernels.
fn lattice_eps(cache_tier: CacheTier, fast_math: bool, uncached: bool) -> f32 {
    let mut eps = 0.0;
    if !uncached && cache_tier == CacheTier::Compact {
        eps += 5e-2;
    }
    if !uncached && fast_math {
        eps += 1e-3;
    }
    eps
}

/// `cache_tier × fast_math × warm × uncached`, all sixteen.
fn lattice_points() -> Vec<(CacheTier, bool, bool, bool)> {
    let mut points = Vec::new();
    for tier in [CacheTier::Exact, CacheTier::Compact] {
        for fast_math in [false, true] {
            for warm in [false, true] {
                for uncached in [false, true] {
                    points.push((tier, fast_math, warm, uncached));
                }
            }
        }
    }
    points
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_lattice_point_answers_like_the_reference(
        q1 in proptest::collection::vec(0..QUERY_WORDS, 0..6),
        q2 in proptest::collection::vec(0..QUERY_WORDS, 1..5),
        note in proptest::collection::vec(0..WORDS.len(), 0..16),
        k in prop_oneof![Just(2usize), Just(20)],
        with_prior in 0..2usize,
    ) {
        let (o, models) = world();
        let queries = vec![words(&q1), words(&q2)];
        let note = words(&note);
        let prior: Vec<(ConceptId, f32)> = o
            .fine_grained()
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, 1.0 + (i % 3) as f32))
            .collect();
        let build = |model, config| {
            let linker = Linker::new(model, o, config);
            if with_prior == 1 { linker.with_prior(&prior) } else { linker }
        };
        for model in models {
            let variant = model.config().variant;
            // The reference answers depend on none of the lattice axes
            // below, so they are made once per model.
            let plain = build(model, LinkerConfig { k, ..LinkerConfig::default() });
            let want: Vec<ReferenceResult> =
                queries.iter().map(|q| reference_link(&plain, q)).collect();
            let spans = plain.propose_spans(&note, &ProposeConfig::default());
            let want_spans: Vec<ReferenceResult> = spans
                .iter()
                .map(|s| reference_link(&plain, &note[s.start..s.end()]))
                .collect();

            for (cache_tier, fast_math, warm, uncached) in lattice_points() {
                let config = LinkerConfig { k, cache_tier, fast_math, ..LinkerConfig::default() };
                let mut linker = build(model, config);
                if uncached {
                    linker = linker.with_faults(every_cache_read_misses());
                }
                // `warm` only moves *when* chapters freeze.
                if warm {
                    linker.warm();
                }
                let cache = linker.cache().unwrap();
                prop_assert_eq!(cache.tier(), cache_tier);
                prop_assert_eq!(
                    cache.frozen_shard_count(),
                    if warm { cache.shard_count() } else { 0 }
                );
                let eps = lattice_eps(cache_tier, fast_math, uncached);
                let at = format!(
                    "{variant:?} {cache_tier:?} fast_math={fast_math} warm={warm} uncached={uncached}"
                );

                let batched = linker.link_batch(&queries);
                for ((q, b), want) in queries.iter().zip(&batched).zip(&want) {
                    assert_matches(&linker.link(q), want, eps, &format!("link {q:?} @ {at}"));
                    assert_matches(b, want, eps, &format!("link_batch {q:?} @ {at}"));
                }
                let doc = linker.link_document(&note);
                prop_assert_eq!(doc.degradation, Degradation::None);
                prop_assert_eq!(doc.spans.len(), spans.len());
                for ((span, proposal), want) in doc.spans.iter().zip(&spans).zip(&want_spans) {
                    prop_assert_eq!(&span.proposal, proposal);
                    assert_matches(&span.result, want, eps, &format!("span {proposal:?} @ {at}"));
                }
            }
        }
    }

    /// Budgets and faults decide *whether* a candidate is scored, never
    /// what it scores: under a drawn multi-site plan and ED budget every
    /// score that was made is the reference's for the query as the
    /// request rewrote it, the scored prefix is sorted (score
    /// descending, id ascending), the unscored tail keeps Phase-I order,
    /// and a second linker under a same-seed plan replays the first.
    #[test]
    fn faults_and_budgets_only_decide_what_is_scored(
        q in proptest::collection::vec(0..QUERY_WORDS, 0..6),
        seed in 0u64..1024,
        p in proptest::collection::vec(prop_oneof![Just(0.0), Just(0.4), Just(1.0)], 4),
        ed in prop_oneof![Just(None), Just(Some(Duration::ZERO)), Just(Some(Duration::from_micros(40)))],
        variant in 0..4usize,
    ) {
        let (o, models) = world();
        let q = words(&q);
        let config = LinkerConfig {
            budget: LinkBudget { ed, ..LinkBudget::default() },
            ..LinkerConfig::default()
        };
        let build = || {
            let plan = Arc::new(
                FaultPlan::new(seed)
                    .with_rule("or.rewrite", FaultKind::Panic, p[0])
                    .with_rule("cr.topk", FaultKind::Panic, p[1])
                    .with_rule("ed.score", FaultKind::Panic, p[2])
                    .with_rule("ed.cache", FaultKind::Io, p[3]),
            );
            (Linker::new(&models[variant], o, config).with_faults(Arc::clone(&plan)), plan)
        };
        let (linker, plan) = build();
        let res = linker.link(&q);

        let scored: Vec<(ConceptId, f32)> =
            res.ranked.iter().copied().filter(|&(_, s)| s != f32::NEG_INFINITY).collect();
        for &(c, s) in &scored {
            let want = reference_score(&linker, &res.rewritten, c);
            prop_assert_eq!(s.to_bits(), want.to_bits(), "{:?} of {:?}", c, res.rewritten);
        }
        for w in scored.windows(2) {
            prop_assert!(w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
        }
        let tail: Vec<ConceptId> = res.ranked[scored.len()..].iter().map(|&(c, _)| c).collect();
        let unscored_in_phase_one_order: Vec<ConceptId> = res
            .candidates
            .iter()
            .copied()
            .filter(|c| !scored.iter().any(|(s, _)| s == c))
            .collect();
        prop_assert_eq!(tail, unscored_in_phase_one_order);

        // Replay. A timed budget cuts where the scheduler lets it, so
        // only the untimed draws promise the same cut.
        if ed != Some(Duration::from_micros(40)) {
            let (twin, twin_plan) = build();
            let again = twin.link(&q);
            prop_assert_eq!(&again.rewritten, &res.rewritten);
            prop_assert_eq!(&again.candidates, &res.candidates);
            prop_assert_eq!(again.degradation, res.degradation);
            let bits = |r: &LinkResult| -> Vec<(ConceptId, u32)> {
                r.ranked.iter().map(|&(c, s)| (c, s.to_bits())).collect()
            };
            prop_assert_eq!(bits(&again), bits(&res));
            prop_assert_eq!(twin_plan.visits(), plan.visits());
            prop_assert_eq!(twin_plan.fired(), plan.fired());
        }
    }

    /// Untrained models over drawn ontologies — roots, chains, duplicate
    /// descriptions — answer `link` like the reference at every exact
    /// lattice point: the property is about the serving path, not score
    /// quality. Five ontologies per case, each with its own seed.
    #[test]
    fn drawn_ontologies_answer_like_the_reference(
        shapes in proptest::collection::vec(proptest::collection::vec(0usize..30, 2..12), 5..6),
        q in proptest::collection::vec(0..QUERY_WORDS, 1..5),
        seed in 0u64..1000,
    ) {
        let q = words(&q);
        for (i, shape) in shapes.iter().enumerate() {
            let (o, vocab) = drawn_world(shape);
            let config = ComAidConfig { dim: 6, beta: 2, seed: seed + i as u64, ..ComAidConfig::tiny() };
            let model = ComAid::new(vocab, config, None);
            let want = reference_link(&Linker::new(&model, &o, LinkerConfig::default()), &q);
            for (cache_tier, fast_math, warm, uncached) in lattice_points() {
                if lattice_eps(cache_tier, fast_math, uncached) != 0.0 {
                    continue;
                }
                let config = LinkerConfig { cache_tier, fast_math, ..LinkerConfig::default() };
                let mut linker = Linker::new(&model, &o, config);
                if uncached {
                    linker = linker.with_faults(every_cache_read_misses());
                }
                if warm {
                    linker.warm();
                }
                let at = format!("{shape:?} {cache_tier:?} fast_math={fast_math} warm={warm} uncached={uncached}");
                assert_matches(&linker.link(&q), &want, 0.0, &format!("{q:?} @ {at}"));
            }
        }
    }
}
