//! Bit-identity tests for the serving path.
//!
//! `Linker::link` answers with the same ranked ids, the same f32 score
//! bits, the same tie-breaks and the same degradation decisions however
//! its request function is arranged. The **golden snapshot**
//! (`tests/golden/staged_serving.snap`), recorded from the first
//! monolithic `link()` on the seed dataset, is the absolute anchor
//! here; the from-the-equations reference linker that checks the
//! arithmetic itself lives in `ncl-core` (`src/reference.rs`, with the
//! lattice proptest over every cache tier, kernel mode and entry
//! point).
//!
//! Regenerate the snapshot (only legitimate when the *model* or
//! dataset changes, never for a serving refactor) with:
//! `NCL_REGEN_GOLDEN=1 cargo test --test staged_serving`. The score
//! bits depend on the platform's libm through `logf` alone — every
//! `exp` and `tanh` is `ncl_tensor::libm`'s own definition — so only a
//! host whose `logf` rounds differently may need its own recording.

use ncl::baselines::doc2vec::Doc2VecConfig;
use ncl::baselines::{AnnotatorScore, Doc2Vec, LrPlus};
use ncl::core::{
    CacheUse, Degradation, FaultKind, FaultPlan, LinkBudget, LinkResult, Linker, LinkerConfig,
    NclConfig, NclError, NclPipeline, ProposeConfig,
};
use ncl::datagen::{Dataset, DatasetConfig, DatasetProfile, NoteConfig};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

struct World {
    ds: Dataset,
    pipeline: NclPipeline,
}

/// Same seed world as `tests/properties.rs`: deterministic dataset,
/// deterministic training, so rankings and score bits are stable.
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let ds = Dataset::generate(DatasetConfig {
            profile: DatasetProfile::HospitalX,
            categories: 8,
            aliases_per_concept: 3,
            unlabeled_snippets: 120,
            seed: 1234,
        });
        let mut cfg = NclConfig::tiny();
        cfg.comaid.dim = 12;
        cfg.cbow.dim = 12;
        cfg.comaid.epochs = 6;
        let pipeline = NclPipeline::fit(&ds.ontology, &ds.unlabeled, cfg);
        World { ds, pipeline }
    })
}

/// The deterministic query set: one seeded evaluation group (mixed
/// corruption classes) plus handcrafted edge cases.
fn snapshot_queries(w: &World) -> Vec<Vec<String>> {
    let mut queries: Vec<Vec<String>> =
        w.ds.query_group(16, 8, 7)
            .into_iter()
            .map(|q| q.tokens)
            .collect();
    queries.push(vec!["anemia".into(), "chronic".into()]);
    queries.push(vec!["zzzunknownzzz".into()]);
    queries.push(vec![]);
    queries.push(vec!["fracture".into(), "5".into(), "fracture".into()]);
    queries
}

/// One canonical line per (config, query) pair. Scores are rendered as
/// raw f32 bit patterns — snapshot equality IS bit equality.
fn render(tag: &str, query: &[String], res: &LinkResult) -> String {
    let ranked: Vec<String> = res
        .ranked
        .iter()
        .map(|&(c, s)| format!("{}:{:08x}", c.index(), s.to_bits()))
        .collect();
    let cands: Vec<String> = res
        .candidates
        .iter()
        .map(|c| c.index().to_string())
        .collect();
    format!(
        "{tag} | q={} | rw={} | cand={} | ranked={} | degr={:?}",
        query.join(","),
        res.rewritten.join(","),
        cands.join(","),
        ranked.join(","),
        res.degradation,
    )
}

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("staged_serving.snap")
}

/// Golden snapshot: `link` over the seed dataset reproduces the exact
/// pre-refactor rankings, score bits, rewrites, and degradation
/// markers, across a default linker, a MAP-prior linker, and a
/// no-rewrite linker.
#[test]
fn link_matches_pre_refactor_golden_snapshot() {
    let w = world();
    let queries = snapshot_queries(w);

    let fine = w.ds.ontology.fine_grained();
    let prior: Vec<(ncl::ontology::ConceptId, f32)> = fine
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, 1.0 + (i % 7) as f32))
        .collect();

    let default = w.pipeline.linker(&w.ds.ontology);
    let map =
        Linker::new(&w.pipeline.model, &w.ds.ontology, LinkerConfig::default()).with_prior(&prior);
    let no_rewrite = Linker::new(
        &w.pipeline.model,
        &w.ds.ontology,
        LinkerConfig {
            rewrite: false,
            ..LinkerConfig::default()
        },
    );

    let mut lines = Vec::new();
    for q in &queries {
        for (tag, linker) in [
            ("default", &default),
            ("map", &map),
            ("norewrite", &no_rewrite),
        ] {
            let res = linker.link(q);
            assert_eq!(
                res.degradation,
                Degradation::None,
                "no budgets, no faults — no degradation ({tag}, q={q:?})"
            );
            lines.push(render(tag, q, &res));
        }
    }
    let got = lines.join("\n") + "\n";

    let path = snapshot_path();
    if std::env::var("NCL_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with NCL_REGEN_GOLDEN=1 to record",
            path.display()
        )
    });
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "snapshot line {} diverged", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "snapshot line count changed"
    );
}

/// Full bit-level equality of two link results: same rewrite, same
/// candidates, same ranked ids, same f32 score bits, same degradation.
fn assert_same_result(a: &LinkResult, b: &LinkResult, what: &str) {
    assert_eq!(a.rewritten, b.rewritten, "{what}: rewritten diverged");
    assert_eq!(a.candidates, b.candidates, "{what}: candidates diverged");
    assert_eq!(
        a.ranked.len(),
        b.ranked.len(),
        "{what}: ranking length diverged"
    );
    for (&(ca, sa), &(cb, sb)) in a.ranked.iter().zip(&b.ranked) {
        assert_eq!(ca, cb, "{what}: ranked id diverged");
        assert_eq!(sa.to_bits(), sb.to_bits(), "{what}: score bits diverged");
    }
    assert_eq!(a.degradation, b.degradation, "{what}: degradation diverged");
}

const FAULT_KINDS: [FaultKind; 3] = [
    FaultKind::Panic,
    FaultKind::Delay(Duration::from_micros(50)),
    FaultKind::Io,
];

/// A pipeline linker under a fresh fault plan on the OR, CR and ED sites
/// (and none on `doc.propose`). Two plans built from the same arguments
/// replay identically over the same visit sequence.
fn faulted_linker(w: &World, seed: u64, kind: FaultKind) -> (Linker<'_>, Arc<FaultPlan>) {
    let plan = Arc::new(
        FaultPlan::new(seed)
            .with_rule("or", kind, 0.4)
            .with_rule("cr", kind, 0.2)
            .with_rule("ed", kind, 0.5),
    );
    let linker = w
        .pipeline
        .linker(&w.ds.ontology)
        .with_faults(Arc::clone(&plan));
    (linker, plan)
}

/// Both plans saw the same sites in the same order.
fn assert_same_replay(a: &FaultPlan, b: &FaultPlan, what: &str) {
    assert!(a.visits() > 0, "{what}: the plan must be exercised");
    assert_eq!(a.visits(), b.visits(), "{what}: visits");
    assert_eq!(a.fired(), b.fired(), "{what}: fired");
}

/// A batch is a loop over requests on one thread, so a fault plan
/// replays over `link_batch` exactly as over looped `link`: same
/// answers, same degradation, same visit and fire counts.
#[test]
fn link_batch_replays_a_fault_plan_like_looped_link() {
    let w = world();
    let queries = snapshot_queries(w);
    for kind in FAULT_KINDS {
        for seed in 0..4u64 {
            let (batch_linker, plan_batch) = faulted_linker(w, seed, kind);
            let (loop_linker, plan_loop) = faulted_linker(w, seed, kind);
            let batched = batch_linker.link_batch(&queries);
            assert_eq!(batched.len(), queries.len());
            for (q, b) in queries.iter().zip(&batched) {
                let what = format!("{kind:?} seed={seed} q={q:?}");
                assert_same_result(b, &loop_linker.link(q), &what);
            }
            assert_same_replay(&plan_batch, &plan_loop, &format!("{kind:?} seed={seed}"));
        }
    }
}

/// The same for documents: `link_document` ≡ `propose_spans` followed by
/// a looped `link` over the proposed spans, under a shared fault plan.
#[test]
fn link_document_replays_a_fault_plan_like_looped_span_links() {
    let w = world();
    let notes = w.ds.note_profile(NoteConfig::default()).notes(5);
    for kind in FAULT_KINDS {
        for seed in 0..3u64 {
            let (doc_linker, plan_doc) = faulted_linker(w, seed, kind);
            let (loop_linker, plan_loop) = faulted_linker(w, seed, kind);
            let mut linked_spans = 0usize;
            for note in &notes {
                let doc = doc_linker.link_document(&note.tokens);
                let proposals = loop_linker.propose_spans(&note.tokens, &ProposeConfig::default());
                assert_eq!(doc.spans.len(), proposals.len());
                for (span, proposal) in doc.spans.iter().zip(&proposals) {
                    assert_eq!(span.proposal, *proposal);
                    let single = loop_linker.link(&note.tokens[proposal.start..proposal.end()]);
                    let what = format!("{kind:?} seed={seed} span@{}", proposal.start);
                    assert_same_result(&span.result, &single, &what);
                }
                linked_spans += proposals.len();
            }
            assert!(linked_spans > 0, "the notes must propose spans");
            assert_same_replay(&plan_doc, &plan_loop, &format!("{kind:?} seed={seed}"));
        }
    }
}

/// Hostile inputs through the validating single entry point: typed
/// errors for unlinkable queries, and for linkable-but-nasty ones the
/// exact same (non-)degradation as the non-validating `link`.
#[test]
fn try_link_hostile_inputs() {
    let w = world();
    let linker = w.pipeline.linker(&w.ds.ontology);

    // Empty / whitespace-only: typed InvalidQuery, not an empty result.
    for text in ["", "   \t  "] {
        match linker.try_link(&ncl::text::tokenize(text)) {
            Err(NclError::InvalidQuery { .. }) => {}
            other => panic!("expected InvalidQuery for {text:?}, got {other:?}"),
        }
    }

    // All-OOV gibberish is *valid* — it links to nothing, with the
    // identical degradation ladder outcome as plain `link`.
    let res = linker
        .try_link(&ncl::text::tokenize("zzzgibberish qqqunknown wwwnothing"))
        .expect("all-OOV query is valid");
    assert_same_result(
        &res,
        &linker.link_text("zzzgibberish qqqunknown wwwnothing"),
        "all-OOV",
    );
    assert_eq!(res.degradation, Degradation::None);

    // Over the token cap (>10k tokens against the default 4096 cap):
    // typed InvalidQuery naming the limit.
    let huge = vec!["pain".to_string(); 10_001];
    match linker.try_link(&huge) {
        Err(NclError::InvalidQuery { reason }) => {
            assert!(
                reason.contains("10001"),
                "reason should name the size: {reason}"
            );
        }
        other => panic!("expected InvalidQuery for 10k tokens, got {other:?}"),
    }
    // The non-validating path still accepts it (structural invariant
    // only — it must not panic and must stay undegraded).
    let res = linker.link(&huge);
    assert_eq!(res.degradation, Degradation::None);
}

/// Validation is per query: a refused query neither poisons nor shifts
/// its neighbours, and valid entries are bit-identical to plain `link`.
#[test]
fn try_link_verdicts_are_per_query() {
    let w = world();
    let linker = w.pipeline.linker(&w.ds.ontology);
    let queries: Vec<Vec<String>> = vec![
        vec!["anemia".into(), "chronic".into()],
        vec![],                           // invalid: empty
        vec!["zzzgibberish".into()],      // valid: links to nothing
        vec!["pain".to_string(); 10_001], // invalid: over the cap
        vec!["fracture".into(), "5".into()],
    ];
    let out: Vec<_> = queries.iter().map(|q| linker.try_link(q)).collect();
    for (i, verdict) in out.iter().enumerate() {
        match (i, verdict) {
            (1 | 3, Err(NclError::InvalidQuery { .. })) => {}
            (1 | 3, other) => panic!("slot {i}: expected InvalidQuery, got {other:?}"),
            (_, Ok(res)) => {
                assert_same_result(res, &linker.link(&queries[i]), &format!("slot {i}"))
            }
            (_, Err(e)) => panic!("slot {i}: unexpected error {e:?}"),
        }
    }
}

/// Under an already-expired total budget, the degradation ladder fires
/// identically whether a query is served alone or inside a batch — the
/// staged chain makes the ladder a per-request decision, independent of
/// scheduling.
#[test]
fn batch_degradation_matches_single_query_degradation() {
    let w = world();
    let budgeted = Linker::new(
        &w.pipeline.model,
        &w.ds.ontology,
        LinkerConfig {
            budget: LinkBudget::with_total(Duration::ZERO),
            ..LinkerConfig::default()
        },
    );
    let queries: Vec<Vec<String>> = vec![
        vec!["anemia".into(), "chronic".into()],
        vec!["fracture".into()],
        vec!["zzzgibberish".into()],
    ];
    let batched = budgeted.link_batch(&queries);
    for (q, b) in queries.iter().zip(&batched) {
        let single = budgeted.link(q);
        assert_eq!(
            b.degradation, single.degradation,
            "ladder diverged between batch and single for {q:?}"
        );
        assert_same_result(b, &single, &format!("budgeted q={q:?}"));
    }
}

/// Structural invariants for a baseline served through the staged
/// pipeline: identical Phase I, a ranking that permutes the Phase-I
/// candidates, a sorted scored prefix, unscored non-matches placed at
/// the tail in retrieval order — and **no** degradation, because a
/// baseline declining to score a candidate is an answer, not shed work.
fn check_baseline_result(res: &LinkResult, base: &LinkResult, what: &str) {
    assert_eq!(
        res.rewritten, base.rewritten,
        "{what}: Phase I must be shared"
    );
    assert_eq!(
        res.candidates, base.candidates,
        "{what}: Phase I must be shared"
    );
    assert_eq!(
        res.ranked.len(),
        res.candidates.len(),
        "{what}: not a permutation"
    );
    let mut ranked_ids = res.ranked_ids();
    let mut cand_ids = res.candidates.clone();
    ranked_ids.sort();
    cand_ids.sort();
    assert_eq!(ranked_ids, cand_ids, "{what}: not a permutation");
    let first_unscored = res
        .ranked
        .iter()
        .position(|&(_, s)| s == f32::NEG_INFINITY)
        .unwrap_or(res.ranked.len());
    for w in res.ranked[..first_unscored].windows(2) {
        assert!(w[0].1 >= w[1].1, "{what}: scored prefix must be sorted");
    }
    let tail: Vec<_> = res.ranked[first_unscored..]
        .iter()
        .map(|&(c, _)| c)
        .collect();
    let tail_in_phase1: Vec<_> = res
        .candidates
        .iter()
        .copied()
        .filter(|c| tail.contains(c))
        .collect();
    assert_eq!(tail, tail_in_phase1, "{what}: tail must keep Phase-I order");
    assert_eq!(
        res.degradation,
        Degradation::None,
        "{what}: baseline non-matches are answers, not degradation"
    );
}

/// LR⁺ as a drop-in Score stage: §6.4's "baselines re-rank NCL's
/// candidates" protocol, literally through `link_with_scorer`.
#[test]
fn lr_baseline_serves_through_the_staged_pipeline() {
    let w = world();
    let linker = w.pipeline.linker(&w.ds.ontology);
    let lr = LrPlus::train(&w.ds.ontology, 2, 0.1, 7);
    let scorer = AnnotatorScore::new(&lr);
    for q in [
        vec!["anemia".into(), "chronic".into()],
        vec!["fracture".into(), "5".into()],
        vec!["zzzgibberish".into()],
    ] {
        let res = linker.link_with_scorer(&q, &scorer);
        let base = linker.link(&q);
        check_baseline_result(&res, &base, &format!("lr q={q:?}"));
    }
}

/// Doc2Vec through the same shared Score-stage interface.
#[test]
fn doc2vec_baseline_serves_through_the_staged_pipeline() {
    let w = world();
    let linker = w.pipeline.linker(&w.ds.ontology);
    let d2v = Doc2Vec::train(
        &w.ds.ontology,
        Doc2VecConfig {
            dim: 16,
            epochs: 2,
            infer_epochs: 2,
            ..Doc2VecConfig::default()
        },
    );
    let scorer = AnnotatorScore::new(&d2v);
    for q in [
        vec!["anemia".into(), "chronic".into()],
        vec!["fracture".into(), "5".into()],
    ] {
        let res = linker.link_with_scorer(&q, &scorer);
        let base = linker.link(&q);
        check_baseline_result(&res, &base, &format!("doc2vec q={q:?}"));
    }
}

/// The unified trace: per-stage wall-clock for all four stages, cache
/// usage from the frozen concept cache, and one recorded decision
/// per out-of-vocabulary token considered by the Rewrite stage.
#[test]
fn trace_records_stages_cache_and_rewrite_decisions() {
    use ncl::core::StageKind;
    let w = world();
    let linker = w.pipeline.linker(&w.ds.ontology);
    // A canonical description is in-vocabulary by construction; the
    // appended gibberish token is the only OOV word in the query.
    let fine = w.ds.ontology.fine_grained();
    let mut q = ncl::text::tokenize(&w.ds.ontology.concept(fine[0]).canonical);
    q.push("zzzunknownzzz".into());
    let res = linker.link(&q);

    let kinds: Vec<StageKind> = res.trace.stages.iter().map(|s| s.kind).collect();
    assert_eq!(
        kinds,
        vec![
            StageKind::Rewrite,
            StageKind::Retrieve,
            StageKind::Score,
            StageKind::Rank
        ]
    );
    // Every chain stage left a non-negative wall-clock in the trace.
    for kind in [
        StageKind::Rewrite,
        StageKind::Retrieve,
        StageKind::Score,
        StageKind::Rank,
    ] {
        assert!(res.trace.total() >= res.trace.stage_wall(kind));
    }
    // Exactly one OOV token was considered; in-vocabulary "anemia" is
    // not recorded.
    assert_eq!(res.trace.rewrites.len(), 1);
    assert_eq!(res.trace.rewrites[0].token, "zzzunknownzzz");
    // The candidates were served from the linker's concept cache.
    assert!(!res.candidates.is_empty());
    assert_eq!(res.trace.cache, CacheUse::Served);
}
