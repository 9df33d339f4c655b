//! Fault-injection suite for the serving layer (ISSUE 1 acceptance):
//! with injected worker panics, ED delays past the deadline, and faults
//! at every site, every `link()` call must return a ranked list with an
//! accurate [`Degradation`] annotation and zero process aborts — and
//! with no faults injected, results must be bit-identical to the plain
//! linker.

use ncl_core::comaid::{ComAid, ComAidConfig, OntologyIndex, TrainPair, Variant};
use ncl_core::{
    ComAidScore, Degradation, DegradeReason, LinkBudget, LinkResult, Linker, LinkerConfig,
    ScoreOutcome, ScoreRequest, ScoreStage, TraceEvent,
};
use ncl_core::{FaultKind, FaultPlan, NclError};
use ncl_ontology::Ontology;
use ncl_text::{tokenize, Vocab};
use std::sync::Arc;
use std::time::Duration;

/// A small trained world: two ICD-style families with aliases, enough
/// for Phase I to retrieve several candidates per query.
fn trained_world() -> (Ontology, ComAid) {
    let mut b = ncl_ontology::OntologyBuilder::new();
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

const QUERIES: &[&str] = &[
    "ckd stage 5",
    "abdominal pain",
    "renal disease stage 5",
    "unspecified disease",
    "acute abdomne syndrom", // typos exercise the OR rewrite path
];

/// Structural invariants every result must satisfy, degraded or not.
fn check_well_formed(res: &LinkResult) {
    assert_eq!(
        res.ranked.len(),
        res.candidates.len(),
        "every retrieved candidate must appear in the ranking"
    );
    let mut ranked_ids = res.ranked_ids();
    let mut cand_ids = res.candidates.clone();
    ranked_ids.sort();
    cand_ids.sort();
    assert_eq!(ranked_ids, cand_ids, "ranking must be a permutation");
    // Scored prefix strictly precedes the unscored tail, and the prefix
    // is sorted descending.
    let first_unscored = res
        .ranked
        .iter()
        .position(|&(_, s)| s == f32::NEG_INFINITY)
        .unwrap_or(res.ranked.len());
    for (_, s) in &res.ranked[first_unscored..] {
        assert_eq!(*s, f32::NEG_INFINITY, "tail must be uniformly unscored");
    }
    for w in res.ranked[..first_unscored].windows(2) {
        assert!(w[0].1 >= w[1].1, "scored prefix must be sorted");
    }
    // The annotation must agree with the scores actually present.
    match res.degradation {
        Degradation::None => {
            assert!(res.ranked.iter().all(|&(_, s)| s > f32::NEG_INFINITY));
        }
        Degradation::PartialEd { scored, total, .. } => {
            assert_eq!(total, res.candidates.len());
            assert_eq!(first_unscored, scored);
            assert!(scored > 0 && scored < total);
        }
        Degradation::TfIdfOnly { .. } => {
            assert_eq!(first_unscored, 0, "TfIdfOnly must have no scored prefix");
        }
    }
}

#[test]
fn no_faults_bit_identical_to_plain_linker() {
    let (o, model) = trained_world();
    let plain = Linker::new(&model, &o, LinkerConfig::default());
    let faulty =
        Linker::new(&model, &o, LinkerConfig::default()).with_faults(Arc::new(FaultPlan::none()));
    for q in QUERIES {
        let a = plain.link_text(q);
        let b = faulty.link_text(q);
        assert!(!a.is_degraded());
        assert!(!b.is_degraded());
        assert_eq!(a.rewritten, b.rewritten);
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(a.ranked_ids(), b.ranked_ids());
        for (&(_, sa), &(_, sb)) in a.ranked.iter().zip(&b.ranked) {
            assert_eq!(sa.to_bits(), sb.to_bits(), "scores must be bit-identical");
        }
        check_well_formed(&a);
    }
}

/// COM-AID's scores with NaN forced onto the candidates at `nan_at`
/// (retrieval positions), alternating the NaN's sign bit.
struct NanScorer<'s, 'a> {
    inner: ComAidScore<'s, 'a>,
    nan_at: Vec<usize>,
}

impl ScoreStage for NanScorer<'_, '_> {
    fn name(&self) -> &str {
        "nan"
    }
    fn score(&self, req: ScoreRequest<'_>) -> ScoreOutcome {
        let mut out = self.inner.score(req);
        for (n, &i) in self.nan_at.iter().enumerate() {
            let nan = if n % 2 == 0 { f32::NAN } else { -f32::NAN };
            out.scores[i] = Some(nan);
        }
        out
    }
}

#[test]
fn forced_nan_scores_never_reach_the_ranking_unflagged() {
    let (o, model) = trained_world();
    let linker = Linker::new(&model, &o, LinkerConfig::default());
    for q in QUERIES {
        let clean = linker.link_text(q);
        let n = clean.candidates.len();
        assert!(n > 1 && !clean.is_degraded(), "{q}");
        for nan_at in [vec![0], vec![n - 1], vec![0, n / 2], (0..n).collect()] {
            let scorer = NanScorer {
                inner: ComAidScore::new(&linker),
                nan_at: nan_at.clone(),
            };
            let res = linker.link_with_scorer(&tokenize(q), &scorer);
            check_well_formed(&res);
            assert!(res.ranked.iter().all(|&(_, s)| !s.is_nan()), "{q}");
            let k = nan_at.len();
            match res.degradation {
                Degradation::PartialEd {
                    scored,
                    reason: DegradeReason::NanScore { count },
                    ..
                } => assert_eq!((scored, count), (n - k, k), "{q}"),
                Degradation::TfIdfOnly {
                    reason: DegradeReason::NanScore { count },
                } => assert_eq!((count, k), (n, n), "{q}"),
                d => panic!("{q}: NaN scores reported as {d:?}"),
            }
            assert!(matches!(
                res.degradation_error(),
                Some(NclError::Corrupt { what: "score", .. })
            ));
            // The scored prefix is the clean ranking without the NaN'd
            // candidates, bit for bit; they follow in retrieval order.
            let nan_ids: Vec<_> = nan_at.iter().map(|&i| clean.candidates[i]).collect();
            let kept: Vec<(u32, u32)> = clean
                .ranked
                .iter()
                .filter(|(c, _)| !nan_ids.contains(c))
                .map(|&(c, s)| (c.0, s.to_bits()))
                .collect();
            let prefix: Vec<(u32, u32)> = res.ranked[..n - k]
                .iter()
                .map(|&(c, s)| (c.0, s.to_bits()))
                .collect();
            assert_eq!(prefix, kept, "{q}");
            assert_eq!(res.ranked_ids()[n - k..], nan_ids[..], "{q}");
        }
    }
}

#[test]
fn certain_scoring_panics_degrade_to_tfidf() {
    let (o, model) = trained_world();
    let linker = Linker::new(&model, &o, LinkerConfig::default())
        .with_faults(Arc::new(FaultPlan::panics(3, "ed.score", 1.0)));
    let res = linker.link_text("ckd stage 5");
    assert!(!res.candidates.is_empty());
    check_well_formed(&res);
    match res.degradation {
        Degradation::TfIdfOnly {
            reason: DegradeReason::WorkerPanic { lost_jobs },
        } => assert_eq!(lost_jobs, res.candidates.len()),
        d => panic!("expected TfIdfOnly(WorkerPanic), got {d:?}"),
    }
    // The TF-IDF fallback preserves Phase-I retrieval order.
    assert_eq!(res.ranked_ids(), res.candidates);
    // The typed-error view classifies this as transient.
    let err = res
        .degradation_error()
        .expect("degraded result has an error");
    assert!(matches!(err, NclError::WorkerPanic { .. }));
    assert!(err.is_transient());
}

#[test]
fn partial_scoring_panics_keep_scored_prefix() {
    let (o, model) = trained_world();
    // Sweep probabilities and seeds until both a scored and an unscored
    // candidate exist in one answer; determinism makes this repeatable.
    let mut saw_partial = false;
    for seed in 0..20u64 {
        let linker = Linker::new(&model, &o, LinkerConfig::default())
            .with_faults(Arc::new(FaultPlan::panics(seed, "ed.score", 0.5)));
        for q in QUERIES {
            let res = linker.link_text(q);
            check_well_formed(&res);
            if let Degradation::PartialEd {
                scored,
                total,
                reason,
            } = res.degradation
            {
                assert!(scored > 0 && scored < total);
                assert!(matches!(reason, DegradeReason::WorkerPanic { .. }));
                saw_partial = true;
            }
        }
    }
    assert!(
        saw_partial,
        "p=0.5 over 100 calls must hit a partial answer"
    );
}

#[test]
fn retrieval_panic_yields_empty_but_annotated_answer() {
    let (o, model) = trained_world();
    let linker = Linker::new(&model, &o, LinkerConfig::default())
        .with_faults(Arc::new(FaultPlan::panics(1, "cr.topk", 1.0)));
    let res = linker.link_text("ckd stage 5");
    assert!(res.candidates.is_empty());
    assert!(res.ranked.is_empty());
    assert!(matches!(
        res.degradation,
        Degradation::TfIdfOnly {
            reason: DegradeReason::WorkerPanic { .. }
        }
    ));
}

#[test]
fn rewrite_panic_leaves_token_unrewritten() {
    let (o, model) = trained_world();
    let linker = Linker::new(&model, &o, LinkerConfig::default())
        .with_faults(Arc::new(FaultPlan::panics(1, "or.rewrite", 1.0)));
    // "abdomne" would normally rewrite to "abdomen"; under an OR fault
    // it passes through untouched, and linking still completes.
    let res = linker.link_text("abdomne pain");
    assert_eq!(res.rewritten, tokenize("abdomne pain"));
    check_well_formed(&res);
}

#[test]
fn ed_delays_past_deadline_timeout_degrade() {
    let (o, model) = trained_world();
    let cfg = LinkerConfig {
        budget: LinkBudget::with_ed(Duration::from_millis(4)),
        ..LinkerConfig::default()
    };
    let linker = Linker::new(&model, &o, cfg).with_faults(Arc::new(FaultPlan::delays(
        2,
        "ed.score",
        1.0,
        Duration::from_millis(6),
    )));
    let res = linker.link_text("abdominal pain");
    assert!(res.candidates.len() > 1, "need several candidates");
    check_well_formed(&res);
    match res.degradation {
        Degradation::PartialEd {
            reason: DegradeReason::Timeout { budget },
            ..
        } => assert_eq!(budget, Duration::from_millis(4)),
        d => panic!("expected PartialEd(Timeout), got {d:?}"),
    }
}

#[test]
fn exhausted_total_budget_skips_scoring_entirely() {
    let (o, model) = trained_world();
    let cfg = LinkerConfig {
        budget: LinkBudget::with_total(Duration::ZERO),
        ..LinkerConfig::default()
    };
    let linker = Linker::new(&model, &o, cfg);
    let res = linker.link_text("ckd stage 5");
    assert!(!res.candidates.is_empty());
    check_well_formed(&res);
    assert_eq!(
        res.degradation,
        Degradation::TfIdfOnly {
            reason: DegradeReason::Timeout {
                budget: Duration::ZERO
            }
        }
    );
    let skipped = res
        .trace
        .events
        .iter()
        .filter(|e| **e == TraceEvent::ScoringSkipped)
        .count();
    assert_eq!(skipped, 1, "{:?}", res.trace.events);
    // Top-1 falls back to the best TF-IDF hit.
    assert_eq!(res.top1(), res.candidates.first().copied());
}

/// The headline guarantee: under faults at *every* site, across kinds,
/// seeds and probabilities, `link` never aborts and every answer is
/// well-formed with an accurate annotation.
#[test]
fn fault_sweep_never_aborts() {
    let (o, model) = trained_world();
    let kinds = [
        FaultKind::Panic,
        FaultKind::Delay(Duration::from_micros(200)),
        FaultKind::Io,
    ];
    let mut calls = 0u32;
    for kind in kinds {
        for seed in 0..6u64 {
            let plan = Arc::new(
                FaultPlan::new(seed)
                    .with_rule("or", kind, 0.4)
                    .with_rule("cr", kind, 0.2)
                    .with_rule("ed", kind, 0.6),
            );
            let linker =
                Linker::new(&model, &o, LinkerConfig::default()).with_faults(Arc::clone(&plan));
            for q in QUERIES {
                let res = linker.link_text(q);
                check_well_formed(&res);
                calls += 1;
            }
            assert!(plan.visits() > 0, "sweep must actually exercise sites");
        }
    }
    assert_eq!(calls, 6 * 5 * kinds.len() as u32);
}

/// Injected serving-cache misses ("ed.cache" I/O faults) must degrade
/// only the *speed* of the affected candidates: they fall back to the
/// uncached scoring path, whose scores are bit-identical, so the answer
/// carries no degradation annotation at all.
#[test]
fn injected_cache_misses_fall_back_with_identical_scores() {
    let (o, model) = trained_world();
    let plain = Linker::new(&model, &o, LinkerConfig::default());
    let plan = Arc::new(FaultPlan::new(7).with_rule("ed.cache", FaultKind::Io, 1.0));
    let missing = Linker::new(&model, &o, LinkerConfig::default()).with_faults(Arc::clone(&plan));
    for q in QUERIES {
        let a = plain.link_text(q);
        let b = missing.link_text(q);
        check_well_formed(&b);
        assert_eq!(a.ranked_ids(), b.ranked_ids(), "query {q}");
        for (&(_, sa), &(_, sb)) in a.ranked.iter().zip(&b.ranked) {
            assert_eq!(sa.to_bits(), sb.to_bits(), "cache miss changed a score");
        }
        assert_eq!(
            b.degradation,
            Degradation::None,
            "a cache miss is not a degradation"
        );
    }
    assert!(
        plan.fired() > 0,
        "the ed.cache site must actually be exercised"
    );
}

/// The `frontend.queue` site: an injected I/O fault at admission
/// forces the overload path, so every submission is rejected with the
/// typed, transient [`NclError::Overloaded`] carrying a retry hint —
/// regardless of actual queue depth (the inline front end's queue
/// never holds anything).
#[test]
fn frontend_queue_fault_forces_typed_overload_rejection() {
    use ncl_core::serving::{Frontend, FrontendConfig};
    let (o, model) = trained_world();
    let plan = Arc::new(FaultPlan::new(3).with_rule("frontend.queue", FaultKind::Io, 1.0));
    let linker = Linker::new(&model, &o, LinkerConfig::default()).with_faults(Arc::clone(&plan));
    let fe = Frontend::new(
        &linker,
        FrontendConfig {
            workers: 0,
            retry_after: Duration::from_millis(7),
            ..FrontendConfig::default()
        },
    );
    for q in QUERIES {
        let err = fe
            .submit(ncl_text::tokenize(q))
            .expect_err("every admission must be refused under the fault");
        match err {
            NclError::Overloaded {
                queue_depth,
                retry_after,
            } => {
                assert_eq!(queue_depth, 0, "inline mode never queues");
                assert_eq!(retry_after, Duration::from_millis(7));
            }
            e => panic!("expected Overloaded, got {e:?}"),
        }
        assert!(err.is_transient());
        assert_eq!(err.retry_after(), Some(Duration::from_millis(7)));
    }
    let stats = fe.stats();
    assert_eq!(stats.submitted, QUERIES.len() as u64);
    assert_eq!(stats.rejected, QUERIES.len() as u64);
    assert_eq!(stats.completed, 0);
    assert!(plan.fired() > 0, "the frontend.queue site must fire");
}

/// `try_link` over a sweep of queries with the deadline expiring
/// mid-request: every position must come back either as a typed error (validation) or as
/// a well-formed answer carrying an accurate `Degradation` marker —
/// no position may silently look like a full answer.
#[test]
fn try_link_deadline_mid_sweep_marks_every_result() {
    let (o, model) = trained_world();
    let cfg = LinkerConfig {
        budget: LinkBudget::with_total(Duration::from_millis(4)),
        ..LinkerConfig::default()
    };
    let linker = Linker::new(&model, &o, cfg).with_faults(Arc::new(FaultPlan::delays(
        2,
        "ed.score",
        1.0,
        Duration::from_millis(6),
    )));
    // Valid queries interleaved with an invalid (empty) one.
    let mut queries: Vec<Vec<String>> = QUERIES.iter().map(|q| ncl_text::tokenize(q)).collect();
    queries.insert(2, Vec::new());
    let results: Vec<_> = queries.iter().map(|q| linker.try_link(q)).collect();
    assert_eq!(results.len(), queries.len(), "positionally aligned");
    for (i, (q, r)) in queries.iter().zip(&results).enumerate() {
        match r {
            Err(e) => {
                assert!(q.is_empty(), "only the empty query errors (pos {i})");
                assert!(matches!(e, NclError::InvalidQuery { .. }));
            }
            Ok(res) => {
                check_well_formed(res);
                // 6ms of injected delay per scored candidate against a
                // 4ms total budget: any multi-candidate answer must be
                // cut off and say so.
                if res.candidates.len() > 1 {
                    assert!(
                        res.is_degraded(),
                        "pos {i}: mid-request deadline must be marked, got {:?}",
                        res.degradation
                    );
                    assert!(matches!(
                        res.degradation,
                        Degradation::PartialEd {
                            reason: DegradeReason::Timeout { .. },
                            ..
                        } | Degradation::TfIdfOnly {
                            reason: DegradeReason::Timeout { .. },
                        }
                    ));
                }
            }
        }
    }
    assert!(
        results
            .iter()
            .any(|r| r.as_ref().is_ok_and(|res| res.is_degraded())),
        "the sweep must actually produce degraded answers"
    );
}

/// A request whose per-request deadline expired while it sat in the
/// front-end queue is still served — as a Phase-I-only answer with
/// the `QueuedPastDeadline` event in its trace — never dropped.
#[test]
fn deadline_expired_in_queue_serves_phase_one_only() {
    use ncl_core::serving::{Frontend, FrontendConfig, TraceEvent};
    let (o, model) = trained_world();
    let linker = Linker::new(&model, &o, LinkerConfig::default());
    let fe = Frontend::new(
        &linker,
        FrontendConfig {
            workers: 0,
            // A zero deadline is always past by the time a worker (here
            // the caller itself) picks the request up.
            deadline: Some(Duration::ZERO),
            ..FrontendConfig::default()
        },
    );
    fe.submit(ncl_text::tokenize("ckd stage 5")).unwrap();
    let completions = fe.take_completions();
    assert_eq!(completions.len(), 1);
    let res = &completions[0].result;
    check_well_formed(res);
    assert!(!res.candidates.is_empty(), "Phase I still ran");
    assert!(matches!(
        res.degradation,
        Degradation::TfIdfOnly {
            reason: DegradeReason::Timeout { .. }
        }
    ));
    assert!(
        res.trace
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::QueuedPastDeadline { .. })),
        "the queue-expiry must be visible in the trace"
    );
    assert_eq!(fe.stats().queued_past_deadline, 1);
}

/// Determinism of the harness itself: the same seed yields the same
/// degradation pattern across runs.
#[test]
fn same_seed_same_degradation() {
    let (o, model) = trained_world();
    let run = |seed: u64| -> Vec<bool> {
        let linker = Linker::new(&model, &o, LinkerConfig::default())
            .with_faults(Arc::new(FaultPlan::panics(seed, "ed", 0.5)));
        QUERIES
            .iter()
            .map(|q| linker.link_text(q).is_degraded())
            .collect()
    };
    assert_eq!(run(9), run(9));
}
