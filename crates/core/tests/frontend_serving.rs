//! Integration tests for the open-loop serving front end (ISSUE 6):
//! admission accounting under sustained bursts, shed-rung trace
//! events, stats coherence, and the inline (workers = 0) mode's
//! equivalence to direct linking.

use ncl_core::comaid::{ComAid, ComAidConfig, OntologyIndex, TrainPair, Variant};
use ncl_core::serving::{AdmissionRung, Frontend, FrontendConfig, TraceEvent};
use ncl_core::{FaultKind, FaultPlan};
use ncl_core::{LinkResult, Linker, LinkerConfig};
use ncl_ontology::Ontology;
use ncl_text::{tokenize, Vocab};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// The same small trained world the fault-injection suite uses: two
/// ICD-style families with aliases, several candidates per query.
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
    "acute abdominal syndrome",
];

/// Bit-level equality of a served answer and the direct call's.
fn assert_same_result(got: &LinkResult, want: &LinkResult, what: &str) {
    assert_eq!(got.rewritten, want.rewritten, "{what}");
    assert_eq!(got.candidates, want.candidates, "{what}");
    assert_eq!(got.ranked_ids(), want.ranked_ids(), "{what}");
    for (&(_, a), &(_, b)) in got.ranked.iter().zip(&want.ranked) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: score bits");
    }
    assert_eq!(got.degradation, want.degradation, "{what}");
}

/// Inline mode (workers = 0, depth always 0) must be a plain
/// synchronous linker: every completion bit-identical to
/// `Linker::link`, all on the Full rung, nothing shed or rejected —
/// with no deadline and under the default one alike. A deadline only
/// adds a clock read between candidates; the request runs the same
/// stages over the same cached decode, which its trace shows.
#[test]
fn inline_frontend_is_bit_identical_to_direct_link() {
    let (o, model) = trained_world();
    let linker = Linker::new(&model, &o, LinkerConfig::default());
    let default_deadline = FrontendConfig::default().deadline;
    assert!(default_deadline.is_some());
    for deadline in [None, default_deadline] {
        let fe = Frontend::new(
            &linker,
            FrontendConfig {
                workers: 0,
                deadline,
                ..FrontendConfig::default()
            },
        );
        for q in QUERIES {
            fe.submit(tokenize(q)).unwrap();
        }
        let completions = fe.take_completions();
        assert_eq!(completions.len(), QUERIES.len());
        for (q, c) in QUERIES.iter().zip(&completions) {
            let what = format!("q={q} deadline={deadline:?}");
            let direct = linker.link_text(q);
            assert_eq!(c.rung, AdmissionRung::Full);
            assert_same_result(&c.result, &direct, &what);
            let stages = |r: &LinkResult| r.trace.stages.iter().map(|s| s.kind).collect::<Vec<_>>();
            assert_eq!(stages(&c.result), stages(&direct), "{what}");
            assert_eq!(c.result.trace.cache, direct.trace.cache, "{what}");
            assert!(
                c.result.trace.events.is_empty(),
                "{what}: nothing sheds at depth 0"
            );
        }
        let stats = fe.stats();
        assert_eq!(stats.submitted, QUERIES.len() as u64);
        assert_eq!(stats.completed, QUERIES.len() as u64);
        assert_eq!(stats.admitted_full, QUERIES.len() as u64);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.admitted_partial + stats.admitted_shed, 0);
        assert_eq!(stats.e2e.count, QUERIES.len() as u64);
    }
}

/// Request concurrency lives here, in the front end's workers: three
/// worker loops (not clamped by `available_parallelism`) drain one serve
/// window of queries interleaved with notes off a linker that itself
/// runs every request on its caller's thread. Every completion must be
/// bit-identical to the direct call on the same linker, and the
/// accounting must close with nothing rejected.
#[test]
fn concurrent_workers_answer_bit_identically_to_direct_calls() {
    const MIXED_QUERIES: &[&str] = &[
        "ckd stage 5",
        "abdominal pain",
        "renal disease stage 5",
        "unspecified disease",
        "acute abdominal syndrome",
        "abdomne pain",
        "ckd stge 5",
        "zzzgibberish",
    ];
    const NOTES: &[&str] = &[
        "patient admitted ckd stage 5 overnight abdominal pain reported",
        "follow up renal disease stage 5 no acute abdomen today",
        "history of chronic kidney disease unspecified and abdomen pain",
        "seen for acute abdominal syndrome then ckd unspecified noted",
    ];
    const N_QUERIES: usize = 40;
    const N_NOTES: usize = 8;

    let (o, model) = trained_world();
    let linker = Linker::new(&model, &o, LinkerConfig::default());
    // Capacity and both watermarks sit above the whole burst, so every
    // request is admitted on the Full rung whatever the drain rate.
    let fe = Frontend::new(
        &linker,
        FrontendConfig {
            workers: 3,
            deadline: None,
            queue_capacity: 128,
            degrade_watermark: 128,
            shed_watermark: 128,
            ..FrontendConfig::default()
        },
    );
    let mut queries: HashMap<u64, Vec<String>> = HashMap::new();
    let mut notes: HashMap<u64, Vec<String>> = HashMap::new();
    fe.serve(|| {
        for i in 0..N_QUERIES {
            let q = tokenize(MIXED_QUERIES[i % MIXED_QUERIES.len()]);
            let id = fe.submit(q.clone()).expect("capacity above the burst");
            queries.insert(id, q);
            if i % (N_QUERIES / N_NOTES) == 0 {
                let note = tokenize(NOTES[notes.len() % NOTES.len()]);
                let id = fe
                    .submit_document(note.clone())
                    .expect("capacity above the burst");
                notes.insert(id, note);
            }
        }
    });
    assert_eq!(queries.len(), N_QUERIES);
    assert_eq!(notes.len(), N_NOTES);

    let completions = fe.take_completions();
    assert_eq!(completions.len(), N_QUERIES);
    for c in &completions {
        assert_eq!(c.rung, AdmissionRung::Full);
        let q = &queries[&c.id];
        assert_same_result(&c.result, &linker.link(q), &format!("q={q:?}"));
    }
    let docs = fe.take_document_completions();
    assert_eq!(docs.len(), N_NOTES);
    for d in &docs {
        assert_eq!(d.rung, AdmissionRung::Full);
        let direct = linker.link_document(&notes[&d.id]);
        assert!(!direct.is_empty(), "the notes must propose spans");
        assert_eq!(d.result.len(), direct.len());
        for (got, want) in d.result.spans.iter().zip(&direct.spans) {
            assert_eq!(got.proposal, want.proposal);
            assert_same_result(
                &got.result,
                &want.result,
                &format!("note {} span@{}", d.id, want.proposal.start),
            );
        }
    }

    let stats = fe.stats();
    assert_eq!(stats.submitted, (N_QUERIES + N_NOTES) as u64);
    assert_eq!(
        stats.submitted,
        stats.completed + stats.rejected + stats.invalid
    );
    assert_eq!(stats.rejected, 0, "queue capacity is above the burst");
    assert_eq!(stats.invalid, 0);
    assert_eq!(stats.doc_completed, N_NOTES as u64);
}

/// `FrontendStats::cache` surfaces the linker's frozen-cache memory
/// report: the whole cache from the first snapshot on, every chapter
/// frozen when the linker was built, and serving changes none of it.
#[test]
fn stats_surface_the_cache_memory_report() {
    let (o, model) = trained_world();
    let linker = Linker::new(&model, &o, LinkerConfig::default());
    let fe = Frontend::new(
        &linker,
        FrontendConfig {
            workers: 0,
            deadline: None,
            ..FrontendConfig::default()
        },
    );
    let before = fe.stats().cache;
    let cache = linker.cache().unwrap();
    assert_eq!(before.encoder_steps_run, cache.row_count() - 1);
    assert_eq!(before.concepts, cache.len());
    assert_eq!(before.total_bytes(), cache.memory_report().total_bytes());
    assert!(before.bytes_per_concept() > 0.0);

    fe.submit(tokenize("ckd stage 5")).unwrap();
    let after = fe.stats().cache;
    assert_eq!(after.total_bytes(), before.total_bytes());
    assert_eq!(after.encoder_steps_run, before.encoder_steps_run);
}

/// A sustained burst far past the queue's hard ceiling: submissions
/// must split exactly into completions and typed rejections (nothing
/// lost, nothing double-counted), every completion must be
/// well-formed, and every request admitted on a degraded rung must
/// carry the `Shed` event as the *first* entry of its trace.
#[test]
fn sustained_burst_sheds_rejects_and_accounts_for_everything() {
    let (o, model) = trained_world();
    // Slow serving down deterministically so the submit loop outruns
    // the drain: every scored candidate pays a 2ms injected delay.
    let plan = Arc::new(FaultPlan::new(11).with_rule(
        "ed.score",
        FaultKind::Delay(Duration::from_millis(2)),
        1.0,
    ));
    let linker = Linker::new(&model, &o, LinkerConfig::default()).with_faults(plan);
    let fe = Frontend::new(
        &linker,
        FrontendConfig {
            queue_capacity: 4,
            degrade_watermark: 1,
            shed_watermark: 2,
            deadline: None,
            workers: 2,
            ..FrontendConfig::default()
        },
    );
    const N: usize = 40;
    let mut rejected_ids = 0u64;
    fe.serve(|| {
        for i in 0..N {
            match fe.submit(tokenize(QUERIES[i % QUERIES.len()])) {
                Ok(_) => {}
                Err(e) => {
                    assert!(e.is_transient(), "overload must be transient: {e}");
                    assert!(e.retry_after().is_some(), "rejection carries a hint");
                    rejected_ids += 1;
                }
            }
        }
    });
    let stats = fe.stats();
    let completions = fe.take_completions();
    assert_eq!(stats.submitted, N as u64);
    assert_eq!(stats.rejected, rejected_ids, "counter matches caller view");
    assert_eq!(
        stats.completed + stats.rejected,
        N as u64,
        "every submission completes or is rejected — none lost"
    );
    assert_eq!(completions.len() as u64, stats.completed);
    assert_eq!(
        stats.admitted_full + stats.admitted_partial + stats.admitted_shed,
        stats.completed,
        "admission rung counters cover exactly the admitted requests"
    );
    assert!(
        stats.rejected > 0,
        "a 40-deep burst into a capacity-4 queue must reject"
    );
    assert!(
        stats.admitted_partial + stats.admitted_shed > 0,
        "watermarks at 1/2 must pre-degrade under this burst"
    );
    assert!(stats.shed_fraction() > 0.0);
    for c in &completions {
        // Structural sanity: the ranking is a permutation of the
        // retrieved candidates.
        let mut ranked = c.result.ranked_ids();
        let mut cands = c.result.candidates.clone();
        ranked.sort();
        cands.sort();
        assert_eq!(ranked, cands);
        match c.rung {
            AdmissionRung::Full => {
                assert!(!c
                    .result
                    .trace
                    .events
                    .iter()
                    .any(|e| matches!(e, TraceEvent::Shed { .. })));
            }
            rung => match c.result.trace.events.first() {
                Some(&TraceEvent::Shed {
                    rung: traced_rung, ..
                }) => {
                    assert_eq!(traced_rung, rung, "trace rung matches the admission");
                }
                other => panic!("shed admission must lead with Shed, got {other:?}"),
            },
        }
        if c.rung == AdmissionRung::TfIdfOnly {
            assert!(
                c.result.is_degraded(),
                "a shed-rung completion must be marked degraded"
            );
        }
    }
    // Histogram coherence: workers merged their private sets at loop
    // exit, so every completion is in every latency roll-up.
    assert_eq!(stats.e2e.count, stats.completed);
    assert_eq!(stats.queue_wait.count, stats.completed);
    for s in [&stats.rewrite, &stats.retrieve, &stats.score, &stats.rank] {
        assert_eq!(s.count, stats.completed, "all four stages always run");
    }
    assert!(stats.e2e.p50 <= stats.e2e.p95 && stats.e2e.p95 <= stats.e2e.p99);
    assert!(stats.e2e.p99 <= stats.e2e.max);
}

/// The queue reopens across serve windows: a second `serve` call on
/// the same front end keeps admitting and completing.
#[test]
fn serve_windows_can_be_repeated() {
    let (o, model) = trained_world();
    let linker = Linker::new(&model, &o, LinkerConfig::default());
    let fe = Frontend::new(
        &linker,
        FrontendConfig {
            workers: 1,
            deadline: None,
            ..FrontendConfig::default()
        },
    );
    for window in 1..=2u64 {
        fe.serve(|| {
            for q in QUERIES {
                fe.submit(tokenize(q)).unwrap();
            }
        });
        let stats = fe.stats();
        assert_eq!(stats.completed, window * QUERIES.len() as u64);
        assert_eq!(stats.rejected, 0);
    }
    assert_eq!(fe.take_completions().len(), 2 * QUERIES.len());
}

/// Outside a serve window the queue is closed, so (with workers
/// configured) submissions are refused as overload rather than
/// silently parked where nothing will ever drain them.
#[test]
fn submit_outside_a_serve_window_is_rejected() {
    let (o, model) = trained_world();
    let linker = Linker::new(&model, &o, LinkerConfig::default());
    let fe = Frontend::new(&linker, FrontendConfig::default());
    let err = fe.submit(tokenize("ckd stage 5")).unwrap_err();
    assert!(matches!(err, ncl_core::NclError::Overloaded { .. }));
    assert_eq!(fe.stats().rejected, 1);
}

/// A panic in the arrival loop still closes the queue and joins every
/// worker before `serve` re-raises it: what was admitted is served,
/// nothing is stranded, and the front end serves the next window.
#[test]
fn a_panicking_serve_body_drains_joins_and_reraises() {
    let (o, model) = trained_world();
    let linker = Linker::new(&model, &o, LinkerConfig::default());
    let fe = Frontend::new(
        &linker,
        FrontendConfig {
            workers: 2,
            deadline: None,
            ..FrontendConfig::default()
        },
    );
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fe.serve(|| {
            for q in QUERIES {
                fe.submit(tokenize(q)).unwrap();
            }
            panic!("arrival loop failed");
        })
    }));
    let payload = caught.expect_err("the body's panic reaches the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"arrival loop failed"));
    assert_eq!(fe.take_completions().len(), QUERIES.len());
    let err = fe.submit(tokenize("ckd stage 5")).unwrap_err();
    assert!(matches!(err, ncl_core::NclError::Overloaded { .. }));
    fe.serve(|| fe.submit(tokenize("ckd stage 5")).unwrap());
    assert_eq!(fe.take_completions().len(), 1);
}
