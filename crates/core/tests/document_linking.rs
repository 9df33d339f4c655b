//! Integration tests for document-level linking (ISSUE 10): hostile
//! inputs into `try_link_document`, per-span equivalence with direct
//! linking, the serving front end's document admission path, and the
//! hot-swap proof — in-flight documents crossing a
//! `retrain_with_feedback` + publish with nothing dropped and nothing
//! torn.

use ncl_core::comaid::{ComAid, ComAidConfig, OntologyIndex, TrainPair, Variant};
use ncl_core::feedback::ExpertLabel;
use ncl_core::serving::{CacheUse, Frontend, FrontendConfig, StageKind, TraceEvent};
use ncl_core::{FaultPlan, NclConfig, NclPipeline};
use ncl_core::{LinkBudget, Linker, LinkerConfig};
use ncl_ontology::Ontology;
use ncl_text::{tokenize, Vocab};
use std::sync::Arc;
use std::time::Duration;

/// The small trained world shared with the fault-injection and
/// frontend suites: two ICD-style families with aliases.
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

/// A note whose two mentions sit between filler the dictionary does
/// not know.
const NOTE: &str =
    "patient resting comfortably ckd stage 5 overnight observation acute abdominal syndrome noted";

/// Every span of a document answer must be bit-identical to linking
/// that token slice directly: the document path adds proposal and a
/// shared deadline, never different serving behaviour.
#[test]
fn document_spans_are_bit_identical_to_direct_links() {
    let (o, model) = trained_world();
    let linker = Linker::new(&model, &o, LinkerConfig::default());
    let tokens = tokenize(NOTE);
    let doc = linker.link_document(&tokens);
    assert_eq!(doc.len(), 2, "both mentions proposed");
    for s in &doc.spans {
        let direct = linker.link(&tokens[s.proposal.start..s.proposal.end()]);
        assert_eq!(s.result.rewritten, direct.rewritten);
        assert_eq!(s.result.candidates, direct.candidates);
        assert_eq!(s.result.ranked_ids(), direct.ranked_ids());
        for (&(_, sa), &(_, sb)) in s.result.ranked.iter().zip(&direct.ranked) {
            assert_eq!(sa.to_bits(), sb.to_bits(), "scores must be bit-identical");
        }
        assert_eq!(s.result.degradation, direct.degradation);
    }
    // The roll-up leads with the Propose stage and sums the chain.
    assert_eq!(doc.trace.stages[0].kind, StageKind::Propose);
    assert!(doc
        .trace
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::SpanProposed { .. })));
}

#[test]
fn empty_and_whitespace_notes_are_invalid() {
    let (o, model) = trained_world();
    let linker = Linker::new(&model, &o, LinkerConfig::default());
    for bad in [Vec::new(), vec!["   ".to_string(), "\t".to_string()]] {
        let err = linker.try_link_document(&bad).unwrap_err();
        assert!(matches!(err, ncl_core::NclError::InvalidQuery { .. }));
    }
}

/// An all-filler note is a valid, *empty* answer — not an error.
/// (Rewriting is off here: with it on, the OOV machinery may pull
/// filler words toward the dictionary and anchor rewrite spans, which
/// is by design.)
#[test]
fn all_filler_note_links_to_nothing() {
    let (o, model) = trained_world();
    let linker = Linker::new(
        &model,
        &o,
        LinkerConfig {
            rewrite: false,
            ..LinkerConfig::default()
        },
    );
    let doc = linker
        .try_link_document(&tokenize(
            "patient seen today feeling much better will follow up",
        ))
        .unwrap();
    assert!(doc.is_empty());
    assert_eq!(doc.degradation, ncl_core::Degradation::None);
}

/// A 10k+-token note under a tight whole-note budget must complete
/// (possibly empty, possibly degraded) rather than run away or fail:
/// the proposal scan and every span job re-check the shared deadline.
#[test]
fn huge_note_under_tight_budget_completes() {
    let (o, model) = trained_world();
    let linker = Linker::new(
        &model,
        &o,
        LinkerConfig {
            budget: LinkBudget::with_total(Duration::from_millis(5)),
            ..LinkerConfig::default()
        },
    );
    let mut words = Vec::new();
    while words.len() < 10_500 {
        words.extend(tokenize(NOTE));
    }
    let start = std::time::Instant::now();
    let doc = linker.try_link_document(&words).unwrap();
    // Generous bound: the point is "proportional to the budget, not to
    // the note" — a full scan + ~2600 span links would take far longer.
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "tight budget must stop the note early (took {:?})",
        start.elapsed()
    );
    // Whatever was produced is well-formed and ordered.
    for w in doc.spans.windows(2) {
        assert!(w[0].proposal.end() <= w[1].proposal.start);
    }
}

/// A fault at `doc.propose` mid-document drops single spans, never the
/// note: with p=1 every span is dropped (note still completes, one
/// `ProposeFaulted` per would-be span); without the plan both link.
#[test]
fn propose_fault_drops_spans_not_the_note() {
    let (o, model) = trained_world();
    let plan = Arc::new(FaultPlan::panics(3, "doc.propose", 1.0));
    let linker = Linker::new(&model, &o, LinkerConfig::default()).with_faults(plan);
    let doc = linker.try_link_document(&tokenize(NOTE)).unwrap();
    assert!(doc.is_empty(), "every proposal faulted");
    let faulted = doc
        .trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::ProposeFaulted { .. }))
        .count();
    assert_eq!(faulted, 2, "one fault event per dropped span");
}

/// Inline front end: a document completion is bit-identical to calling
/// `link_document` directly, and the accounting extends the fig18
/// invariant (`submitted == completed + rejected + invalid`) with the
/// document sub-counters.
#[test]
fn frontend_document_path_accounts_and_matches_direct() {
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
    let tokens = tokenize(NOTE);
    fe.submit_document(tokens.clone()).unwrap();
    fe.submit(tokenize("ckd stage 5")).unwrap();
    assert!(fe.submit_document(vec![" ".into()]).is_err());

    let docs = fe.take_document_completions();
    assert_eq!(docs.len(), 1);
    let direct = linker.link_document(&tokens);
    assert_eq!(docs[0].result.len(), direct.len());
    for (a, b) in docs[0].result.spans.iter().zip(&direct.spans) {
        assert_eq!(
            (a.proposal.start, a.proposal.len),
            (b.proposal.start, b.proposal.len)
        );
        for (&(_, sa), &(_, sb)) in a.result.ranked.iter().zip(&b.result.ranked) {
            assert_eq!(sa.to_bits(), sb.to_bits());
        }
    }

    let stats = fe.stats();
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.invalid, 1);
    assert_eq!(
        stats.submitted,
        stats.completed + stats.rejected + stats.invalid
    );
    assert_eq!(
        stats.doc_submitted, 2,
        "invalid notes still count as submitted"
    );
    assert_eq!(stats.doc_completed, 1);
    assert_eq!(stats.doc_spans_linked, direct.len() as u64);
    assert_eq!(stats.doc_e2e.count, 1);
    assert_eq!(stats.propose.count, 1);
    assert_eq!(stats.e2e.count, 1, "e2e histogram stays single-query");
}

/// Documents through worker threads: everything submitted is either
/// completed or rejected, span counts add up, and a shed document
/// respects the span cap.
#[test]
fn frontend_documents_survive_a_burst() {
    let (o, model) = trained_world();
    let linker = Linker::new(&model, &o, LinkerConfig::default());
    let fe = Frontend::new(
        &linker,
        FrontendConfig {
            queue_capacity: 4,
            degrade_watermark: 1,
            shed_watermark: 2,
            deadline: None,
            workers: 2,
            shed_span_cap: Some(1),
            ..FrontendConfig::default()
        },
    );
    let tokens = tokenize(NOTE);
    const N: usize = 30;
    let mut rejected = 0u64;
    fe.serve(|| {
        for _ in 0..N {
            if fe.submit_document(tokens.clone()).is_err() {
                rejected += 1;
            }
        }
    });
    let stats = fe.stats();
    let docs = fe.take_document_completions();
    assert_eq!(stats.submitted, N as u64);
    assert_eq!(stats.doc_submitted, N as u64);
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.completed + stats.rejected, N as u64, "none lost");
    assert_eq!(stats.doc_completed, stats.completed);
    assert_eq!(docs.len() as u64, stats.doc_completed);
    let spans: u64 = docs.iter().map(|d| d.result.len() as u64).sum();
    assert_eq!(stats.doc_spans_linked, spans);
    assert_eq!(stats.doc_e2e.count, stats.doc_completed);
    for d in &docs {
        if d.rung == ncl_core::AdmissionRung::TfIdfOnly {
            assert!(
                d.result.len() <= 1,
                "bottom-rung documents respect the span cap"
            );
        }
    }
}

/// The hot-swap proof (ISSUE 10 acceptance): `link_document` calls in
/// flight across `retrain_with_feedback` + publish are never dropped
/// and never see a torn model/cache pair, and requests holding the old
/// generation stay bit-identical to pre-swap serving.
#[test]
fn hot_swap_keeps_in_flight_documents_whole() {
    let mut b = ncl_ontology::OntologyBuilder::new();
    let n18 = b.add_root_concept("N18", "chronic kidney disease");
    let n185 = b.add_child(n18, "N18.5", "chronic kidney disease stage 5");
    let r10 = b.add_root_concept("R10", "abdominal pain");
    b.add_child(r10, "R10.9", "unspecified abdominal pain");
    b.add_alias(n185, "ckd stage 5");
    let o = b.build().unwrap();
    let unlabeled: Vec<Vec<String>> = [
        "ckd stage 5 follow up",
        "abdominal pain overnight",
        "chronic kidney disease stage 5 on dialysis",
    ]
    .iter()
    .map(|s| tokenize(s))
    .collect();
    let mut p = NclPipeline::fit(&o, &unlabeled, NclConfig::tiny());
    let cell = p.serving_cell(&o, p.config().linker);
    let note = tokenize("patient admitted ckd stage 5 overnight abdominal pain reported");

    // Pre-swap baseline on generation 0.
    let baseline = cell.snapshot().linker(&o).link_document(&note);
    assert!(!baseline.is_empty());

    // Hold a generation-0 snapshot "in flight" across the swap, and
    // hammer the cell from another thread while the retrain+publish
    // happens — every request must complete on a coherent snapshot.
    let held = cell.snapshot();
    let served = std::thread::scope(|s| {
        let worker = s.spawn(|| {
            let mut served = Vec::new();
            for _ in 0..12 {
                let snap = cell.snapshot();
                let doc = snap.linker(&o).link_document(&note);
                served.push((snap.generation(), doc));
            }
            served
        });
        let labels = vec![ExpertLabel {
            concept: n185,
            query: tokenize("ckd stage 5"),
        }];
        let generation = p.retrain_and_publish(&o, &labels, 2, &cell);
        assert_eq!(generation, 1);
        worker.join().unwrap()
    });

    assert_eq!(served.len(), 12, "no request dropped across the swap");
    for (generation, doc) in &served {
        // Not torn: every span served from a cache valid for its
        // snapshot's model — a mismatched pair builds no linker.
        for s in &doc.spans {
            assert_eq!(s.result.trace.cache, CacheUse::Served, "gen {generation}");
        }
        if *generation == 0 {
            assert_bit_identical(doc, &baseline);
        }
    }

    // The held snapshot finishes after the swap exactly as before it.
    let late = held.linker(&o).link_document(&note);
    assert_eq!(held.generation(), 0);
    assert_bit_identical(&late, &baseline);

    // And the new generation serves coherently too.
    let snap1 = cell.snapshot();
    assert_eq!(snap1.generation(), 1);
    let fresh = snap1.linker(&o).link_document(&note);
    for s in &fresh.spans {
        assert_eq!(s.result.trace.cache, CacheUse::Served);
    }
}

fn assert_bit_identical(a: &ncl_core::DocumentResult, b: &ncl_core::DocumentResult) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.spans.iter().zip(&b.spans) {
        assert_eq!(
            (x.proposal.start, x.proposal.len),
            (y.proposal.start, y.proposal.len)
        );
        assert_eq!(x.result.ranked_ids(), y.result.ranked_ids());
        for (&(_, sa), &(_, sb)) in x.result.ranked.iter().zip(&y.result.ranked) {
            assert_eq!(sa.to_bits(), sb.to_bits(), "old generation must not drift");
        }
    }
}
