//! Hot-swap soak: `retrain_and_publish` in a loop while three
//! [`Frontend`] workers drain notes and mentions. Every answer must
//! come off its generation's own cache and carry the bits
//! [`reference_link`] gives under that generation, every serve window's
//! accounting must close, and every cache must hold one freeze of each
//! shard — whether `publish` froze it or a linker built beside the
//! generation did.

use super::lattice::assert_matches;
use super::{reference_link, ReferenceResult};
use crate::feedback::{ExpertLabel, ModelGeneration};
use crate::linker::Linker;
use crate::pipeline::{NclConfig, NclPipeline};
use crate::serving::LinkerConfig;
use crate::serving::{AdmissionRung, CacheUse, Frontend, FrontendConfig};
use ncl_ontology::{Ontology, OntologyBuilder};
use ncl_text::tokenize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Two chapters, three levels, aliases to train on.
fn world() -> Ontology {
    let mut b = OntologyBuilder::new();
    let n18 = b.add_root_concept("N18", "chronic kidney disease");
    let n185 = b.add_child(n18, "N18.5", "chronic kidney disease stage 5");
    b.add_child(n185, "N18.51", "chronic kidney disease stage 5 on dialysis");
    let n189 = b.add_child(n18, "N18.9", "chronic kidney disease unspecified");
    let r10 = b.add_root_concept("R10", "abdominal pain");
    let r100 = b.add_child(r10, "R10.0", "acute abdomen");
    let r109 = b.add_child(r10, "R10.9", "unspecified abdominal pain");
    b.add_alias(n185, "ckd stage 5");
    b.add_alias(n189, "ckd unspecified");
    b.add_alias(r100, "acute abdominal syndrome");
    b.add_alias(r109, "abdomen pain");
    b.build().unwrap()
}

const NOTES: &[&str] = &[
    "patient admitted ckd stage 5 overnight abdominal pain reported",
    "follow up chronic kidney disease stage 5 on dialysis no acute abdomen",
    "history of ckd unspecified and abdomen pain",
];

const MENTIONS: &[&str] = &["ckd stage 5", "acute abdominal syndrome", "abdomne pain"];

/// Publish `r` starts once serve window `r` has: every swap lands
/// under traffic.
const PUBLISHES: u64 = 6;

/// What one serve window answered, and over which cache.
struct Window {
    generation: Arc<ModelGeneration>,
    /// `(tokens, answer)` for every mention and every note span.
    answers: Vec<(Vec<String>, crate::serving::LinkResult)>,
}

#[test]
fn publish_under_traffic_serves_every_generation_its_reference_bits() {
    let o = world();
    let config = NclConfig {
        pretrain: false,
        ..NclConfig::tiny()
    };
    let mut pipeline = NclPipeline::fit(&o, &[], config);
    let linker_config = LinkerConfig::default();
    let cell = pipeline.serving_cell(&o, linker_config);
    let labels = [ExpertLabel {
        concept: o.by_code("N18.51").unwrap(),
        query: tokenize("ckd on dialysis"),
    }];
    // One freeze of every shard, by construction of the count: the
    // encoder steps depend on the text alone, not on the parameters.
    let one_freeze = {
        let gen0 = cell.snapshot();
        gen0.linker(&o)
            .cache()
            .unwrap()
            .memory_report()
            .encoder_steps_run
    };

    let started = AtomicU64::new(0);
    let mut windows: Vec<Window> = Vec::new();
    std::thread::scope(|s| {
        let cell = &cell;
        let (o, started) = (&o, &started);
        let publisher = s.spawn(move || {
            for round in 1..=PUBLISHES {
                while started.load(Ordering::Acquire) < round {
                    std::thread::yield_now();
                }
                assert_eq!(pipeline.retrain_and_publish(o, &labels, 1, cell), round);
            }
        });
        // Every other window serves a linker over the same generation
        // with a cache of its own, frozen when it was built.
        loop {
            if publisher.is_finished() && cell.generation() < PUBLISHES {
                break; // it panicked: the scope re-raises that
            }
            let generation = cell.snapshot();
            let shared = generation.linker(o);
            let cold = Linker::new(generation.model(), o, linker_config);
            let linker = if windows.len().is_multiple_of(2) {
                &shared
            } else {
                &cold
            };
            let fe = Frontend::new(
                linker,
                FrontendConfig {
                    workers: 3,
                    deadline: None,
                    queue_capacity: 64,
                    degrade_watermark: 64,
                    shed_watermark: 64,
                    ..FrontendConfig::default()
                },
            );
            let mut submitted: HashMap<u64, Vec<String>> = HashMap::new();
            fe.serve(|| {
                started.fetch_add(1, Ordering::Release);
                for (note, mention) in NOTES.iter().zip(MENTIONS) {
                    let note = tokenize(note);
                    submitted.insert(fe.submit_document(note.clone()).unwrap(), note);
                    let mention = tokenize(mention);
                    submitted.insert(fe.submit(mention.clone()).unwrap(), mention);
                }
            });
            let stats = fe.stats();
            assert_eq!(stats.submitted, submitted.len() as u64);
            assert_eq!(
                stats.submitted,
                stats.completed + stats.rejected + stats.invalid
            );
            assert_eq!(stats.rejected + stats.invalid, 0);
            let report = linker.cache().unwrap().memory_report();
            assert_eq!(report.encoder_steps_run, one_freeze, "a shard froze twice");

            let mut answers = Vec::new();
            for c in fe.take_completions() {
                assert_eq!(c.rung, AdmissionRung::Full);
                answers.push((submitted[&c.id].clone(), c.result));
            }
            for d in fe.take_document_completions() {
                assert_eq!(d.rung, AdmissionRung::Full);
                let note = &submitted[&d.id];
                for span in d.result.spans {
                    let tokens = note[span.proposal.start..span.proposal.end()].to_vec();
                    answers.push((tokens, span.result));
                }
            }
            assert!(answers.len() > MENTIONS.len(), "the notes propose spans");
            let last = generation.generation() == PUBLISHES;
            windows.push(Window {
                generation,
                answers,
            });
            if last && windows.len() >= 4 {
                break;
            }
        }
    });

    let generation_of = |w: &Window| w.generation.generation();
    assert_eq!(windows.iter().map(generation_of).max(), Some(PUBLISHES));
    // The reference per generation and token sequence, made once.
    let mut want: HashMap<(u64, Vec<String>), ReferenceResult> = HashMap::new();
    for w in &windows {
        let linker = w.generation.linker(&o);
        for (tokens, got) in &w.answers {
            let want = want
                .entry((generation_of(w), tokens.clone()))
                .or_insert_with(|| reference_link(&linker, tokens));
            let what = format!("generation {} {tokens:?}", generation_of(w));
            // A torn model/cache pair cannot build a linker (its cache
            // must serve); every answer's Score read the cache.
            assert_eq!(got.trace.cache, CacheUse::Served, "{what}");
            assert_matches(got, want, 0.0, &what);
        }
    }
}
