//! The only file that names the program. Every call into `ncl-*` is
//! here, timed here, and converted here into the harness's own plain
//! types, so a change to the program's surface is answered in one file.
//!
//! Rules this file keeps (README, "The adapter"):
//! * configs are `X::default()` followed by assignments to `dim`,
//!   `beta`, `epochs`, `lr`, `lr_decay`, `seed`, `k`, `workers` only —
//!   never a struct literal, never a thread-count, freeze, tier,
//!   fast-math or backend knob;
//! * only structures the program already returns are read
//!   (`LinkResult`, `LinkTrace`, `RetrievalStats`, `FrontendStats`,
//!   `CacheMemoryReport`, `NclPipeline`'s public fields).

// The first rule above is the point of this file; clippy would rather
// see the struct-update literal.
#![allow(clippy::field_reassign_with_default)]

use crate::digest::Fnv;
use crate::sandbox;
use ncl_core::comaid::{ComAid, ComAidConfig, MappedCheckpoint};
use ncl_core::{
    ComAidScore, DocumentResult, ExpertLabel, Frontend, FrontendConfig, HotSwapCell, LinkResult,
    Linker, LinkerConfig, NclConfig, NclPipeline, ProposeConfig, ScoreRequest, ScoreStage,
    StageKind,
};
use ncl_datagen::ontology_gen::generate_icd10cm_at_least;
use ncl_datagen::{Dataset, DatasetConfig, DatasetProfile, NoteConfig, NoteProfile};
use ncl_embedding::NearestWords;
use ncl_nn::{DotAttention, Lstm};
use ncl_ontology::{ConceptId, Ontology};
use ncl_tensor::ops::log_sum_exp_slice;
use ncl_tensor::{init, Vector};
use ncl_text::edit_index::EditIndex;
use ncl_text::tfidf::TfIdfIndex;
use ncl_text::{tokenize, Vocab};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// Model width, structural depth and candidate count of every workload.
pub const DIM: usize = 32;
pub const BETA: usize = 2;
pub const K: usize = 20;

// ---------------------------------------------------------------- cost

/// Wall time and (while the traced run counts them) allocations of one
/// call into the program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub secs: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

fn measured<R>(f: impl FnOnce() -> R) -> (Cost, R) {
    let (a0, b0) = sandbox::allocations();
    let t0 = Instant::now();
    let r = f();
    let secs = t0.elapsed().as_secs_f64();
    let (a1, b1) = sandbox::allocations();
    (
        Cost {
            secs,
            allocs: a1 - a0,
            alloc_bytes: b1 - b0,
        },
        r,
    )
}

// -------------------------------------------------------------- inputs

/// How large the generated inputs are; `smoke` exists for the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub concepts: usize,
    pub queries: usize,
    pub notes: usize,
    /// hx-train grows its dataset until it holds this many labelled
    /// ⟨description, alias⟩ pairs, so the training work is the same on
    /// every seed (pairs per category vary by a third between seeds).
    pub min_pairs: usize,
    pub unlabeled: usize,
    pub epochs: usize,
    pub cbow_epochs: usize,
    pub eval_groups: usize,
    pub eval_group_size: usize,
    pub feedback_labels: usize,
    pub feedback_epochs: usize,
    pub first_answers: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Self {
            concepts: 30_000,
            queries: 4_000,
            notes: 400,
            min_pairs: 1_100,
            unlabeled: 3_000,
            epochs: 24,
            cbow_epochs: 8,
            eval_groups: 3,
            eval_group_size: 200,
            feedback_labels: 60,
            feedback_epochs: 3,
            first_answers: 200,
        }
    }

    pub fn smoke() -> Self {
        Self {
            concepts: 600,
            queries: 120,
            notes: 12,
            min_pairs: 150,
            unlabeled: 200,
            epochs: 3,
            cbow_epochs: 2,
            eval_groups: 2,
            eval_group_size: 30,
            feedback_labels: 10,
            feedback_epochs: 1,
            first_answers: 20,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Query {
    pub tokens: Vec<String>,
    pub truth: u32,
}

#[derive(Debug, Clone, Copy)]
pub struct Gold {
    pub start: usize,
    pub len: usize,
    pub truth: u32,
}

#[derive(Debug, Clone)]
pub struct Note {
    pub tokens: Vec<String>,
    pub gold: Vec<Gold>,
}

/// The ontology a workload links against, with whatever else was
/// generated beside it.
pub struct World {
    source: Source,
    fine: Vec<bool>,
}

enum Source {
    /// ICD-10-CM-shaped ontology for the serving workloads.
    Icd(Ontology),
    /// hospital-x dataset (ontology with aliases + unlabeled snippets).
    HospitalX(Dataset),
}

impl World {
    fn new(source: Source) -> Self {
        let o = match &source {
            Source::Icd(o) => o,
            Source::HospitalX(d) => &d.ontology,
        };
        let mut fine = vec![false; o.len()];
        for id in o.fine_grained() {
            fine[id.index()] = true;
        }
        Self { source, fine }
    }

    pub fn icd(min_concepts: usize, seed: u64) -> Self {
        Self::new(Source::Icd(generate_icd10cm_at_least(min_concepts, seed)))
    }

    pub fn hospital_x(sizes: &Sizes, seed: u64) -> Self {
        let generate = |categories, unlabeled_snippets| {
            Dataset::generate(DatasetConfig {
                profile: DatasetProfile::HospitalX,
                categories,
                aliases_per_concept: 4,
                unlabeled_snippets,
                seed,
            })
        };
        // ~19 pairs per category on average; start below and grow.
        let mut categories = (sizes.min_pairs / 30).max(2);
        while generate(categories, 0).ontology.num_labeled_pairs() < sizes.min_pairs {
            categories += 1;
        }
        Self::new(Source::HospitalX(generate(categories, sizes.unlabeled)))
    }

    fn ontology(&self) -> &Ontology {
        match &self.source {
            Source::Icd(o) => o,
            Source::HospitalX(d) => &d.ontology,
        }
    }

    fn dataset(&self) -> &Dataset {
        match &self.source {
            Source::HospitalX(d) => d,
            Source::Icd(_) => panic!("this workload has no dataset"),
        }
    }

    pub fn concepts(&self) -> usize {
        self.ontology().num_concepts()
    }

    pub fn is_fine_grained(&self, id: u32) -> bool {
        self.fine.get(id as usize).copied().unwrap_or(false)
    }

    /// Codes, descriptions, aliases and unlabeled snippets, in order.
    pub fn digest_into(&self, h: &mut Fnv) {
        for (id, c) in self.ontology().iter() {
            h.u32(id.0);
            h.str(&c.code);
            h.str(&c.canonical);
            for a in &c.aliases {
                h.str(a);
            }
        }
        if let Source::HospitalX(d) = &self.source {
            for s in &d.unlabeled {
                h.tokens(s);
            }
        }
    }

    /// `n` clinical notes (hospital-x corruption mix, default shape), in
    /// stream order, with the same number of notes for every mention
    /// count the generator draws from (3..=8): a note's cost follows its
    /// mention count, and 400 notes drawn freely moved the median note
    /// by ±8% between seeds. A stated input size, like `min_pairs`.
    pub fn notes(&self, n: usize, seed: u64) -> Vec<Note> {
        let mut config = NoteConfig::default();
        config.seed ^= seed;
        let (lo, hi) = (config.mentions_min, config.mentions_max);
        let strata = hi - lo + 1;
        // The remainder goes to the lowest counts.
        let mut room: Vec<usize> = (0..strata)
            .map(|s| n / strata + usize::from(s < n % strata))
            .collect();
        let mut out = Vec::with_capacity(n);
        let mut first = 0;
        while out.len() < n {
            assert!(
                first < 64 * (n + 64),
                "the note stream never fills {room:?}"
            );
            for note in self.note_stream(config, first, 64) {
                let mentions = note.gold.len();
                if (lo..=hi).contains(&mentions) && room[mentions - lo] > 0 {
                    room[mentions - lo] -= 1;
                    out.push(note);
                }
            }
            first += 64;
        }
        out
    }

    /// `n` single mentions with the same corruption mix: the gold spans
    /// of a second, differently seeded note stream.
    pub fn queries(&self, n: usize, seed: u64) -> Vec<Query> {
        let mut config = NoteConfig::default();
        config.seed ^= seed.rotate_left(17) ^ 0x51;
        let mut out = Vec::with_capacity(n + 8);
        let mut batch = 0;
        while out.len() < n {
            let notes = self.note_stream(config, batch * 64, 64);
            batch += 1;
            for note in notes {
                for g in &note.gold {
                    out.push(Query {
                        tokens: note.tokens[g.start..g.start + g.len].to_vec(),
                        truth: g.truth,
                    });
                }
            }
        }
        out.truncate(n);
        out
    }

    /// Notes `first + 1 ..= first + n` of the stream `config` seeds.
    fn note_stream(&self, config: NoteConfig, first: usize, n: usize) -> Vec<Note> {
        let profile = NoteProfile::new(self.ontology(), DatasetProfile::HospitalX, config);
        (first..first + n)
            .map(|i| {
                let note = profile.note(i as u64 + 1);
                Note {
                    gold: note
                        .gold
                        .iter()
                        .map(|g| Gold {
                            start: g.start,
                            len: g.len,
                            truth: g.truth.0,
                        })
                        .collect(),
                    tokens: note.tokens,
                }
            })
            .collect()
    }

    /// hx-train's evaluation queries: (standard groups, OOV-heavy groups).
    pub fn eval_queries(&self, sizes: &Sizes) -> (Vec<Query>, Vec<Query>) {
        let d = self.dataset();
        let flat = |groups: Vec<Vec<ncl_datagen::LabeledQuery>>| {
            groups
                .into_iter()
                .flatten()
                .map(|q| Query {
                    tokens: q.tokens,
                    truth: q.truth.0,
                })
                .collect::<Vec<_>>()
        };
        (
            flat(d.query_groups(
                sizes.eval_groups,
                sizes.eval_group_size,
                sizes.eval_group_size / 5,
            )),
            flat(d.oov_heavy_groups(sizes.eval_groups, sizes.eval_group_size)),
        )
    }

    /// Gold-labelled OOV-heavy queries an expert feeds back in `round`.
    pub fn feedback_queries(&self, sizes: &Sizes, round: usize) -> Vec<Query> {
        self.dataset()
            .oov_heavy_group(sizes.feedback_labels, 1_000 + round as u64)
            .into_iter()
            .map(|q| Query {
                tokens: q.tokens,
                truth: q.truth.0,
            })
            .collect()
    }
}

// ------------------------------------------------------------- answers

/// Stage walls (seconds) out of a `LinkTrace`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageWalls {
    pub propose: f64,
    pub rewrite: f64,
    pub retrieve: f64,
    pub score: f64,
    pub rank: f64,
}

impl StageWalls {
    pub fn sum(&self) -> f64 {
        self.propose + self.rewrite + self.retrieve + self.score + self.rank
    }

    /// In the order the program runs them.
    pub fn named(&self) -> [(&'static str, f64); 5] {
        [
            ("propose", self.propose),
            ("rewrite", self.rewrite),
            ("retrieve", self.retrieve),
            ("score", self.score),
            ("rank", self.rank),
        ]
    }
}

/// Phase-I work counters out of `RetrievalStats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub postings_scored: u64,
    pub postings_pruned: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
}

#[derive(Debug, Clone)]
pub struct Answer {
    pub ranked: Vec<(u32, f32)>,
    pub candidates: Vec<u32>,
    pub degraded: bool,
    pub stages: StageWalls,
    pub counters: Counters,
}

#[derive(Debug, Clone)]
pub struct SpanAnswer {
    pub start: usize,
    pub len: usize,
    pub answer: Answer,
}

#[derive(Debug, Clone)]
pub struct NoteAnswer {
    pub spans: Vec<SpanAnswer>,
    pub degraded: bool,
    pub stages: StageWalls,
    pub counters: Counters,
}

fn stage_walls(trace: &ncl_core::LinkTrace) -> StageWalls {
    let wall = |k| trace.stage_wall(k).as_secs_f64();
    StageWalls {
        propose: wall(StageKind::Propose),
        rewrite: wall(StageKind::Rewrite),
        retrieve: wall(StageKind::Retrieve),
        score: wall(StageKind::Score),
        rank: wall(StageKind::Rank),
    }
}

fn counters(stats: &ncl_core::RetrievalStats) -> Counters {
    Counters {
        postings_scored: stats.postings_scored as u64,
        postings_pruned: stats.postings_pruned as u64,
        memo_hits: stats.rewrite_cache_hits as u64,
        memo_misses: stats.rewrite_cache_misses as u64,
    }
}

fn answer(res: &LinkResult) -> Answer {
    Answer {
        ranked: res.ranked.iter().map(|&(c, s)| (c.0, s)).collect(),
        candidates: res.candidates.iter().map(|c| c.0).collect(),
        degraded: res.is_degraded(),
        stages: stage_walls(&res.trace),
        counters: counters(&res.retrieval),
    }
}

fn note_answer(doc: &DocumentResult) -> NoteAnswer {
    NoteAnswer {
        spans: doc
            .spans
            .iter()
            .map(|s| SpanAnswer {
                start: s.proposal.start,
                len: s.proposal.len,
                answer: answer(&s.result),
            })
            .collect(),
        degraded: doc.degradation.is_degraded(),
        stages: stage_walls(&doc.trace),
        counters: counters(&doc.trace.retrieval),
    }
}

// ------------------------------------------------------------- serving

fn linker_config() -> LinkerConfig {
    let mut config = LinkerConfig::default();
    config.k = K;
    config
}

/// A v2 checkpoint on disk.
#[derive(Debug, Clone, Copy)]
pub struct Saved {
    pub save_s: f64,
    pub bytes: u64,
    pub vocab: usize,
}

/// Writes an untrained `Variant::Full` COM-AID over the ontology's
/// description vocabulary as a v2 checkpoint. Compute cost does not
/// depend on the weights (fig17 relies on the same), and 30k concepts
/// cannot be trained inside a run.
pub fn save_untrained_model(world: &World, seed: u64, path: &Path) -> Saved {
    let mut vocab = Vocab::new();
    for (_, c) in world.ontology().iter() {
        for t in tokenize(&c.canonical) {
            vocab.add(&t);
        }
    }
    let mut config = ComAidConfig::default();
    config.dim = DIM;
    config.beta = BETA;
    config.seed = seed;
    let model = ComAid::new(vocab, config, None);
    save_model(&model, path)
}

fn save_model(model: &ComAid, path: &Path) -> Saved {
    let (cost, res) = measured(|| model.save_v2_to_path(path));
    res.expect("write v2 checkpoint");
    Saved {
        save_s: cost.secs,
        bytes: std::fs::metadata(path).expect("stat checkpoint").len(),
        vocab: model.vocab().len(),
    }
}

/// The two halves of a cold start, in seconds, plus the checkpoint read.
#[derive(Debug, Clone, Copy)]
pub struct ColdStart {
    pub load_s: f64,
    pub new_s: f64,
    pub first_answers_s: f64,
}

impl ColdStart {
    pub fn total(&self) -> f64 {
        self.load_s + self.new_s + self.first_answers_s
    }
}

/// A linker ready to serve, and everything the harness may ask of it.
pub struct Serving<'a> {
    linker: Linker<'a>,
}

/// What a serving process pays before it is useful: open the v2
/// checkpoint, load the model, build the linker, answer `first`.
/// `body` then runs against the warm linker.
pub fn cold_start<R>(
    checkpoint: &Path,
    world: &World,
    first: &[Query],
    body: impl FnOnce(&Serving<'_>, ColdStart) -> R,
) -> R {
    let (load, model) = measured(|| {
        let mut mapped = MappedCheckpoint::open(checkpoint).expect("open v2 checkpoint");
        mapped.load_model().expect("load model from checkpoint")
    });
    let (new, linker) = measured(|| Linker::new(&model, world.ontology(), linker_config()));
    let (answers, ()) = measured(|| {
        for q in first {
            std::hint::black_box(linker.link(&q.tokens));
        }
    });
    body(
        &Serving { linker },
        ColdStart {
            load_s: load.secs,
            new_s: new.secs,
            first_answers_s: answers.secs,
        },
    )
}

/// Phase-I output held between `retrieve` and `score`.
pub struct Retrieved {
    rewritten: Vec<String>,
    candidates: Vec<ConceptId>,
}

impl Retrieved {
    pub fn candidate_ids(&self) -> Vec<u32> {
        self.candidates.iter().map(|c| c.0).collect()
    }
}

impl<'a> Serving<'a> {
    pub fn link(&self, tokens: &[String]) -> (Cost, Answer) {
        let (cost, res) = measured(|| self.linker.link(tokens));
        (cost, answer(&res))
    }

    pub fn link_document(&self, tokens: &[String]) -> (Cost, NoteAnswer) {
        let (cost, doc) = measured(|| self.linker.link_document(tokens));
        (cost, note_answer(&doc))
    }

    pub fn rewrite_query(&self, tokens: &[String]) -> Cost {
        measured(|| std::hint::black_box(self.linker.rewrite_query(tokens))).0
    }

    pub fn retrieve(&self, tokens: &[String]) -> (Cost, Retrieved) {
        let (cost, (rewritten, candidates)) = measured(|| self.linker.retrieve(tokens));
        (
            cost,
            Retrieved {
                rewritten: rewritten.into_owned(),
                candidates,
            },
        )
    }

    /// Phase II alone on what `retrieve` returned; the scores in
    /// candidate order (`None` = unscored).
    pub fn score(&self, retrieved: &Retrieved) -> (Cost, Vec<Option<f32>>) {
        let scorer = ComAidScore::new(&self.linker);
        let (cost, outcome) = measured(|| {
            scorer.score(ScoreRequest {
                query: &retrieved.rewritten,
                candidates: &retrieved.candidates,
                deadline: None,
            })
        });
        (cost, outcome.scores)
    }

    pub fn propose_spans(&self, tokens: &[String]) -> (Cost, Vec<(usize, usize)>) {
        let config = ProposeConfig::default();
        let (cost, spans) = measured(|| self.linker.propose_spans(tokens, &config));
        (cost, spans.iter().map(|s| (s.start, s.len)).collect())
    }

    /// (total bytes, bytes per concept) of the frozen concept cache.
    pub fn cache_bytes(&self) -> (u64, f64) {
        self.linker.cache().map_or((0, 0.0), |c| {
            let r = c.memory_report();
            (r.total_bytes() as u64, r.bytes_per_concept())
        })
    }

    /// The production front end, driven inline: `workers: 0` is closed
    /// loop and single-threaded (arrival schedules stay with fig18).
    pub fn frontend(&self) -> InlineFrontend<'_, 'a> {
        let mut config = FrontendConfig::default();
        config.workers = 0;
        InlineFrontend {
            fe: Frontend::new(&self.linker, config),
        }
    }
}

// ------------------------------------------------------------ frontend

pub struct InlineFrontend<'f, 'a> {
    fe: Frontend<'f, 'a>,
}

/// One completion as the front end accounts for it.
#[derive(Debug, Clone)]
pub struct Served<A> {
    pub answer: A,
    /// `Completion.total`: admission to completion, as the front end's
    /// own histograms see it.
    pub total_s: f64,
}

/// The counters and histogram roll-ups read out of `FrontendStats`.
#[derive(Debug, Clone, Copy)]
pub struct FrontendCounts {
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub invalid: u64,
    pub admitted_full: u64,
    pub e2e_p50_s: f64,
    pub e2e_count: u64,
}

/// An inline submission completes before it returns: exactly one
/// completion must be waiting.
fn only_completion<C>(taken: Result<Vec<C>, ncl_core::NclError>) -> Result<C, String> {
    let mut done = taken.map_err(|e| e.to_string())?;
    match (done.pop(), done.is_empty()) {
        (Some(c), true) => Ok(c),
        (None, _) => Err("no completion for an admitted request".into()),
        (Some(_), false) => Err("more than one completion for one request".into()),
    }
}

impl InlineFrontend<'_, '_> {
    /// Runs `body` inside a serve window, as a deployment would.
    pub fn serve<R>(&self, body: impl FnOnce() -> R) -> R {
        self.fe.serve(body)
    }

    pub fn submit(&self, tokens: &[String]) -> (Cost, Result<Served<Answer>, String>) {
        let (cost, res) = measured(|| {
            self.fe
                .submit(tokens.to_vec())
                .map(|_| self.fe.take_completions())
        });
        let served = only_completion(res).map(|c| Served {
            answer: answer(&c.result),
            total_s: c.total.as_secs_f64(),
        });
        (cost, served)
    }

    pub fn submit_document(&self, tokens: &[String]) -> (Cost, Result<Served<NoteAnswer>, String>) {
        let (cost, res) = measured(|| {
            self.fe
                .submit_document(tokens.to_vec())
                .map(|_| self.fe.take_document_completions())
        });
        let served = only_completion(res).map(|c| Served {
            answer: note_answer(&c.result),
            total_s: c.total.as_secs_f64(),
        });
        (cost, served)
    }

    /// The per-request deadline the front end stamps at admission.
    pub fn deadline_s(&self) -> Option<f64> {
        self.fe.config().deadline.map(|d| d.as_secs_f64())
    }

    pub fn counts(&self) -> FrontendCounts {
        let s = self.fe.stats();
        FrontendCounts {
            submitted: s.submitted,
            completed: s.completed,
            rejected: s.rejected,
            invalid: s.invalid,
            admitted_full: s.admitted_full,
            e2e_p50_s: s.e2e.p50.as_secs_f64(),
            e2e_count: s.e2e.count,
        }
    }
}

// ------------------------------------------------------------ training

/// The offline side: `NclPipeline::fit` and the feedback loop.
pub struct Trained {
    pipeline: NclPipeline,
}

/// What `fit` reports about itself.
#[derive(Debug, Clone)]
pub struct FitReport {
    pub pretrain_s: f64,
    pub refine_s: f64,
    pub num_pairs: usize,
    pub epoch_seconds: Vec<f64>,
    pub first_loss: f64,
    pub final_loss: f64,
}

fn pipeline_config(sizes: &Sizes, seed: u64) -> NclConfig {
    let mut config = NclConfig::default();
    config.comaid.dim = DIM;
    config.comaid.beta = BETA;
    config.comaid.epochs = sizes.epochs;
    config.comaid.lr = 0.3;
    config.comaid.lr_decay = 0.96;
    config.comaid.seed = seed;
    config.cbow.epochs = sizes.cbow_epochs;
    config.cbow.seed = seed ^ 0xCB0;
    config.linker.k = K;
    config
}

impl Trained {
    pub fn fit(world: &World, sizes: &Sizes, seed: u64) -> (Cost, Self) {
        let d = world.dataset();
        let config = pipeline_config(sizes, seed);
        let (cost, pipeline) = measured(|| NclPipeline::fit(&d.ontology, &d.unlabeled, config));
        (cost, Self { pipeline })
    }

    pub fn report(&self) -> FitReport {
        let p = &self.pipeline;
        FitReport {
            pretrain_s: p.pretrain_time.as_secs_f64(),
            refine_s: p.refine_time.as_secs_f64(),
            num_pairs: p.num_pairs,
            epoch_seconds: p.report.epoch_seconds.clone(),
            first_loss: p
                .report
                .epoch_losses
                .first()
                .map_or(f64::NAN, |&l| f64::from(l)),
            final_loss: f64::from(p.report.final_loss()),
        }
    }

    /// The pipeline's own linker over the current model.
    pub fn with_serving<R>(&self, world: &World, body: impl FnOnce(&Serving<'_>) -> R) -> R {
        body(&Serving {
            linker: self.pipeline.linker(world.ontology()),
        })
    }

    pub fn save(&self, path: &Path) -> Saved {
        save_model(&self.pipeline.model, path)
    }

    /// Generation 0 of the hot-swap cell, frozen from the current model.
    pub fn serving_cell(&self, world: &World) -> ServingCell {
        ServingCell {
            cell: self
                .pipeline
                .serving_cell(world.ontology(), self.pipeline.config().linker),
        }
    }

    /// Appendix A: retrain on the expert's labels, freeze, publish.
    /// Returns the cost and the generation now being served.
    pub fn retrain_and_publish(
        &mut self,
        world: &World,
        labels: &[Query],
        extra_epochs: usize,
        cell: &ServingCell,
    ) -> (Cost, u64) {
        let labels: Vec<ExpertLabel> = labels
            .iter()
            .map(|q| ExpertLabel {
                concept: ConceptId(q.truth),
                query: q.tokens.clone(),
            })
            .collect();
        measured(|| {
            self.pipeline
                .retrain_and_publish(world.ontology(), &labels, extra_epochs, &cell.cell)
        })
    }

    /// The freeze-and-swap half of a publish, without retraining.
    pub fn publish_only(&self, world: &World, cell: &ServingCell) -> Cost {
        measured(|| cell.cell.publish(&self.pipeline.model, world.ontology())).0
    }

    /// Times the three Phase-I lookups on the trained vocabulary.
    pub fn index_probe(&self, world: &World, queries: &[Query]) -> IndexProbe {
        let o = world.ontology();
        let model = &self.pipeline.model;
        let docs: Vec<Vec<String>> = o
            .fine_grained()
            .into_iter()
            .map(|id| {
                let c = o.concept(id);
                let mut toks = tokenize(&c.canonical);
                for a in &c.aliases {
                    toks.extend(tokenize(a));
                }
                toks
            })
            .collect();
        let tfidf = TfIdfIndex::build(&docs);
        let words: Vec<&str> = model.vocab().iter_words().map(|(_, w)| w).collect();
        let edit = EditIndex::new(words.iter().copied());
        let nearest = NearestWords::new(model.embedding().table(), None);

        let oov: Vec<&String> = queries
            .iter()
            .flat_map(|q| &q.tokens)
            .filter(|t| !tfidf.contains_term(t))
            .collect();
        let known: Vec<(u32, Vector)> = queries
            .iter()
            .flat_map(|q| &q.tokens)
            .filter_map(|t| model.vocab().get(t))
            .map(|id| (id, model.embedding().lookup(id)))
            .collect();
        IndexProbe {
            tfidf_topk_us: best_per_call(queries.len(), 1e6, || {
                for q in queries {
                    std::hint::black_box(tfidf.top_k_with_stats(&q.tokens, K));
                }
            }),
            edit_nearest_us: best_per_call(oov.len(), 1e6, || {
                for w in &oov {
                    std::hint::black_box(edit.nearest(w, 2));
                }
            }),
            embedding_nearest_us: best_per_call(known.len(), 1e6, || {
                for (id, v) in &known {
                    std::hint::black_box(nearest.nearest(v, Some(*id)));
                }
            }),
            oov_words: oov.len(),
        }
    }
}

pub struct ServingCell {
    cell: HotSwapCell,
}

#[derive(Debug, Clone, Copy)]
pub struct IndexProbe {
    pub tfidf_topk_us: f64,
    pub edit_nearest_us: f64,
    pub embedding_nearest_us: f64,
    pub oov_words: usize,
}

// ------------------------------------------------------------- kernels

/// Fastest of several batches, per call, scaled to `unit` per second
/// (1e6 = µs, 1e9 = ns). 0 when there is nothing to call.
fn best_per_call(calls_per_batch: usize, unit: f64, mut batch: impl FnMut()) -> f64 {
    if calls_per_batch == 0 {
        return 0.0;
    }
    batch();
    let mut best = f64::INFINITY;
    let started = Instant::now();
    let mut batches = 0;
    while batches < 5 || (started.elapsed().as_secs_f64() < 0.15 && batches < 10_000) {
        let t = Instant::now();
        batch();
        best = best.min(t.elapsed().as_secs_f64());
        batches += 1;
    }
    best / calls_per_batch as f64 * unit
}

/// The four kernels under Score, at the serving workloads' shapes,
/// timed in a loop outside any request.
#[derive(Debug, Clone, Copy)]
pub struct KernelTimes {
    pub gemm_nt_us: f64,
    pub lse_ns: f64,
    pub lstm_step_ns: f64,
    pub attention_ns: f64,
}

pub fn kernel_times(vocab: usize) -> KernelTimes {
    const CALLS: usize = 256;
    let mut rng = StdRng::seed_from_u64(16);
    let a = init::uniform(K, DIM, -1.0, 1.0, &mut rng);
    let b = init::uniform(vocab, DIM, -1.0, 1.0, &mut rng);
    let logits: Vec<f32> = (0..vocab).map(|i| (i as f32 * 0.1).sin() * 8.0).collect();
    let plan = Lstm::new(DIM, DIM, &mut rng).plan();
    let x = init::uniform_vector(DIM, -1.0, 1.0, &mut rng);
    let (h0, c0) = ncl_nn::lstm::zero_state(DIM);
    let memory: Vec<Vector> = (0..8)
        .map(|_| init::uniform_vector(DIM, -1.0, 1.0, &mut rng))
        .collect();
    let s = init::uniform_vector(DIM, -1.0, 1.0, &mut rng);
    KernelTimes {
        gemm_nt_us: best_per_call(CALLS, 1e6, || {
            for _ in 0..CALLS {
                std::hint::black_box(a.gemm_nt(std::hint::black_box(&b)));
            }
        }),
        lse_ns: best_per_call(CALLS, 1e9, || {
            for _ in 0..CALLS {
                std::hint::black_box(log_sum_exp_slice(std::hint::black_box(&logits)));
            }
        }),
        lstm_step_ns: best_per_call(CALLS, 1e9, || {
            for _ in 0..CALLS {
                std::hint::black_box(plan.step_infer(std::hint::black_box(&x), &h0, &c0));
            }
        }),
        attention_ns: best_per_call(CALLS, 1e9, || {
            for _ in 0..CALLS {
                std::hint::black_box(DotAttention.forward(std::hint::black_box(&memory), &s));
            }
        }),
    }
}
