//! The feedback controller (Appendix A).
//!
//! After Phase II re-ranking, NCL assesses its own uncertainty from the
//! candidate losses `Loss = −log p(q|c; Θ)`:
//!
//! * a **high top loss** means even the best candidate decodes the query
//!   poorly;
//! * a **low standard deviation** across the re-ranked list means the
//!   candidates "own similar losses" and NCL cannot separate them.
//!
//! Either signal pools the query (with its candidates) for expert review
//! — the paper's Timon front-end displays a pooled batch once it reaches
//! a set size (e.g. 100). Collected expert labels become new labeled
//! snippets; once enough accumulate, COM-AID is retrained and "the
//! concept linking capability of NCL is incrementally improved."
//!
//! ## Serving the improvement without stopping the service
//!
//! Retraining bumps the model's version, which silently invalidates
//! every frozen [`ConceptCache`] — a linker serving across a retrain
//! would fall off the cached fast path (correct, but slow). The
//! **hot-swap cell** ([`HotSwapCell`]) closes the loop at volume:
//! serving reads an immutable [`ModelGeneration`] snapshot (a model
//! clone plus the cache frozen from it — a clone keeps its source's
//! version, so the pair stays valid), and
//! [`HotSwapCell::publish`] installs the retrained generation behind
//! an atomic generation bump. In-flight requests finish on the
//! snapshot they hold; requests taken after the swap see the new
//! generation; nothing is dropped and no request ever observes a
//! half-swapped (torn) model/cache pair.

use crate::comaid::{ComAid, ConceptCache, OntologyIndex};
use crate::linker::{frozen_cache, Linker};
use crate::serving::DocumentResult;
use crate::serving::LinkerConfig;
use ncl_ontology::{ConceptId, Ontology};
use ncl_tensor::stats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Uncertainty thresholds and pooling capacities.
#[derive(Debug, Clone, Copy)]
pub struct FeedbackConfig {
    /// Pool when the best candidate's loss exceeds this.
    pub loss_threshold: f32,
    /// Pool when the loss standard deviation falls below this.
    pub std_threshold: f32,
    /// Number of pooled queries that triggers an expert-review batch
    /// (Timon's display threshold).
    pub review_batch: usize,
    /// Number of collected expert labels that triggers retraining.
    pub retrain_after: usize,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        Self {
            loss_threshold: 12.0,
            std_threshold: 0.5,
            review_batch: 100,
            retrain_after: 20,
        }
    }
}

/// The uncertainty verdict for one re-ranked list.
#[derive(Debug, Clone, Copy)]
pub struct Uncertainty {
    /// `−log p(q|c*)` of the top candidate.
    pub top_loss: f32,
    /// Standard deviation of the candidate losses.
    pub std_dev: f32,
    /// Whether either gate fired.
    pub uncertain: bool,
}

/// A query waiting for expert review.
#[derive(Debug, Clone)]
pub struct PooledQuery {
    /// The query tokens as linked.
    pub query: Vec<String>,
    /// The re-ranked candidates with their losses (the Timon table).
    pub candidates: Vec<(ConceptId, f32)>,
}

/// An expert-provided label: this query refers to that concept.
#[derive(Debug, Clone)]
pub struct ExpertLabel {
    /// The concept chosen (or typed) by the expert.
    pub concept: ConceptId,
    /// The query text, which becomes a new alias / training snippet.
    pub query: Vec<String>,
}

/// The stateful controller.
#[derive(Debug, Clone, Default)]
pub struct FeedbackController {
    config: FeedbackConfig,
    pool: Vec<PooledQuery>,
    labels: Vec<ExpertLabel>,
}

impl FeedbackController {
    /// Creates a controller.
    pub fn new(config: FeedbackConfig) -> Self {
        Self {
            config,
            pool: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FeedbackConfig {
        &self.config
    }

    /// Assesses a re-ranked candidate list (`(concept, log p)` pairs,
    /// best first). An empty list is maximally uncertain.
    pub fn assess(&self, ranked: &[(ConceptId, f32)]) -> Uncertainty {
        if ranked.is_empty() {
            return Uncertainty {
                top_loss: f32::INFINITY,
                std_dev: 0.0,
                uncertain: true,
            };
        }
        let losses: Vec<f32> = ranked.iter().map(|&(_, lp)| -lp).collect();
        let top_loss = losses[0];
        let std_dev = stats::std_dev(&losses);
        let uncertain = top_loss > self.config.loss_threshold
            || (losses.len() > 1 && std_dev < self.config.std_threshold);
        Uncertainty {
            top_loss,
            std_dev,
            uncertain,
        }
    }

    /// Observes one linking outcome; pools it when uncertain. Returns the
    /// verdict.
    pub fn observe(&mut self, query: &[String], ranked: &[(ConceptId, f32)]) -> Uncertainty {
        let verdict = self.assess(ranked);
        if verdict.uncertain {
            self.pool.push(PooledQuery {
                query: query.to_vec(),
                candidates: ranked.to_vec(),
            });
        }
        verdict
    }

    /// The queries currently awaiting review.
    pub fn pool(&self) -> &[PooledQuery] {
        &self.pool
    }

    /// Whether a review batch is ready to show to experts.
    pub fn review_ready(&self) -> bool {
        self.pool.len() >= self.config.review_batch
    }

    /// Drains up to one review batch for display (the Timon page).
    pub fn take_review_batch(&mut self) -> Vec<PooledQuery> {
        let n = self.pool.len().min(self.config.review_batch);
        self.pool.drain(..n).collect()
    }

    /// Records an expert's label for a reviewed query.
    pub fn record_label(&mut self, label: ExpertLabel) {
        self.labels.push(label);
    }

    /// Whether enough labels accumulated to retrain COM-AID.
    pub fn retrain_ready(&self) -> bool {
        self.labels.len() >= self.config.retrain_after
    }

    /// Number of labels collected so far.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Drains the collected labels for retraining (they become new
    /// ⟨concept, snippet⟩ training pairs / aliases).
    pub fn take_labels(&mut self) -> Vec<ExpertLabel> {
        std::mem::take(&mut self.labels)
    }

    /// Observes every span of a document-level answer
    /// ([`crate::linker::Linker::link_document`]), pooling the
    /// uncertain ones — the volume path: one note contributes several
    /// mention queries to the shared pool in span order. Returns the
    /// indices into `doc.spans` that were pooled, so a caller
    /// collecting (or simulating) expert labels can map pooled queries
    /// back to their note positions.
    pub fn observe_document(&mut self, note_tokens: &[String], doc: &DocumentResult) -> Vec<usize> {
        let mut pooled = Vec::new();
        for (i, s) in doc.spans.iter().enumerate() {
            let q = &note_tokens[s.proposal.start..s.proposal.end()];
            if self.observe(q, &s.result.ranked).uncertain {
                pooled.push(i);
            }
        }
        pooled
    }
}

/// One immutable serving generation: a clone of the model at some
/// training state plus the [`ConceptCache`] frozen from it.
///
/// The pair is **valid together forever**: a [`ComAid`] clone keeps
/// its source's version, the cache records the version it was frozen
/// at, and neither mutates after construction — so a linker built over
/// a generation ([`ModelGeneration::linker`]) serves from the cached
/// fast path no matter what happens to the pipeline's live model in
/// the meantime.
#[derive(Debug)]
pub struct ModelGeneration {
    model: ComAid,
    cache: Arc<ConceptCache>,
    config: LinkerConfig,
    generation: u64,
}

impl ModelGeneration {
    /// Clones `model` and freezes the concept cache [`Linker::new`]
    /// would build over the clone — every chapter of it, so no serving
    /// thread pays a first-touch freeze on a generation it was handed.
    fn freeze_from(
        model: &ComAid,
        ontology: &Ontology,
        config: LinkerConfig,
        generation: u64,
    ) -> Self {
        let model = model.clone();
        let index = OntologyIndex::build(ontology, model.vocab(), model.config().beta);
        let cache = frozen_cache(&model, &index, &config);
        cache.warm(&model, &index);
        Self {
            model,
            cache,
            config,
            generation,
        }
    }

    /// The generation's model clone.
    pub fn model(&self) -> &ComAid {
        &self.model
    }

    /// The generation number ([`HotSwapCell::generation`] at the time
    /// this snapshot was current).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Builds a linker over this generation **without re-freezing**:
    /// it is constructed around the generation's shared cache (no
    /// skeleton or serve plan of its own is built and dropped), so
    /// every linker built from the same snapshot serves identical bits
    /// from one frozen cache.
    pub fn linker<'g>(&'g self, ontology: &'g Ontology) -> Linker<'g> {
        Linker::with_cache(&self.model, ontology, self.config, |_| {
            Arc::clone(&self.cache)
        })
    }
}

/// The hot-swap point between the feedback loop's retraining side and
/// the serving side (see the module docs).
///
/// * Serving threads call [`HotSwapCell::snapshot`] and build (or
///   reuse) a linker over the returned [`ModelGeneration`]; the `Arc`
///   keeps the generation alive for as long as any request still uses
///   it.
/// * The retraining side calls [`HotSwapCell::publish`] with the
///   retrained model: the new generation is frozen — every chapter,
///   [`ConceptCache::warm`] — *outside* the swap lock, installed with
///   one pointer swap, and announced by a single
///   atomic bump of the generation counter — readers never observe a
///   torn model/cache pair, and [`HotSwapCell::generation`] is safe to
///   poll concurrently from any thread (lock-free).
pub struct HotSwapCell {
    current: RwLock<Arc<ModelGeneration>>,
    generation: AtomicU64,
    config: LinkerConfig,
}

impl HotSwapCell {
    /// Freezes generation 0 from `model` and installs it.
    pub fn new(model: &ComAid, ontology: &Ontology, config: LinkerConfig) -> Self {
        let gen0 = ModelGeneration::freeze_from(model, ontology, config, 0);
        Self {
            current: RwLock::new(Arc::new(gen0)),
            generation: AtomicU64::new(0),
            config,
        }
    }

    /// The current generation number. Lock-free: safe to read
    /// concurrently with an in-progress [`HotSwapCell::publish`] (the
    /// counter bumps only after the new generation is installed).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The current generation snapshot. Requests that hold the
    /// returned `Arc` across a publish finish on their snapshot,
    /// bit-identical to pre-swap serving.
    pub fn snapshot(&self) -> Arc<ModelGeneration> {
        Arc::clone(&self.current.read().expect("hot-swap cell poisoned"))
    }

    /// Installs a new generation frozen from `model` (typically the
    /// pipeline's model after
    /// [`crate::pipeline::NclPipeline::retrain_with_feedback`]) and
    /// returns its generation number.
    ///
    /// The expensive freeze happens before the write lock is taken;
    /// the swap itself is one pointer store, so readers are never
    /// blocked behind a freeze.
    pub fn publish(&self, model: &ComAid, ontology: &Ontology) -> u64 {
        let next = self.generation.load(Ordering::Acquire) + 1;
        let generation = ModelGeneration::freeze_from(model, ontology, self.config, next);
        let mut guard = self.current.write().expect("hot-swap cell poisoned");
        *guard = Arc::new(generation);
        self.generation.store(next, Ordering::Release);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(i: u32) -> ConceptId {
        ConceptId(i)
    }

    fn controller() -> FeedbackController {
        FeedbackController::new(FeedbackConfig {
            loss_threshold: 5.0,
            std_threshold: 0.5,
            review_batch: 3,
            retrain_after: 2,
        })
    }

    #[test]
    fn confident_result_not_pooled() {
        let mut fc = controller();
        // Top loss 1.0, losses well spread.
        let ranked = vec![(cid(1), -1.0), (cid(2), -4.0), (cid(3), -9.0)];
        let v = fc.observe(&["q".into()], &ranked);
        assert!(!v.uncertain);
        assert!(fc.pool().is_empty());
    }

    #[test]
    fn high_loss_triggers_pooling() {
        let mut fc = controller();
        let ranked = vec![(cid(1), -8.0), (cid(2), -12.0)];
        let v = fc.observe(&["q".into()], &ranked);
        assert!(v.uncertain);
        assert!(v.top_loss > 5.0);
        assert_eq!(fc.pool().len(), 1);
    }

    #[test]
    fn similar_losses_trigger_pooling() {
        // The paper's "breast for investigation" case: close losses mean
        // NCL cannot separate the candidates.
        let mut fc = controller();
        let ranked = vec![(cid(1), -2.0), (cid(2), -2.1), (cid(3), -2.2)];
        let v = fc.observe(&["q".into()], &ranked);
        assert!(v.uncertain);
        assert!(v.std_dev < 0.5);
    }

    #[test]
    fn empty_ranking_is_uncertain() {
        let fc = controller();
        assert!(fc.assess(&[]).uncertain);
    }

    #[test]
    fn single_confident_candidate_not_pooled() {
        let fc = controller();
        // One candidate: std-dev gate must not fire on its own.
        let v = fc.assess(&[(cid(1), -1.0)]);
        assert!(!v.uncertain);
    }

    #[test]
    fn review_batch_lifecycle() {
        let mut fc = controller();
        let uncertain = vec![(cid(1), -10.0)];
        for i in 0..4 {
            fc.observe(&[format!("q{i}")], &uncertain);
        }
        assert!(fc.review_ready());
        let batch = fc.take_review_batch();
        assert_eq!(batch.len(), 3);
        assert_eq!(fc.pool().len(), 1);
        assert!(!fc.review_ready());
    }

    #[test]
    fn retrain_trigger_and_drain() {
        let mut fc = controller();
        assert!(!fc.retrain_ready());
        fc.record_label(ExpertLabel {
            concept: cid(7),
            query: vec!["breast".into(), "lump".into()],
        });
        fc.record_label(ExpertLabel {
            concept: cid(8),
            query: vec!["scurvy".into()],
        });
        assert!(fc.retrain_ready());
        assert_eq!(fc.label_count(), 2);
        let labels = fc.take_labels();
        assert_eq!(labels.len(), 2);
        assert!(!fc.retrain_ready());
        assert_eq!(labels[0].concept, cid(7));
    }

    // ---- volume path: pooling at document scale -------------------

    #[test]
    fn pool_order_is_fifo_and_deterministic() {
        // Two controllers fed the same stream must end with identical
        // pools, and the review batch drains strictly from the front.
        let uncertain = vec![(cid(1), -10.0)];
        let run = || {
            let mut fc = controller();
            for i in 0..5 {
                fc.observe(&[format!("q{i}")], &uncertain);
            }
            fc
        };
        let mut a = run();
        let b = run();
        let order: Vec<_> = a.pool().iter().map(|p| p.query.clone()).collect();
        assert_eq!(
            order,
            (0..5).map(|i| vec![format!("q{i}")]).collect::<Vec<_>>()
        );
        assert_eq!(
            b.pool().iter().map(|p| &p.query).collect::<Vec<_>>(),
            order.iter().collect::<Vec<_>>()
        );
        let batch = a.take_review_batch();
        assert_eq!(
            batch.iter().map(|p| &p.query).collect::<Vec<_>>(),
            order[..3].iter().collect::<Vec<_>>()
        );
        assert_eq!(
            a.pool().iter().map(|p| &p.query).collect::<Vec<_>>(),
            order[3..].iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn draining_invariants_under_repeated_takes() {
        let mut fc = controller();
        let uncertain = vec![(cid(1), -10.0)];
        for i in 0..4 {
            fc.observe(&[format!("q{i}")], &uncertain);
        }
        // First take drains a full batch, second the remainder, third
        // nothing — no query is ever returned twice or lost.
        let first = fc.take_review_batch();
        let second = fc.take_review_batch();
        let third = fc.take_review_batch();
        assert_eq!((first.len(), second.len(), third.len()), (3, 1, 0));
        assert!(fc.pool().is_empty());
        // Labels: take_labels empties and disarms the retrain trigger.
        fc.record_label(ExpertLabel {
            concept: cid(1),
            query: vec!["a".into()],
        });
        fc.record_label(ExpertLabel {
            concept: cid(2),
            query: vec!["b".into()],
        });
        assert!(fc.retrain_ready());
        assert_eq!(fc.take_labels().len(), 2);
        assert_eq!(fc.label_count(), 0);
        assert!(fc.take_labels().is_empty());
        assert!(!fc.retrain_ready());
    }

    // ---- document-level observation and hot swapping --------------

    use crate::comaid::{ComAid, ComAidConfig, OntologyIndex, TrainPair};
    use crate::linker::Linker;
    use crate::serving::CacheUse;
    use crate::serving::LinkerConfig;
    use ncl_ontology::OntologyBuilder;
    use ncl_text::{tokenize, Vocab};

    /// Untrained world: enough for span proposal, serving mechanics,
    /// and cache identity checks (trained behaviour is covered by the
    /// fig20 bench and the pipeline tests).
    fn world() -> (Ontology, ComAid) {
        let mut b = OntologyBuilder::new();
        let n18 = b.add_root_concept("N18", "chronic kidney disease");
        b.add_child(n18, "N18.5", "chronic kidney disease stage 5");
        let r10 = b.add_root_concept("R10", "abdominal pain");
        b.add_child(r10, "R10.9", "unspecified abdominal pain");
        let o = b.build().unwrap();
        let mut v = Vocab::new();
        for (_, c) in o.iter() {
            for t in tokenize(&c.canonical) {
                v.add(&t);
            }
        }
        let model = ComAid::new(v, ComAidConfig::tiny(), None);
        (o, model)
    }

    #[test]
    fn observe_document_pools_spans_in_note_order() {
        let (o, model) = world();
        let linker = Linker::new(
            &model,
            &o,
            LinkerConfig {
                rewrite: false,
                ..LinkerConfig::default()
            },
        );
        let tokens =
            tokenize("patient comfortable abdominal pain overnight chronic kidney disease noted");
        let doc = linker.link_document(&tokens);
        assert_eq!(doc.len(), 2);
        // loss_threshold 0 makes every span with candidates uncertain
        // (log-likelihood losses are positive), and empty rankings are
        // maximally uncertain — so the whole document pools.
        let mut fc = FeedbackController::new(FeedbackConfig {
            loss_threshold: 0.0,
            std_threshold: 0.0,
            review_batch: 10,
            retrain_after: 2,
        });
        let pooled = fc.observe_document(&tokens, &doc);
        assert_eq!(pooled, vec![0, 1]);
        for (slot, &i) in pooled.iter().enumerate() {
            let s = &doc.spans[i];
            assert_eq!(
                fc.pool()[slot].query,
                tokens[s.proposal.start..s.proposal.end()]
            );
            assert_eq!(fc.pool()[slot].candidates, s.result.ranked);
        }
    }

    #[test]
    fn a_generations_linker_is_built_around_the_generations_cache() {
        let (o, model) = world();
        let cell = HotSwapCell::new(&model, &o, LinkerConfig::default());
        let snap = cell.snapshot();
        // The very `Arc` the generation froze — not a skeleton of the
        // linker's own that a builder call then replaced.
        assert!(Arc::ptr_eq(&snap.linker(&o).cache, &snap.cache));
    }

    #[test]
    fn snapshot_serves_bit_identically_across_publish() {
        let (o, model) = world();
        let config = LinkerConfig {
            rewrite: false,
            ..LinkerConfig::default()
        };
        let cell = HotSwapCell::new(&model, &o, config);
        assert_eq!(cell.generation(), 0);
        let q = tokenize("abdominal pain");
        let snap0 = cell.snapshot();
        assert_eq!(snap0.generation(), 0);
        assert_fully_frozen(&snap0, &o);
        let before = snap0.linker(&o).link(&q);
        assert_eq!(before.trace.cache, CacheUse::Served);

        // Retrain a copy (version bump) and publish it.
        let mut retrained = model.clone();
        let index = OntologyIndex::build(&o, retrained.vocab(), retrained.config().beta);
        let target: Vec<_> = ["abdominal", "pain"]
            .iter()
            .map(|t| retrained.vocab().get_or_unk(t))
            .collect();
        let pair = TrainPair {
            concept: o.iter().next().unwrap().0,
            target,
        };
        retrained.fit_epochs(
            &index,
            &[pair],
            2,
            ncl_nn::optimizer::LrSchedule::constant(0.1),
        );
        assert_eq!(cell.publish(&retrained, &o), 1);
        assert_eq!(cell.generation(), 1);

        // The old snapshot keeps serving from its own frozen cache,
        // bit-identical to pre-swap answers.
        let after = snap0.linker(&o).link(&q);
        assert_eq!(after.trace.cache, CacheUse::Served);
        assert_eq!(after.ranked, before.ranked);
        assert_eq!(after.candidates, before.candidates);

        // The new generation serves from its own fresh (valid) cache,
        // which `publish` warmed before the swap: no request on it pays
        // a freeze.
        let snap1 = cell.snapshot();
        assert_eq!(snap1.generation(), 1);
        assert_fully_frozen(&snap1, &o);
        let linker = snap1.linker(&o);
        let steps = |l: &Linker<'_>| l.cache().unwrap().memory_report().encoder_steps_run;
        let frozen = steps(&linker);
        assert_eq!(linker.link(&q).trace.cache, CacheUse::Served);
        assert_eq!(steps(&linker), frozen);
    }

    /// Every shard of the generation's shared cache is frozen.
    fn assert_fully_frozen(snap: &ModelGeneration, o: &Ontology) {
        let linker = snap.linker(o);
        let report = linker.cache().unwrap().memory_report();
        assert_eq!(report.frozen_shards, report.shards);
        assert_eq!(report.frozen_concepts, report.concepts);
    }

    #[test]
    fn cache_frozen_over_another_ontology_serves_uncached() {
        // One generation, two ontologies of different size: the shared
        // cache's shard map does not cover the larger one, so its linker
        // must score through the uncached path, not index past the map.
        let (o, model) = world();
        let larger = {
            let mut b = OntologyBuilder::new();
            let n18 = b.add_root_concept("N18", "chronic kidney disease");
            b.add_child(n18, "N18.5", "chronic kidney disease stage 5");
            b.add_child(n18, "N18.9", "chronic kidney disease unspecified");
            let r10 = b.add_root_concept("R10", "abdominal pain");
            b.add_child(r10, "R10.0", "acute abdomen pain");
            b.add_child(r10, "R10.9", "unspecified abdominal pain");
            b.build().unwrap()
        };
        assert!(larger.len() > o.len());
        let cell = HotSwapCell::new(&model, &o, LinkerConfig::default());
        let snap = cell.snapshot();
        let linker = snap.linker(&larger);
        let q = tokenize("abdominal pain");
        let res = linker.link(&q);
        assert_eq!(res.trace.cache, CacheUse::Stale);
        assert_eq!(res.degradation, crate::serving::Degradation::None);
        assert!(!res.ranked.is_empty());

        let index = OntologyIndex::build(&larger, model.vocab(), model.config().beta);
        let (rewritten, candidates) = linker.retrieve(&q);
        assert_eq!(candidates, res.candidates);
        let ids = model.encode_words(&rewritten);
        for &(c, score) in &res.ranked {
            let canonical = tokenize(&larger.concept(c).canonical);
            let mask: Vec<bool> = rewritten.iter().map(|w| !canonical.contains(w)).collect();
            let want = model.log_prob_ids_masked(&index, c, &ids, &mask);
            assert!(score.is_finite());
            assert_eq!(
                score.to_bits(),
                want.to_bits(),
                "{:?}",
                larger.concept(c).code
            );
        }
        // Nothing to warm on a cache that cannot serve, and no panic.
        linker.warm();
    }

    #[test]
    fn generation_counter_reads_are_safe_during_publish() {
        // Satellite invariant: the version counter can be polled
        // lock-free from other threads mid-swap — it never runs
        // backwards, and a snapshot is never older than the counter
        // value read before taking it.
        let (o, model) = world();
        let cell = HotSwapCell::new(
            &model,
            &o,
            LinkerConfig {
                rewrite: false,
                ..LinkerConfig::default()
            },
        );
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut last = 0u64;
                loop {
                    let g = cell.generation();
                    assert!(g >= last, "generation counter ran backwards");
                    last = g;
                    let snap = cell.snapshot();
                    assert!(
                        snap.generation() >= g,
                        "snapshot older than the announced generation"
                    );
                    if g >= 4 {
                        break;
                    }
                    std::hint::spin_loop();
                }
            });
            for _ in 0..4 {
                cell.publish(&model, &o);
            }
            reader.join().unwrap();
        });
        assert_eq!(cell.generation(), 4);
        assert_eq!(cell.snapshot().generation(), 4);
    }
}
