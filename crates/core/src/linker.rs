//! Two-phase online concept linking (§5).
//!
//! Phase I retrieves `k` candidate concepts with a TF-IDF cosine keyword
//! matcher, after *query rewriting*: every out-of-vocabulary query word is
//! replaced by its semantically nearest in-vocabulary word (Eq. 13), with
//! an edit-distance fallback for words absent even from the embedding
//! vocabulary `Ω'` (the paper's "dm 1 with neuropaty" example). Phase II
//! re-ranks the candidates by `p(q|c; Θ)` computed by COM-AID, after
//! temporarily removing words shared between the query and the canonical
//! description, and returns the ranked list.
//!
//! The per-phase wall-clock breakdown — OR (out-of-vocabulary
//! replacement), CR (candidate retrieval), ED (encode-decode), RT
//! (ranking) — reproduces the cost model of Appendix B.1 / Figure 11.
//! One request runs on the calling thread: the paper spreads ED over ten
//! threads, but behind the frozen cache a request is too short for that
//! to pay (DESIGN.md "Removed paths"); concurrency across requests lives
//! in [`crate::serving::Frontend`]'s workers.
//!
//! This module holds the linker's construction and its entry points;
//! the request itself is one function, `serving::serve`, its
//! configuration and result types live in `serving::request`, and
//! rewriting's state lives in `serving::rewrite`.
//!
//! ## Serving robustness
//!
//! Because the linker is the online component (it sits in front of
//! hospital coders in the paper's DICE deployment), `link` is built to
//! *degrade rather than die*: every scoring job runs behind a panic
//! isolation boundary, optional per-call / per-phase deadline budgets
//! ([`LinkBudget`](crate::serving::LinkBudget)) cut the expensive
//! phases short, and whatever could not be neurally scored falls back
//! to its Phase-I TF-IDF ranking. The result is annotated with a
//! [`Degradation`](crate::serving::Degradation) marker so callers can
//! distinguish a full answer from a best-effort one. Budgets and fault
//! plans only decide *whether* a candidate is scored: every candidate
//! that is runs the same cached decode, so a budgeted answer's scores
//! are the unbudgeted answer's, bit for bit.

use crate::comaid::{ComAid, ConceptCache, OntologyIndex};
use crate::error::NclError;
use crate::faults::FaultPlan;
use crate::serving::ontology_text::{OntologyText, SharedWords};
use crate::serving::{
    self, validate_document, ComAidScore, DocumentResult, LinkResult, LinkTrace, LinkerConfig,
    PriorTable, ProposeConfig, Rewriter, ScoreStage, SpanProposal, MAX_QUERY_TOKENS,
};
use ncl_ontology::{ConceptId, Ontology};
use ncl_text::tfidf::{RetrievalStats, TfIdfIndex};
use ncl_text::tokenize;
use std::borrow::Cow;
use std::sync::Arc;

/// The online linker: borrows a trained model and its ontology.
///
/// Serving goes through [`crate::serving`]: [`Linker::link`] is one
/// call of `serving::serve` (`Rewrite → Retrieve → Score → Rank`), and
/// this struct holds the shared, immutable structures a request
/// borrows.
pub struct Linker<'a> {
    pub(crate) model: &'a ComAid,
    ontology: &'a Ontology,
    config: LinkerConfig,
    pub(crate) tfidf: TfIdfIndex,
    pub(crate) doc_map: Vec<ConceptId>,
    /// Query rewriting's indexes and outcome memo.
    pub(crate) rewriter: Rewriter,
    /// Optional log-prior table for MAP ranking (Eq. 11); `None` = the
    /// paper's default uniform prior (pure MLE, Eq. 12).
    prior: Option<PriorTable>,
    /// Optional deterministic fault schedule (tests and robustness
    /// benchmarks); `None` in production.
    pub(crate) faults: Option<Arc<FaultPlan>>,
    /// Frozen concept-encoding cache ([`ComAid::freeze_tiered`]), every
    /// ontology chapter of it frozen at construction. It serves by
    /// construction: [`Linker::with_cache`] checks once that it was
    /// frozen from this model's parameter generation over this linker's
    /// index, and the shared borrow of the model keeps it so. Behind an
    /// `Arc` so one frozen cache can be shared across linkers over the
    /// same generation and ontology
    /// ([`crate::feedback::ModelGeneration::linker`]).
    pub(crate) cache: Arc<ConceptCache>,
    /// Every concept's canonical-description words, interned — what
    /// shared-word removal consults per (query, candidate).
    pub(crate) shared_words: SharedWords,
}

/// The concept cache a linker configured with `config` serves from:
/// every chapter of `index` frozen at `model`'s parameter generation,
/// in the configured tier. Shared with the hot-swap cell so a published
/// generation's cache is the one `Linker::new` would build.
pub(crate) fn frozen_cache(
    model: &ComAid,
    index: &OntologyIndex,
    config: &LinkerConfig,
) -> Arc<ConceptCache> {
    Arc::new(model.freeze_tiered(index, config.cache_tier))
}

impl<'a> Linker<'a> {
    /// Builds a linker over `model` and `ontology`: reads the ontology's
    /// text once (`serving::ontology_text`) into the model's
    /// [`OntologyIndex`], the Phase-I TF-IDF index over the fine-grained
    /// concepts and the shared-word lists, and freezes the concept
    /// cache from the index, every chapter of it, so no request pays for
    /// a freeze; the index itself is not kept. It also builds the
    /// rewriting indexes (embedding nearest-neighbour, edit distance),
    /// so no request pays for those either.
    pub fn new(model: &'a ComAid, ontology: &'a Ontology, config: LinkerConfig) -> Self {
        Self::with_cache(model, ontology, config, |index| {
            frozen_cache(model, index, &config)
        })
    }

    /// [`Linker::new`] serving from the cache `cache_for` returns for
    /// the linker's index: a fresh one, or a generation's shared one
    /// ([`crate::feedback::ModelGeneration::linker`]).
    ///
    /// # Panics
    /// Panics if the cache cannot serve `model` over the linker's index
    /// ([`ConceptCache::serves`]): every request reads it unchecked.
    pub(crate) fn with_cache(
        model: &'a ComAid,
        ontology: &'a Ontology,
        config: LinkerConfig,
        cache_for: impl FnOnce(&OntologyIndex) -> Arc<ConceptCache>,
    ) -> Self {
        let mut text = OntologyText::read(ontology);
        let index = text.index(ontology, model.vocab(), model.config().beta);
        let (tfidf, doc_map) = text.phase_one(ontology);
        let cache = cache_for(&index);
        assert!(
            cache.serves(model, &index),
            "Linker: the concept cache was frozen from another model or ontology"
        );
        let rewriter = Rewriter::new(model, &tfidf);
        Self {
            model,
            ontology,
            config,
            tfidf,
            doc_map,
            rewriter,
            prior: None,
            faults: None,
            cache,
            shared_words: text.into_shared_words(),
        }
    }

    /// The frozen concept-encoding cache. Every linker has one, so this
    /// is always `Some`; the `Option` is the signature
    /// `benchmark/src/api.rs` compiles against, left for a benchmark PR
    /// to tighten.
    pub fn cache(&self) -> Option<&ConceptCache> {
        Some(&self.cache)
    }

    /// Attaches a deterministic [`FaultPlan`]; every fault site inside
    /// the linking pipeline will consult it. Used by the fault-injection
    /// suite and the robustness benchmark.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Installs a non-uniform concept prior `p(c; Θ)` for **MAP**
    /// ranking (Eq. 11: `p(c|q) ∝ p(q|c; Θ) p(c; Θ)`). §5 notes that
    /// when the prior is not uniform, "the prior could be considered as
    /// an input and the maximum a posteriori probability (MAP)
    /// estimation could be used in place of MLE." Priors are usually
    /// historical coding frequencies from the hospital database.
    ///
    /// Zero or negative probabilities are clamped to a tiny floor so a
    /// sparse frequency table never produces `-inf` scores; concepts
    /// absent from `priors` receive the floor prior.
    ///
    /// # Panics
    /// Panics if `priors` is empty.
    pub fn with_prior(mut self, priors: &[(ConceptId, f32)]) -> Self {
        self.prior = Some(PriorTable::new(priors));
        self
    }

    /// The log-prior of a concept under the installed prior (unlisted
    /// concepts receive the floor prior).
    pub(crate) fn concept_log_prior(&self, c: ConceptId) -> f32 {
        match &self.prior {
            None => 0.0,
            Some(table) => table.log_prior(c),
        }
    }

    /// The linker's configuration.
    pub fn config(&self) -> &LinkerConfig {
        &self.config
    }

    /// The ontology this linker serves.
    pub fn ontology(&self) -> &Ontology {
        self.ontology
    }

    /// Applies query rewriting to a token sequence.
    pub fn rewrite_query(&self, tokens: &[String]) -> Vec<String> {
        self.rewriter
            .rewrite(self, tokens, None, &mut LinkTrace::default())
            .into_owned()
    }

    /// Runs Phase I only: rewriting plus candidate retrieval. Used to
    /// measure the coverage metric of §6.2 and to restrict baselines
    /// (LR⁺ is evaluated on "the candidate concepts retrieved by NCL",
    /// §6.4). The rewritten query borrows the input when nothing
    /// changed (always, when rewriting is off).
    pub fn retrieve<'q>(&self, tokens: &'q [String]) -> (Cow<'q, [String]>, Vec<ConceptId>) {
        let (rewritten, candidates, _) = self.retrieve_with_stats(tokens);
        (rewritten, candidates)
    }

    /// [`Linker::retrieve`] plus the Phase-I work counters.
    fn retrieve_with_stats<'q>(
        &self,
        tokens: &'q [String],
    ) -> (Cow<'q, [String]>, Vec<ConceptId>, RetrievalStats) {
        let mut trace = LinkTrace::default();
        let rewritten = if self.config.rewrite {
            self.rewriter.rewrite(self, tokens, None, &mut trace)
        } else {
            Cow::Borrowed(tokens)
        };
        let mut stats = trace.retrieval;
        let candidates = self.top_k_concepts(&rewritten, &mut stats);
        (rewritten, candidates, stats)
    }

    /// Phase I's index step: the top-`k` TF-IDF concepts of an already
    /// rewritten `query`, in retrieval order, with the scan's work
    /// counters merged into `stats`.
    pub(crate) fn top_k_concepts(
        &self,
        query: &[String],
        stats: &mut RetrievalStats,
    ) -> Vec<ConceptId> {
        let (hits, index_stats) = self.tfidf.top_k_with_stats(query, self.config.k);
        stats.merge(&index_stats);
        hits.iter().map(|&(d, _)| self.doc_map[d]).collect()
    }

    /// Links a query (already tokenised/normalised) to the ontology.
    ///
    /// This call *degrades rather than fails*: deadline overruns and
    /// scoring-worker panics shrink the neurally-scored prefix of
    /// `ranked` (the unreached tail keeps its Phase-I TF-IDF order with
    /// `f32::NEG_INFINITY` scores) and are reported in
    /// [`LinkResult::degradation`]. Callers that prefer typed errors
    /// should use [`Linker::try_link`] and
    /// [`LinkResult::degradation_error`].
    pub fn link(&self, tokens: &[String]) -> LinkResult {
        self.link_with_scorer(tokens, &ComAidScore::new(self))
    }

    /// Links a query with a **custom Phase-II scorer** behind the same
    /// request function as [`Linker::link`]: rewriting, retrieval,
    /// budgets, fault isolation, the degradation ladder, and tracing
    /// all apply unchanged; only the candidate scoring differs. The
    /// `lr`/`doc2vec` baselines plug in this way (see
    /// `ncl_baselines::AnnotatorScore`).
    pub fn link_with_scorer(&self, tokens: &[String], scorer: &dyn ScoreStage) -> LinkResult {
        serving::serve(self, tokens, scorer, self.config.budget, Vec::new())
    }

    /// Links a batch of queries: each query served in order, on the
    /// calling thread. Results are positionally aligned with `queries`
    /// and bit-identical to looping [`Linker::link`] over the batch.
    pub fn link_batch(&self, queries: &[Vec<String>]) -> Vec<LinkResult> {
        let refs: Vec<&[String]> = queries.iter().map(|q| q.as_slice()).collect();
        serving::link_batch_within(self, &refs, self.config.budget, None)
    }

    /// Convenience: links a raw snippet.
    pub fn link_text(&self, text: &str) -> LinkResult {
        self.link(&tokenize(text))
    }

    /// Validating entry point: rejects queries that cannot meaningfully
    /// be linked (empty, whitespace-only, or longer than
    /// [`MAX_QUERY_TOKENS`]) with a typed
    /// [`NclError::InvalidQuery`] instead of returning an empty result.
    pub fn try_link(&self, tokens: &[String]) -> Result<LinkResult, NclError> {
        self.validate_query(tokens)?;
        Ok(self.link(tokens))
    }

    /// The shared validation of the `try_link*` entry points.
    pub(crate) fn validate_query(&self, tokens: &[String]) -> Result<(), NclError> {
        if tokens.iter().all(|t| t.trim().is_empty()) {
            return Err(NclError::InvalidQuery {
                reason: "query is empty after normalisation".into(),
            });
        }
        if tokens.len() > MAX_QUERY_TOKENS {
            return Err(NclError::InvalidQuery {
                reason: format!(
                    "query has {} tokens, over the limit of {MAX_QUERY_TOKENS}",
                    tokens.len(),
                ),
            });
        }
        Ok(())
    }

    /// Proposes candidate mention spans from a tokenised note without
    /// linking them — the document-level Propose stage alone (see
    /// `serving::propose`): dictionary/rewrite hit-runs, chunked
    /// greedily at [`MAX_SPAN`](crate::serving::MAX_SPAN) tokens, each
    /// carrying at least one direct dictionary hit.
    pub fn propose_spans(&self, tokens: &[String], config: &ProposeConfig) -> Vec<SpanProposal> {
        let mut trace = LinkTrace::default();
        serving::propose_spans(self, tokens, config, None, &mut trace)
    }

    /// Links a whole tokenised clinical note: proposes mention spans,
    /// serves every span as its own request in note order (with this
    /// linker's prior), and rolls
    /// the per-span answers up into a [`DocumentResult`].
    ///
    /// Like [`Linker::link`], this call *degrades rather than fails*:
    /// the configured total budget becomes a whole-note deadline that
    /// covers proposal and every span — spans served late in the note
    /// see less remaining budget and walk down the degradation ladder.
    /// An all-filler note yields an empty result, not an error.
    pub fn link_document(&self, tokens: &[String]) -> DocumentResult {
        serving::link_document(
            self,
            tokens,
            &ProposeConfig::default(),
            self.config.budget,
            Vec::new(),
        )
    }

    /// Validating twin of [`Linker::link_document`]: rejects notes
    /// that are empty after normalisation with
    /// [`NclError::InvalidQuery`]. Unlike [`Linker::try_link`], there
    /// is **no length cap** — notes are expected to be much longer
    /// than [`MAX_QUERY_TOKENS`] (each proposed span is clamped to a
    /// valid query length instead).
    pub fn try_link_document(&self, tokens: &[String]) -> Result<DocumentResult, NclError> {
        validate_document(tokens)?;
        Ok(self.link_document(tokens))
    }

    /// Builds the decode target for Phase II: the full query word ids plus
    /// a per-word counting mask. When `remove_shared` is on, words shared
    /// with the candidate's canonical description are masked out of the
    /// probability ("temporarily removed", §5 Phase II) while the decoded
    /// sequence itself stays intact so every step keeps its natural left
    /// context.
    #[cfg(test)]
    fn scoring_target(&self, concept: ConceptId, query: &[String]) -> (Vec<u32>, Vec<bool>) {
        let mut mask = vec![true; query.len()];
        if self.config.remove_shared {
            let words = self.shared_words.intern(query);
            self.shared_words.mask(concept, &words, &mut mask);
        }
        (self.model.encode_words(query), mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comaid::{ComAidConfig, TrainPair, Variant};
    use crate::serving::{
        Degradation, DegradeReason, LinkBudget, ScoreOutcome, ScoreRequest, StageKind,
    };
    use ncl_text::Vocab;
    use std::time::Duration;

    /// Builds a small trained world shared by the linker tests.
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
        for (id, c) in o.iter() {
            for t in tokenize(&c.canonical) {
                vocab.add(&t);
            }
            for alias in &c.aliases {
                for t in tokenize(alias) {
                    vocab.add(&t);
                }
            }
            let _ = id;
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
            // Self-supervision with the canonical description words keeps
            // exact matches strong.
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
            epochs: 25,
            lr: 0.3,
            lr_decay: 0.97,
            batch_size: 4,
            clip_norm: 5.0,
            seed: 5,
            train_threads: 1,
        };
        let mut model = ComAid::new(vocab, config, None);
        let index = OntologyIndex::build(&o, model.vocab(), 2);
        model.fit(&index, &pairs);
        (o, model)
    }

    #[test]
    fn links_alias_query_to_right_concept() {
        let (o, model) = trained_world();
        let linker = Linker::new(&model, &o, LinkerConfig::default());
        let res = linker.link_text("ckd stage 5");
        assert_eq!(res.top1(), o.by_code("N18.5"));
        assert!(!res.candidates.is_empty());
    }

    #[test]
    fn ranked_scores_are_descending_and_finite() {
        let (o, model) = trained_world();
        let linker = Linker::new(&model, &o, LinkerConfig::default());
        let res = linker.link_text("abdominal pain");
        for w in res.ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert!(res.ranked.iter().all(|(_, s)| s.is_finite()));
    }

    #[test]
    fn rewriting_fixes_typos() {
        let (o, model) = trained_world();
        let linker = Linker::new(&model, &o, LinkerConfig::default());
        // "abdomne" is a typo absent from Ω and Ω'.
        let rewritten = linker.rewrite_query(&tokenize("abdomne pain"));
        assert_eq!(rewritten[0], "abdomen");
        assert_eq!(rewritten[1], "pain");
    }

    #[test]
    fn rewrite_memo_serves_repeated_oov_tokens() {
        let (o, model) = trained_world();
        let linker = Linker::new(&model, &o, LinkerConfig::default());
        let q = tokenize("abdomne pain");
        let (r1, _, s1) = linker.retrieve_with_stats(&q);
        assert_eq!(s1.rewrite_cache_misses, 1);
        assert_eq!(s1.rewrite_cache_hits, 0);
        // Same query again: the OOV token is served from the memo.
        let (r2, _, s2) = linker.retrieve_with_stats(&q);
        assert_eq!(s2.rewrite_cache_misses, 0);
        assert_eq!(s2.rewrite_cache_hits, 1);
        assert_eq!(r1, r2);
        assert_eq!(r1[0], "abdomen");
    }

    #[test]
    fn unrewritten_queries_borrow_the_input() {
        let (o, model) = trained_world();
        // Rewriting disabled: always a borrow, even for OOV tokens.
        let off = Linker::new(
            &model,
            &o,
            LinkerConfig {
                rewrite: false,
                ..LinkerConfig::default()
            },
        );
        let q = tokenize("abdomne pain");
        let (rewritten, _) = off.retrieve(&q);
        assert!(matches!(rewritten, Cow::Borrowed(_)));
        // Rewriting enabled but every token in-vocabulary: still a borrow.
        let on = Linker::new(&model, &o, LinkerConfig::default());
        let q = tokenize("abdominal pain");
        let (rewritten, _) = on.retrieve(&q);
        assert!(matches!(rewritten, Cow::Borrowed(_)));
    }

    #[test]
    fn link_reports_retrieval_stats() {
        let (o, model) = trained_world();
        let linker = Linker::new(&model, &o, LinkerConfig::default());
        let res = linker.link_text("ckd stage 5");
        let s = res.retrieval;
        let rewritten = linker.rewrite_query(&tokenize("ckd stage 5"));
        assert_eq!(
            s.postings_scored,
            linker.tfidf.postings_examined(&rewritten)
        );
        assert!(s.postings_scored > 0);
        assert_eq!(s.postings_pruned, 0);
        assert!(s.docs_scored > 0);
    }

    #[test]
    fn batched_and_per_token_rewrites_agree() {
        let (o, trained) = trained_world();
        // "nephropathy" and "colic" are in Ω' but in no description or
        // alias, so not in Ω — in-Ω' OOV tokens that go through the
        // memo's read-through. A never-firing fault plan forces the
        // other linker down the memo-free path, which recomputes every
        // token.
        let mut vocab = trained.vocab().clone();
        for w in ["nephropathy", "colic"] {
            vocab.add(w);
        }
        let model = ComAid::new(vocab, *trained.config(), None);
        let cfg = LinkerConfig::default();
        let batched = Linker::new(&model, &o, cfg);
        let per_token = Linker::new(&model, &o, cfg).with_faults(Arc::new(FaultPlan::none()));
        let q = tokenize("nephropathy colic abdomne");
        assert!(!batched.tfidf.contains_term("nephropathy"));
        assert_eq!(batched.rewrite_query(&q), per_token.rewrite_query(&q));
    }

    #[test]
    fn rewriting_can_be_disabled() {
        let (o, model) = trained_world();
        let cfg = LinkerConfig {
            rewrite: false,
            ..LinkerConfig::default()
        };
        let linker = Linker::new(&model, &o, cfg);
        let res = linker.link_text("abdomne pain");
        assert_eq!(res.rewritten, tokenize("abdomne pain"));
    }

    #[test]
    fn no_candidates_for_gibberish() {
        let (o, model) = trained_world();
        let cfg = LinkerConfig {
            rewrite: false,
            ..LinkerConfig::default()
        };
        let linker = Linker::new(&model, &o, cfg);
        let res = linker.link_text("zzz qqq www");
        assert!(res.top1().is_none());
        assert!(res.ranked.is_empty());
    }

    #[test]
    fn k_limits_candidates() {
        let (o, model) = trained_world();
        let cfg = LinkerConfig {
            k: 2,
            ..LinkerConfig::default()
        };
        let linker = Linker::new(&model, &o, cfg);
        let res = linker.link_text("unspecified disease");
        assert!(res.candidates.len() <= 2);
    }

    #[test]
    fn timing_parts_are_recorded() {
        let (o, model) = trained_world();
        let linker = Linker::new(&model, &o, LinkerConfig::default());
        let res = linker.link_text("ckd stage 5");
        assert!(res.trace.total() >= res.trace.stage_wall(StageKind::Score));
        assert!(res.trace.total() > Duration::ZERO);
        // Exactly the four chain stages ran, in order.
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
    }

    #[test]
    fn deadline_path_serves_from_cache_with_identical_scores() {
        // A (generous) deadline adds a clock read between candidates
        // and nothing else: the same bits from the same cache.
        let (o, model) = trained_world();
        let plain = Linker::new(&model, &o, LinkerConfig::default());
        let timed = Linker::new(
            &model,
            &o,
            LinkerConfig {
                budget: LinkBudget::with_total(Duration::from_secs(3600)),
                ..LinkerConfig::default()
            },
        );
        let a = plain.link_text("ckd stage 5");
        let b = timed.link_text("ckd stage 5");
        assert_eq!(a.ranked_ids(), b.ranked_ids());
        for (&(_, sa), &(_, sb)) in a.ranked.iter().zip(&b.ranked) {
            assert_eq!(sa.to_bits(), sb.to_bits());
        }
        assert_eq!(b.degradation, Degradation::None);
    }

    #[test]
    fn only_fine_grained_concepts_are_returned() {
        let (o, model) = trained_world();
        let linker = Linker::new(&model, &o, LinkerConfig::default());
        let res = linker.link_text("chronic kidney disease");
        for (c, _) in &res.ranked {
            assert!(
                o.is_fine_grained(*c),
                "non-leaf {:?} returned",
                o.concept(*c).code
            );
        }
    }

    #[test]
    fn map_prior_can_flip_near_ties() {
        // R10.0 "acute abdomen" and R10.9 "unspecified abdominal pain"
        // are close for the ambiguous query "abdominal pain"; a prior
        // overwhelmingly favouring one sibling must put it first
        // (Eq. 11), while the uniform-prior MLE ranking is unchanged by
        // construction.
        let (o, model) = trained_world();
        let r100 = o.by_code("R10.0").unwrap();
        let r109 = o.by_code("R10.9").unwrap();
        let q = tokenize("abdominal pain");

        let plain = Linker::new(&model, &o, LinkerConfig::default());
        let base = plain.link(&q);
        assert!(base.ranked.len() >= 2);

        // Prior that gives essentially all mass to R10.0.
        let favour_r100 = Linker::new(&model, &o, LinkerConfig::default())
            .with_prior(&[(r100, 0.999_999), (r109, 1e-6)]);
        let res = favour_r100.link(&q);
        assert_eq!(res.top1(), Some(r100));

        // And the opposite prior flips it.
        let favour_r109 = Linker::new(&model, &o, LinkerConfig::default())
            .with_prior(&[(r109, 0.999_999), (r100, 1e-6)]);
        let res = favour_r109.link(&q);
        assert_eq!(res.top1(), Some(r109));
    }

    #[test]
    fn uniform_prior_matches_no_prior() {
        let (o, model) = trained_world();
        let fine = o.fine_grained();
        let uniform: Vec<(ncl_ontology::ConceptId, f32)> = fine.iter().map(|&c| (c, 1.0)).collect();
        let plain = Linker::new(&model, &o, LinkerConfig::default());
        let with_uniform = Linker::new(&model, &o, LinkerConfig::default()).with_prior(&uniform);
        let q = tokenize("ckd stage 5");
        assert_eq!(
            plain.link(&q).ranked_ids(),
            with_uniform.link(&q).ranked_ids()
        );
    }

    #[test]
    #[should_panic(expected = "empty prior")]
    fn empty_prior_panics() {
        let (o, model) = trained_world();
        let _ = Linker::new(&model, &o, LinkerConfig::default()).with_prior(&[]);
    }

    #[test]
    fn shared_word_removal_toggle_changes_targets() {
        let (o, model) = trained_world();
        let with = Linker::new(&model, &o, LinkerConfig::default());
        let without = Linker::new(
            &model,
            &o,
            LinkerConfig {
                remove_shared: false,
                ..LinkerConfig::default()
            },
        );
        let c = o.by_code("R10.9").unwrap();
        let q = tokenize("unspecified abdominal pain today");
        let (ids_a, mask_a) = with.scoring_target(c, &q);
        let (ids_b, mask_b) = without.scoring_target(c, &q);
        // The decoded sequence is the full query either way…
        assert_eq!(ids_a, ids_b);
        assert_eq!(ids_a.len(), 4);
        // …but with removal only "today" is counted.
        assert_eq!(mask_a, vec![false, false, false, true]);
        assert_eq!(mask_b, vec![true; 4]);
    }

    #[test]
    fn alias_only_words_are_phase_one_terms_but_never_shared_words() {
        let (o, model) = trained_world();
        let n185 = o.by_code("N18.5").unwrap();
        // "ckd" and "renal" occur in N18.5's aliases and in no
        // description.
        let q = tokenize("ckd renal stage");
        let linker = Linker::new(
            &model,
            &o,
            LinkerConfig {
                rewrite: false,
                ..LinkerConfig::default()
            },
        );
        // Phase I indexes them …
        assert!(linker.tfidf.contains_term("ckd"));
        assert!(linker.tfidf.contains_term("renal"));
        assert!(linker.tfidf.contains_term("stage"));
        let (_, candidates) = linker.retrieve(&tokenize("ckd"));
        assert!(candidates.contains(&n185));
        // … and shared-word removal never sees them: against the
        // concept whose alias they come from, both stay counted and
        // only the description word "stage" is removed.
        let (_, mask) = linker.scoring_target(n185, &q);
        assert_eq!(mask, vec![true, true, false]);
    }

    /// A hand-built request may name a concept Phase I never returns.
    /// An internal concept holds no frozen head, so scoring it panics
    /// inside its candidate's isolation boundary: one lost job, a
    /// `PartialEd` answer for `WorkerPanic`, and every other candidate
    /// keeps the bits of the plain answer.
    #[test]
    fn an_internal_candidate_is_a_lost_job_and_the_rest_keep_their_bits() {
        /// COM-AID with the first retrieved candidate replaced.
        struct FirstReplaced<'s, 'a>(ComAidScore<'s, 'a>, ConceptId);
        impl ScoreStage for FirstReplaced<'_, '_> {
            fn name(&self) -> &str {
                "first-replaced"
            }
            fn score(&self, req: ScoreRequest<'_>) -> ScoreOutcome {
                let mut candidates = req.candidates.to_vec();
                candidates[0] = self.1;
                self.0.score(ScoreRequest {
                    candidates: &candidates,
                    ..req
                })
            }
        }
        let (o, model) = trained_world();
        let linker = Linker::new(&model, &o, LinkerConfig::default());
        let n18 = o.by_code("N18").unwrap();
        assert!(!o.is_fine_grained(n18));
        let q = tokenize("chronic kidney disease stage 5");
        let plain = linker.link(&q);
        let total = plain.candidates.len();
        assert!(total >= 2, "{:?}", plain.candidates);
        let replaced = plain.candidates[0];

        let res = linker.link_with_scorer(&q, &FirstReplaced(ComAidScore::new(&linker), n18));
        assert_eq!(
            res.degradation,
            Degradation::PartialEd {
                scored: total - 1,
                total,
                reason: DegradeReason::WorkerPanic { lost_jobs: 1 },
            }
        );
        let bits = |ranked: &[(ConceptId, f32)]| -> Vec<(ConceptId, u32)> {
            ranked.iter().map(|&(c, s)| (c, s.to_bits())).collect()
        };
        let mut want = bits(&plain.ranked);
        want.retain(|&(c, _)| c != replaced);
        want.push((replaced, f32::NEG_INFINITY.to_bits()));
        assert_eq!(bits(&res.ranked), want);
    }
}
