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
//! ## Serving robustness
//!
//! Because the linker is the online component (it sits in front of
//! hospital coders in the paper's DICE deployment), `link` is built to
//! *degrade rather than die*: every scoring job runs behind a panic
//! isolation boundary, optional per-call / per-phase deadline budgets
//! ([`LinkBudget`]) cut the expensive phases short, and whatever could
//! not be neurally scored falls back to its Phase-I TF-IDF ranking. The
//! result is annotated with a [`Degradation`] marker so callers can
//! distinguish a full answer from a best-effort one. Budgets and fault
//! plans only decide *whether* a candidate is scored: every candidate
//! that is runs the same cached decode, so a budgeted answer's scores
//! are the unbudgeted answer's, bit for bit.

use crate::comaid::{CacheTier, ComAid, ConceptCache, OntologyIndex};
use crate::error::NclError;
use crate::faults::FaultPlan;
use crate::serving::ontology_text::{OntologyText, SharedWords};
use crate::serving::{
    self, ComAidScore, DocumentResult, LinkTrace, ProposeConfig, RewriteDecision, ScoreStage,
    SpanProposal, StageKind, StageTiming, TraceEvent,
};
use ncl_embedding::NearestWords;
use ncl_ontology::{ConceptId, Ontology};
use ncl_tensor::Vector;
use ncl_text::edit_index::EditIndex;
use ncl_text::tfidf::{RetrievalStats, TfIdfIndex};
use ncl_text::tokenize;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Online-linking knobs (defaults follow Table 1 and §5).
#[derive(Debug, Clone, Copy)]
pub struct LinkerConfig {
    /// Number of Phase-I candidates `k` (Table 1 default 20).
    pub k: usize,
    /// Enable query rewriting (Eq. 13). Ablation switch; the paper always
    /// rewrites.
    pub rewrite: bool,
    /// Enable Phase II shared-word removal ("the words appearing in both
    /// the canonical description and the query are temporarily removed").
    pub remove_shared: bool,
    /// Maximum edit distance for the textual fallback of rewriting.
    pub edit_max_dist: usize,
    /// Minimum embedding cosine for accepting a rewrite target. Below
    /// this the word is kept as-is: replacing a merely-unmatched word
    /// (e.g. "of", "symptomatic") with its *weakly* nearest description
    /// word would inject misleading content words into the query.
    pub rewrite_min_cosine: f32,
    /// Index concept aliases alongside canonical descriptions in the
    /// Phase-I keyword matcher.
    pub index_aliases: bool,
    /// Hard cap on query length for the validating entry points
    /// ([`Linker::try_link`]); longer queries are rejected as
    /// [`NclError::InvalidQuery`]. The non-validating [`Linker::link`]
    /// accepts any length.
    pub max_query_tokens: usize,
    /// Serve Phase-II scores with the epsilon-relaxed SIMD kernels
    /// (polynomial `exp`, fixed-lane partial sums;
    /// [`ConceptCache::set_fast_math`](crate::comaid::ConceptCache::set_fast_math)).
    /// Off by default: the exact kernels are bit-identical to the scalar
    /// reference at every dispatch level, which the golden-snapshot and
    /// cache bit-identity suites rely on. Turning this on perturbs
    /// scores by ≈1e-5 relative error (deterministic across dispatch
    /// levels) in exchange for faster softmax/attention. The uncached
    /// safety path (stale cache, `ed.cache` fault) always scores exactly.
    pub fast_math: bool,
    /// Storage tier of the frozen concept cache ([`CacheTier`]). `Exact`
    /// (the default) keeps every frozen row in f32 and scores
    /// bit-identically to the uncached path; `Compact` stores the
    /// encoder rows (and through them the ancestor memories) as bf16,
    /// cutting resident bytes per concept by about a third in exchange
    /// for epsilon-bounded (and
    /// [`ConceptCache::tier`](crate::comaid::ConceptCache::tier)-flagged)
    /// score perturbation.
    pub cache_tier: CacheTier,
    /// Deadline budgets; all unset by default (no deadline).
    pub budget: LinkBudget,
}

impl Default for LinkerConfig {
    fn default() -> Self {
        Self {
            k: 20,
            rewrite: true,
            remove_shared: true,
            edit_max_dist: 2,
            rewrite_min_cosine: 0.35,
            index_aliases: true,
            max_query_tokens: 4096,
            fast_math: false,
            cache_tier: CacheTier::Exact,
            budget: LinkBudget::default(),
        }
    }
}

/// Wall-clock budgets for one `link` call. Each field is an independent
/// cap; `None` means unbounded. The *divisible* phases (OR rewrites one
/// token at a time, ED scores one candidate at a time) are cut off
/// mid-phase when their deadline passes; work not reached degrades as
/// described on [`Degradation`]. The atomic phases are handled at their
/// boundaries: if `cr` is exceeded (or the call deadline has already
/// passed when ED would start), ED is skipped entirely, and if the call
/// deadline has passed when ranking starts while `rt` is set, the
/// prior-blending of Eq. 11 is skipped (MAP falls back to MLE).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkBudget {
    /// Cap on the whole call.
    pub total: Option<Duration>,
    /// Cap on query rewriting (OR).
    pub or: Option<Duration>,
    /// Cap on candidate retrieval (CR).
    pub cr: Option<Duration>,
    /// Cap on encode-decode scoring (ED) — the phase the paper measures
    /// at ~98% of linking time (Appendix B.1), hence the one worth
    /// cutting short.
    pub ed: Option<Duration>,
    /// Cap on ranking (RT).
    pub rt: Option<Duration>,
}

impl LinkBudget {
    /// A budget capping only the whole call.
    pub fn with_total(d: Duration) -> Self {
        Self {
            total: Some(d),
            ..Self::default()
        }
    }

    /// A budget capping only the ED phase.
    pub fn with_ed(d: Duration) -> Self {
        Self {
            ed: Some(d),
            ..Self::default()
        }
    }
}

/// Why (part of) the neural scoring was skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// A deadline budget ran out mid-scoring.
    Timeout {
        /// The budget that was exhausted.
        budget: Duration,
    },
    /// Scoring workers panicked; the panics were isolated per job.
    WorkerPanic {
        /// Number of scoring jobs lost to panics.
        lost_jobs: usize,
    },
}

impl DegradeReason {
    /// The typed error equivalent, for callers that prefer fail-fast
    /// over best-effort.
    pub fn to_error(self) -> NclError {
        match self {
            Self::Timeout { budget } => NclError::Timeout {
                phase: "ed",
                budget,
            },
            Self::WorkerPanic { lost_jobs } => NclError::WorkerPanic { lost_jobs },
        }
    }
}

/// How complete the neural (Phase II) scoring of a [`LinkResult`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Degradation {
    /// Every candidate was scored by COM-AID; the full two-phase answer.
    #[default]
    None,
    /// Only the first `scored` of `total` candidates carry COM-AID
    /// scores; the rest sit at the end of `ranked` in Phase-I TF-IDF
    /// order with `f32::NEG_INFINITY` scores.
    PartialEd {
        /// Candidates that received a COM-AID score.
        scored: usize,
        /// Total candidates retrieved.
        total: usize,
        /// Why the tail went unscored.
        reason: DegradeReason,
    },
    /// No candidate could be neurally scored; `ranked` is the Phase-I
    /// TF-IDF ranking (all scores `f32::NEG_INFINITY`).
    TfIdfOnly {
        /// Why scoring was skipped entirely.
        reason: DegradeReason,
    },
}

impl Degradation {
    /// Whether the result is anything less than the full two-phase
    /// answer.
    pub fn is_degraded(&self) -> bool {
        !matches!(self, Self::None)
    }
}

/// The earlier of two optional deadlines.
pub(crate) fn min_deadline(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (x, None) | (None, x) => x,
    }
}

/// The outcome of linking one query.
#[derive(Debug, Clone)]
pub struct LinkResult {
    /// Candidates re-ranked by `log p(q|c)`, best first.
    pub ranked: Vec<(ConceptId, f32)>,
    /// The query after rewriting (equals the input when rewriting is off
    /// or nothing was out-of-vocabulary).
    pub rewritten: Vec<String>,
    /// Phase-I candidates in retrieval order (before re-ranking).
    pub candidates: Vec<ConceptId>,
    /// Phase-I work counters: postings examined/scored/pruned by the
    /// MaxScore scan, heap evictions, and rewrite-memo hit rates — the
    /// "postings examined" cost model of Figure 11(c)/(d). A copy of
    /// [`LinkTrace::retrieval`], kept as a direct field for callers of
    /// the pre-trace API.
    pub retrieval: RetrievalStats,
    /// Completeness of the Phase-II scoring (see [`Degradation`]).
    pub degradation: Degradation,
    /// The unified per-request trace: per-stage wall-clock, retrieval
    /// counters, cache usage, rewrite decisions, degradation events.
    pub trace: LinkTrace,
}

impl LinkResult {
    /// The linked concept `c*` (top-1), if any candidate was retrieved.
    pub fn top1(&self) -> Option<ConceptId> {
        self.ranked.first().map(|&(c, _)| c)
    }

    /// Ranked concept ids only.
    pub fn ranked_ids(&self) -> Vec<ConceptId> {
        self.ranked.iter().map(|&(c, _)| c).collect()
    }

    /// Whether any part of the answer is best-effort rather than fully
    /// scored.
    pub fn is_degraded(&self) -> bool {
        self.degradation.is_degraded()
    }

    /// The typed error this degradation corresponds to, for callers
    /// that prefer fail-fast semantics over a best-effort ranking.
    pub fn degradation_error(&self) -> Option<NclError> {
        match self.degradation {
            Degradation::None => None,
            Degradation::PartialEd { reason, .. } | Degradation::TfIdfOnly { reason } => {
                Some(reason.to_error())
            }
        }
    }
}

/// The online linker: borrows a trained model and its ontology.
///
/// Serving goes through the staged engine in [`crate::serving`]:
/// [`Linker::link`] drives one request through
/// `Rewrite → Retrieve → Score → Rank`, and this struct holds the
/// shared, immutable structures the stages borrow.
pub struct Linker<'a> {
    pub(crate) model: &'a ComAid,
    ontology: &'a Ontology,
    config: LinkerConfig,
    index: OntologyIndex,
    pub(crate) tfidf: TfIdfIndex,
    pub(crate) doc_map: Vec<ConceptId>,
    /// Embedding nearest-neighbour index for query rewriting, built on
    /// first use: it clones and row-normalises the full embedding table,
    /// which a linker serving with `rewrite: false` (or queries that are
    /// never out-of-vocabulary) should not pay for.
    nearest: OnceLock<NearestWords>,
    /// Length/prefix-bucketed edit-distance index over Ω', also built on
    /// first use — the textual fallback of rewriting.
    edit_index: OnceLock<EditIndex>,
    /// Per-linker rewrite memo: OOV token → rewrite outcome (including
    /// negative outcomes), so repeated OOV tokens cost one lookup per
    /// linker lifetime. Bypassed entirely when a [`FaultPlan`] is
    /// attached: memoisation would change how often the `or.rewrite`
    /// site is visited, breaking deterministic fault replay.
    rewrite_memo: Mutex<HashMap<String, Option<String>>>,
    /// Optional log-prior table for MAP ranking (Eq. 11); `None` = the
    /// paper's default uniform prior (pure MLE, Eq. 12).
    prior: Option<PriorTable>,
    /// Optional deterministic fault schedule (tests and robustness
    /// benchmarks); `None` in production.
    pub(crate) faults: Option<Arc<FaultPlan>>,
    /// Frozen concept-encoding cache ([`ComAid::freeze_tiered`]): the
    /// skeleton is built at construction and each ontology chapter
    /// freezes on the first request that scores a candidate in it
    /// ([`Linker::warm`] freezes the rest ahead of traffic). The linker
    /// holds a shared borrow of the model, so the parameters cannot
    /// change underneath it — but staleness is still re-checked at every
    /// scoring call (the check is a few integers). Behind an `Arc` so
    /// one frozen cache can be shared across linkers built from clones
    /// of the same model generation ([`Linker::with_shared_cache`], the
    /// feedback hot-swap path) — a clone keeps its source's version, so
    /// the validity check is unchanged.
    pub(crate) cache: Arc<ConceptCache>,
    /// Every concept's canonical-description words, interned — what
    /// shared-word removal consults per (query, candidate).
    shared_words: SharedWords,
}

/// A normalised log-prior lookup table for MAP ranking (Eq. 11).
///
/// Zero or negative probabilities are clamped to a tiny floor so a
/// sparse frequency table never produces `-inf` scores; concepts absent
/// from the table receive the floor prior.
#[derive(Debug, Clone)]
struct PriorTable {
    log_prior: HashMap<ConceptId, f32>,
}

impl PriorTable {
    /// Builds the table from raw (concept, probability-mass) pairs.
    fn new(priors: &[(ConceptId, f32)]) -> Self {
        assert!(!priors.is_empty(), "PriorTable: empty prior table");
        let total: f32 = priors.iter().map(|&(_, p)| p.max(0.0)).sum();
        let floor = 1e-6f32;
        let log_prior = priors
            .iter()
            .map(|&(c, p)| {
                let norm = if total > 0.0 { p.max(0.0) / total } else { 0.0 };
                (c, norm.max(floor).ln())
            })
            .collect();
        Self { log_prior }
    }

    /// The log-prior of a concept (unlisted concepts receive the floor
    /// prior).
    fn log_prior(&self, c: ConceptId) -> f32 {
        self.log_prior
            .get(&c)
            .copied()
            .unwrap_or_else(|| 1e-6f32.ln())
    }
}

/// The concept cache a linker configured with `config` serves from:
/// the skeleton of `index` at `model`'s parameter generation, in the
/// configured tier and kernel mode. Shared with the hot-swap cell so a
/// published generation's cache is the one `Linker::new` would build.
pub(crate) fn frozen_cache(
    model: &ComAid,
    index: &OntologyIndex,
    config: &LinkerConfig,
) -> Arc<ConceptCache> {
    let mut cache = model.freeze_tiered(index, config.cache_tier);
    cache.set_fast_math(config.fast_math);
    Arc::new(cache)
}

impl<'a> Linker<'a> {
    /// Builds a linker over `model` and `ontology`: reads the ontology's
    /// text once (`serving::ontology_text`) into the model's
    /// [`OntologyIndex`], the Phase-I TF-IDF index over the fine-grained
    /// concepts and the shared-word lists, and lays out the skeleton of
    /// the frozen concept cache. Nothing is encoded here — chapters
    /// freeze on first touch (or [`Linker::warm`]) — and the rewriting
    /// indexes (embedding nearest-neighbour, edit distance) are built by
    /// the first out-of-vocabulary query word.
    pub fn new(model: &'a ComAid, ontology: &'a Ontology, config: LinkerConfig) -> Self {
        Self::with_cache(model, ontology, config, |index| {
            frozen_cache(model, index, &config)
        })
    }

    /// [`Linker::new`] serving from the cache `cache_for` returns for
    /// the linker's index: a fresh skeleton, or a generation's shared
    /// one ([`crate::feedback::ModelGeneration::linker`]).
    pub(crate) fn with_cache(
        model: &'a ComAid,
        ontology: &'a Ontology,
        config: LinkerConfig,
        cache_for: impl FnOnce(&OntologyIndex) -> Arc<ConceptCache>,
    ) -> Self {
        let mut text = OntologyText::read(ontology);
        let index = text.index(ontology, model.vocab(), model.config().beta);
        let (tfidf, doc_map) = text.phase_one(ontology, config.index_aliases);
        let cache = cache_for(&index);
        Self {
            model,
            ontology,
            config,
            index,
            tfidf,
            doc_map,
            nearest: OnceLock::new(),
            edit_index: OnceLock::new(),
            rewrite_memo: Mutex::new(HashMap::new()),
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

    /// Freezes every chapter of the cache no request has touched yet
    /// ([`ConceptCache::warm`]): call before admitting traffic when no
    /// request may pay a first-touch freeze. A linker whose cache cannot
    /// serve (see [`Linker::with_shared_cache`]) has nothing to warm.
    pub fn warm(&self) {
        if self.cache_serves() {
            self.cache.warm(self.model, &self.index);
        }
    }

    /// Whether scoring may read the cache: it was frozen from this
    /// model's parameter generation, over an ontology the size of this
    /// linker's.
    pub(crate) fn cache_serves(&self) -> bool {
        self.cache.serves(self.model, &self.index)
    }

    /// Installs a shared frozen concept cache, replacing the one this
    /// linker built at construction. The hot-swap serving path uses
    /// this to build a linker over a model-generation snapshot without
    /// re-freezing: the generation's cache was frozen once from a clone
    /// of the same parameters, so it is valid for this model (clones
    /// keep their source's version). Validity is still re-checked at
    /// every scoring call, so installing a cache frozen from a
    /// *different* generation — or over a different ontology — degrades
    /// to uncached scoring ([`crate::serving::CacheUse::Stale`]) rather
    /// than serving wrong bits.
    pub fn with_shared_cache(mut self, cache: Arc<ConceptCache>) -> Self {
        self.cache = cache;
        self
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

    /// The embedding nearest-neighbour index masked to the description
    /// vocabulary Ω, built on first use (see the field docs).
    fn nearest_words(&self) -> &NearestWords {
        self.nearest.get_or_init(|| {
            // Ω mask over Ω': only words that occur in the indexed
            // concept descriptions may be rewriting targets.
            let vocab = self.model.vocab();
            let allowed: Vec<bool> = (0..vocab.len())
                .map(|i| {
                    if i < 4 {
                        return false;
                    }
                    vocab
                        .word(i as u32)
                        .map(|w| self.tfidf.contains_term(w))
                        .unwrap_or(false)
                })
                .collect();
            NearestWords::new(self.model.embedding().table(), Some(allowed))
        })
    }

    /// The bucketed edit-distance index over Ω', built on first use.
    /// Insertion order is the vocabulary's word-id order, so lookups
    /// break ties exactly like the linear `nearest_by_edit` sweep over
    /// `vocab.iter_words()` did.
    fn edit_lookup(&self) -> &EditIndex {
        self.edit_index
            .get_or_init(|| EditIndex::new(self.model.vocab().iter_words().map(|(_, w)| w)))
    }

    /// Rewrites one out-of-vocabulary word (Eq. 13 with edit-distance
    /// fallback); returns `None` when no replacement is found.
    fn rewrite_word(&self, word: &str) -> Option<String> {
        let vocab = self.model.vocab();
        // In Ω' already: jump straight to the embedding neighbour in Ω.
        if let Some(id) = vocab.get(word) {
            let v = self.model.embedding().lookup(id);
            return self
                .nearest_words()
                .nearest(&v, Some(id))
                .filter(|&(_, cos)| cos >= self.config.rewrite_min_cosine)
                .and_then(|(nid, _)| vocab.word(nid).map(|s| s.to_string()));
        }
        // Textual fallback: the closest Ω' word by edit distance, then
        // Eq. 13 from that word's embedding.
        let similar = self
            .edit_lookup()
            .nearest(word, self.config.edit_max_dist)?;
        if self.tfidf.contains_term(similar) {
            return Some(similar.to_string());
        }
        let sid = vocab.get(similar)?;
        let v = self.model.embedding().lookup(sid);
        self.nearest_words()
            .nearest(&v, Some(sid))
            .filter(|&(_, cos)| cos >= self.config.rewrite_min_cosine)
            .and_then(|(nid, _)| vocab.word(nid).map(|s| s.to_string()))
    }

    /// Applies query rewriting to a token sequence.
    pub fn rewrite_query(&self, tokens: &[String]) -> Vec<String> {
        let mut trace = LinkTrace::default();
        self.rewrite_query_within(tokens, None, &mut trace)
            .into_owned()
    }

    /// Resolves the embedding-space (in-Ω') rewrites of every distinct
    /// uncached OOV token in one blocked matrix pass
    /// ([`NearestWords::nearest_batch`]), priming the memo so the
    /// per-token loop only pays hash lookups. Returns the words this
    /// call inserted, so the caller does not re-count their first use as
    /// a memo hit. Words outside Ω' (the edit-distance fallback) are
    /// left for the per-token path.
    fn prefetch_rewrites<'q>(
        &self,
        tokens: &'q [String],
        stats: &mut RetrievalStats,
    ) -> HashSet<&'q str> {
        self.prefetch_rewrite_words(tokens.iter(), stats)
    }

    /// Batch-level rewrite prefetch: one blocked matrix pass over the
    /// distinct uncached OOV tokens of *every* query in the batch, so
    /// each request's rewrite stage pays only memo lookups instead of
    /// its own [`NearestWords::nearest_batch`] dispatch. A no-op when
    /// rewriting is off or a fault plan is attached (fault ordinals
    /// must stay per-request deterministic, so the memo is bypassed
    /// entirely there). Outcomes are identical to per-request
    /// prefetching — this only moves *when* the memo is primed.
    pub(crate) fn prefetch_rewrites_batch(&self, queries: &[&[String]]) {
        if self.faults.is_some() || !self.config.rewrite {
            return;
        }
        // The batch pass has no single request to attribute work to;
        // per-request traces see memo hits, exactly as they do when an
        // earlier request in the batch primed the memo.
        let mut stats = RetrievalStats::default();
        let _ = self.prefetch_rewrite_words(queries.iter().flat_map(|q| q.iter()), &mut stats);
    }

    fn prefetch_rewrite_words<'q>(
        &self,
        tokens: impl Iterator<Item = &'q String>,
        stats: &mut RetrievalStats,
    ) -> HashSet<&'q str> {
        let vocab = self.model.vocab();
        let mut words: Vec<(&'q String, u32)> = Vec::new();
        {
            let memo = self.rewrite_memo.lock().expect("rewrite memo poisoned");
            let mut seen: HashSet<&str> = HashSet::new();
            for w in tokens {
                if self.tfidf.contains_term(w) || !seen.insert(w) || memo.contains_key(w.as_str()) {
                    continue;
                }
                if let Some(id) = vocab.get(w) {
                    words.push((w, id));
                }
            }
        }
        // A single lookup gains nothing from batching; let the per-token
        // path handle it.
        if words.len() < 2 {
            return HashSet::new();
        }
        let queries: Vec<Vector> = words
            .iter()
            .map(|&(_, id)| self.model.embedding().lookup(id))
            .collect();
        let excludes: Vec<Option<u32>> = words.iter().map(|&(_, id)| Some(id)).collect();
        let hits = self.nearest_words().nearest_batch(&queries, &excludes);
        let mut memo = self.rewrite_memo.lock().expect("rewrite memo poisoned");
        let mut inserted = HashSet::new();
        for (&(w, _), hit) in words.iter().zip(&hits) {
            let target = hit
                .filter(|&(_, cos)| cos >= self.config.rewrite_min_cosine)
                .and_then(|(nid, _)| vocab.word(nid).map(|s| s.to_string()));
            memo.insert(w.clone(), target);
            stats.rewrite_cache_misses += 1;
            inserted.insert(w.as_str());
        }
        inserted
    }

    /// Query rewriting with an optional deadline: tokens not reached
    /// before the deadline pass through unrewritten, and a panic while
    /// rewriting one token (e.g. an injected fault) leaves only that
    /// token unrewritten.
    ///
    /// Returns `Cow::Borrowed` when nothing was rewritten (the common
    /// case for in-vocabulary queries), so callers pay no per-token
    /// clone. With no faults attached, outcomes are memoised per linker;
    /// with faults, every OOV token recomputes under the `or.rewrite`
    /// site so injection ordinals stay deterministic.
    ///
    /// Work counters accumulate into `trace.retrieval`; every
    /// considered OOV token is additionally recorded as a
    /// [`RewriteDecision`] on the trace (observability only — the
    /// rewriting itself is unchanged by tracing).
    pub(crate) fn rewrite_query_within<'q>(
        &self,
        tokens: &'q [String],
        deadline: Option<Instant>,
        trace: &mut LinkTrace,
    ) -> Cow<'q, [String]> {
        let use_memo = self.faults.is_none();
        let mut prefetched: HashSet<&str> = HashSet::new();
        if use_memo && deadline.is_none() {
            prefetched = self.prefetch_rewrites(tokens, &mut trace.retrieval);
        }
        let mut out: Option<Vec<String>> = None;
        let mut expired = false;
        for (i, w) in tokens.iter().enumerate() {
            if !expired && deadline.is_some_and(|d| Instant::now() >= d) {
                expired = true;
                trace.events.push(TraceEvent::DeadlineExpired {
                    stage: StageKind::Rewrite,
                });
            }
            if expired || self.tfidf.contains_term(w) {
                if let Some(out) = out.as_mut() {
                    out.push(w.clone());
                }
                continue;
            }
            let mut memo_hit = false;
            let replacement: Option<String> = if use_memo {
                let cached = self
                    .rewrite_memo
                    .lock()
                    .expect("rewrite memo poisoned")
                    .get(w.as_str())
                    .cloned();
                match cached {
                    Some(outcome) => {
                        // A word prefetched by *this* call already counted
                        // as a miss; later repeats are genuine hits.
                        if !prefetched.remove(w.as_str()) {
                            trace.retrieval.rewrite_cache_hits += 1;
                            memo_hit = true;
                        }
                        outcome
                    }
                    None => {
                        trace.retrieval.rewrite_cache_misses += 1;
                        let outcome = self.rewrite_word(w);
                        self.rewrite_memo
                            .lock()
                            .expect("rewrite memo poisoned")
                            .insert(w.clone(), outcome.clone());
                        outcome
                    }
                }
            } else {
                trace.retrieval.rewrite_cache_misses += 1;
                catch_unwind(AssertUnwindSafe(|| {
                    if let Some(plan) = &self.faults {
                        plan.visit("or.rewrite");
                    }
                    self.rewrite_word(w)
                }))
                .unwrap_or(None)
            };
            trace.rewrites.push(RewriteDecision {
                token: w.clone(),
                replacement: replacement.clone(),
                memo_hit,
            });
            match replacement {
                Some(r) => {
                    out.get_or_insert_with(|| tokens[..i].to_vec()).push(r);
                }
                None => {
                    if let Some(out) = out.as_mut() {
                        out.push(w.clone());
                    }
                }
            }
        }
        match out {
            Some(v) => Cow::Owned(v),
            None => Cow::Borrowed(tokens),
        }
    }

    /// The rewrite outcome of one token, for the span-proposal scan
    /// (`serving::propose`): `Some(target)` when the token rewrites
    /// into Ω, `None` otherwise. Uses the per-linker memo when no
    /// fault plan is attached (sharing outcomes with the Rewrite
    /// stage); with faults attached it recomputes behind a panic
    /// boundary **without** visiting the `or.rewrite` site — proposal
    /// is not the OR phase, and consuming OR ordinals here would shift
    /// fault replay for the spans linked afterwards (each proposed
    /// span rewrites its tokens again through the Rewrite stage).
    /// Work counters accumulate into `stats`.
    pub(crate) fn rewrite_outcome(&self, w: &str, stats: &mut RetrievalStats) -> Option<String> {
        if self.faults.is_none() {
            if let Some(outcome) = self
                .rewrite_memo
                .lock()
                .expect("rewrite memo poisoned")
                .get(w)
                .cloned()
            {
                stats.rewrite_cache_hits += 1;
                return outcome;
            }
            stats.rewrite_cache_misses += 1;
            let outcome = self.rewrite_word(w);
            self.rewrite_memo
                .lock()
                .expect("rewrite memo poisoned")
                .insert(w.to_string(), outcome.clone());
            outcome
        } else {
            stats.rewrite_cache_misses += 1;
            catch_unwind(AssertUnwindSafe(|| self.rewrite_word(w))).unwrap_or(None)
        }
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
            self.rewrite_query_within(tokens, None, &mut trace)
        } else {
            Cow::Borrowed(tokens)
        };
        let mut stats = trace.retrieval;
        let (hits, index_stats) = self.tfidf.top_k_with_stats(&rewritten, self.config.k);
        stats.merge(&index_stats);
        let candidates = hits.iter().map(|&(d, _)| self.doc_map[d]).collect();
        (rewritten, candidates, stats)
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
        serving::drive(self, tokens, &ComAidScore::new(self))
    }

    /// Links a query with a **custom Phase-II scorer** behind the same
    /// staged pipeline as [`Linker::link`]: rewriting, retrieval,
    /// budgets, fault isolation, the degradation ladder, and tracing
    /// all apply unchanged; only the candidate scoring differs. The
    /// `lr`/`doc2vec` baselines plug in this way (see
    /// `ncl_baselines::AnnotatorScore`).
    pub fn link_with_scorer(&self, tokens: &[String], scorer: &dyn ScoreStage) -> LinkResult {
        serving::drive(self, tokens, scorer)
    }

    /// Links a batch of queries: one rewrite prefetch over the whole
    /// batch, then each query through the chain in order, on the
    /// calling thread. Results are positionally aligned with `queries`
    /// and bit-identical to looping [`Linker::link`] over the batch.
    pub fn link_batch(&self, queries: &[Vec<String>]) -> Vec<LinkResult> {
        let refs: Vec<&[String]> = queries.iter().map(|q| q.as_slice()).collect();
        serving::link_batch(self, &refs)
    }

    /// Validating batch entry point: per-query
    /// [`NclError::InvalidQuery`] verdicts with the valid remainder
    /// linked through [`Linker::link_batch`]. Results are positionally
    /// aligned with `queries`.
    pub fn try_link_batch(&self, queries: &[Vec<String>]) -> Vec<Result<LinkResult, NclError>> {
        serving::try_link_batch(self, queries)
    }

    /// The **frozen pre-refactor monolith** `link` body, kept verbatim
    /// as the equivalence oracle for the staged engine: the
    /// `staged_serving` tests assert `link` ≡ `link_oracle` (ranked
    /// ids, score bits, rewrites, degradation) on arbitrary queries,
    /// with and without fault plans. Not part of the serving API.
    #[doc(hidden)]
    pub fn link_oracle(&self, tokens: &[String]) -> LinkResult {
        let start = Instant::now();
        let budget = self.config.budget;
        let call_deadline = budget.total.map(|d| start + d);

        // Phase I.a: out-of-vocabulary replacement. Borrows the input
        // tokens when nothing gets rewritten.
        let mut trace = LinkTrace::default();
        let t0 = Instant::now();
        let or_deadline = min_deadline(call_deadline, budget.or.map(|d| t0 + d));
        let rewritten: Cow<'_, [String]> = if self.config.rewrite {
            self.rewrite_query_within(tokens, or_deadline, &mut trace)
        } else {
            Cow::Borrowed(tokens)
        };
        let or = t0.elapsed();
        let mut retrieval = trace.retrieval;

        // Phase I.b: candidate retrieval (panic-isolated: a fault here
        // yields an empty candidate set, not an abort).
        let t1 = Instant::now();
        let hits = catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = &self.faults {
                plan.visit("cr.topk");
            }
            self.tfidf.top_k_with_stats(&rewritten, self.config.k)
        }));
        let cr_panicked = hits.is_err();
        let (hits, index_stats) = hits.unwrap_or_default();
        retrieval.merge(&index_stats);
        let candidates: Vec<ConceptId> = hits.iter().map(|&(d, _)| self.doc_map[d]).collect();
        let cr = t1.elapsed();
        let cr_over = budget.cr.is_some_and(|b| cr > b);

        // Phase II.a: encode-decode scoring. Skipped entirely when the
        // call is already over budget; cut off mid-phase otherwise.
        let t2 = Instant::now();
        let ed_deadline = min_deadline(call_deadline, budget.ed.map(|d| t2 + d));
        let already_over = call_deadline.is_some_and(|d| Instant::now() >= d);
        let (scores, panicked) = if cr_over || already_over {
            (vec![None; candidates.len()], 0)
        } else {
            self.score_candidates(&candidates, &rewritten, ed_deadline)
        };
        let ed = t2.elapsed();

        // Phase II.b: ranking (MAP when a prior is installed, Eq. 11;
        // otherwise pure MLE, Eq. 12). Under a blown deadline with an
        // `rt` budget set, MAP falls back to MLE (the prior lookup is
        // the only elidable work in this phase).
        let t3 = Instant::now();
        let skip_prior = budget.rt.is_some() && call_deadline.is_some_and(|d| Instant::now() >= d);
        let mut ranked: Vec<(ConceptId, f32)> = candidates
            .iter()
            .copied()
            .zip(scores.iter())
            .filter_map(|(c, lp)| lp.map(|lp| (c, lp)))
            .map(|(c, lp)| {
                let prior = if skip_prior {
                    0.0
                } else {
                    self.concept_log_prior(c)
                };
                (c, lp + prior)
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        // Unscored tail: Phase-I TF-IDF order, explicitly unscored.
        ranked.extend(
            candidates
                .iter()
                .copied()
                .zip(scores.iter())
                .filter(|(_, lp)| lp.is_none())
                .map(|(c, _)| (c, f32::NEG_INFINITY)),
        );
        let rt = t3.elapsed();

        let scored = scores.iter().filter(|s| s.is_some()).count();
        let total = candidates.len();
        let degradation = self.classify_degradation(scored, total, panicked, cr_panicked);

        // Stage wall-clocks go into the trace exactly as the staged
        // engine records them.
        let trace = LinkTrace {
            stages: vec![
                StageTiming {
                    kind: StageKind::Rewrite,
                    wall: or,
                },
                StageTiming {
                    kind: StageKind::Retrieve,
                    wall: cr,
                },
                StageTiming {
                    kind: StageKind::Score,
                    wall: ed,
                },
                StageTiming {
                    kind: StageKind::Rank,
                    wall: rt,
                },
            ],
            retrieval,
            ..LinkTrace::default()
        };
        LinkResult {
            ranked,
            rewritten: rewritten.into_owned(),
            candidates,
            retrieval,
            degradation,
            trace,
        }
    }

    /// Summarises how far short of a full answer this call fell — the
    /// shared ladder lives with the Rank stage; COM-AID scores every
    /// candidate, so unscored never means "non-match" here.
    fn classify_degradation(
        &self,
        scored: usize,
        total: usize,
        panicked: usize,
        cr_panicked: bool,
    ) -> Degradation {
        crate::serving::classify_degradation(
            self.config.budget,
            scored,
            total,
            panicked,
            cr_panicked,
            false,
        )
    }

    /// Convenience: links a raw snippet.
    pub fn link_text(&self, text: &str) -> LinkResult {
        self.link(&tokenize(text))
    }

    /// Validating entry point: rejects queries that cannot meaningfully
    /// be linked (empty, whitespace-only, or longer than
    /// [`LinkerConfig::max_query_tokens`]) with a typed
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
        if tokens.len() > self.config.max_query_tokens {
            return Err(NclError::InvalidQuery {
                reason: format!(
                    "query has {} tokens, over the limit of {}",
                    tokens.len(),
                    self.config.max_query_tokens
                ),
            });
        }
        Ok(())
    }

    /// [`Linker::try_link`] over a raw snippet.
    pub fn try_link_text(&self, text: &str) -> Result<LinkResult, NclError> {
        self.try_link(&tokenize(text))
    }

    /// Proposes candidate mention spans from a tokenised note without
    /// linking them — the document-level Propose stage alone (see
    /// `serving::propose`): dictionary/rewrite hit-runs, chunked
    /// greedily at [`ProposeConfig::max_span`].
    pub fn propose_spans(&self, tokens: &[String], config: &ProposeConfig) -> Vec<SpanProposal> {
        let mut trace = LinkTrace::default();
        serving::propose_spans(self, tokens, config, None, &mut trace)
    }

    /// Links a whole tokenised clinical note: proposes mention spans,
    /// sends every span through the staged chain in note order (with
    /// the batch rewrite prefetch and this linker's prior), and rolls
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
    /// than `max_query_tokens` (each proposed span is clamped to a
    /// valid query length instead).
    pub fn try_link_document(&self, tokens: &[String]) -> Result<DocumentResult, NclError> {
        if tokens.iter().all(|t| t.trim().is_empty()) {
            return Err(NclError::InvalidQuery {
                reason: "note is empty after normalisation".into(),
            });
        }
        Ok(self.link_document(tokens))
    }

    /// Scores `log p(q|c)` for each candidate on the calling thread,
    /// one candidate's whole query at a time. Each candidate runs behind
    /// its own panic-isolation boundary, so a panicking candidate (model
    /// bug, injected fault) costs exactly that candidate's score, and
    /// candidates not started before `deadline` stay unscored. Returns
    /// per-candidate scores (`None` = unscored) and the number of
    /// candidates lost to panics.
    ///
    /// Every request takes this one loop. The deadline is read before
    /// each candidate only when one is set, the `ed.score` / `ed.cache`
    /// fault sites are visited only under a plan ("ed.cache" models a
    /// serving-cache miss: an injected fault there degrades that
    /// candidate to the uncached, slower, identically-scored path —
    /// never to a wrong or missing score), and what is left is
    /// [`ComAid::log_prob_prepared`] over the frozen cache with one
    /// request-scoped scratch: the query's decoder input projections
    /// are made once, the candidates' cache runs are prefetched the
    /// moment the list is known, and a candidate allocates nothing. A
    /// cache that cannot serve ([`Linker::cache_serves`]) sends every
    /// candidate down the uncached path.
    pub(crate) fn score_candidates(
        &self,
        candidates: &[ConceptId],
        query: &[String],
        deadline: Option<Instant>,
    ) -> (Vec<Option<f32>>, usize) {
        let serves = self.cache_serves();
        if serves {
            self.cache.prefetch(candidates);
        }
        // The decoded word ids are candidate-independent; only the
        // counting mask differs (shared-word removal is per candidate).
        let ids = self.query_ids(query);
        let words = self.shared_words.intern(query);
        let mut mask = vec![true; query.len()];
        let mut prepared = serves.then(|| self.model.prepare_target(&self.cache, &ids));

        let mut panicked = 0usize;
        let mut scores: Vec<Option<f32>> = vec![None; candidates.len()];
        for (&c, out) in candidates.iter().zip(scores.iter_mut()) {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            if self.config.remove_shared {
                self.shared_words.mask(c, &words, &mut mask);
            }
            // A decode overwrites every scratch buffer before reading
            // it, so one a panic abandoned half-written is safe to
            // reuse for the next candidate.
            match catch_unwind(AssertUnwindSafe(|| {
                let mut cached = prepared.as_mut();
                if let Some(plan) = &self.faults {
                    plan.visit("ed.score");
                    if cached.is_some() && plan.visit_io("ed.cache").is_err() {
                        cached = None;
                    }
                }
                match cached {
                    Some(prepared) => {
                        self.model
                            .log_prob_prepared(&self.index, &self.cache, c, prepared, &mask)
                    }
                    None => self.model.log_prob_ids_masked(&self.index, c, &ids, &mask),
                }
            })) {
                Ok(lp) => *out = Some(lp),
                Err(_) => panicked += 1,
            }
        }
        (scores, panicked)
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
        (self.query_ids(query), mask)
    }

    /// The decoded word ids of a query — identical for every candidate.
    fn query_ids(&self, query: &[String]) -> Vec<u32> {
        let vocab = self.model.vocab();
        query.iter().map(|w| vocab.get_or_unk(w)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comaid::{ComAidConfig, TrainPair, Variant};
    use ncl_text::Vocab;

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
            output_mode: crate::comaid::OutputMode::Full,
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
        assert!(s.postings_examined + s.postings_pruned > 0);
        assert!(s.docs_scored > 0);
        assert!(s.postings_scored <= s.postings_examined);
    }

    #[test]
    fn batched_and_per_token_rewrites_agree() {
        let (o, model) = trained_world();
        // Without alias indexing, alias-only words ("ckd", "renal",
        // "syndrome") are in Ω' but not in Ω — in-Ω' OOV tokens that the
        // batched prefetch resolves. A never-firing fault plan forces the
        // other linker down the per-token, memo-free path.
        let cfg = LinkerConfig {
            index_aliases: false,
            ..LinkerConfig::default()
        };
        let batched = Linker::new(&model, &o, cfg);
        let per_token = Linker::new(&model, &o, cfg).with_faults(Arc::new(FaultPlan::none()));
        let q = tokenize("ckd renal syndrome abdomne");
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
    fn warmed_and_compact_linkers_serve_the_same_answers() {
        let (o, model) = trained_world();
        let exact = Linker::new(&model, &o, LinkerConfig::default());
        let warmed = Linker::new(&model, &o, LinkerConfig::default());
        warmed.warm();
        let compact = Linker::new(
            &model,
            &o,
            LinkerConfig {
                cache_tier: CacheTier::Compact,
                ..LinkerConfig::default()
            },
        );
        assert_eq!(exact.cache().unwrap().tier(), CacheTier::Exact);
        assert_eq!(compact.cache().unwrap().tier(), CacheTier::Compact);
        assert_eq!(exact.cache.frozen_shard_count(), 0);
        assert_eq!(
            warmed.cache.frozen_shard_count(),
            warmed.cache.shard_count()
        );
        for q in ["ckd stage 5", "abdominal pain", "acute abdomen"] {
            let a = exact.link_text(q);
            // `warm` only moves *when* chapters freeze: bitwise
            // identical scores.
            let b = warmed.link_text(q);
            assert_eq!(a.ranked_ids(), b.ranked_ids(), "query {q}");
            for (&(_, sa), &(_, sb)) in a.ranked.iter().zip(&b.ranked) {
                assert_eq!(sa.to_bits(), sb.to_bits(), "query {q}");
            }
            // The Compact tier is epsilon-bounded per concept.
            let c = compact.link_text(q);
            assert_eq!(a.top1(), c.top1(), "query {q}");
            let by_id: HashMap<ConceptId, f32> = c.ranked.iter().copied().collect();
            for &(id, sa) in &a.ranked {
                let sc = by_id[&id];
                assert!(
                    (sa - sc).abs() < 5e-2 * sa.abs().max(1.0),
                    "query {q}: exact {sa} compact {sc}"
                );
            }
        }
        assert!(exact.cache.frozen_shard_count() > 0);
        assert_eq!(
            warmed.cache.frozen_shard_count(),
            warmed.cache.shard_count()
        );
    }

    #[test]
    fn batch_prefetch_primes_the_memo_in_one_pass() {
        let (o, model) = trained_world();
        // Without alias indexing, alias-only words ("ckd", "renal") are
        // in Ω' but absent from the Phase-I index, so they take the
        // embedding-space rewrite path the prefetch batches.
        let linker = Linker::new(
            &model,
            &o,
            LinkerConfig {
                index_aliases: false,
                ..LinkerConfig::default()
            },
        );
        let q1 = tokenize("ckd stage 5");
        let q2 = tokenize("renal disease");
        let refs: Vec<&[String]> = vec![&q1, &q2];
        linker.prefetch_rewrites_batch(&refs);
        // One blocked pass resolved both queries' OOV tokens: each
        // per-request rewrite is now pure memo hits, no misses.
        for q in [&q1, &q2] {
            let (_, _, s) = linker.retrieve_with_stats(q);
            assert_eq!(s.rewrite_cache_misses, 0, "query {q:?}");
            assert_eq!(s.rewrite_cache_hits, 1, "query {q:?}");
        }
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
        for index_aliases in [true, false] {
            let linker = Linker::new(
                &model,
                &o,
                LinkerConfig {
                    index_aliases,
                    rewrite: false,
                    ..LinkerConfig::default()
                },
            );
            // Phase I indexes them exactly when aliases are indexed …
            assert_eq!(linker.tfidf.contains_term("ckd"), index_aliases);
            assert_eq!(linker.tfidf.contains_term("renal"), index_aliases);
            assert!(linker.tfidf.contains_term("stage"));
            let (_, candidates) = linker.retrieve(&tokenize("ckd"));
            assert_eq!(candidates.contains(&n185), index_aliases);
            // … and shared-word removal never sees them: against the
            // concept whose alias they come from, both stay counted and
            // only the description word "stage" is removed.
            let (_, mask) = linker.scoring_target(n185, &q);
            assert_eq!(mask, vec![true, true, false]);
        }
    }

    /// ISSUE 5 acceptance: the staged `link` must equal the frozen
    /// pre-refactor [`Linker::link_oracle`] bit-for-bit on arbitrary
    /// queries — with and without an active [`FaultPlan`].
    mod oracle_equivalence {
        use super::*;
        use crate::faults::FaultKind;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        fn shared_world() -> &'static (Ontology, ComAid) {
            static WORLD: OnceLock<(Ontology, ComAid)> = OnceLock::new();
            WORLD.get_or_init(trained_world)
        }

        /// In-vocabulary, alias-only, numeric, typo, and pure-OOV words,
        /// so drawn queries exercise the rewrite, retrieval-miss, and
        /// empty-candidate paths.
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
        ];

        /// Word-index draws (the vendored proptest has no `prop_map`;
        /// tests materialise tokens with [`tokens_from`]).
        fn query_strategy() -> impl Strategy<Value = Vec<usize>> {
            proptest::collection::vec(0..WORDS.len(), 0..6)
        }

        fn tokens_from(idx: &[usize]) -> Vec<String> {
            idx.iter().map(|&i| WORDS[i].to_string()).collect()
        }

        /// Fault probabilities worth drawing: never, sometimes, always.
        fn prob() -> impl Strategy<Value = f64> {
            prop_oneof![Just(0.0), Just(0.4), Just(1.0)]
        }

        /// One plan covering every pipeline fault site. Decisions are
        /// keyed on `(seed, visit ordinal)`, so two *separate* plans
        /// built from the same arguments replay identically as long as
        /// the visit order is deterministic — which it is: one request
        /// runs on one thread.
        fn plan(seed: u64, p_or: f64, p_cr: f64, p_ed: f64, p_cache: f64) -> Arc<FaultPlan> {
            Arc::new(
                FaultPlan::new(seed)
                    .with_rule("or.rewrite", FaultKind::Panic, p_or)
                    .with_rule("cr.topk", FaultKind::Panic, p_cr)
                    .with_rule("ed.score", FaultKind::Panic, p_ed)
                    .with_rule("ed.cache", FaultKind::Io, p_cache),
            )
        }

        fn assert_bit_identical(staged: &LinkResult, oracle: &LinkResult, q: &[String]) {
            assert_eq!(
                staged.rewritten, oracle.rewritten,
                "rewritten diverged for {q:?}"
            );
            assert_eq!(
                staged.candidates, oracle.candidates,
                "candidates diverged for {q:?}"
            );
            assert_eq!(
                staged.ranked.len(),
                oracle.ranked.len(),
                "ranking length diverged for {q:?}"
            );
            for (&(ca, sa), &(cb, sb)) in staged.ranked.iter().zip(&oracle.ranked) {
                assert_eq!(ca, cb, "ranked id diverged for {q:?}");
                assert_eq!(sa.to_bits(), sb.to_bits(), "score bits diverged for {q:?}");
            }
            assert_eq!(
                staged.degradation, oracle.degradation,
                "degradation diverged for {q:?}"
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn staged_link_equals_oracle_without_faults(q_idx in query_strategy()) {
                let q = tokens_from(&q_idx);
                let (o, model) = shared_world();
                let linker = Linker::new(model, o, LinkerConfig::default());
                assert_bit_identical(&linker.link(&q), &linker.link_oracle(&q), &q);
            }

            #[test]
            fn staged_link_equals_oracle_under_faults(
                q_idx in query_strategy(),
                seed in 0u64..1024,
                p_or in prob(),
                p_cr in prob(),
                p_ed in prob(),
                p_cache in prob(),
            ) {
                let q = tokens_from(&q_idx);
                let (o, model) = shared_world();
                let plan_staged = plan(seed, p_or, p_cr, p_ed, p_cache);
                let plan_oracle = plan(seed, p_or, p_cr, p_ed, p_cache);
                let staged = Linker::new(model, o, LinkerConfig::default())
                    .with_faults(Arc::clone(&plan_staged));
                let oracle = Linker::new(model, o, LinkerConfig::default())
                    .with_faults(Arc::clone(&plan_oracle));
                let a = staged.link(&q);
                let b = oracle.link_oracle(&q);
                assert_bit_identical(&a, &b, &q);
                // The two paths hit the exact same fault sites in the
                // same order: equal visit and fire counts.
                prop_assert_eq!(plan_staged.visits(), plan_oracle.visits());
                prop_assert_eq!(plan_staged.fired(), plan_oracle.fired());
            }
        }
    }
}
