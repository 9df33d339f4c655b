//! What one request is configured with and what it answers: the
//! linker's knobs ([`LinkerConfig`]), its deadline budgets
//! ([`LinkBudget`]), the degradation ladder ([`Degradation`],
//! [`DegradeReason`]) and the ranked answer ([`LinkResult`]).

use super::LinkTrace;
use crate::comaid::CacheTier;
use crate::error::NclError;
use ncl_ontology::ConceptId;
use ncl_text::tfidf::RetrievalStats;
use std::time::Duration;

/// Hard cap on query length for the validating entry points
/// ([`Linker::try_link`](crate::linker::Linker::try_link)); longer
/// queries are rejected as [`NclError::InvalidQuery`]. The
/// non-validating [`Linker::link`](crate::linker::Linker::link) accepts
/// any length, and span proposal never proposes a longer span.
pub const MAX_QUERY_TOKENS: usize = 4096;

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
            cache_tier: CacheTier::Exact,
            budget: LinkBudget::default(),
        }
    }
}

/// Wall-clock budgets for one `link` call; `None` means unbounded.
/// `total` caps the whole call: query rewriting (OR, one token at a
/// time) and encode-decode scoring (ED, one candidate at a time) are cut
/// off mid-phase when it passes, and ED is skipped entirely if it has
/// already passed when ED would start. `ed` caps ED alone, from the
/// moment ED starts. Work not reached degrades as described on
/// [`Degradation`]; retrieval (CR) and ranking (RT) always run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkBudget {
    /// Cap on the whole call.
    pub total: Option<Duration>,
    /// Cap on encode-decode scoring (ED) — the phase the paper measures
    /// at ~98% of linking time (Appendix B.1), hence the one worth
    /// cutting short.
    pub ed: Option<Duration>,
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
    /// The scorer returned NaN for some candidates; they sit in the
    /// unscored tail rather than anywhere a number would rank them.
    NanScore {
        /// Candidates whose score was NaN.
        count: usize,
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
            Self::NanScore { count } => NclError::Corrupt {
                what: "score",
                detail: format!("{count} candidate score(s) were NaN"),
            },
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
    /// Phase-I work counters: postings scored by the term-at-a-time
    /// scan, heap evictions, and rewrite-memo hit rates — the
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
