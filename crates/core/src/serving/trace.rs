//! The unified per-request trace.
//!
//! Every block of `serving::serve` appends to the request's
//! [`LinkTrace`]: wall-clock per stage, Phase-I work counters,
//! cache usage, each rewrite decision, and any degradation events. The
//! trace is observability only — nothing downstream branches on it, so
//! recording it cannot perturb the bit-identical serving path.

use super::Degradation;
use ncl_text::tfidf::RetrievalStats;
use std::time::Duration;

/// The serving stages, in chain order. `Rewrite`/`Retrieve` are
/// the paper's Phase I (OR + CR of Appendix B.1), `Score`/`Rank` its
/// Phase II (ED + RT). `Propose` precedes the four-stage chain and only
/// runs for document-level requests: it scans a whole note for
/// candidate mention spans, each of which then enters the chain as its
/// own query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Document-level span proposal over a tokenised note — runs once
    /// per document, before its proposed spans fan through the chain
    /// ([`crate::linker::Linker::link_document`]).
    Propose,
    /// Out-of-vocabulary query rewriting (Eq. 13) — the OR phase.
    Rewrite,
    /// TF-IDF candidate retrieval — the CR phase.
    Retrieve,
    /// Neural (or baseline) candidate scoring — the ED phase.
    Score,
    /// Prior blending, sorting, and tail placement — the RT phase.
    Rank,
}

/// Wall-clock of one executed stage.
#[derive(Debug, Clone, Copy)]
pub struct StageTiming {
    /// Which stage ran.
    pub kind: StageKind,
    /// How long its `run` took.
    pub wall: Duration,
}

/// How the Score stage used the frozen concept-encoding cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheUse {
    /// No cache applies: scoring was skipped, or the scorer (e.g. a
    /// baseline) does not consult one.
    #[default]
    Unconfigured,
    /// Candidates were served from the frozen cache.
    Served,
    /// The linker's cache was frozen from another model version or over
    /// another ontology, so scoring fell back to the uncached path.
    Stale,
}

/// A notable event recorded while serving one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A deadline expired mid-stage; remaining per-item work in that
    /// stage was skipped.
    DeadlineExpired {
        /// The stage whose deadline ran out.
        stage: StageKind,
    },
    /// Candidate retrieval panicked (isolated; yields an empty
    /// candidate set).
    RetrievePanicked,
    /// The Score stage was skipped at its boundary.
    ScoringSkipped {
        /// The CR budget was already exceeded when scoring would start.
        cr_over: bool,
        /// The whole-call deadline had already passed.
        call_deadline_passed: bool,
    },
    /// The Rank stage skipped the MAP prior lookup (Eq. 11 fell back
    /// to MLE) because the call deadline had passed and an `rt` budget
    /// was set.
    PriorSkipped,
    /// The request finished degraded (mirrors
    /// [`LinkResult::degradation`](super::LinkResult::degradation)).
    Degraded {
        /// The final degradation classification.
        degradation: Degradation,
    },
    /// The serving front end pre-degraded this request at admission:
    /// the observed queue depth had crossed a shedding watermark, so
    /// the request entered the pipeline on a lower rung of the PR-1
    /// degradation ladder before any stage ran. Always the trace's
    /// first event (the front end records it as a preamble).
    Shed {
        /// Queue depth observed at admission time.
        depth: usize,
        /// The rung the request was admitted at.
        rung: super::frontend::AdmissionRung,
    },
    /// The per-request deadline expired while the request was still
    /// waiting in the front-end queue; it was served with a zero
    /// remaining total budget (Phase-I answer only).
    QueuedPastDeadline {
        /// How long the request waited before a worker picked it up.
        queued: Duration,
    },
    /// The Propose stage accepted one candidate mention span —
    /// provenance for document-level requests (one event per proposal,
    /// in document order).
    SpanProposed {
        /// First note token of the span.
        start: usize,
        /// Span length in tokens.
        len: usize,
        /// How many of its tokens only matched the concept dictionary
        /// after an OOV rewrite (0 = pure dictionary span).
        rewrite_hits: usize,
    },
    /// The `doc.propose` fault site faulted while accepting one
    /// candidate span; that span was dropped. Spans accepted before the
    /// fault survive — a mid-document fault never voids the whole note.
    ProposeFaulted {
        /// First note token of the dropped span.
        start: usize,
    },
    /// The Propose stage hit its span cap
    /// ([`crate::serving::ProposeConfig::max_spans`], e.g. under
    /// front-end shedding): proposals beyond the cap were dropped.
    SpansDropped {
        /// Proposals kept (== the cap).
        kept: usize,
        /// Proposals found past the cap and dropped.
        dropped: usize,
    },
}

/// One query-rewriting decision (Eq. 13 with edit-distance fallback).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteDecision {
    /// The out-of-vocabulary token that was considered.
    pub token: String,
    /// Its replacement, or `None` when no acceptable target was found
    /// (the token passes through unchanged).
    pub replacement: Option<String>,
    /// Whether the outcome came from the per-linker rewrite memo.
    pub memo_hit: bool,
}

/// The unified trace of one linking request.
///
/// Replaces the coarse pre-PR-5 OR/CR/ED/RT timing quadruple: per-stage
/// wall-clock lives in [`LinkTrace::stages`] and is read back with
/// [`LinkTrace::stage_wall`].
#[derive(Debug, Clone, Default)]
pub struct LinkTrace {
    /// Wall-clock per executed stage, in execution order.
    pub stages: Vec<StageTiming>,
    /// Phase-I work counters (postings scored, heap evictions,
    /// rewrite-memo hit rates).
    pub retrieval: RetrievalStats,
    /// Every rewrite decision taken by the Rewrite stage, in token
    /// order (in-vocabulary tokens are not recorded).
    pub rewrites: Vec<RewriteDecision>,
    /// How the Score stage used the frozen concept cache.
    pub cache: CacheUse,
    /// Deadline, panic, skip, and degradation events, in order.
    pub events: Vec<TraceEvent>,
}

impl LinkTrace {
    /// Total wall-clock across `kind` stage executions (zero when the
    /// stage did not run).
    pub fn stage_wall(&self, kind: StageKind) -> Duration {
        self.stages
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.wall)
            .sum()
    }

    /// Total wall-clock across all recorded stages.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|s| s.wall).sum()
    }
}
