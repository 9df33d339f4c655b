#![deny(missing_docs)]

//! The serving engine: one request is one function, `serve`.
//!
//! The paper's online linking (§5) is a short recipe — rewrite the
//! query (Eq. 13), retrieve `k` candidates by TF-IDF, rank them by
//! COM-AID's `p(q|c)` — with the cost model of Appendix B.1 laid over
//! it (OR → CR → ED → RT). `serve` is that recipe as four timed blocks,
//! `Rewrite → Retrieve → Score → Rank`, with the request's state in
//! locals; [`crate::linker::Linker::link`] and every other entry point
//! (batches, documents, the front end, baseline scorers) call it.
//!
//! Design rules (DESIGN.md §12):
//!
//! * **The linker is shared and immutable.** Everything a request
//!   mutates lives in `serve`'s locals; the linker's interior
//!   mutability is limited to lazily-built indexes, the rewrite memo
//!   and the first-touch cache freeze, all behaviour-transparent, so
//!   one linker serves many requests — concurrently, from
//!   [`frontend`] workers — without interference.
//! * **Checked against the equations.** A `#[cfg(test)]` reference
//!   linker written from PAPER.md Eq. 3–13 (`crate::reference`) is the
//!   oracle: one proptest walks the `cache_tier × warm × entry point ×
//!   cache-miss plan × variant` lattice against it, and
//!   `tests/golden/staged_serving.snap` pins the bits.
//! * **Scorers are pluggable.** Phase II is abstracted as
//!   [`ScoreStage`]; COM-AID ([`ComAidScore`]) is the default, and the
//!   `lr`/`doc2vec` baselines plug in via
//!   `ncl_baselines::AnnotatorScore`, inheriting retrieval, budgets,
//!   and the degradation ladder unchanged.
//! * **Tracing is observability-only.** Nothing branches on
//!   [`LinkTrace`]; recording it cannot perturb serving output.
//!
//! One request runs on the calling thread, and a batch or a document
//! is a loop over requests (`link_batch_within`), so an attached
//! [`crate::faults::FaultPlan`] replays deterministically over single
//! queries, batches and documents alike. Concurrency across requests
//! lives in one place, the [`frontend`]'s workers.
//!
//! On top of `serve` sits the open-loop serving front end
//! ([`frontend`], DESIGN.md §13): a bounded request queue with
//! watermark-driven admission control that pre-degrades or rejects
//! requests under load, per-request deadlines wired into the
//! [`LinkBudget`], and log-scale latency histograms
//! rolling up p50/p95/p99 per stage and end-to-end.
//!
//! Document-level requests put one extra stage in front
//! (DESIGN.md §17): span proposal ([`ProposeConfig`], [`SpanProposal`])
//! scans a whole tokenised note for candidate mention spans, and
//! [`crate::linker::Linker::link_document`] serves the proposals under
//! one shared note deadline, rolling the per-span traces up into a
//! [`DocumentResult`].

mod document;
pub mod frontend;
pub(crate) mod ontology_text;
mod propose;
mod request;
mod rewrite;
mod score;
mod trace;

pub use document::{DocumentResult, SpanLink};
pub use frontend::{
    AdmissionRung, Completion, DocumentCompletion, Frontend, FrontendConfig, FrontendStats,
    HistSummary, LatencyHistogram,
};
pub use propose::{ProposeConfig, SpanAnchor, SpanProposal};
pub use request::{Degradation, DegradeReason, LinkBudget, LinkResult, LinkerConfig};
pub use score::{ComAidScore, ScoreOutcome, ScoreRequest, ScoreStage};
pub use trace::{CacheUse, LinkTrace, RewriteDecision, StageKind, StageTiming, TraceEvent};

pub(crate) use document::{link_document, validate_document};
pub(crate) use propose::propose_spans;
pub(crate) use rewrite::Rewriter;

use crate::comaid::best_first;
use crate::linker::Linker;
use ncl_ontology::ConceptId;
use std::borrow::Cow;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The earlier of two optional deadlines.
fn min_deadline(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (x, None) | (None, x) => x,
    }
}

/// Serves one request — `Rewrite → Retrieve → Score → Rank`, each block
/// timed into the trace — with the given Phase-II scorer.
///
/// `budget` is usually the linker's own; the front end passes an
/// override to wire per-request deadlines (the remaining admission
/// budget) and shed-rung caps in without mutating the shared linker.
/// `preamble` carries admission-time [`TraceEvent`]s (shedding
/// decisions, queue deadline expiry) so they precede every event the
/// request itself records.
pub(crate) fn serve(
    linker: &Linker<'_>,
    tokens: &[String],
    scorer: &dyn ScoreStage,
    budget: LinkBudget,
    preamble: Vec<TraceEvent>,
) -> LinkResult {
    let start = Instant::now();
    let call_deadline = budget.total.map(|d| start + d);
    let mut trace = LinkTrace {
        events: preamble,
        ..LinkTrace::default()
    };
    let timed = |trace: &mut LinkTrace, kind: StageKind, t: Instant| {
        trace.stages.push(StageTiming {
            kind,
            wall: t.elapsed(),
        });
    };

    // Rewrite (OR): Eq. 13 per out-of-vocabulary token, cut off
    // mid-phase at the call deadline.
    let t = Instant::now();
    let rewritten: Cow<'_, [String]> = if linker.config().rewrite {
        linker
            .rewriter
            .rewrite(linker, tokens, call_deadline, &mut trace)
    } else {
        Cow::Borrowed(tokens)
    };
    timed(&mut trace, StageKind::Rewrite, t);

    // Retrieve (CR): TF-IDF cosine top-k over the fine-grained concept
    // documents. Panic-isolated: a fault here yields an empty candidate
    // set, not an abort.
    let t = Instant::now();
    let candidates = catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = &linker.faults {
            plan.visit("cr.topk");
        }
        linker.top_k_concepts(&rewritten, &mut trace.retrieval)
    }));
    let cr_panicked = candidates.is_err();
    if cr_panicked {
        trace.events.push(TraceEvent::RetrievePanicked);
    }
    let candidates = candidates.unwrap_or_default();
    timed(&mut trace, StageKind::Retrieve, t);

    // Score (ED): skipped entirely when the call deadline has already
    // passed; cut off mid-phase by the scorer otherwise.
    let t = Instant::now();
    let ed_deadline = min_deadline(call_deadline, budget.ed.map(|d| t + d));
    let outcome = if call_deadline.is_some_and(|d| Instant::now() >= d) {
        trace.events.push(TraceEvent::ScoringSkipped);
        ScoreOutcome {
            scores: Vec::new(),
            lost_jobs: 0,
            unscored_is_nonmatch: false,
            cache: CacheUse::Unconfigured,
        }
    } else {
        scorer.score(ScoreRequest {
            query: &rewritten,
            candidates: &candidates,
            deadline: ed_deadline,
        })
    };
    trace.cache = outcome.cache;
    // A scorer may answer short; what it did not reach is unscored.
    let mut scores = outcome.scores;
    scores.resize(candidates.len(), None);
    timed(&mut trace, StageKind::Score, t);

    // Rank (RT): MAP when a prior is installed (Eq. 11), otherwise pure
    // MLE (Eq. 12). A NaN score ranks nothing: it joins the unscored
    // tail, and the ladder reports it.
    let t = Instant::now();
    let mut nan_scores = 0;
    for (lp, &c) in scores.iter_mut().zip(&candidates) {
        *lp = lp.map(|lp| lp + linker.concept_log_prior(c));
        if lp.is_some_and(f32::is_nan) {
            *lp = None;
            nan_scores += 1;
        }
    }
    let mut ranked: Vec<(ConceptId, f32)> = candidates
        .iter()
        .zip(&scores)
        .filter_map(|(&c, lp)| Some((c, (*lp)?)))
        .collect();
    ranked.sort_by(|a, b| best_first(a.1, b.1).then(a.0.cmp(&b.0)));
    let scored = ranked.len();
    // Unscored tail: Phase-I TF-IDF order, explicitly unscored.
    ranked.extend(
        candidates
            .iter()
            .zip(&scores)
            .filter(|(_, lp)| lp.is_none())
            .map(|(&c, _)| (c, f32::NEG_INFINITY)),
    );
    let degradation = classify_degradation(
        budget,
        scored,
        candidates.len(),
        outcome.lost_jobs,
        nan_scores,
        cr_panicked,
        outcome.unscored_is_nonmatch,
    );
    if degradation.is_degraded() {
        trace.events.push(TraceEvent::Degraded { degradation });
    }
    timed(&mut trace, StageKind::Rank, t);

    LinkResult {
        ranked,
        rewritten: rewritten.into_owned(),
        candidates,
        retrieval: trace.retrieval,
        degradation,
        trace,
    }
}

/// Links each query in order on the calling thread, after one rewrite
/// prefetch over the whole batch. Each request's `total` budget is
/// `base.total` clipped to whatever remains of the shared `deadline`
/// *at the moment it starts* — this is how a document's whole-note
/// deadline covers every proposed span: spans served late in the note
/// see less budget and degrade down the ladder instead of overrunning
/// the note. [`Linker::link_batch`] is the `deadline: None` case.
pub(crate) fn link_batch_within(
    linker: &Linker<'_>,
    queries: &[&[String]],
    base: LinkBudget,
    deadline: Option<Instant>,
) -> Vec<LinkResult> {
    if queries.len() > 1 {
        linker.rewriter.prefetch_batch(linker, queries);
    }
    let scorer = ComAidScore::new(linker);
    queries
        .iter()
        .map(|q| {
            let mut budget = base;
            if let Some(d) = deadline {
                let remaining = d.saturating_duration_since(Instant::now());
                budget.total = Some(budget.total.map_or(remaining, |t| t.min(remaining)));
            }
            serve(linker, q, &scorer, budget, Vec::new())
        })
        .collect()
}

/// Summarises how far short of a full answer this call fell — the
/// degradation ladder shared by every scorer behind [`serve`]. Of the
/// reasons a candidate went unscored, lost jobs are reported first, then
/// NaN scores, then the deadline.
fn classify_degradation(
    budget: LinkBudget,
    scored: usize,
    total: usize,
    panicked: usize,
    nan_scores: usize,
    cr_panicked: bool,
    unscored_is_nonmatch: bool,
) -> Degradation {
    if cr_panicked {
        return Degradation::TfIdfOnly {
            reason: DegradeReason::WorkerPanic { lost_jobs: 1 },
        };
    }
    if total == 0 || scored == total {
        return Degradation::None;
    }
    // A scorer that deliberately ranks only a subset (e.g. a baseline
    // annotator) has not degraded — unless jobs were actually lost or a
    // score came back NaN.
    if panicked == 0 && nan_scores == 0 && unscored_is_nonmatch {
        return Degradation::None;
    }
    let reason = if panicked > 0 {
        DegradeReason::WorkerPanic {
            lost_jobs: panicked,
        }
    } else if nan_scores > 0 {
        DegradeReason::NanScore { count: nan_scores }
    } else {
        DegradeReason::Timeout {
            budget: budget.ed.or(budget.total).unwrap_or(Duration::ZERO),
        }
    };
    if scored == 0 {
        Degradation::TfIdfOnly { reason }
    } else {
        Degradation::PartialEd {
            scored,
            total,
            reason,
        }
    }
}

/// A normalised log-prior lookup table for MAP ranking (Eq. 11).
///
/// Zero or negative probabilities are clamped to a tiny floor so a
/// sparse frequency table never produces `-inf` scores; concepts absent
/// from the table receive the floor prior.
#[derive(Debug, Clone)]
pub(crate) struct PriorTable {
    log_prior: HashMap<ConceptId, f32>,
}

impl PriorTable {
    /// Builds the table from raw (concept, probability-mass) pairs.
    pub(crate) fn new(priors: &[(ConceptId, f32)]) -> Self {
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
    pub(crate) fn log_prior(&self, c: ConceptId) -> f32 {
        self.log_prior
            .get(&c)
            .copied()
            .unwrap_or_else(|| 1e-6f32.ln())
    }
}
