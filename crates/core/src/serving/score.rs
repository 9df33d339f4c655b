//! Stage 3 — **Score** (the paper's ED phase) and the pluggable
//! [`ScoreStage`] interface.
//!
//! COM-AID is the paper's Phase-II ranker, but the stage chain only
//! requires *some* conditional scorer `log p(q|c)` per candidate — the
//! `lr`/`doc2vec` baselines plug in behind the same interface (see
//! `ncl_baselines::AnnotatorScore`), inheriting the retrieval, budget,
//! and degradation machinery for free.

use super::ctx::RequestCtx;
use super::trace::{CacheUse, StageKind, TraceEvent};
use super::Stage;
use crate::linker::{min_deadline, Linker};
use ncl_ontology::ConceptId;
use std::time::Instant;

/// One scoring request, as seen by a pluggable scorer.
#[derive(Debug, Clone, Copy)]
pub struct ScoreRequest<'r> {
    /// The (rewritten) query tokens.
    pub query: &'r [String],
    /// Phase-I candidates in retrieval order.
    pub candidates: &'r [ConceptId],
    /// Deadline for the scoring work: candidates not reached before it
    /// must stay unscored. Scorers that cannot be cut mid-phase may
    /// ignore it (they then only degrade at the stage boundary).
    pub deadline: Option<Instant>,
}

/// What a scorer hands back to the chain.
#[derive(Debug, Clone)]
pub struct ScoreOutcome {
    /// Per-candidate scores, parallel to `ScoreRequest::candidates`
    /// (`None` = unscored). Shorter vectors are padded with `None`.
    pub scores: Vec<Option<f32>>,
    /// Scoring jobs lost to (isolated) panics.
    pub lost_jobs: usize,
    /// `true` when an unscored candidate means "judged a non-match by
    /// this scorer" rather than "work was shed": the degradation
    /// ladder then reports a full answer. COM-AID scores every
    /// candidate, so it sets `false`; subset-ranking baselines set
    /// `true`.
    pub unscored_is_nonmatch: bool,
    /// How the frozen concept cache was used (trace only).
    pub cache: CacheUse,
}

/// A pluggable Phase-II scorer: anything that can attach a
/// higher-is-better score to retrieved candidates.
///
/// Implementations must be deterministic for fixed inputs — the Rank
/// stage breaks score ties by concept id, so equal scores reproduce
/// identical rankings.
pub trait ScoreStage: Sync {
    /// Human-readable scorer name (for traces and experiment tables).
    fn name(&self) -> &str;
    /// Scores the candidates of one request.
    fn score(&self, req: ScoreRequest<'_>) -> ScoreOutcome;
}

/// The default scorer: COM-AID's `log p(q|c; Θ)` (Eq. 9/12), one
/// candidate at a time over the frozen concept cache — the same loop
/// whether or not the request carries a deadline or a fault plan
/// (`Linker::score_candidates`).
pub struct ComAidScore<'s, 'a> {
    pub(crate) linker: &'s Linker<'a>,
}

impl<'s, 'a> ComAidScore<'s, 'a> {
    /// The scorer `Linker::link` uses.
    pub fn new(linker: &'s Linker<'a>) -> Self {
        Self { linker }
    }
}

impl ScoreStage for ComAidScore<'_, '_> {
    fn name(&self) -> &str {
        "comaid"
    }

    fn score(&self, req: ScoreRequest<'_>) -> ScoreOutcome {
        let (scores, lost_jobs) =
            self.linker
                .score_candidates(req.candidates, req.query, req.deadline);
        let cache = if self.linker.cache_serves() {
            CacheUse::Served
        } else {
            CacheUse::Stale
        };
        ScoreOutcome {
            scores,
            lost_jobs,
            unscored_is_nonmatch: false,
            cache,
        }
    }
}

/// The Score stage: owns the boundary skip logic (CR overrun or an
/// already-passed call deadline skip scoring entirely) and delegates
/// the actual scoring to the pluggable [`ScoreStage`].
pub struct Score<'s> {
    pub(crate) scorer: &'s dyn ScoreStage,
}

impl Stage for Score<'_> {
    fn kind(&self) -> StageKind {
        StageKind::Score
    }

    fn run(&self, ctx: &mut RequestCtx<'_>) {
        let ed_deadline = min_deadline(
            ctx.call_deadline,
            ctx.budget.ed.map(|d| ctx.stage_started + d),
        );
        let call_deadline_passed = ctx.call_deadline.is_some_and(|d| Instant::now() >= d);
        if ctx.cr_over || call_deadline_passed {
            ctx.scores = vec![None; ctx.candidates.len()];
            ctx.lost_jobs = 0;
            ctx.trace.events.push(TraceEvent::ScoringSkipped {
                cr_over: ctx.cr_over,
                call_deadline_passed,
            });
            return;
        }
        let outcome = self.scorer.score(ScoreRequest {
            query: &ctx.rewritten,
            candidates: &ctx.candidates,
            deadline: ed_deadline,
        });
        let mut scores = outcome.scores;
        scores.resize(ctx.candidates.len(), None);
        ctx.scores = scores;
        ctx.lost_jobs = outcome.lost_jobs;
        ctx.unscored_is_nonmatch = outcome.unscored_is_nonmatch;
        ctx.trace.cache = outcome.cache;
    }
}
