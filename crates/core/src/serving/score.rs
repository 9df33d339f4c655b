//! The pluggable Phase-II scorer interface ([`ScoreStage`]) and its
//! default, COM-AID ([`ComAidScore`]) — the paper's ED phase.
//!
//! COM-AID is the paper's Phase-II ranker, but a request only requires
//! *some* conditional scorer `log p(q|c)` per candidate — the
//! `lr`/`doc2vec` baselines plug in behind the same interface (see
//! `ncl_baselines::AnnotatorScore`), inheriting the retrieval, budget,
//! and degradation machinery for free.

use super::trace::CacheUse;
use crate::linker::Linker;
use ncl_ontology::ConceptId;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
/// candidate's whole query at a time over the frozen concept cache, on
/// the calling thread.
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

    /// Each candidate runs behind its own panic-isolation boundary, so
    /// a panicking candidate (model bug, injected fault) costs exactly
    /// that candidate's score, and candidates not started before the
    /// deadline stay unscored.
    ///
    /// Every request takes this one loop. The deadline is read before
    /// each candidate only when one is set, the `ed.score` fault site is
    /// visited only under a plan, and what is left is
    /// `ComAid::log_prob_prepared` over the linker's frozen cache —
    /// which serves by construction — with one request-scoped scratch:
    /// the query's decoder input projections are made once, and a
    /// candidate allocates nothing.
    fn score(&self, req: ScoreRequest<'_>) -> ScoreOutcome {
        let linker = self.linker;
        let (model, cache) = (linker.model, &*linker.cache);
        // The decoded word ids are candidate-independent; only the
        // counting mask differs (shared-word removal is per candidate).
        let ids = model.encode_words(req.query);
        let words = linker.shared_words.intern(req.query);
        let mut mask = vec![true; req.query.len()];
        let mut prepared = model.prepare_target(cache, &ids);

        let mut lost_jobs = 0usize;
        let mut scores: Vec<Option<f32>> = vec![None; req.candidates.len()];
        for (&c, out) in req.candidates.iter().zip(scores.iter_mut()) {
            if req.deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            if linker.config().remove_shared {
                linker.shared_words.mask(c, &words, &mut mask);
            }
            // A decode overwrites every scratch buffer before reading
            // it, so one a panic abandoned half-written is safe to
            // reuse for the next candidate.
            match catch_unwind(AssertUnwindSafe(|| {
                if let Some(plan) = &linker.faults {
                    plan.visit("ed.score");
                }
                model.log_prob_prepared(cache, c, &mut prepared, &mask)
            })) {
                Ok(lp) => *out = Some(lp),
                Err(_) => lost_jobs += 1,
            }
        }
        ScoreOutcome {
            scores,
            lost_jobs,
            unscored_is_nonmatch: false,
            cache: CacheUse::Served,
        }
    }
}
