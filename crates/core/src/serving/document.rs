//! Document-level linking: span proposal, then every proposed span
//! served under one shared note deadline.
//!
//! [`crate::linker::Linker::link_document`] turns a whole tokenised
//! clinical note into per-mention linking answers in three steps:
//!
//! 1. **Propose** ([`super::propose`]): scan the note for candidate
//!    mention spans using the TF-IDF concept dictionary plus the OOV
//!    rewrite machinery. The scan shares the note's deadline.
//! 2. **Link**: every proposed span becomes one ordinary request
//!    (`serving::serve`: `Rewrite → Retrieve → Score → Rank`), in note
//!    order, with the batch rewrite prefetch and the linker's one
//!    shared `PriorTable`. The note's deadline covers
//!    *all* spans: each span derives its remaining total budget when
//!    it starts, so late spans degrade down the ladder instead of
//!    overrunning the note.
//! 3. **Roll up**: per-span traces merge into one document-level
//!    [`LinkTrace`] (the Propose stage timing, per-stage wall-clock
//!    sums, merged Phase-I work counters, and every span's events in
//!    span order), and the document's [`Degradation`] is the worst of
//!    its spans'.
//!
//! Like `link`, `link_document` *degrades rather than fails*; the
//! validating twin [`crate::linker::Linker::try_link_document`] only
//! rejects notes that are empty after normalisation. A note with no
//! proposed spans (all filler) is a valid, empty answer — not an
//! error.

use super::link_batch_within;
use super::propose::{propose_spans, ProposeConfig, SpanProposal};
use super::trace::{CacheUse, LinkTrace, StageKind, StageTiming, TraceEvent};
use super::{Degradation, LinkBudget, LinkResult};
use crate::error::NclError;
use crate::linker::Linker;
use std::time::Instant;

/// One proposed span together with its linking answer.
#[derive(Debug, Clone)]
pub struct SpanLink {
    /// Where the span sits in the note and how it was proposed.
    pub proposal: SpanProposal,
    /// The linking answer for the span's tokens.
    pub result: LinkResult,
}

/// The document-level linking answer: one [`SpanLink`] per proposed
/// span (in note order) plus the rolled-up trace and degradation.
#[derive(Debug, Clone)]
pub struct DocumentResult {
    /// Per-span answers, sorted by span start, non-overlapping.
    pub spans: Vec<SpanLink>,
    /// The document-level trace: the Propose stage timing, one summed
    /// [`StageTiming`] per chain stage that ran, merged Phase-I work
    /// counters, and the concatenated span events (document events
    /// first, then each span's, in span order).
    pub trace: LinkTrace,
    /// The worst degradation any span finished with
    /// ([`Degradation::None`] for an empty note).
    pub degradation: Degradation,
}

impl DocumentResult {
    /// Number of linked spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no spans were proposed (an all-filler note).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Ladder position for worst-of rollups (higher = more degraded).
fn severity(d: &Degradation) -> u8 {
    match d {
        Degradation::None => 0,
        Degradation::PartialEd { .. } => 1,
        Degradation::TfIdfOnly { .. } => 2,
    }
}

/// Drives one document request; see [`Linker::link_document`]. The
/// `preamble` carries admission-time events from the serving front
/// end, exactly as `serve` does for single queries.
pub(crate) fn link_document(
    linker: &Linker<'_>,
    tokens: &[String],
    config: &ProposeConfig,
    budget: LinkBudget,
    preamble: Vec<TraceEvent>,
) -> DocumentResult {
    let start = Instant::now();
    let deadline = budget.total.map(|t| start + t);
    let mut trace = LinkTrace {
        events: preamble,
        ..LinkTrace::default()
    };

    let t0 = Instant::now();
    let proposals = propose_spans(linker, tokens, config, deadline, &mut trace);
    trace.stages.push(StageTiming {
        kind: StageKind::Propose,
        wall: t0.elapsed(),
    });

    let queries: Vec<&[String]> = proposals
        .iter()
        .map(|s| &tokens[s.start..s.end()])
        .collect();
    let results = link_batch_within(linker, &queries, budget, deadline);

    // Roll the per-span traces up into the document trace.
    let mut stage_walls = [std::time::Duration::ZERO; 4];
    let mut ran = [false; 4];
    let mut degradation = Degradation::None;
    let mut spans = Vec::with_capacity(results.len());
    for (proposal, result) in proposals.into_iter().zip(results) {
        for s in &result.trace.stages {
            let i = match s.kind {
                StageKind::Propose => continue,
                StageKind::Rewrite => 0,
                StageKind::Retrieve => 1,
                StageKind::Score => 2,
                StageKind::Rank => 3,
            };
            stage_walls[i] += s.wall;
            ran[i] = true;
        }
        trace.retrieval.merge(&result.trace.retrieval);
        trace.rewrites.extend(result.trace.rewrites.iter().cloned());
        trace.events.extend(result.trace.events.iter().cloned());
        // Worst cache outcome across spans: a single stale span means
        // the document partially fell off the cached path.
        trace.cache = match (trace.cache, result.trace.cache) {
            (CacheUse::Stale, _) | (_, CacheUse::Stale) => CacheUse::Stale,
            (CacheUse::Served, _) | (_, CacheUse::Served) => CacheUse::Served,
            _ => CacheUse::Unconfigured,
        };
        if severity(&result.degradation) > severity(&degradation) {
            degradation = result.degradation;
        }
        spans.push(SpanLink { proposal, result });
    }
    let kinds = [
        StageKind::Rewrite,
        StageKind::Retrieve,
        StageKind::Score,
        StageKind::Rank,
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        if ran[i] {
            trace.stages.push(StageTiming {
                kind,
                wall: stage_walls[i],
            });
        }
    }

    DocumentResult {
        spans,
        trace,
        degradation,
    }
}

/// The one refusal of the document entry points
/// ([`Linker::try_link_document`], `Frontend::submit_document`): a note
/// that is empty after normalisation.
pub(crate) fn validate_document(tokens: &[String]) -> Result<(), NclError> {
    if tokens.iter().all(|t| t.trim().is_empty()) {
        return Err(NclError::InvalidQuery {
            reason: "note is empty after normalisation".into(),
        });
    }
    Ok(())
}
