//! The per-request context threaded through the stage chain.

use super::trace::LinkTrace;
use crate::faults::FaultPlan;
use crate::linker::{Degradation, LinkBudget, LinkResult};
use ncl_ontology::ConceptId;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// Everything one linking request owns while it flows through the
/// `Rewrite → Retrieve → Score → Rank` chain.
///
/// Ownership rules (see DESIGN.md §12): the context *borrows* the query
/// tokens and the immutable serving structures stay on the
/// [`crate::linker::Linker`]; every piece of mutable per-request state —
/// rewritten query, candidates, scores, degradation ladder inputs, and
/// the [`LinkTrace`] — lives here, so stages never mutate the linker
/// and one linker can serve many requests (including concurrently from
/// [`crate::serving::Frontend`] workers) without interference.
pub struct RequestCtx<'q> {
    /// The query as handed to `link` (already tokenised/normalised).
    pub(crate) tokens: &'q [String],
    /// The budgets this request runs under.
    pub(crate) budget: LinkBudget,
    /// The whole-call deadline derived from `budget.total`.
    pub(crate) call_deadline: Option<Instant>,
    /// The fault schedule consulted at the pipeline's fault sites.
    pub(crate) faults: Option<Arc<FaultPlan>>,
    /// When the currently-running stage started (set by the driver).
    pub(crate) stage_started: Instant,
    /// The query after the Rewrite stage; borrows the input when
    /// nothing was rewritten.
    pub(crate) rewritten: Cow<'q, [String]>,
    /// Phase-I candidates in retrieval order.
    pub(crate) candidates: Vec<ConceptId>,
    /// Whether candidate retrieval panicked (isolated).
    pub(crate) cr_panicked: bool,
    /// Whether the CR budget was exceeded (skips the Score stage).
    pub(crate) cr_over: bool,
    /// Per-candidate scores from the Score stage (`None` = unscored).
    pub(crate) scores: Vec<Option<f32>>,
    /// Scoring jobs lost to (isolated) panics.
    pub(crate) lost_jobs: usize,
    /// Whether an unscored candidate means "the scorer judged it a
    /// non-match" rather than "work was shed" — baselines may rank a
    /// subset without that being a degradation.
    pub(crate) unscored_is_nonmatch: bool,
    /// The final ranking produced by the Rank stage.
    pub(crate) ranked: Vec<(ConceptId, f32)>,
    /// The degradation classification produced by the Rank stage.
    pub(crate) degradation: Degradation,
    /// The unified observability trace.
    pub(crate) trace: LinkTrace,
}

impl<'q> RequestCtx<'q> {
    /// A fresh context for one request, clocked from `start`.
    pub(crate) fn new(
        tokens: &'q [String],
        budget: LinkBudget,
        faults: Option<Arc<FaultPlan>>,
        start: Instant,
    ) -> Self {
        Self {
            tokens,
            budget,
            call_deadline: budget.total.map(|d| start + d),
            faults,
            stage_started: start,
            rewritten: Cow::Borrowed(tokens),
            candidates: Vec::new(),
            cr_panicked: false,
            cr_over: false,
            scores: Vec::new(),
            lost_jobs: 0,
            unscored_is_nonmatch: false,
            ranked: Vec::new(),
            degradation: Degradation::None,
            trace: LinkTrace::default(),
        }
    }

    /// The input query tokens.
    pub fn tokens(&self) -> &[String] {
        self.tokens
    }

    /// The query after rewriting (equals the input before the Rewrite
    /// stage runs, or when nothing was out-of-vocabulary).
    pub fn rewritten(&self) -> &[String] {
        &self.rewritten
    }

    /// Phase-I candidates in retrieval order (empty before Retrieve).
    pub fn candidates(&self) -> &[ConceptId] {
        &self.candidates
    }

    /// The budgets this request runs under.
    pub fn budget(&self) -> LinkBudget {
        self.budget
    }

    /// The whole-call deadline, if `budget.total` is set.
    pub fn call_deadline(&self) -> Option<Instant> {
        self.call_deadline
    }

    /// The attached fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// The trace collected so far.
    pub fn trace(&self) -> &LinkTrace {
        &self.trace
    }

    /// Consumes the context into the public result.
    pub(crate) fn into_result(self) -> LinkResult {
        LinkResult {
            ranked: self.ranked,
            rewritten: self.rewritten.into_owned(),
            candidates: self.candidates,
            retrieval: self.trace.retrieval,
            degradation: self.degradation,
            trace: self.trace,
        }
    }
}
