#![deny(missing_docs)]

//! The staged serving engine: `Rewrite → Retrieve → Score → Rank`.
//!
//! The paper's online linking (§5) is explicitly two-phase — Phase I
//! keyword retrieval feeding Phase II COM-AID ranking — and this module
//! gives the implementation the same seams: each phase is a [`Stage`]
//! that reads and writes one [`RequestCtx`], the context carries the
//! query, budgets, fault handle, degradation ladder state, and the
//! unified [`LinkTrace`], and [`crate::linker::Linker::link`] is a thin
//! driver over the four-stage chain.
//!
//! Design rules (DESIGN.md §12):
//!
//! * **Stages own behaviour, the context owns state.** A stage may read
//!   anything on the context and the linker, but all per-request
//!   mutation goes through the context — the linker stays shared and
//!   immutable (its interior mutability is limited to lazily-built
//!   indexes and the rewrite memo, both behaviour-transparent).
//! * **The chain is bit-identical to the pre-refactor monolith.** Stage
//!   boundaries sit exactly where the monolith's phase boundaries sat;
//!   moving code across a boundary is only legal when it cannot change
//!   ranked ids, score bits, tie-breaks, or degradation decisions.
//!   `Linker::link_oracle` keeps the monolith body in-tree and the
//!   `staged_serving` tests assert equivalence (golden snapshot +
//!   proptests, with and without fault plans).
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
//! On top of the chain sits the open-loop serving front end
//! ([`frontend`], DESIGN.md §13): a bounded request queue with
//! watermark-driven admission control that pre-degrades or rejects
//! requests under load, per-request deadlines wired into the
//! [`crate::linker::LinkBudget`], and log-scale latency histograms
//! rolling up p50/p95/p99 per stage and end-to-end.
//!
//! Document-level requests put one extra stage in front of the chain
//! (DESIGN.md §17): span proposal ([`ProposeConfig`], [`SpanProposal`])
//! scans a whole tokenised note for candidate mention spans, and
//! [`crate::linker::Linker::link_document`] sends the proposals through
//! the chain under one shared note deadline, rolling the per-span
//! traces up into a [`DocumentResult`].

mod ctx;
mod document;
pub mod frontend;
pub(crate) mod ontology_text;
mod propose;
mod rank;
mod retrieve;
mod rewrite;
mod score;
mod trace;

pub use ctx::RequestCtx;
pub use document::{DocumentResult, SpanLink};
pub use frontend::{
    AdmissionRung, Completion, DocumentCompletion, Frontend, FrontendConfig, FrontendStats,
    HistSummary, LatencyHistogram,
};
pub use propose::{ProposeConfig, SpanAnchor, SpanProposal};
pub use score::{ComAidScore, ScoreOutcome, ScoreRequest, ScoreStage};
pub use trace::{CacheUse, LinkTrace, RewriteDecision, StageKind, StageTiming, TraceEvent};

pub(crate) use document::link_document;
pub(crate) use propose::propose_spans;
pub(crate) use rank::classify_degradation;

use crate::error::NclError;
use crate::linker::{LinkBudget, LinkResult, Linker};
use std::time::Instant;

/// One stage of the serving chain. Stages are stateless between
/// requests: `run` reads the linker's shared structures and mutates
/// only the per-request [`RequestCtx`].
pub trait Stage {
    /// Which chain position this stage fills (keys its trace entries).
    fn kind(&self) -> StageKind;
    /// Executes the stage against one request context.
    fn run(&self, ctx: &mut RequestCtx<'_>);
}

/// Drives one request through the four-stage chain with the given
/// Phase-II scorer, timing each stage into the trace.
pub(crate) fn drive(linker: &Linker<'_>, tokens: &[String], scorer: &dyn ScoreStage) -> LinkResult {
    drive_with(linker, tokens, scorer, linker.config().budget, Vec::new())
}

/// [`drive`] with a caller-supplied [`LinkBudget`] override and trace
/// preamble. The override is how the front end wires per-request
/// deadlines (the remaining admission budget) and shed-rung budget caps
/// into the chain without mutating the shared linker; the preamble
/// carries admission-time [`TraceEvent`]s (shedding decisions, queue
/// deadline expiry) so they appear in the unified trace *before* any
/// stage event, preserving event order.
pub(crate) fn drive_with(
    linker: &Linker<'_>,
    tokens: &[String],
    scorer: &dyn ScoreStage,
    budget: LinkBudget,
    preamble: Vec<TraceEvent>,
) -> LinkResult {
    let start = Instant::now();
    let mut ctx = RequestCtx::new(tokens, budget, linker.faults.clone(), start);
    ctx.trace.events = preamble;
    let rewrite = rewrite::Rewrite { linker };
    let retrieve = retrieve::Retrieve { linker };
    let score = score::Score { scorer };
    let rank = rank::Rank { linker };
    let stages: [&dyn Stage; 4] = [&rewrite, &retrieve, &score, &rank];
    for stage in stages {
        let t = Instant::now();
        ctx.stage_started = t;
        stage.run(&mut ctx);
        ctx.trace.stages.push(trace::StageTiming {
            kind: stage.kind(),
            wall: t.elapsed(),
        });
    }
    ctx.into_result()
}

/// The per-request budget of one batched query: the base budget, with
/// `total` clipped to whatever remains of the shared deadline *at the
/// moment this request starts*. With no deadline the base budget passes
/// through unchanged — `link_batch` is exactly the `deadline: None`
/// case of [`link_batch_within`].
fn request_budget(base: LinkBudget, deadline: Option<Instant>) -> LinkBudget {
    let mut b = base;
    if let Some(d) = deadline {
        let remaining = d.saturating_duration_since(Instant::now());
        b.total = Some(b.total.map_or(remaining, |t| t.min(remaining)));
    }
    b
}

/// Links each query; see [`Linker::link_batch`].
pub(crate) fn link_batch(linker: &Linker<'_>, queries: &[&[String]]) -> Vec<LinkResult> {
    link_batch_within(linker, queries, linker.config().budget, None)
}

/// Deadline-aware batch: like [`link_batch`], but each request derives
/// its remaining `total` budget from the shared `deadline` at the
/// moment it starts. This is how a document's whole-note deadline
/// covers every proposed span — spans served late in the note see less
/// budget and degrade down the PR-1 ladder instead of overrunning the
/// note's deadline.
pub(crate) fn link_batch_within(
    linker: &Linker<'_>,
    queries: &[&[String]],
    base: LinkBudget,
    deadline: Option<Instant>,
) -> Vec<LinkResult> {
    // Prime the shared rewrite memo for the whole batch in one blocked
    // matrix pass before any request runs: per-request rewrite stages
    // then pay only hash lookups instead of one nearest-neighbour
    // dispatch per query's worth of new OOV tokens.
    if queries.len() > 1 {
        linker.prefetch_rewrites_batch(queries);
    }
    let scorer = ComAidScore::new(linker);
    queries
        .iter()
        .map(|q| {
            drive_with(
                linker,
                q,
                &scorer,
                request_budget(base, deadline),
                Vec::new(),
            )
        })
        .collect()
}

/// Validating batch entry point; see [`Linker::try_link_batch`].
pub(crate) fn try_link_batch(
    linker: &Linker<'_>,
    queries: &[Vec<String>],
) -> Vec<Result<LinkResult, NclError>> {
    let verdicts: Vec<Option<NclError>> = queries
        .iter()
        .map(|q| linker.validate_query(q).err())
        .collect();
    let valid: Vec<&[String]> = queries
        .iter()
        .zip(&verdicts)
        .filter(|(_, e)| e.is_none())
        .map(|(q, _)| q.as_slice())
        .collect();
    let mut linked = link_batch(linker, &valid).into_iter();
    verdicts
        .into_iter()
        .map(|e| match e {
            Some(e) => Err(e),
            None => Ok(linked.next().expect("one result per valid query")),
        })
        .collect()
}
