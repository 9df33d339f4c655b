//! The open-loop serving front end: admission control, load shedding,
//! and tail-latency histograms over the staged engine (DESIGN.md §13).
//!
//! Everything below the front end is *closed-loop*: `link` and
//! `link_batch` are called, run, and return. A deployed linker faces
//! **open-loop** arrivals — requests show up on their own clock, and
//! when they arrive faster than the linker drains them, a system
//! without admission control grows an unbounded queue and every
//! request's latency diverges. The front end makes overload a
//! first-class, *graceful* regime instead:
//!
//! * A hand-rolled bounded MPMC queue (`queue.rs`) feeds worker loops
//!   running on the PR-3 [`WorkerPool`] (via
//!   [`WorkerPool::run_with`], so the submitting thread keeps
//!   submitting while the workers drain).
//! * **Admission control** reads the observed queue depth at submit
//!   time and walks arriving requests down the PR-1 degradation
//!   ladder: below [`FrontendConfig::degrade_watermark`] requests run
//!   the full two-phase answer; at or above it their ED budget is
//!   capped ([`FrontendConfig::partial_ed_budget`] →
//!   `Degradation::PartialEd` under pressure); at or above
//!   [`FrontendConfig::shed_watermark`] ED is skipped outright
//!   (`Degradation::TfIdfOnly` — the Phase-I ranking the paper's §5
//!   pipeline always computes first); and when the queue is at its
//!   hard ceiling ([`FrontendConfig::queue_capacity`]) the request is
//!   **rejected** with [`NclError::Overloaded`] carrying a
//!   retry-after hint. Every pre-degradation is recorded as a
//!   [`TraceEvent::Shed`] preamble in the request's unified trace.
//! * **Per-request deadlines**: [`FrontendConfig::deadline`] is
//!   stamped at admission, so time spent queued counts against the
//!   request's [`crate::serving::LinkBudget`] — a request that waited its deadline
//!   out is served as a Phase-I-only answer (with
//!   [`TraceEvent::QueuedPastDeadline`]), never silently dropped.
//! * **Tail-latency histograms** ([`hist`]): queue wait, end-to-end,
//!   and per-stage wall-clock roll up to p50/p95/p99 in the
//!   [`FrontendStats`] snapshot; each worker records into a private
//!   histogram merged at loop exit, so the serving path takes no
//!   shared lock per request.
//!
//! The invariant the `fig18_open_loop` benchmark gates: **zero
//! requests lost without a typed error or degradation marker** —
//! every submission either completes (possibly degraded, and marked
//! so) or is rejected with [`NclError::Overloaded`] /
//! [`NclError::InvalidQuery`].
//!
//! Fault site: `frontend.queue` is consulted on every submission; an
//! injected I/O fault forces the overload path deterministically
//! (tests reject without needing to actually fill the queue).

pub mod hist;
mod queue;

pub use hist::{HistSummary, LatencyHistogram};

use super::validate_document;
use crate::comaid::CacheMemoryReport;
use crate::error::NclError;
use crate::linker::Linker;
use crate::serving::LinkResult;

use super::document::{link_document, DocumentResult};
use super::propose::ProposeConfig;
use super::score::ComAidScore;
use super::trace::{StageKind, TraceEvent};
use ncl_tensor::pool::WorkerPool;
use queue::{BoundedQueue, PushError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Knobs of the serving front end.
#[derive(Debug, Clone, Copy)]
pub struct FrontendConfig {
    /// Hard admission ceiling: the bounded queue's capacity. A request
    /// arriving at a full queue is rejected with
    /// [`NclError::Overloaded`]. Clamped to ≥ 1.
    pub queue_capacity: usize,
    /// Observed depth at/above which admitted requests are
    /// pre-degraded one rung: their ED budget is capped at
    /// [`FrontendConfig::partial_ed_budget`].
    pub degrade_watermark: usize,
    /// Observed depth at/above which admitted requests are shed to the
    /// bottom rung: ED is skipped (zero budget), serving the Phase-I
    /// TF-IDF ranking only.
    pub shed_watermark: usize,
    /// End-to-end deadline per request, stamped at admission — queue
    /// wait spends it just like serving does. `None` = no deadline.
    pub deadline: Option<Duration>,
    /// The ED budget cap applied on the [`AdmissionRung::PartialEd`]
    /// rung (an existing smaller configured `ed` budget wins).
    pub partial_ed_budget: Duration,
    /// Worker loops draining the queue, run on the front end's own
    /// [`WorkerPool`]. `0` switches to **inline serving**: `submit`
    /// links synchronously on the caller's thread (no queue, depth
    /// always 0) — the deterministic mode tests use.
    pub workers: usize,
    /// The back-off hint carried on [`NclError::Overloaded`]
    /// rejections.
    pub retry_after: Duration,
    /// Span cap applied to **document** requests admitted on the
    /// [`AdmissionRung::TfIdfOnly`] rung (`None` = never drop spans).
    /// Document shedding degrades per-span budgets first (the same
    /// ladder single queries walk); only at the bottom rung are
    /// proposals beyond this cap dropped — and every drop is recorded
    /// as [`TraceEvent::SpansDropped`] in the document's trace, never
    /// silently.
    pub shed_span_cap: Option<usize>,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            degrade_watermark: 8,
            shed_watermark: 24,
            deadline: Some(Duration::from_millis(250)),
            partial_ed_budget: Duration::from_millis(25),
            workers: 4,
            retry_after: Duration::from_millis(25),
            shed_span_cap: Some(16),
        }
    }
}

impl FrontendConfig {
    /// The admission decision at an observed queue depth — the
    /// watermark ladder in one place.
    pub fn rung_for(&self, depth: usize) -> AdmissionRung {
        if depth >= self.shed_watermark {
            AdmissionRung::TfIdfOnly
        } else if depth >= self.degrade_watermark {
            AdmissionRung::PartialEd
        } else {
            AdmissionRung::Full
        }
    }
}

/// The degradation-ladder rung a request was admitted at. Ordered:
/// later variants are more degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AdmissionRung {
    /// Below every watermark: the full two-phase answer.
    Full,
    /// At/above the degrade watermark: ED budget capped.
    PartialEd,
    /// At/above the shed watermark: ED skipped, Phase-I ranking only.
    TfIdfOnly,
}

impl AdmissionRung {
    /// Short label for tables and logs.
    pub fn name(self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::PartialEd => "partial_ed",
            Self::TfIdfOnly => "tfidf_only",
        }
    }
}

/// What one queue slot carries: a single mention query or a whole
/// note. The document is a first-class admission unit — one slot, one
/// deadline covering every span it proposes.
enum Payload {
    Query(Vec<String>),
    Document(Vec<String>),
}

/// One request as it sits in the queue.
struct QueuedRequest {
    id: u64,
    payload: Payload,
    rung: AdmissionRung,
    depth: usize,
    admitted: Instant,
    deadline: Option<Instant>,
}

/// The served outcome of one admitted request, tagged with the
/// front-end metadata a load generator needs for accounting.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The submission id returned by [`Frontend::submit`].
    pub id: u64,
    /// The rung the request was admitted at.
    pub rung: AdmissionRung,
    /// Time spent waiting in the queue before a worker picked it up.
    pub queued: Duration,
    /// Admission-to-completion wall-clock.
    pub total: Duration,
    /// The linking answer (its `degradation` marker reflects both the
    /// admission rung and anything that happened while serving).
    pub result: LinkResult,
}

/// The served outcome of one admitted **document** request.
#[derive(Debug, Clone)]
pub struct DocumentCompletion {
    /// The submission id returned by [`Frontend::submit_document`].
    pub id: u64,
    /// The rung the document was admitted at.
    pub rung: AdmissionRung,
    /// Time spent waiting in the queue before a worker picked it up.
    pub queued: Duration,
    /// Admission-to-completion wall-clock for the whole note.
    pub total: Duration,
    /// The document-level answer: one result per proposed span, with
    /// the rolled-up trace and worst-of-spans degradation.
    pub result: DocumentResult,
}

/// Monotonic counters, snapshotted into [`FrontendStats`].
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    invalid: AtomicU64,
    rejected: AtomicU64,
    admitted_full: AtomicU64,
    admitted_partial: AtomicU64,
    admitted_shed: AtomicU64,
    completed: AtomicU64,
    queued_past_deadline: AtomicU64,
    doc_submitted: AtomicU64,
    doc_completed: AtomicU64,
    doc_spans_linked: AtomicU64,
}

/// The histogram set one worker (or the pooled roll-up) maintains.
struct HistSet {
    queue_wait: LatencyHistogram,
    e2e: LatencyHistogram,
    doc_e2e: LatencyHistogram,
    /// Indexed by chain order: Propose, Rewrite, Retrieve, Score, Rank.
    stages: [LatencyHistogram; 5],
}

impl HistSet {
    fn new() -> Self {
        Self {
            queue_wait: LatencyHistogram::new(),
            e2e: LatencyHistogram::new(),
            doc_e2e: LatencyHistogram::new(),
            stages: [
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
            ],
        }
    }

    fn stage_mut(&mut self, kind: StageKind) -> &mut LatencyHistogram {
        let i = match kind {
            StageKind::Propose => 0,
            StageKind::Rewrite => 1,
            StageKind::Retrieve => 2,
            StageKind::Score => 3,
            StageKind::Rank => 4,
        };
        &mut self.stages[i]
    }

    fn merge(&mut self, other: &Self) {
        self.queue_wait.merge(&other.queue_wait);
        self.e2e.merge(&other.e2e);
        self.doc_e2e.merge(&other.doc_e2e);
        for (a, b) in self.stages.iter_mut().zip(other.stages.iter()) {
            a.merge(b);
        }
    }
}

/// A point-in-time snapshot of the front end's counters and latency
/// roll-ups ([`Frontend::stats`]).
///
/// Accounting invariant (after a serve window has drained):
/// `submitted == completed + rejected + invalid`.
#[derive(Debug, Clone)]
pub struct FrontendStats {
    /// Total `submit` calls.
    pub submitted: u64,
    /// Submissions refused as [`NclError::InvalidQuery`].
    pub invalid: u64,
    /// Submissions refused as [`NclError::Overloaded`] (hard ceiling
    /// or injected `frontend.queue` fault).
    pub rejected: u64,
    /// Admissions on the [`AdmissionRung::Full`] rung.
    pub admitted_full: u64,
    /// Admissions pre-degraded to [`AdmissionRung::PartialEd`].
    pub admitted_partial: u64,
    /// Admissions shed to [`AdmissionRung::TfIdfOnly`].
    pub admitted_shed: u64,
    /// Requests served to completion (degraded or not).
    pub completed: u64,
    /// Completions whose deadline had already expired when a worker
    /// picked them up (served as Phase-I-only answers).
    pub queued_past_deadline: u64,
    /// Calls to [`Frontend::submit_document`] (whether admitted,
    /// rejected, or invalid); also counted in `submitted`.
    pub doc_submitted: u64,
    /// Document requests served to completion; also counted in
    /// `completed`.
    pub doc_completed: u64,
    /// Spans linked across all completed documents.
    pub doc_spans_linked: u64,
    /// Queue depth at snapshot time.
    pub depth: usize,
    /// Time requests spent queued.
    pub queue_wait: HistSummary,
    /// Admission-to-completion latency of single-query requests.
    pub e2e: HistSummary,
    /// Admission-to-completion latency of document requests.
    pub doc_e2e: HistSummary,
    /// Propose-stage (document span proposal) wall-clock.
    pub propose: HistSummary,
    /// Rewrite-stage (OR) wall-clock.
    pub rewrite: HistSummary,
    /// Retrieve-stage (CR) wall-clock.
    pub retrieve: HistSummary,
    /// Score-stage (ED) wall-clock.
    pub score: HistSummary,
    /// Rank-stage (RT) wall-clock.
    pub rank: HistSummary,
    /// Resident-memory report of the linker's frozen concept cache
    /// ([`ConceptCache::memory_report`](crate::comaid::ConceptCache::memory_report)).
    /// The snapshot covers the shards frozen so far, so successive
    /// snapshots show the cache warming chapter by chapter.
    pub cache: CacheMemoryReport,
}

impl FrontendStats {
    /// The fraction of submissions that were shed or rejected — the
    /// quantity `fig18_open_loop` asserts rises monotonically past
    /// saturation (0 when nothing was submitted).
    pub fn shed_fraction(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        (self.rejected + self.admitted_shed) as f64 / self.submitted as f64
    }
}

/// The open-loop serving front end over one [`Linker`] (see the
/// module docs for the design).
///
/// Lifecycle: construct with [`Frontend::new`], then call
/// [`Frontend::serve`] with a closure that drives [`Frontend::submit`]
/// from the open-loop arrival process; when the closure returns, the
/// queue closes, the workers drain it, and `serve` returns. Stats and
/// completions are read afterwards (or live, for counters). With
/// `workers == 0` there is no queue to drain — `submit` serves
/// synchronously and `serve` merely runs the closure.
pub struct Frontend<'f, 'a> {
    linker: &'f Linker<'a>,
    config: FrontendConfig,
    /// The front end's pool (the PR-3 [`WorkerPool`] type):
    /// `workers` spawned loops plus the submitting caller. Deliberately
    /// not capped by the host core count — queue-depth-driven
    /// shedding must work (and be testable) even on small hosts, where
    /// oversubscribed worker loops still drain the queue while the
    /// submitter sleeps between arrivals.
    pool: WorkerPool,
    queue: BoundedQueue<QueuedRequest>,
    next_id: AtomicU64,
    counters: Counters,
    hists: Mutex<HistSet>,
    completions: Mutex<Vec<Completion>>,
    doc_completions: Mutex<Vec<DocumentCompletion>>,
}

impl<'f, 'a> Frontend<'f, 'a> {
    /// Builds a front end over `linker`.
    ///
    /// # Panics
    /// Panics when the watermark ladder is inconsistent
    /// (`degrade_watermark > shed_watermark` or
    /// `shed_watermark > queue_capacity`).
    pub fn new(linker: &'f Linker<'a>, config: FrontendConfig) -> Self {
        assert!(
            config.degrade_watermark <= config.shed_watermark,
            "frontend: degrade_watermark ({}) must not exceed shed_watermark ({})",
            config.degrade_watermark,
            config.shed_watermark
        );
        assert!(
            config.shed_watermark <= config.queue_capacity,
            "frontend: shed_watermark ({}) must not exceed queue_capacity ({})",
            config.shed_watermark,
            config.queue_capacity
        );
        // The queue starts closed: before (or between) serve windows
        // there is nothing draining it, so parking a request would
        // strand it — submissions outside a window are refused as
        // overload instead. `serve` opens it.
        let queue = BoundedQueue::new(config.queue_capacity);
        queue.close();
        Self {
            linker,
            config,
            pool: WorkerPool::new(config.workers + 1),
            queue,
            next_id: AtomicU64::new(0),
            counters: Counters::default(),
            hists: Mutex::new(HistSet::new()),
            completions: Mutex::new(Vec::new()),
            doc_completions: Mutex::new(Vec::new()),
        }
    }

    /// The configuration this front end runs under.
    pub fn config(&self) -> &FrontendConfig {
        &self.config
    }

    /// Submits one request to the front end; returns its submission id.
    ///
    /// Never blocks. The typed refusals:
    /// [`NclError::InvalidQuery`] (validation — same rules as
    /// [`Linker::try_link`]) and [`NclError::Overloaded`] (queue at the
    /// hard ceiling, queue not being served, or an injected
    /// `frontend.queue` fault). With `workers == 0` the request is
    /// served synchronously before returning.
    pub fn submit(&self, tokens: Vec<String>) -> Result<u64, NclError> {
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.linker.validate_query(&tokens) {
            self.counters.invalid.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        self.admit(Payload::Query(tokens))
    }

    /// Submits one whole tokenised note as a **single admission
    /// unit**: one queue slot, one admission rung, and one deadline
    /// covering span proposal *and* every proposed span. Shedding
    /// degrades the per-span budgets down the same ladder single
    /// queries walk; spans are dropped only on the bottom rung (capped
    /// at [`FrontendConfig::shed_span_cap`], recorded in the trace).
    ///
    /// The typed refusals mirror [`Frontend::submit`], except there is
    /// no length cap — only notes empty after normalisation are
    /// [`NclError::InvalidQuery`]. Completions arrive via
    /// [`Frontend::take_document_completions`].
    pub fn submit_document(&self, tokens: Vec<String>) -> Result<u64, NclError> {
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        self.counters.doc_submitted.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = validate_document(&tokens) {
            self.counters.invalid.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        self.admit(Payload::Document(tokens))
    }

    /// The shared admission path behind both submit entry points:
    /// fault site, watermark rung, queue push (or inline serving).
    fn admit(&self, payload: Payload) -> Result<u64, NclError> {
        // The forced-overload fault site: an injected I/O error models
        // admission refusing a request regardless of actual depth.
        if let Some(plan) = &self.linker.faults {
            if plan.visit_io("frontend.queue").is_err() {
                return Err(self.reject(self.queue.len()));
            }
        }
        let depth = if self.config.workers == 0 {
            0
        } else {
            self.queue.len()
        };
        let rung = self.config.rung_for(depth);
        let admitted = Instant::now();
        let req = QueuedRequest {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            payload,
            rung,
            depth,
            admitted,
            deadline: self.config.deadline.map(|d| admitted + d),
        };
        let id = req.id;
        if self.config.workers == 0 {
            self.count_admission(rung);
            let mut hists = self.hists.lock().expect("frontend hists poisoned");
            self.process(req, &mut hists);
            return Ok(id);
        }
        match self.queue.try_push(req) {
            Ok(_) => {
                self.count_admission(rung);
                Ok(id)
            }
            Err(PushError::Full { depth }) => Err(self.reject(depth)),
            Err(PushError::Closed) => Err(self.reject(self.queue.len())),
        }
    }

    /// Runs `body` (the open-loop arrival process calling
    /// [`Frontend::submit`]) while `workers` loops drain the queue on
    /// the front end's own pool; returns `body`'s value once the
    /// queue has fully drained. The queue closes when `body` returns
    /// **or unwinds** (close-on-drop guard), so the worker loops
    /// always terminate.
    pub fn serve<R>(&self, body: impl FnOnce() -> R) -> R {
        if self.config.workers == 0 {
            return body();
        }
        self.queue.open();
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..self.config.workers)
            .map(|_| {
                let this: &Self = self;
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || this.worker_loop());
                job
            })
            .collect();
        self.pool.run_with(jobs, || {
            struct CloseOnDrop<'g, T>(&'g BoundedQueue<T>);
            impl<T> Drop for CloseOnDrop<'_, T> {
                fn drop(&mut self) {
                    self.0.close();
                }
            }
            let _guard = CloseOnDrop(&self.queue);
            body()
        })
    }

    /// A snapshot of the counters and latency roll-ups. Counters are
    /// live at any time; the histogram summaries are complete once
    /// [`Frontend::serve`] has returned (workers merge their private
    /// histograms at loop exit).
    pub fn stats(&self) -> FrontendStats {
        let h = self.hists.lock().expect("frontend hists poisoned");
        let c = &self.counters;
        FrontendStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            invalid: c.invalid.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            admitted_full: c.admitted_full.load(Ordering::Relaxed),
            admitted_partial: c.admitted_partial.load(Ordering::Relaxed),
            admitted_shed: c.admitted_shed.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            queued_past_deadline: c.queued_past_deadline.load(Ordering::Relaxed),
            doc_submitted: c.doc_submitted.load(Ordering::Relaxed),
            doc_completed: c.doc_completed.load(Ordering::Relaxed),
            doc_spans_linked: c.doc_spans_linked.load(Ordering::Relaxed),
            depth: self.queue.len(),
            queue_wait: h.queue_wait.summary(),
            e2e: h.e2e.summary(),
            doc_e2e: h.doc_e2e.summary(),
            propose: h.stages[0].summary(),
            rewrite: h.stages[1].summary(),
            retrieve: h.stages[2].summary(),
            score: h.stages[3].summary(),
            rank: h.stages[4].summary(),
            cache: self.linker.cache.memory_report(),
        }
    }

    /// Drains and returns the accumulated [`Completion`]s (in
    /// completion order per worker; interleaving across workers is
    /// scheduling-dependent — sort by `id` for submission order).
    pub fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(
            &mut *self
                .completions
                .lock()
                .expect("frontend completions poisoned"),
        )
    }

    /// Drains and returns the accumulated [`DocumentCompletion`]s
    /// (same ordering caveats as [`Frontend::take_completions`]).
    pub fn take_document_completions(&self) -> Vec<DocumentCompletion> {
        std::mem::take(
            &mut *self
                .doc_completions
                .lock()
                .expect("frontend doc completions poisoned"),
        )
    }

    fn count_admission(&self, rung: AdmissionRung) {
        let counter = match rung {
            AdmissionRung::Full => &self.counters.admitted_full,
            AdmissionRung::PartialEd => &self.counters.admitted_partial,
            AdmissionRung::TfIdfOnly => &self.counters.admitted_shed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn reject(&self, depth: usize) -> NclError {
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        NclError::Overloaded {
            queue_depth: depth,
            retry_after: self.config.retry_after,
        }
    }

    /// One worker loop: drain the queue until it is closed and empty,
    /// recording latencies into a private histogram set merged once at
    /// exit (no shared lock on the per-request path).
    fn worker_loop(&self) {
        let mut local = HistSet::new();
        while let Some(req) = self.queue.pop() {
            self.process(req, &mut local);
        }
        self.hists
            .lock()
            .expect("frontend hists poisoned")
            .merge(&local);
    }

    /// Serves one admitted request: derives the remaining budget from
    /// the admission-time deadline and the rung's ED cap, serves it on
    /// this worker's thread (cross-request parallelism is the front
    /// end's job), and records the completion.
    fn process(&self, req: QueuedRequest, hists: &mut HistSet) {
        let picked = Instant::now();
        let queued = picked.duration_since(req.admitted);
        let mut budget = self.linker.config().budget;
        let mut preamble = Vec::new();
        if req.rung != AdmissionRung::Full {
            preamble.push(TraceEvent::Shed {
                depth: req.depth,
                rung: req.rung,
            });
        }
        if let Some(deadline) = req.deadline {
            let remaining = deadline.saturating_duration_since(picked);
            if remaining.is_zero() {
                self.counters
                    .queued_past_deadline
                    .fetch_add(1, Ordering::Relaxed);
                preamble.push(TraceEvent::QueuedPastDeadline { queued });
            }
            budget.total = Some(budget.total.map_or(remaining, |t| t.min(remaining)));
        }
        match req.rung {
            AdmissionRung::Full => {}
            AdmissionRung::PartialEd => {
                let cap = self.config.partial_ed_budget;
                budget.ed = Some(budget.ed.map_or(cap, |e| e.min(cap)));
            }
            AdmissionRung::TfIdfOnly => {
                budget.ed = Some(Duration::ZERO);
            }
        }
        hists.queue_wait.record(queued);
        match req.payload {
            Payload::Query(ref tokens) => {
                let scorer = ComAidScore::new(self.linker);
                let result = super::serve(self.linker, tokens, &scorer, budget, preamble);
                let total = req.admitted.elapsed();
                hists.e2e.record(total);
                for s in &result.trace.stages {
                    hists.stage_mut(s.kind).record(s.wall);
                }
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                self.completions
                    .lock()
                    .expect("frontend completions poisoned")
                    .push(Completion {
                        id: req.id,
                        rung: req.rung,
                        queued,
                        total,
                        result,
                    });
            }
            Payload::Document(ref tokens) => {
                // Per-span budgets already degraded with the rung (the
                // ED caps above apply to every span); only the bottom
                // rung additionally caps how many spans are served.
                let propose = ProposeConfig {
                    max_spans: if req.rung == AdmissionRung::TfIdfOnly {
                        self.config.shed_span_cap
                    } else {
                        None
                    },
                    ..ProposeConfig::default()
                };
                let result = link_document(self.linker, tokens, &propose, budget, preamble);
                let total = req.admitted.elapsed();
                hists.doc_e2e.record(total);
                for s in &result.trace.stages {
                    hists.stage_mut(s.kind).record(s.wall);
                }
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                self.counters.doc_completed.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .doc_spans_linked
                    .fetch_add(result.spans.len() as u64, Ordering::Relaxed);
                self.doc_completions
                    .lock()
                    .expect("frontend doc completions poisoned")
                    .push(DocumentCompletion {
                        id: req.id,
                        rung: req.rung,
                        queued,
                        total,
                        result,
                    });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_ladder_orders_the_rungs() {
        let cfg = FrontendConfig {
            queue_capacity: 16,
            degrade_watermark: 4,
            shed_watermark: 8,
            ..FrontendConfig::default()
        };
        assert_eq!(cfg.rung_for(0), AdmissionRung::Full);
        assert_eq!(cfg.rung_for(3), AdmissionRung::Full);
        assert_eq!(cfg.rung_for(4), AdmissionRung::PartialEd);
        assert_eq!(cfg.rung_for(7), AdmissionRung::PartialEd);
        assert_eq!(cfg.rung_for(8), AdmissionRung::TfIdfOnly);
        assert_eq!(cfg.rung_for(100), AdmissionRung::TfIdfOnly);
        // Deeper is (weakly) worse — the ladder only descends.
        let mut last = AdmissionRung::Full;
        for depth in 0..20 {
            let r = cfg.rung_for(depth);
            assert!(r >= last, "ladder must be monotone in depth");
            last = r;
        }
    }

    #[test]
    fn rung_names_are_stable() {
        assert_eq!(AdmissionRung::Full.name(), "full");
        assert_eq!(AdmissionRung::PartialEd.name(), "partial_ed");
        assert_eq!(AdmissionRung::TfIdfOnly.name(), "tfidf_only");
    }
}
