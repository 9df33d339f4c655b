//! The three serving workloads: one process, one client, closed loop,
//! one CPU, a 30k-concept ICD-10-CM-shaped ontology.
//!
//! * `icd30k-link`  — `Linker::link` over single mentions: the paper's
//!   online request (§5, Fig. 11). Score does most of the work.
//! * `icd30k-notes` — `Linker::link_document` over whole notes: adds
//!   Propose and reaches Score through the batch fan-out, so a batching
//!   change that helps notes and hurts mentions (or the reverse) shows.
//! * `icd30k-fe`    — the same mentions and notes, 4 : 1, through the
//!   inline front end: admission, accounting, histograms and the
//!   deadline-budgeted per-candidate scoring path.

use crate::api::{
    self, Answer, ColdStart, Cost, InlineFrontend, Note, NoteAnswer, Query, Saved, Serving, Sizes,
    StageWalls, World,
};
use crate::check::{self, Tally};
use crate::digest::Fnv;
use crate::report::Report;
use crate::sandbox;
use crate::spans::Recorder;
use crate::spec::Workload;
use crate::stats::{self, BestOf};
use crate::Opts;
use std::cell::Cell;
use std::time::Instant;

/// Cold starts per run, `setup_s` being the fastest: some before the
/// replay and, untraced, some after it, so that one burst of
/// interference cannot cover them all.
pub const COLD_STARTS_BEFORE: usize = 3;
pub const COLD_STARTS_AFTER: usize = 2;

pub struct Inputs {
    pub world: World,
    pub queries: Vec<Query>,
    pub notes: Vec<Note>,
    pub digest: u64,
}

impl Inputs {
    pub fn generate(sizes: &Sizes, seed: u64) -> Self {
        let world = World::icd(sizes.concepts, seed);
        let queries = world.queries(sizes.queries, seed);
        let notes = world.notes(sizes.notes, seed);
        let mut h = Fnv::default();
        world.digest_into(&mut h);
        for q in &queries {
            h.tokens(&q.tokens);
            h.u32(q.truth);
        }
        for n in &notes {
            h.tokens(&n.tokens);
            for g in &n.gold {
                h.u64(g.start as u64);
                h.u64(g.len as u64);
                h.u32(g.truth);
            }
        }
        Self {
            world,
            queries,
            notes,
            digest: h.finish(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Req {
    Query(usize),
    Note(usize),
}

/// One pass over the workload's distinct inputs, in replay order.
fn requests(workload: Workload, inputs: &Inputs) -> Vec<Req> {
    let queries = (0..inputs.queries.len()).map(Req::Query);
    let notes = (0..inputs.notes.len()).map(Req::Note);
    match workload {
        Workload::Link => queries.collect(),
        Workload::Notes => notes.collect(),
        // Four mentions, then one note.
        Workload::Frontend => {
            let mut out = Vec::new();
            let mut queries = queries;
            for note in notes {
                out.extend(queries.by_ref().take(4));
                out.push(note);
            }
            out
        }
        Workload::Train => unreachable!("hx-train is not a serving workload"),
    }
}

enum Body {
    Query(Answer),
    Note(NoteAnswer),
}

impl Body {
    fn print(&self) -> u64 {
        match self {
            Body::Query(a) => check::answer_print(a),
            Body::Note(n) => check::note_print(n),
        }
    }

    fn stages(&self) -> StageWalls {
        match self {
            Body::Query(a) => a.stages,
            Body::Note(n) => n.stages,
        }
    }
}

struct Reply {
    cost: Cost,
    /// `Err` = the front end refused the request.
    body: Result<Body, String>,
    /// `Completion.total`, front end only.
    served: Option<f64>,
}

/// A request the sandbox stalled for longer than the front end's own
/// deadline (500x a mention's latency) is served degraded, by design.
/// That is neither a sample nor the program's failure: it is re-issued.
const STALL_RETRIES: usize = 3;

struct Client<'s, 'a> {
    serving: &'s Serving<'a>,
    frontend: Option<InlineFrontend<'s, 'a>>,
    inputs: &'s Inputs,
    stalled: Cell<usize>,
}

impl<'s, 'a> Client<'s, 'a> {
    fn new(workload: Workload, serving: &'s Serving<'a>, inputs: &'s Inputs) -> Self {
        Self {
            serving,
            frontend: (workload == Workload::Frontend).then(|| serving.frontend()),
            inputs,
            stalled: Cell::new(0),
        }
    }

    fn serve<R>(&self, body: impl FnOnce() -> R) -> R {
        match &self.frontend {
            Some(fe) => fe.serve(body),
            None => body(),
        }
    }

    fn tokens(&self, req: Req) -> &'s [String] {
        match req {
            Req::Query(i) => &self.inputs.queries[i].tokens,
            Req::Note(i) => &self.inputs.notes[i].tokens,
        }
    }

    fn call(&self, req: Req) -> Reply {
        let deadline = self.frontend.as_ref().and_then(InlineFrontend::deadline_s);
        for _ in 0..STALL_RETRIES {
            let reply = self.call_once(req);
            if deadline.is_none_or(|d| reply.cost.secs < d) {
                return reply;
            }
            self.stalled.set(self.stalled.get() + 1);
        }
        self.call_once(req)
    }

    fn call_once(&self, req: Req) -> Reply {
        let tokens = self.tokens(req);
        fn direct(cost: Cost, body: Body) -> Reply {
            Reply {
                cost,
                body: Ok(body),
                served: None,
            }
        }
        fn served<A>(
            cost: Cost,
            res: Result<api::Served<A>, String>,
            body: fn(A) -> Body,
        ) -> Reply {
            Reply {
                cost,
                served: res.as_ref().ok().map(|s| s.total_s),
                body: res.map(|s| body(s.answer)),
            }
        }
        match (&self.frontend, req) {
            (None, Req::Query(_)) => {
                let (cost, a) = self.serving.link(tokens);
                direct(cost, Body::Query(a))
            }
            (None, Req::Note(_)) => {
                let (cost, n) = self.serving.link_document(tokens);
                direct(cost, Body::Note(n))
            }
            (Some(fe), Req::Query(_)) => {
                let (cost, res) = fe.submit(tokens);
                served(cost, res, Body::Query)
            }
            (Some(fe), Req::Note(_)) => {
                let (cost, res) = fe.submit_document(tokens);
                served(cost, res, Body::Note)
            }
        }
    }
}

/// What the checked pass leaves behind for the replays to be held to.
struct Checked {
    prints: Vec<u64>,
    digest: u64,
    /// Labelled inputs (mentions + gold spans) and how many had their
    /// concept among the k candidates.
    labelled: usize,
    covered: usize,
    gold_spans: usize,
    gold_spans_found: usize,
    spans: usize,
}

/// The warm-up pass: every distinct input once, every answer checked
/// structurally and fingerprinted. Untimed.
fn checked_pass(client: &Client, reqs: &[Req], report: &mut Report) -> Checked {
    let world = &client.inputs.world;
    let mut c = Checked {
        prints: Vec::with_capacity(reqs.len()),
        digest: 0,
        labelled: 0,
        covered: 0,
        gold_spans: 0,
        gold_spans_found: 0,
        spans: 0,
    };
    let mut tally = Tally::default();
    for &req in reqs {
        report.attempted += 1;
        let reply = client.call(req);
        let body = match reply.body {
            Ok(b) => b,
            Err(e) => {
                report.fail(&format!("{req:?} refused: {e}"));
                c.prints.push(0);
                continue;
            }
        };
        c.prints.push(body.print());
        let fault = match (&body, req) {
            (Body::Query(a), Req::Query(i)) => {
                tally.query(a, client.inputs.queries[i].truth);
                check::answer_fault(a, world)
            }
            (Body::Note(n), Req::Note(i)) => {
                let note = &client.inputs.notes[i];
                let (found, covered) = check::note_recall(n, &note.gold);
                c.gold_spans += note.gold.len();
                c.gold_spans_found += found;
                c.covered += covered;
                c.spans += n.spans.len();
                check::note_fault(n, note.tokens.len(), world)
            }
            _ => Some("answer of the wrong kind"),
        };
        if let Some(f) = fault {
            report.fail(&format!("{req:?}: {f}"));
        }
    }
    c.labelled = tally.labelled + c.gold_spans;
    c.covered += tally.covered;
    c.digest = check::pass_digest(&c.prints);
    c
}

/// What a replay measured: each input's fastest latency, every raw
/// latency by kind, and the digest of its first pass.
struct Replay {
    best: BestOf,
    query_lat: Vec<f64>,
    note_lat: Vec<f64>,
    first_pass_digest: u64,
}

/// A timed closed-loop replay of `reqs`, cycling for `seconds` (and at
/// least one full pass). Every answer must reproduce its checked
/// fingerprint. `each` sees (pass, input, start in ns, reply).
fn replay(
    client: &Client,
    reqs: &[Req],
    checked: &Checked,
    seconds: f64,
    report: &mut Report,
    mut each: impl FnMut(usize, usize, u64, &Reply),
) -> Replay {
    let mut out = Replay {
        best: BestOf::new(reqs.len()),
        query_lat: Vec::new(),
        note_lat: Vec::new(),
        first_pass_digest: 0,
    };
    let mut first_pass = Vec::with_capacity(reqs.len());
    let started = Instant::now();
    let mut pass = 0;
    'passes: loop {
        for (i, &req) in reqs.iter().enumerate() {
            if pass > 0 && started.elapsed().as_secs_f64() >= seconds {
                break 'passes;
            }
            let start_ns = started.elapsed().as_nanos() as u64;
            let reply = client.call(req);
            report.attempted += 1;
            let print = reply.body.as_ref().map_or(0, Body::print);
            if pass == 0 {
                first_pass.push(print);
            }
            if reply.body.is_err() || print != checked.prints[i] {
                report.fail(&format!("{req:?} did not reproduce its checked answer"));
            }
            out.best.record(i, reply.cost.secs);
            match req {
                Req::Query(_) => out.query_lat.push(reply.cost.secs),
                Req::Note(_) => out.note_lat.push(reply.cost.secs),
            }
            each(pass, i, start_ns, &reply);
        }
        pass += 1;
    }
    out.first_pass_digest = check::pass_digest(&first_pass);
    out
}

/// Median over the query requests' fastest latencies (all requests
/// when the workload has no single mentions).
fn p50_ms(reqs: &[Req], best: &BestOf) -> (f64, usize) {
    let of = |want_queries: bool| -> Vec<f64> {
        reqs.iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Req::Query(_)) == want_queries)
            .filter_map(|(i, _)| best.best(i))
            .collect()
    };
    let mut lat = of(true);
    if lat.is_empty() {
        lat = of(false);
    }
    (stats::median(&lat) * 1e3, lat.len())
}

pub fn run(workload: Workload, opts: &Opts) -> Report {
    let sizes = opts.sizes();
    let mut report = Report::default();
    let inputs = Inputs::generate(&sizes, opts.seed);
    report.fact("inputs_digest", format!("{:016x}", inputs.digest));
    report.fact("concepts", inputs.world.concepts());
    crate::require_pinned_inputs(workload, opts, inputs.digest);
    let reqs = requests(workload, &inputs);

    let path = sandbox::checkpoint_path(workload.name(), opts.seed);
    let saved = api::save_untrained_model(&inputs.world, opts.seed, &path);

    // 1.5x what a 30k-concept linker keeps resident (~145 MB).
    sandbox::prefault(if opts.smoke { 16 } else { 224 });
    let first = &inputs.queries[..sizes.first_answers.min(inputs.queries.len())];
    let mut colds: Vec<ColdStart> = Vec::new();
    for _ in 1..COLD_STARTS_BEFORE {
        colds.push(api::cold_start(&path, &inputs.world, first, |_, c| c));
    }
    api::cold_start(&path, &inputs.world, first, |serving, cold| {
        colds.push(cold);
        let client = Client::new(workload, serving, &inputs);
        client.serve(|| {
            let checked = checked_pass(&client, &reqs, &mut report);
            report.fact("ranked_digest", format!("{:016x}", checked.digest));
            let rss_mb = sandbox::rss_mb();
            if opts.trace {
                traced(
                    workload,
                    &client,
                    &reqs,
                    &checked,
                    &saved,
                    opts,
                    &mut report,
                );
                setup_layers(&mut report, &saved, &colds);
                let (bytes, per_concept) = serving.cache_bytes();
                report.set("comaid.cache_mb", bytes as f64 / 1e6, 1);
                report.set("comaid.cache_bytes_per_concept", per_concept, 1);
            } else {
                let run = replay(
                    &client,
                    &reqs,
                    &checked,
                    opts.seconds,
                    &mut report,
                    |_, _, _, _| {},
                );
                report.require(
                    run.first_pass_digest == checked.digest,
                    "the first measured pass reproduces ranked_digest",
                );
                let seen = run.best.seen().len();
                report.set("throughput", run.best.rate(), run.best.samples());
                let (p50, n) = p50_ms(&reqs, &run.best);
                report.set("p50_ms", p50, n);
                report.set("rss_mb", rss_mb, 1);
                report.set(
                    "quality",
                    checked.covered as f64 / checked.labelled.max(1) as f64,
                    checked.labelled,
                );
                report.require(seen == reqs.len(), "every distinct input was replayed");
            }
            crate::enforce_pinned_ranked(workload, opts, checked.digest, &mut report);
            report.fact("stalled_requests", client.stalled.get());
        });
    });
    if !opts.trace {
        for _ in 0..COLD_STARTS_AFTER {
            colds.push(api::cold_start(&path, &inputs.world, first, |_, c| c));
        }
    }
    let _ = std::fs::remove_file(&path);
    if !opts.trace {
        let totals: Vec<f64> = colds.iter().map(ColdStart::total).collect();
        report.set("setup_s", stats::min(&totals), totals.len());
    }
    report
}

/// The set-up layers: the checkpoint, and each part of a cold start at
/// its fastest over the cold starts made.
pub fn setup_layers(report: &mut Report, saved: &Saved, colds: &[ColdStart]) {
    report.set("comaid.save_s", saved.save_s, 1);
    report.set("comaid.checkpoint_mb", saved.bytes as f64 / 1e6, 1);
    let fastest =
        |part: fn(&ColdStart) -> f64| stats::min(&colds.iter().map(part).collect::<Vec<_>>());
    report.set("comaid.load_s", fastest(|c| c.load_s), colds.len());
    report.set("linker.new_s", fastest(|c| c.new_s), colds.len());
    report.set(
        "linker.first_200_s",
        fastest(|c| c.first_answers_s),
        colds.len(),
    );
}

/// Per-request accumulators of the traced replay's first pass.
#[derive(Default)]
struct FirstPass {
    query_allocs: u64,
    query_alloc_bytes: u64,
    queries: usize,
    note_allocs: u64,
    notes: usize,
    links: usize,
    postings_scored: u64,
    postings_pruned: u64,
    memo_hits: u64,
    memo_misses: u64,
    served: usize,
    degraded: usize,
    /// `Completion.total` of every mention served, all passes.
    query_totals: Vec<f64>,
}

/// The traced run: an untraced replay for the base rate, a traced
/// replay with spans held in memory and allocations counted, then the
/// direct-call passes and the kernel loops.
fn traced(
    workload: Workload,
    client: &Client,
    reqs: &[Req],
    checked: &Checked,
    saved: &Saved,
    opts: &Opts,
    report: &mut Report,
) {
    let slice = opts.seconds * 0.3;
    let untraced = replay(client, reqs, checked, slice, report, |_, _, _, _| {});

    let mut rec = Recorder::default();
    let mut fp = FirstPass::default();
    // Stage walls of each input's fastest traced repeat.
    let mut fastest: Vec<Option<(f64, StageWalls)>> = vec![None; reqs.len()];
    sandbox::count_allocations(true);
    let with_spans = replay(
        client,
        reqs,
        checked,
        slice,
        report,
        |pass, i, start_ns, reply| {
            let Ok(body) = &reply.body else { return };
            let stages = body.stages();
            if fastest[i].is_none_or(|(s, _)| reply.cost.secs < s) {
                fastest[i] = Some((reply.cost.secs, stages));
            }
            if let (Body::Query(_), Some(total)) = (body, reply.served) {
                fp.query_totals.push(total);
            }
            if pass > 0 {
                return;
            }
            let name = match body {
                Body::Query(_) => "request.link",
                Body::Note(_) => "request.note",
            };
            let end_ns = start_ns + (reply.cost.secs * 1e9) as u64;
            let root = rec.root(i as u32, name, start_ns, end_ns);
            rec.children_from_walls(root, &stages.named());
            let counters = match body {
                Body::Query(a) => {
                    fp.queries += 1;
                    fp.links += 1;
                    fp.query_allocs += reply.cost.allocs;
                    fp.query_alloc_bytes += reply.cost.alloc_bytes;
                    fp.degraded += usize::from(a.degraded);
                    a.counters
                }
                Body::Note(n) => {
                    fp.notes += 1;
                    fp.links += n.spans.len();
                    fp.note_allocs += reply.cost.allocs;
                    fp.degraded += usize::from(n.degraded);
                    n.counters
                }
            };
            fp.postings_scored += counters.postings_scored;
            fp.postings_pruned += counters.postings_pruned;
            fp.memo_hits += counters.memo_hits;
            fp.memo_misses += counters.memo_misses;
            fp.served += usize::from(reply.served.is_some());
        },
    );
    sandbox::count_allocations(false);
    report.require(
        with_spans.first_pass_digest == checked.digest
            && untraced.first_pass_digest == checked.digest,
        "the traced pass reproduces the untraced ranked_digest",
    );
    report.set(
        "trace.overhead_frac",
        1.0 - with_spans.best.rate() / untraced.best.rate(),
        with_spans.best.samples(),
    );

    // Stage walls per request, and what the request's wall leaves over.
    let fastest: Vec<(f64, StageWalls)> = fastest.into_iter().flatten().collect();
    let n = fastest.len().max(1);
    let per_request_us =
        |f: fn(&StageWalls) -> f64| fastest.iter().map(|(_, s)| f(s)).sum::<f64>() / n as f64 * 1e6;
    report.set("serving.propose_us", per_request_us(|s| s.propose), n);
    report.set("serving.rewrite_us", per_request_us(|s| s.rewrite), n);
    report.set("serving.retrieve_us", per_request_us(|s| s.retrieve), n);
    report.set("serving.score_us", per_request_us(|s| s.score), n);
    report.set("serving.rank_us", per_request_us(|s| s.rank), n);
    let wall: f64 = fastest.iter().map(|(w, _)| w).sum();
    let staged: f64 = fastest.iter().map(|(_, s)| s.sum()).sum();
    let unattributed = (wall - staged) / wall;
    report.set("serving.unattributed_frac", unattributed, n);
    if workload != Workload::Frontend {
        report.require(
            unattributed < 0.10,
            "serving.unattributed_frac stays under 0.10",
        );
    }

    let links = fp.links.max(1) as f64;
    report.set(
        "serving.postings_scored_per_query",
        fp.postings_scored as f64 / links,
        fp.links,
    );
    let postings = (fp.postings_scored + fp.postings_pruned).max(1) as f64;
    report.set(
        "serving.postings_pruned_frac",
        fp.postings_pruned as f64 / postings,
        fp.links,
    );
    let rewrites = (fp.memo_hits + fp.memo_misses).max(1) as f64;
    report.set(
        "serving.rewrite_memo_hit_frac",
        fp.memo_hits as f64 / rewrites,
        (fp.memo_hits + fp.memo_misses) as usize,
    );
    if fp.queries > 0 {
        let q = fp.queries as f64;
        report.set(
            "serving.allocs_per_link",
            fp.query_allocs as f64 / q,
            fp.queries,
        );
        report.set(
            "serving.alloc_kb_per_link",
            fp.query_alloc_bytes as f64 / q / 1024.0,
            fp.queries,
        );
    }
    if fp.notes > 0 {
        let notes = fp.notes as f64;
        report.set(
            "serving.allocs_per_note",
            fp.note_allocs as f64 / notes,
            fp.notes,
        );
        report.set(
            "serving.spans_per_note",
            checked.spans as f64 / notes,
            fp.notes,
        );
        report.set(
            "serving.span_recall",
            checked.gold_spans_found as f64 / checked.gold_spans.max(1) as f64,
            checked.gold_spans,
        );
    }
    for (name, lat) in [
        ("serving.link_p99_ms", &untraced.query_lat),
        ("serving.doc_p99_ms", &untraced.note_lat),
    ] {
        if !lat.is_empty() {
            let p = stats::supported_tail(lat.len());
            report.set(name, stats::percentile(lat, p) * 1e3, lat.len());
        }
    }

    direct_calls(client, reqs, checked, slice, report, &mut rec);
    if let Some(fe) = &client.frontend {
        frontend_layers(client, fe, &fp, reqs, &with_spans.best, report);
    }

    let k = api::kernel_times(saved.vocab);
    report.set("tensor.gemm_nt_us", k.gemm_nt_us, 1);
    report.set("tensor.lse_ns", k.lse_ns, 1);
    report.set("nn.lstm_step_ns", k.lstm_step_ns, 1);
    report.set("nn.attention_ns", k.attention_ns, 1);

    crate::write_trace(workload, opts, &rec);
}

/// The faster of two repeats, in seconds.
fn faster_of_two(mut call: impl FnMut() -> Cost) -> f64 {
    call().secs.min(call().secs)
}

/// Each layer called directly, outside a request, on as many of the
/// inputs as `seconds` allow — as span families of their own.
fn direct_calls(
    client: &Client,
    reqs: &[Req],
    checked: &Checked,
    seconds: f64,
    report: &mut Report,
    rec: &mut Recorder,
) {
    let serving = client.serving;
    let started = Instant::now();
    let mut family = |name: &'static str, request: usize, secs: f64, all: &mut Vec<f64>| {
        let at = started.elapsed().as_nanos() as u64;
        rec.root(request as u32, name, at, at + (secs * 1e9) as u64);
        all.push(secs);
    };
    let (mut rewrite, mut retrieve, mut score, mut propose) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut singles, mut documents) = (0.0, 0.0);
    for (i, &req) in reqs.iter().enumerate() {
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let tokens = client.tokens(req);
        match req {
            Req::Query(_) => {
                let secs = faster_of_two(|| serving.rewrite_query(tokens));
                family("direct.rewrite", i, secs, &mut rewrite);
                let (_, retrieved) = serving.retrieve(tokens);
                let secs = faster_of_two(|| serving.retrieve(tokens).0);
                family("direct.retrieve", i, secs, &mut retrieve);
                let (_, scores) = serving.score(&retrieved);
                let secs = faster_of_two(|| serving.score(&retrieved).0);
                family("direct.score", i, secs, &mut score);

                // Phase I + Phase II called directly must rebuild the
                // request's ranking bit for bit (the front end's prints
                // are of the same rankings, so this holds there too).
                report.attempted += 1;
                if direct_print(&retrieved, &scores) != Some(checked.prints[i]) {
                    report.fail(&format!("{req:?}: retrieve + score disagree with link"));
                }
            }
            Req::Note(_) => {
                let (_, spans) = serving.propose_spans(tokens);
                let secs = faster_of_two(|| serving.propose_spans(tokens).0);
                family("direct.propose", i, secs, &mut propose);
                // The note in one call against its spans one by one.
                documents += faster_of_two(|| serving.link_document(tokens).0);
                for (start, len) in spans {
                    let span = &tokens[start..start + len];
                    singles += faster_of_two(|| serving.link(span).0);
                }
            }
        }
    }
    for (name, secs) in [
        ("serving.rewrite_call_us", &rewrite),
        ("serving.retrieve_call_us", &retrieve),
        ("serving.score_call_us", &score),
        ("serving.propose_call_us", &propose),
    ] {
        if !secs.is_empty() {
            let mean = secs.iter().sum::<f64>() / secs.len() as f64;
            report.set(name, mean * 1e6, secs.len());
        }
    }
    if documents > 0.0 {
        report.set("serving.batch_speedup", singles / documents, propose.len());
    }
}

/// The ranking `retrieve` + `score` imply, fingerprinted like an answer.
fn direct_print(retrieved: &api::Retrieved, scores: &[Option<f32>]) -> Option<u64> {
    let mut ranked: Vec<(u32, f32)> = retrieved
        .candidate_ids()
        .into_iter()
        .zip(scores)
        .map(|(c, s)| s.map(|s| (c, s)))
        .collect::<Option<_>>()?;
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    Some(check::ranking_print(&ranked))
}

/// What the front end adds over the linker, and whether its books and
/// histograms agree with what the client saw.
fn frontend_layers(
    client: &Client,
    fe: &InlineFrontend,
    fp: &FirstPass,
    reqs: &[Req],
    through_frontend: &BestOf,
    report: &mut Report,
) {
    let c = fe.counts();
    let accounted = c.submitted == c.completed + c.rejected + c.invalid;
    report.set(
        "frontend.accounted",
        f64::from(u8::from(accounted)),
        c.submitted as usize,
    );
    report.require(accounted, "submitted = completed + rejected + invalid");
    let served = fp.served.max(1) as f64;
    report.set(
        "frontend.full_rung_frac",
        c.admitted_full as f64 / c.submitted.max(1) as f64,
        c.submitted as usize,
    );
    report.set(
        "frontend.degraded_frac",
        fp.degraded as f64 / served,
        fp.served,
    );

    // The same mentions through `submit` and through `link`, turn
    // about, so both see the same interference.
    let (mut via, mut direct, mut n) = (0.0, 0.0, 0);
    let mut doc_lat = Vec::new();
    for (i, &req) in reqs.iter().enumerate() {
        match req {
            Req::Query(_) if n < 500 => {
                let tokens = client.tokens(req);
                let (mut v, mut d) = (f64::INFINITY, f64::INFINITY);
                for _ in 0..3 {
                    v = v.min(fe.submit(tokens).0.secs);
                    d = d.min(client.serving.link(tokens).0.secs);
                }
                via += v;
                direct += d;
                n += 1;
            }
            Req::Query(_) => {}
            Req::Note(_) => doc_lat.extend(through_frontend.best(i)),
        }
    }
    if n > 0 {
        report.set("frontend.overhead_frac", (via - direct) / direct, n);
    }
    if !doc_lat.is_empty() {
        report.set(
            "frontend.doc_p50_ms",
            stats::median(&doc_lat) * 1e3,
            doc_lat.len(),
        );
    }
    if !fp.query_totals.is_empty() {
        let exact = stats::median(&fp.query_totals);
        report.set(
            "frontend.hist_p50_err_frac",
            (c.e2e_p50_s - exact).abs() / exact,
            c.e2e_count as usize,
        );
    }
}
