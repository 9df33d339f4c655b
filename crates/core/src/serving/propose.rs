//! Document-level span proposal: scanning a tokenised clinical note
//! for candidate mention spans.
//!
//! The paper's serving pipeline (§5) starts from a *mention* — a short
//! diagnosis description already cut out of its surrounding text. Real
//! clinical traffic arrives as whole notes, so document-level linking
//! needs one extra stage in front of the chain: a scan that decides
//! *which token ranges look like concept mentions* before any span is
//! rewritten, retrieved, or scored.
//!
//! The scan reuses Phase I's own machinery rather than introducing a
//! separate mention model:
//!
//! * a token **hits** when it is a term of the linker's interned TF-IDF
//!   concept dictionary ([`SpanAnchor::Dictionary`]), or when the OOV
//!   rewrite machinery (embedding neighbours with the edit-distance
//!   fallback, Eq. 13) maps it onto a dictionary term
//!   ([`SpanAnchor::Rewrite`]);
//! * maximal runs of consecutive hits become candidate spans, chunked
//!   greedily left-to-right at [`MAX_SPAN`] tokens (greedy max-span is
//!   also the overlap resolution: chunks of one run are disjoint by
//!   construction, and runs cannot touch because they are separated by
//!   at least one miss); a chunk must carry at least one *direct*
//!   dictionary hit — rewrites extend an anchored mention but never
//!   anchor one alone. On its own, rewriting pulls filler words toward
//!   the dictionary by edit distance and hallucinates spans (DESIGN.md
//!   §17);
//! * every accepted span is recorded in the unified trace
//!   ([`super::TraceEvent::SpanProposed`]) with its rewrite provenance.
//!
//! Fault site: `doc.propose` is visited once per accepted span. A
//! panic injected there drops exactly that span
//! ([`super::TraceEvent::ProposeFaulted`]); spans accepted earlier in
//! the note survive — a mid-document fault never voids the whole note.
//!
//! Deadlines degrade rather than fail, like every other stage: tokens
//! not reached before the deadline are treated as misses and the scan
//! stops, recording [`super::TraceEvent::DeadlineExpired`] for
//! [`StageKind::Propose`].

use super::trace::{LinkTrace, StageKind, TraceEvent};
use super::MAX_QUERY_TOKENS;
use crate::linker::Linker;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Longest proposed span, in tokens; longer hit-runs are chunked
/// greedily left-to-right.
pub const MAX_SPAN: usize = 8;

// Every proposal is a valid query.
const _: () = assert!(MAX_SPAN <= MAX_QUERY_TOKENS);

/// Knobs of the span-proposal scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProposeConfig {
    /// Hard cap on proposals per note (`None` = unlimited). The
    /// serving front end uses this as the *last* rung of document
    /// shedding: per-span budgets degrade first, spans are dropped
    /// only here, and every drop is recorded as
    /// [`super::TraceEvent::SpansDropped`].
    pub max_spans: Option<usize>,
}

/// How a proposed span's first token entered the concept dictionary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanAnchor {
    /// The token is a dictionary term as written.
    Dictionary,
    /// The token only matched the dictionary after an OOV rewrite.
    Rewrite,
}

/// One candidate mention span proposed from a note.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanProposal {
    /// Index of the first span token in the note's token stream.
    pub start: usize,
    /// Span length in tokens (`1 ..= MAX_SPAN`).
    pub len: usize,
    /// How the span's first token entered the dictionary.
    pub anchor: SpanAnchor,
    /// Tokens that are dictionary terms as written.
    pub dict_hits: usize,
    /// Tokens that only matched the dictionary after an OOV rewrite.
    pub rewrite_hits: usize,
}

impl SpanProposal {
    /// One past the last span token (half-open end).
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// Scans `tokens` for candidate mention spans; see the module docs for
/// the algorithm. Work counters (rewrite memo hits/misses) accumulate
/// into `trace.retrieval`; provenance and fault/cap events append to
/// `trace.events`. The caller records the [`StageKind::Propose`] stage
/// timing.
pub(crate) fn propose_spans(
    linker: &Linker<'_>,
    tokens: &[String],
    config: &ProposeConfig,
    deadline: Option<Instant>,
    trace: &mut LinkTrace,
) -> Vec<SpanProposal> {
    // Pass 1 — classify tokens and collect maximal hit-runs. Each run
    // is (start index, per-token rewrite flag).
    let mut runs: Vec<(usize, Vec<bool>)> = Vec::new();
    let mut cur: Option<(usize, Vec<bool>)> = None;
    let mut expired = false;
    for (i, w) in tokens.iter().enumerate() {
        if !expired && deadline.is_some_and(|d| Instant::now() >= d) {
            expired = true;
            trace.events.push(TraceEvent::DeadlineExpired {
                stage: StageKind::Propose,
            });
        }
        let hit: Option<bool> = if expired || w.trim().is_empty() {
            None
        } else if linker.tfidf.contains_term(w) {
            Some(false)
        } else if linker.config().rewrite {
            linker
                .rewriter
                .outcome(linker, w, false, &mut trace.retrieval)
                .0
                .filter(|r| linker.tfidf.contains_term(r))
                .map(|_| true)
        } else {
            None
        };
        match hit {
            Some(rewritten) => match cur.as_mut() {
                Some((_, flags)) => flags.push(rewritten),
                None => cur = Some((i, vec![rewritten])),
            },
            None => {
                if let Some(run) = cur.take() {
                    runs.push(run);
                }
            }
        }
        if expired {
            break;
        }
    }
    if let Some(run) = cur.take() {
        runs.push(run);
    }

    // Pass 2 — chunk runs into proposals, visiting the `doc.propose`
    // fault site per accepted span. The accepted list lives outside the
    // unwind boundary, so a fault drops one span, never the note.
    let cap = config.max_spans.unwrap_or(usize::MAX);
    let mut out: Vec<SpanProposal> = Vec::new();
    let mut dropped = 0usize;
    for (start, flags) in runs {
        let mut i = 0;
        while i < flags.len() {
            let len = (flags.len() - i).min(MAX_SPAN);
            let chunk = &flags[i..i + len];
            let span = SpanProposal {
                start: start + i,
                len,
                anchor: if chunk[0] {
                    SpanAnchor::Rewrite
                } else {
                    SpanAnchor::Dictionary
                },
                dict_hits: chunk.iter().filter(|&&rw| !rw).count(),
                rewrite_hits: chunk.iter().filter(|&&rw| rw).count(),
            };
            i += len;
            if span.dict_hits == 0 {
                // No direct dictionary evidence: not a proposal at all.
                continue;
            }
            if out.len() >= cap {
                dropped += 1;
                continue;
            }
            let accepted = match &linker.faults {
                Some(plan) => catch_unwind(AssertUnwindSafe(|| plan.visit("doc.propose"))).is_ok(),
                None => true,
            };
            if accepted {
                trace.events.push(TraceEvent::SpanProposed {
                    start: span.start,
                    len: span.len,
                    rewrite_hits: span.rewrite_hits,
                });
                out.push(span);
            } else {
                trace
                    .events
                    .push(TraceEvent::ProposeFaulted { start: span.start });
            }
        }
    }
    if dropped > 0 {
        trace.events.push(TraceEvent::SpansDropped {
            kept: out.len(),
            dropped,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comaid::{ComAid, ComAidConfig};
    use crate::faults::{FaultKind, FaultPlan};
    use crate::serving::LinkerConfig;
    use ncl_ontology::{Ontology, OntologyBuilder};
    use ncl_text::{tokenize, Vocab};
    use std::sync::Arc;

    /// An untrained world is enough for proposal: the scan only
    /// consults the TF-IDF dictionary (and, when enabled, the rewrite
    /// machinery, which these unit tests keep off — the trained-model
    /// rewrite path is covered by the document-linking integration
    /// tests).
    fn world() -> (Ontology, ComAid) {
        let mut b = OntologyBuilder::new();
        let n18 = b.add_root_concept("N18", "chronic kidney disease");
        b.add_child(n18, "N18.5", "chronic kidney disease stage 5");
        let r10 = b.add_root_concept("R10", "abdominal pain");
        b.add_child(r10, "R10.9", "unspecified abdominal pain");
        let o = b.build().unwrap();
        let mut v = Vocab::new();
        for (_, c) in o.iter() {
            for t in tokenize(&c.canonical) {
                v.add(&t);
            }
        }
        let model = ComAid::new(v, ComAidConfig::tiny(), None);
        (o, model)
    }

    fn no_rewrite() -> LinkerConfig {
        LinkerConfig {
            rewrite: false,
            ..LinkerConfig::default()
        }
    }

    fn scan(linker: &Linker<'_>, text: &str, config: &ProposeConfig) -> Vec<SpanProposal> {
        let mut trace = LinkTrace::default();
        propose_spans(linker, &tokenize(text), config, None, &mut trace)
    }

    #[test]
    fn dictionary_runs_become_spans_and_filler_does_not() {
        let (o, model) = world();
        let linker = Linker::new(&model, &o, no_rewrite());
        let spans = scan(
            &linker,
            "patient resting comfortably abdominal pain overnight chronic kidney disease stage 5 followup arranged",
            &ProposeConfig::default(),
        );
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].start, spans[0].len), (3, 2)); // "abdominal pain"
        assert_eq!((spans[1].start, spans[1].len), (6, 5)); // "chronic kidney disease stage 5"
        for s in &spans {
            assert_eq!(s.anchor, SpanAnchor::Dictionary);
            assert_eq!(s.rewrite_hits, 0);
            assert_eq!(s.dict_hits, s.len);
        }
    }

    #[test]
    fn all_filler_proposes_nothing() {
        let (o, model) = world();
        let linker = Linker::new(&model, &o, no_rewrite());
        let spans = scan(
            &linker,
            "patient seen today on rounds feeling better",
            &ProposeConfig::default(),
        );
        assert!(spans.is_empty());
    }

    /// Eleven consecutive dictionary tokens.
    const LONG_RUN: &str =
        "chronic kidney disease stage 5 abdominal pain chronic kidney disease stage";

    #[test]
    fn long_runs_chunk_at_max_span() {
        let (o, model) = world();
        let linker = Linker::new(&model, &o, no_rewrite());
        let spans = scan(&linker, LONG_RUN, &ProposeConfig::default());
        assert_eq!(
            spans.iter().map(|s| (s.start, s.len)).collect::<Vec<_>>(),
            vec![(0, MAX_SPAN), (MAX_SPAN, 11 - MAX_SPAN)]
        );
        // A lone dictionary token between filler is a span of its own.
        let spans = scan(&linker, "today pain today", &ProposeConfig::default());
        assert_eq!(
            spans.iter().map(|s| (s.start, s.len)).collect::<Vec<_>>(),
            vec![(1, 1)]
        );
    }

    #[test]
    fn span_cap_drops_the_tail_and_records_it() {
        let (o, model) = world();
        let linker = Linker::new(&model, &o, no_rewrite());
        let cfg = ProposeConfig { max_spans: Some(2) };
        let mut trace = LinkTrace::default();
        let toks = tokenize(&format!("{LONG_RUN} today abdominal pain"));
        let spans = propose_spans(&linker, &toks, &cfg, None, &mut trace);
        assert_eq!(spans.len(), 2);
        assert!(trace.events.contains(&TraceEvent::SpansDropped {
            kept: 2,
            dropped: 1
        }));
    }

    #[test]
    fn propose_fault_drops_one_span_not_the_note() {
        let (o, model) = world();
        // Fault every visit of doc.propose after the first: a plan with
        // p=1 drops every span, so check both extremes.
        let all = Linker::new(&model, &o, no_rewrite()).with_faults(Arc::new(FaultPlan::panics(
            3,
            "doc.propose",
            1.0,
        )));
        let mut trace = LinkTrace::default();
        let toks = tokenize("patient abdominal pain today chronic kidney disease");
        let spans = propose_spans(&all, &toks, &ProposeConfig::default(), None, &mut trace);
        assert!(spans.is_empty());
        let faulted = trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ProposeFaulted { .. }))
            .count();
        assert_eq!(faulted, 2, "both candidate spans faulted");

        // p=0.5, seeded: some spans survive a mid-document fault.
        let some = Linker::new(&model, &o, no_rewrite()).with_faults(Arc::new(
            FaultPlan::new(9).with_rule("doc.propose", FaultKind::Panic, 0.5),
        ));
        let mut trace = LinkTrace::default();
        let mut accepted = 0;
        let mut faulted = 0;
        for seed in 0..8u64 {
            let toks = tokenize(&format!(
                "note {seed} abdominal pain then chronic kidney disease stage 5"
            ));
            let spans = propose_spans(&some, &toks, &ProposeConfig::default(), None, &mut trace);
            accepted += spans.len();
            faulted += trace
                .events
                .iter()
                .filter(|e| matches!(e, TraceEvent::ProposeFaulted { .. }))
                .count();
            trace.events.clear();
        }
        assert!(accepted > 0, "some spans must survive");
        assert!(faulted > 0, "some spans must fault at p=0.5");
    }

    #[test]
    fn deadline_stops_the_scan_without_failing() {
        let (o, model) = world();
        let linker = Linker::new(&model, &o, no_rewrite());
        let mut trace = LinkTrace::default();
        let toks = tokenize("abdominal pain and chronic kidney disease stage 5");
        let spans = propose_spans(
            &linker,
            &toks,
            &ProposeConfig::default(),
            Some(Instant::now() - std::time::Duration::from_millis(1)),
            &mut trace,
        );
        assert!(spans.is_empty(), "expired deadline proposes nothing");
        assert!(trace.events.contains(&TraceEvent::DeadlineExpired {
            stage: StageKind::Propose
        }));
    }

    #[test]
    fn rewrites_extend_but_never_anchor_a_span() {
        let (o, model) = world();
        // Rewrite on: "pains" is OOV but one edit from "pain".
        let linker = Linker::new(&model, &o, LinkerConfig::default());
        // A lone rewrite-only run is not a mention...
        let spans = scan(&linker, "today pains today", &ProposeConfig::default());
        assert!(spans.is_empty(), "got {spans:?}");
        // ...but the same token *inside* a dictionary-anchored run is.
        let spans = scan(
            &linker,
            "today abdominal pains today",
            &ProposeConfig::default(),
        );
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].start, spans[0].len), (1, 2));
        assert_eq!(spans[0].dict_hits, 1);
        assert_eq!(spans[0].rewrite_hits, 1);
    }

    #[test]
    fn proposals_are_sorted_and_disjoint() {
        let (o, model) = world();
        let linker = Linker::new(&model, &o, no_rewrite());
        let spans = scan(
            &linker,
            &format!("pain today {LONG_RUN} seen abdominal pain"),
            &ProposeConfig::default(),
        );
        let mut prev_end = 0;
        assert!(!spans.is_empty());
        for s in &spans {
            assert!(s.start >= prev_end, "spans must be disjoint and sorted");
            prev_end = s.end();
        }
    }
}
