//! Query rewriting (the paper's OR phase): out-of-vocabulary query
//! words are replaced by their semantically nearest in-Ω words
//! (Eq. 13), with an edit-distance fallback (§5's "dm 1 with
//! neuropaty" example).
//!
//! The [`Rewriter`] owns everything rewriting keeps between requests —
//! the two indexes, built with the linker, and the outcome memo — and
//! one read-through over that memo ([`Rewriter::outcome`]) serves both
//! the Rewrite block of a request and the document-level Propose scan.

use super::trace::{LinkTrace, RewriteDecision, StageKind, TraceEvent};
use crate::comaid::ComAid;
use crate::linker::Linker;
use ncl_embedding::NearestWords;
use ncl_text::edit_index::EditIndex;
use ncl_text::tfidf::{RetrievalStats, TfIdfIndex};
use std::borrow::Cow;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// Maximum edit distance for the textual fallback of rewriting.
const EDIT_MAX_DIST: usize = 2;

/// Minimum embedding cosine for accepting a rewrite target. Below this
/// the word is kept as-is: replacing a merely-unmatched word (e.g.
/// "of", "symptomatic") with its *weakly* nearest description word
/// would inject misleading content words into the query.
const REWRITE_MIN_COSINE: f32 = 0.35;

/// The rewriting state a [`Linker`] holds by value; every method takes
/// the linker back for the immutable inputs (model, Phase-I dictionary,
/// configuration, fault plan). The memo is the only state a request
/// writes.
pub(crate) struct Rewriter {
    /// Embedding nearest-neighbour index masked to Ω: a row-normalised,
    /// transposed copy of the embedding table.
    nearest: NearestWords,
    /// Length/prefix-bucketed edit-distance index over Ω' — the textual
    /// fallback.
    edit_index: EditIndex,
    /// OOV token → rewrite outcome (negative outcomes included), so a
    /// repeated OOV token costs one lookup per linker lifetime.
    memo: Mutex<HashMap<String, Option<String>>>,
}

impl Rewriter {
    /// Both indexes over `model`'s vocabulary Ω', the nearest-word one
    /// masked to Ω, the words of the concept descriptions `tfidf`
    /// indexes — the only rewriting targets — and an empty memo.
    pub(crate) fn new(model: &ComAid, tfidf: &TfIdfIndex) -> Self {
        let vocab = model.vocab();
        let allowed: Vec<bool> = (0..vocab.len())
            .map(|i| {
                if i < 4 {
                    return false;
                }
                vocab
                    .word(i as u32)
                    .map(|w| tfidf.contains_term(w))
                    .unwrap_or(false)
            })
            .collect();
        Self {
            nearest: NearestWords::new(model.embedding().table(), Some(allowed)),
            edit_index: EditIndex::new(vocab.iter_words().map(|(_, w)| w)),
            memo: Mutex::default(),
        }
    }

    /// Eq. 13 from the embedding of the Ω' word `id`: its nearest Ω
    /// word, when that clears [`REWRITE_MIN_COSINE`].
    fn nearest_to(&self, linker: &Linker<'_>, id: u32) -> Option<String> {
        let v = linker.model.embedding().lookup(id);
        self.nearest
            .nearest(&v, Some(id))
            .filter(|&(_, cos)| cos >= REWRITE_MIN_COSINE)
            .and_then(|(nid, _)| linker.model.vocab().word(nid).map(|s| s.to_string()))
    }

    /// Rewrites one out-of-vocabulary word (Eq. 13 with edit-distance
    /// fallback); returns `None` when no replacement is found.
    pub(crate) fn rewrite_word(&self, linker: &Linker<'_>, word: &str) -> Option<String> {
        let vocab = linker.model.vocab();
        // In Ω' already: jump straight to the embedding neighbour in Ω.
        if let Some(id) = vocab.get(word) {
            return self.nearest_to(linker, id);
        }
        // Textual fallback: the closest Ω' word by edit distance
        // (insertion order is the vocabulary's word-id order, which
        // breaks ties), then Eq. 13 from that word's embedding.
        let similar = self.edit_index.nearest(word, EDIT_MAX_DIST)?;
        if linker.tfidf.contains_term(similar) {
            return Some(similar.to_string());
        }
        self.nearest_to(linker, vocab.get(similar)?)
    }

    /// The rewrite outcome of one out-of-vocabulary token — the one
    /// read-through over the memo. Returns the outcome and whether the
    /// memo served it as a genuine hit.
    ///
    /// With a fault plan attached the memo is bypassed entirely
    /// (memoisation would change how often a site is visited, breaking
    /// deterministic replay): every call recomputes behind a panic
    /// boundary, a panic costing that token's rewrite only. The
    /// `or.rewrite` site is visited when `visit_or` is set — by a
    /// request's Rewrite block, never by Propose: proposal is not the
    /// OR phase, and consuming OR ordinals there would shift replay for
    /// the spans linked afterwards.
    pub(crate) fn outcome(
        &self,
        linker: &Linker<'_>,
        w: &str,
        visit_or: bool,
        stats: &mut RetrievalStats,
    ) -> (Option<String>, bool) {
        if let Some(plan) = &linker.faults {
            stats.rewrite_cache_misses += 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if visit_or {
                    plan.visit("or.rewrite");
                }
                self.rewrite_word(linker, w)
            }))
            .unwrap_or(None);
            return (outcome, false);
        }
        let cached = self
            .memo
            .lock()
            .expect("rewrite memo poisoned")
            .get(w)
            .cloned();
        if let Some(outcome) = cached {
            stats.rewrite_cache_hits += 1;
            return (outcome, true);
        }
        stats.rewrite_cache_misses += 1;
        let outcome = self.rewrite_word(linker, w);
        self.memo
            .lock()
            .expect("rewrite memo poisoned")
            .insert(w.to_string(), outcome.clone());
        (outcome, false)
    }

    /// Rewrites a token sequence under an optional deadline: tokens not
    /// reached before it pass through unrewritten. Returns
    /// `Cow::Borrowed` when nothing was rewritten (the common case for
    /// in-vocabulary queries), so callers pay no per-token clone.
    ///
    /// Work counters accumulate into `trace.retrieval`; every
    /// considered OOV token is additionally recorded as a
    /// [`RewriteDecision`] (observability only).
    pub(crate) fn rewrite<'q>(
        &self,
        linker: &Linker<'_>,
        tokens: &'q [String],
        deadline: Option<Instant>,
        trace: &mut LinkTrace,
    ) -> Cow<'q, [String]> {
        let mut out: Option<Vec<String>> = None;
        let mut expired = false;
        for (i, w) in tokens.iter().enumerate() {
            if !expired && deadline.is_some_and(|d| Instant::now() >= d) {
                expired = true;
                trace.events.push(TraceEvent::DeadlineExpired {
                    stage: StageKind::Rewrite,
                });
            }
            if expired || linker.tfidf.contains_term(w) {
                if let Some(out) = out.as_mut() {
                    out.push(w.clone());
                }
                continue;
            }
            let (replacement, memo_hit) = self.outcome(linker, w, true, &mut trace.retrieval);
            trace.rewrites.push(RewriteDecision {
                token: w.clone(),
                replacement: replacement.clone(),
                memo_hit,
            });
            match replacement {
                Some(r) => out.get_or_insert_with(|| tokens[..i].to_vec()).push(r),
                None => {
                    if let Some(out) = out.as_mut() {
                        out.push(w.clone());
                    }
                }
            }
        }
        match out {
            Some(v) => Cow::Owned(v),
            None => Cow::Borrowed(tokens),
        }
    }
}
