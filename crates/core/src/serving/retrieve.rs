//! Stage 2 — **Retrieve** (the paper's CR phase): TF-IDF cosine top-k
//! over the fine-grained concept documents, via the MaxScore-pruned
//! scan of [`ncl_text::tfidf::TfIdfIndex::top_k_with_stats`].

use super::ctx::RequestCtx;
use super::trace::{StageKind, TraceEvent};
use super::Stage;
use crate::linker::Linker;
use ncl_ontology::ConceptId;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The Retrieve stage; borrows the linker's inverted index and
/// doc → concept map.
pub struct Retrieve<'s, 'a> {
    pub(crate) linker: &'s Linker<'a>,
}

impl Stage for Retrieve<'_, '_> {
    fn kind(&self) -> StageKind {
        StageKind::Retrieve
    }

    fn run(&self, ctx: &mut RequestCtx<'_>) {
        // Panic-isolated: a fault here yields an empty candidate set,
        // not an abort.
        let hits = catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = &ctx.faults {
                plan.visit("cr.topk");
            }
            self.linker
                .tfidf
                .top_k_with_stats(&ctx.rewritten, self.linker.config().k)
        }));
        ctx.cr_panicked = hits.is_err();
        if ctx.cr_panicked {
            ctx.trace.events.push(TraceEvent::RetrievePanicked);
        }
        let (hits, index_stats) = hits.unwrap_or_default();
        ctx.trace.retrieval.merge(&index_stats);
        ctx.candidates = hits
            .iter()
            .map(|&(d, _)| self.linker.doc_map[d])
            .collect::<Vec<ConceptId>>();
        let cr = ctx.stage_started.elapsed();
        ctx.cr_over = ctx.budget.cr.is_some_and(|b| cr > b);
    }
}
