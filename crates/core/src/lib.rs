#![warn(missing_docs)]

//! # ncl-core
//!
//! The paper's primary contribution: the **COM-AID** neural network and
//! the **NCL** concept-linking framework of *Fine-grained Concept Linking
//! using Neural Networks in Healthcare* (Dai et al., SIGMOD 2018).
//!
//! * [`comaid`] — the COMposite AttentIonal encode-Decode network (§4):
//!   concept encoder, text-structure duet decoder with textual (Eq. 5–6)
//!   and structural (Eq. 7) attention, the composite layer (Eq. 8), the
//!   vocabulary softmax (Eq. 9), MLE training (Eq. 10) and the four
//!   architecture variants of the §6.3 study (`Full`, `NoStruct` ≙
//!   COM-AID⁻ᶜ ≙ attention NMT \[2\], `NoText` ≙ COM-AID⁻ʷ, `NoBoth` ≙
//!   COM-AID⁻ʷᶜ ≙ seq2seq \[40\]),
//! * [`linker`] — the two-phase online linking of §5: TF-IDF candidate
//!   retrieval with query rewriting (Eq. 13), COM-AID re-ranking, and the
//!   OR/CR/ED/RT timing breakdown measured in Figure 11,
//! * [`serving`] — the request function behind [`linker`]:
//!   `Rewrite → Retrieve → Score → Rank` as four timed blocks, with
//!   pluggable Phase-II scorers and a unified [`LinkTrace`],
//! * [`feedback`] — the feedback controller of Appendix A (loss /
//!   standard-deviation uncertainty gates, pooling, retrain triggering)
//!   plus the hot-swap serving generations that publish a retrained
//!   model without dropping in-flight requests,
//! * [`metrics`] — top-1 accuracy, MRR (with the paper's missing-rank
//!   convention) and Phase-I coverage (§6.1–6.2),
//! * [`pipeline`] — the end-to-end NCL assembly: pre-train embeddings
//!   (§4.2) → train COM-AID → build the online linker.

pub mod comaid;
mod csr;
pub mod error;
pub mod faults;
pub mod feedback;
pub mod linker;
pub mod metrics;
pub mod pipeline;
#[cfg(test)]
mod reference;
pub mod serving;

pub use comaid::{ComAid, ComAidConfig, TrainPair, Variant};
pub use error::NclError;
pub use faults::{FaultKind, FaultPlan};
pub use feedback::{ExpertLabel, FeedbackConfig, FeedbackController, HotSwapCell, ModelGeneration};
pub use linker::Linker;
pub use ncl_text::tfidf::RetrievalStats;
pub use pipeline::{NclConfig, NclPipeline};
pub use serving::{
    AdmissionRung, CacheUse, ComAidScore, Completion, Degradation, DegradeReason,
    DocumentCompletion, DocumentResult, Frontend, FrontendConfig, FrontendStats, HistSummary,
    LatencyHistogram, LinkBudget, LinkResult, LinkTrace, LinkerConfig, ProposeConfig,
    RewriteDecision, ScoreOutcome, ScoreRequest, ScoreStage, SpanAnchor, SpanLink, SpanProposal,
    StageKind, StageTiming, TraceEvent, MAX_QUERY_TOKENS,
};
