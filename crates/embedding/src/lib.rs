#![warn(missing_docs)]

//! # ncl-embedding
//!
//! The pre-training phase of NCL (§4.2 of *Fine-grained Concept Linking
//! using Neural Networks in Healthcare*, Dai et al., SIGMOD 2018): word
//! representation learning over unlabeled clinical snippets.
//!
//! The paper's key observation is that the distributional hypothesis
//! misleads for short concept mentions: in "protein deficiency anemia" /
//! "dietary folate deficiency anemia" / "iron deficiency anemia
//! unspecified" the words *protein*, *folate* and *iron* share contexts
//! yet denote different concepts. NCL therefore **alters** each labeled
//! snippet by interleaving its concept identifier between the words
//! ("D53.0 protein D53.0 deficiency D53.0 anemia"), which pushes those
//! embeddings apart; see [`corpus::incorporate_concept_id`].
//!
//! Embeddings are then learned with CBOW. The paper trains with
//! noise-contrastive estimation (Appendix B.2: "the parameter
//! noise-contrastive estimation (NCE) is set to 10"); we use *negative
//! sampling*, word2vec's standard simplification of NCE with the same
//! hyper-parameter (number of noise samples) and near-identical embedding
//! quality — this substitution is recorded in `DESIGN.md`.

pub mod cbow;
pub mod corpus;
pub mod nearest;

pub use cbow::{CbowConfig, CbowModel};
pub use corpus::Corpus;
pub use nearest::NearestWords;
