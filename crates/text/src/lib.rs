#![warn(missing_docs)]

//! # ncl-text
//!
//! Text-processing substrate for the NCL reproduction of *Fine-grained
//! Concept Linking using Neural Networks in Healthcare* (Dai et al.,
//! SIGMOD 2018).
//!
//! The paper normalises all snippets by lower-casing, stripping special
//! characters and de-duplicating (§6.1, footnote 9); retrieves candidate
//! concepts with a TF-IDF cosine keyword matcher (§5 Phase I); rewrites
//! out-of-vocabulary query words using edit distance as a textual fallback
//! (Eq. 13 and surrounding text); and the LR⁺ baseline consumes character
//! bigram / prefix / suffix / shared-number / acronym features (§6.1).
//! This crate provides all of those primitives:
//!
//! * [`tokenize`](mod@tokenize) — normalisation and word splitting
//!   (shared by the index side and the query side),
//! * [`vocab`] — word ↔ id interning with special tokens,
//! * [`edit_distance`] — Levenshtein and Damerau–Levenshtein distances,
//! * [`edit_index`] — length/prefix-bucketed nearest-by-edit lookup,
//! * [`ngram`] — character n-gram extraction,
//! * [`tfidf`] — inverted index with TF-IDF cosine top-k retrieval,
//! * [`abbrev`] — abbreviation/acronym generation and matching rules.

pub mod abbrev;
pub mod edit_distance;
pub mod edit_index;
pub mod ngram;
pub mod tfidf;
pub mod tokenize;
pub mod vocab;

pub use tokenize::{for_each_token, tokenize};
pub use vocab::{Vocab, WordId};
