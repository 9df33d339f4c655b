//! The reference linker: the paper's online recipe written the obvious
//! way, as the oracle the serving path is checked against.
//!
//! [`reference_log_prob`] is COM-AID's `log p(q|c; Θ)` as plain loops
//! over the parameter slices, straight from PAPER.md Eq. 3–9: no
//! kernel, no cache, no tape, no batching. It shares *bits* with the
//! product code by following DESIGN.md §14's scalar recipe — every dot
//! product a fresh accumulator over ascending `k` with the product
//! rounded before the sum — and `ncl_tensor::libm`'s scalar
//! definitions of `exp`, `tanh` and the sigmoid, plus `f32::ln`. It
//! shares no *code* with `ncl_tensor::simd`, `ncl_nn`'s forward passes,
//! the concept cache or the taped run, so it can disagree with any of
//! them.
//!
//! [`reference_link`] is §5 around it: rewrite each token (Eq. 13; no
//! memo), exhaustive TF-IDF top-`k`, score every candidate
//! with the shared words masked out of the sum, add the prior
//! (Eq. 11), sort. No budgets, no faults, no trace.

// Indexed loops on purpose: they read like the sums they compute.
#![allow(clippy::needless_range_loop)]

use crate::comaid::{best_first, ComAid, OntologyIndex};
use crate::linker::Linker;
use ncl_nn::Lstm;
use ncl_ontology::ConceptId;
use ncl_tensor::libm::{expf, sigmoid, tanhf};
use ncl_tensor::Matrix;
use ncl_text::{tokenize, Vocab};

/// `Σ_k a[k]·b[k]`: fresh accumulator, ascending `k`, the product
/// rounded before it is added.
fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for k in 0..a.len() {
        acc += a[k] * b[k];
    }
    acc
}

/// `b + W x`, row by row.
fn affine(w: &Matrix, b: &[f32], x: &[f32]) -> Vec<f32> {
    let mut y = Vec::with_capacity(w.rows());
    for r in 0..w.rows() {
        y.push(b[r] + dot(w.row(r), x));
    }
    y
}

/// One LSTM cell step (§4.1.1): the gates `i, f, o = δ(W x + U h + b)`,
/// the candidate `c̃ = tanh(W x + U h + b)`, then
/// `c_t = f ⊙ c_{t−1} + i ⊙ c̃` and `h_t = o ⊙ tanh(c_t)`. A gate's
/// pre-activation is summed as `(b + W x) + U h`; unit `k` of gate `g`
/// is row `g·d + k` of the layer's stacked parameters.
fn lstm_step(l: &Lstm, x: &[f32], h: &[f32], c: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let d = l.hidden();
    let (mut h_new, mut c_new) = (vec![0.0f32; d], vec![0.0f32; d]);
    for k in 0..d {
        let pre = |g: usize| {
            let r = g * d + k;
            (l.b.v[r] + dot(l.w.v.row(r), x)) + dot(l.u.v.row(r), h)
        };
        let i = sigmoid(pre(0));
        let f = sigmoid(pre(1));
        let o = sigmoid(pre(2));
        let g = tanhf(pre(3));
        let mut cell = f * c[k];
        cell += i * g;
        c_new[k] = cell;
        h_new[k] = o * tanhf(cell);
    }
    (h_new, c_new)
}

/// The concept encoder over a description's word ids from the zero
/// state: every hidden state `h_1..h_n`, and the final `(h, c)` (the
/// zero state for an empty description). `h_n` is the concept
/// representation.
fn encode(model: &ComAid, ids: &[u32]) -> (Vec<Vec<f32>>, Vec<f32>, Vec<f32>) {
    let d = model.config().dim;
    let (mut h, mut c) = (vec![0.0f32; d], vec![0.0f32; d]);
    let mut states = Vec::with_capacity(ids.len());
    for &id in ids {
        (h, c) = lstm_step(
            &model.encoder,
            model.embedding.table().row(id as usize),
            &h,
            &c,
        );
        states.push(h.clone());
    }
    (states, h, c)
}

/// Dot attention (Eq. 5–7): `e_r = m_r · s`, `α = softmax(e)` with the
/// maximum subtracted and the normaliser applied as a multiplication by
/// `1/Σ`, context `Σ_r α_r m_r` accumulated in ascending `r`. An empty
/// memory gives the zero context.
fn attend(memory: &[Vec<f32>], s: &[f32]) -> Vec<f32> {
    let mut ctx = vec![0.0f32; s.len()];
    if memory.is_empty() {
        return ctx;
    }
    let mut alpha: Vec<f32> = memory.iter().map(|m| dot(m, s)).collect();
    let mut max = f32::NEG_INFINITY;
    for &e in &alpha {
        max = max.max(e);
    }
    let mut sum = 0.0f32;
    for a in &mut alpha {
        *a = expf(*a - max);
        sum += *a;
    }
    let inv = 1.0 / sum;
    for (m, a) in memory.iter().zip(&alpha) {
        let w = a * inv;
        for k in 0..ctx.len() {
            ctx[k] += w * m[k];
        }
    }
    ctx
}

/// `log p(q|c; Θ)` of the query word ids `ids` given `concept`
/// (Eq. 3), counting only the steps whose `mask` entry is set — the
/// shared words of §5 Phase II are removed from the *sum*, the decoded
/// sequence stays whole — plus the EOS step, always.
pub(crate) fn reference_log_prob(
    model: &ComAid,
    index: &OntologyIndex,
    concept: ConceptId,
    ids: &[u32],
    mask: &[bool],
) -> f32 {
    assert_eq!(mask.len(), ids.len());
    let variant = model.config().variant;
    let table = model.embedding.table();

    // Encoder: the description's states are the textual memory.
    let (enc_states, enc_h, enc_c) = encode(model, index.tokens(concept));
    // Structural memory: the β ancestor slots of Definition 4.1.
    // Duplicates stay as slots; each distinct ancestor is encoded once.
    let mut encoded: Vec<(ConceptId, Vec<f32>)> = Vec::new();
    let mut struct_memory: Vec<Vec<f32>> = Vec::new();
    if variant.uses_struct() {
        for &anc in index.context(concept) {
            if !encoded.iter().any(|(a, _)| *a == anc) {
                encoded.push((anc, encode(model, index.tokens(anc)).1));
            }
            let (_, h) = encoded.iter().find(|(a, _)| *a == anc).unwrap();
            struct_memory.push(h.clone());
        }
    }

    // Decoder: `s_0 = h_n^c`, inputs ⟨BOS, q⟩, predictions ⟨q, EOS⟩.
    let (mut s, mut cell) = (enc_h, enc_c);
    let mut log_prob = 0.0f32;
    for t in 0..=ids.len() {
        let input = if t == 0 { Vocab::BOS } else { ids[t - 1] };
        let target = if t == ids.len() { Vocab::EOS } else { ids[t] };
        (s, cell) = lstm_step(&model.decoder, table.row(input as usize), &s, &cell);
        // Eq. 8: s̃_t = tanh(W_d [s_t ; tc_t ; sc_t] + b_d), each
        // context present when the variant keeps its attention.
        let mut composite_in = s.clone();
        if variant.uses_text() {
            composite_in.extend(attend(&enc_states, &s));
        }
        if variant.uses_struct() {
            composite_in.extend(attend(&struct_memory, &s));
        }
        let mut s_tilde = affine(
            &model.composite.w.v,
            model.composite.b.v.as_slice(),
            &composite_in,
        );
        for v in &mut s_tilde {
            *v = tanhf(*v);
        }
        // Eq. 9: log-softmax over the whole vocabulary at the target.
        let logits = affine(&model.output.w.v, model.output.b.v.as_slice(), &s_tilde);
        let mut max = f32::NEG_INFINITY;
        for &x in &logits {
            max = max.max(x);
        }
        let mut sum = 0.0f32;
        for &x in &logits {
            sum += expf(x - max);
        }
        let step = logits[target as usize] - (max + sum.ln());
        if t == ids.len() || mask[t] {
            log_prob += step;
        }
    }
    log_prob
}

/// What [`reference_link`] answers: the fields of a
/// [`crate::serving::LinkResult`] the equations determine.
#[derive(Debug)]
pub(crate) struct ReferenceResult {
    pub rewritten: Vec<String>,
    pub candidates: Vec<ConceptId>,
    pub ranked: Vec<(ConceptId, f32)>,
}

/// The reference score of one (query, candidate) pair under the
/// linker's configuration, prior not yet added: the query's word ids,
/// with every word that also occurs in the candidate's canonical
/// description masked out of the sum when `remove_shared` is on.
pub(crate) fn reference_score(linker: &Linker<'_>, query: &[String], c: ConceptId) -> f32 {
    let description = tokenize(&linker.ontology().concept(c).canonical);
    let mask: Vec<bool> = query
        .iter()
        .map(|w| !(linker.config().remove_shared && description.contains(w)))
        .collect();
    let model = linker.model;
    let ids = model.encode_words(query);
    let index = OntologyIndex::build(linker.ontology(), model.vocab(), model.config().beta);
    reference_log_prob(model, &index, c, &ids, &mask)
}

/// §5 end to end; see the module docs.
pub(crate) fn reference_link(linker: &Linker<'_>, tokens: &[String]) -> ReferenceResult {
    let mut rewritten = tokens.to_vec();
    if linker.config().rewrite {
        for w in &mut rewritten {
            if !linker.tfidf.contains_term(w) {
                if let Some(r) = linker.rewriter.rewrite_word(linker, w) {
                    *w = r;
                }
            }
        }
    }
    let candidates: Vec<ConceptId> = linker
        .tfidf
        .top_k_exhaustive(&rewritten, linker.config().k)
        .iter()
        .map(|&(doc, _)| linker.doc_map[doc])
        .collect();
    let mut ranked: Vec<(ConceptId, f32)> = candidates
        .iter()
        .map(|&c| {
            (
                c,
                reference_score(linker, &rewritten, c) + linker.concept_log_prior(c),
            )
        })
        .collect();
    ranked.sort_by(|a, b| best_first(a.1, b.1).then(a.0.cmp(&b.0)));
    ReferenceResult {
        rewritten,
        candidates,
        ranked,
    }
}

mod hot_swap;
mod lattice;
