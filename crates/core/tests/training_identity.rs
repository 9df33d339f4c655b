//! Training ⇔ SIMD-level identity suite.
//!
//! The taped forward pass runs `ncl_tensor::simd::colmajor_gemv_acc_seq`
//! over the transposed weight plan each batch builds, every BPTT step
//! runs `Matrix::{add_outer_seq, gemv_t_acc_seq}`
//! (`simd::{rank1_update_seq, gemv_t_acc_seq}`), and every uncached
//! score runs `simd::colmajor_gemv_acc` over `ComAid::plan`.
//! (`Matrix::gemv_acc` — `simd::rowmajor_gemv_acc` — is the scalar
//! definition at every level, the reference those products are tested
//! against, not a SIMD body.) The SIMD bodies are pinned kernel by
//! kernel in `crates/tensor/tests/simd_identity.rs`; this suite pins
//! them where they matter — a whole `ComAid::fit`, sharded
//! batches and gradient merge included, must produce the same losses and
//! the same parameter bytes at every dispatch level as at `Scalar`, and
//! an uncached score must be the same float.
//!
//! `simd::with_level` pins the *calling* thread only, so every model here
//! trains with `train_threads: 1`: the worker pool then runs all shards
//! inline, under the pin. (Thread-count invariance is its own suite, in
//! `comaid/train.rs`.)
//!
//! Runs under `NCL_FORCE_SCALAR=1` too (CI's scalar-fallback leg): with
//! Scalar the active level, a fit pinned to each SIMD level in-process
//! must still reproduce the scalar run's losses and parameter bytes.

use ncl_core::comaid::{ComAid, ComAidConfig, OntologyIndex, TrainPair, Variant};
use ncl_ontology::{Ontology, OntologyBuilder};
use ncl_tensor::simd::{self, Level};
use ncl_tensor::wire::Wire;
use ncl_text::{tokenize, Vocab};

/// Six concepts, eleven ⟨concept, snippet⟩ pairs, doubled to 22: at
/// `batch_size` 16 every epoch runs one two-shard batch (replica sync,
/// two `run_shard`s, fixed-order merge) and one single-shard batch.
fn world() -> (Ontology, Vocab, Vec<TrainPair>) {
    let mut b = OntologyBuilder::new();
    let n18 = b.add_root_concept("N18", "chronic kidney disease");
    let n185 = b.add_child(n18, "N18.5", "chronic kidney disease stage 5");
    let n189 = b.add_child(n18, "N18.9", "chronic kidney disease unspecified");
    let r10 = b.add_root_concept("R10", "abdominal pain");
    let r100 = b.add_child(r10, "R10.0", "acute abdomen");
    let r109 = b.add_child(r10, "R10.9", "unspecified abdominal pain");
    b.add_alias(n185, "ckd stage 5");
    b.add_alias(n185, "renal disease stage 5");
    b.add_alias(n189, "ckd unspecified");
    b.add_alias(r100, "acute abdominal syndrome");
    b.add_alias(r109, "abdomen pain");
    let o = b.build().unwrap();

    let mut vocab = Vocab::new();
    for (_, c) in o.iter() {
        for text in std::iter::once(&c.canonical).chain(&c.aliases) {
            for t in tokenize(text) {
                vocab.add(&t);
            }
        }
    }
    let mut pairs = Vec::new();
    for (id, c) in o.iter() {
        for text in std::iter::once(&c.canonical).chain(&c.aliases) {
            pairs.push(TrainPair {
                concept: id,
                target: tokenize(text).iter().map(|t| vocab.get_or_unk(t)).collect(),
            });
        }
    }
    let doubled = pairs.clone();
    pairs.extend(doubled);
    assert!(pairs.len() > 16, "need a full two-shard batch");
    (o, vocab, pairs)
}

/// `dim` 12 gives every kernel one full 8-row block plus a 4-row tail
/// and the same split along `k`; the
/// composite layer's input is 36 wide (four blocks plus a tail).
fn config(variant: Variant) -> ComAidConfig {
    ComAidConfig {
        dim: 12,
        beta: 2,
        variant,
        epochs: 3,
        lr: 0.3,
        lr_decay: 0.9,
        batch_size: 16,
        clip_norm: 5.0,
        seed: 29,
        train_threads: 1,
    }
}

fn model_bytes(model: &ComAid) -> Vec<u8> {
    let mut bytes = Vec::new();
    model.encode(&mut bytes);
    bytes
}

/// Trains a fresh model at `level`; returns the per-epoch losses as bit
/// patterns and the encoded parameters.
fn fit_at(level: Level) -> (Vec<u32>, Vec<u8>) {
    let (o, vocab, pairs) = world();
    simd::with_level(level, || {
        let mut model = ComAid::new(vocab, config(Variant::Full), None);
        let index = OntologyIndex::build(&o, model.vocab(), 2);
        let report = model.fit(&index, &pairs);
        assert!(report.final_loss().is_finite());
        (
            report.epoch_losses.iter().map(|l| l.to_bits()).collect(),
            model_bytes(&model),
        )
    })
}

#[test]
fn fit_is_bit_identical_at_every_simd_level() {
    let (want_losses, want_bytes) = fit_at(Level::Scalar);
    // The run must have moved the parameters, or equal bytes say nothing
    // about the backward kernels.
    let (_, vocab, _) = world();
    let untrained = ComAid::new(vocab, config(Variant::Full), None);
    assert_ne!(model_bytes(&untrained), want_bytes);
    for level in simd::supported_levels() {
        let (losses, bytes) = fit_at(level);
        assert_eq!(losses, want_losses, "{level:?}: epoch losses");
        assert!(
            bytes == want_bytes,
            "{level:?}: trained parameters differ from the scalar run"
        );
    }
}

/// One masked score is a short sum of step log-probabilities near −10,
/// where a last-bit difference in a gate is usually rounded away — so a
/// single score would pass a kernel that sums in the wrong order. Every
/// concept × a few queries gives such a difference several dozen chances
/// per variant to reach the last bit of a score.
#[test]
fn uncached_masked_scores_are_bit_identical_at_every_simd_level() {
    let (o, vocab, pairs) = world();
    let queries = [
        ("renal disease stage 5", vec![true, false, true, true]),
        ("acute abdominal syndrome", vec![false, true, true]),
        ("ckd", vec![true]),
    ];
    for &variant in Variant::ALL {
        // A briefly trained model, so the scores run on weights that are
        // not the initialiser's.
        let mut model = ComAid::new(vocab.clone(), config(variant), None);
        let index = OntologyIndex::build(&o, model.vocab(), 2);
        model.fit(&index, &pairs);
        let scores = |level| {
            simd::with_level(level, || {
                let mut bits = Vec::new();
                for (concept, _) in o.iter() {
                    for (query, mask) in &queries {
                        let target = model.encode_text(query);
                        let lp = model.log_prob_ids_masked(&index, concept, &target, mask);
                        assert!(lp.is_finite() && lp < 0.0, "{variant:?} {query:?}: {lp}");
                        bits.push(lp.to_bits());
                    }
                }
                bits
            })
        };
        let want = scores(Level::Scalar);
        for level in simd::supported_levels() {
            assert_eq!(scores(level), want, "{variant:?} @ {level:?}");
        }
    }
}
