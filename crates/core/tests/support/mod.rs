//! The training world the golden-snapshot and allocation-count suites
//! share: that of `training_identity.rs`, which keeps its own copy.

use ncl_core::comaid::{ComAidConfig, TrainPair, Variant};
use ncl_ontology::{Ontology, OntologyBuilder};
use ncl_text::{tokenize, Vocab};

/// Six concepts, eleven ⟨concept, snippet⟩ pairs, doubled to 22: one
/// two-shard batch and one single-shard batch per epoch at `batch_size`
/// 16.
pub fn world() -> (Ontology, Vocab, Vec<TrainPair>) {
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
    assert_eq!(pairs.len(), 22);
    (o, vocab, pairs)
}

/// `training_identity.rs`'s configuration: `dim` 12, three epochs.
pub fn config(variant: Variant) -> ComAidConfig {
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
