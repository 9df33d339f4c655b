//! Offline-training throughput (the quantities Figure 12 plots): one
//! CBOW pre-training pass and one COM-AID refinement epoch over a small
//! synthetic corpus.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ncl_bench::{workload, Scale};
use ncl_core::comaid::{ComAid, OntologyIndex, TrainPair, Variant};
use ncl_datagen::DatasetProfile;
use ncl_embedding::corpus::CorpusBuilder;
use ncl_embedding::{CbowConfig, CbowModel};
use ncl_nn::optimizer::LrSchedule;
use ncl_text::tokenize;

fn bench_cbow_epoch(c: &mut Criterion) {
    let scale = Scale::quick();
    let ds = workload::dataset(DatasetProfile::MimicIii, &scale);
    let mut cb = CorpusBuilder::new();
    for (_, concept) in ds.ontology.iter() {
        cb.add_labeled(
            &tokenize(&concept.canonical),
            &concept.code.to_ascii_lowercase(),
        );
    }
    for s in &ds.unlabeled {
        cb.add_unlabeled(s);
    }
    let corpus = cb.build();
    let cfg = CbowConfig {
        dim: 32,
        window: 5,
        negative: 8,
        epochs: 1,
        lr: 0.05,
        seed: 1,
    };
    let mut group = c.benchmark_group("pretraining");
    group.sample_size(10);
    group.bench_function("cbow_one_epoch", |b| {
        b.iter(|| black_box(CbowModel::train(black_box(&corpus), cfg)))
    });
    group.finish();
}

fn bench_comaid_epoch(c: &mut Criterion) {
    let scale = Scale::quick();
    let ds = workload::dataset(DatasetProfile::MimicIii, &scale);
    let cfg = workload::ncl_config(&scale, 32, Variant::Full, false);

    // Build vocabulary and pairs once.
    let mut cb = CorpusBuilder::new();
    for (_, concept) in ds.ontology.iter() {
        cb.add_labeled(
            &tokenize(&concept.canonical),
            &concept.code.to_ascii_lowercase(),
        );
        for a in &concept.aliases {
            cb.add_labeled(&tokenize(a), &concept.code.to_ascii_lowercase());
        }
    }
    for s in &ds.unlabeled {
        cb.add_unlabeled(s);
    }
    let corpus = cb.build();
    let vocab = corpus.vocab;
    let pairs: Vec<TrainPair> = ds
        .ontology
        .iter()
        .flat_map(|(id, concept)| concept.aliases.iter().map(move |a| (id, a.clone())))
        .map(|(id, a)| TrainPair {
            concept: id,
            target: tokenize(&a).iter().map(|t| vocab.get_or_unk(t)).collect(),
        })
        .collect();
    let index = OntologyIndex::build(&ds.ontology, &vocab, cfg.comaid.beta);

    let mut group = c.benchmark_group("refinement");
    group.sample_size(10);
    group.bench_function("comaid_one_epoch", |b| {
        b.iter(|| {
            let mut model = ComAid::new(vocab.clone(), cfg.comaid, None);
            black_box(model.fit_epochs(&index, &pairs, 1, LrSchedule::constant(0.2)))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cbow_epoch, bench_comaid_epoch);
criterion_main!(benches);
