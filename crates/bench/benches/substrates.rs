//! Micro-benchmarks of the substrate kernels that dominate COM-AID's
//! cost model: the `gemv` behind every LSTM gate, a full LSTM step, the
//! attention forward pass, the TF-IDF top-k retrieval (the CR part of
//! Figure 11), and the edit-distance fallback of query rewriting (the OR
//! part).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ncl_nn::lstm::LstmTape;
use ncl_nn::{DotAttention, Lstm};
use ncl_tensor::{init, Matrix, Vector};
use ncl_text::edit_distance::damerau_levenshtein;
use ncl_text::tfidf::TfIdfIndex;
use ncl_text::tokenize;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_gemv(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemv");
    for &d in &[50usize, 150] {
        let mut rng = StdRng::seed_from_u64(1);
        let m = init::xavier_uniform(d, d, &mut rng);
        let x = init::uniform_vector(d, -1.0, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| black_box(m.gemv(black_box(&x))))
        });
    }
    group.finish();
}

fn bench_lstm_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("lstm_forward_seq_len8");
    for &d in &[50usize, 150] {
        let mut rng = StdRng::seed_from_u64(2);
        let lstm = Lstm::new(d, d, &mut rng);
        let xs = init::uniform(8, d, -1.0, 1.0, &mut rng);
        let zero = vec![0.0f32; d];
        let mut tape = LstmTape::default();
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| {
                lstm.forward_seq(black_box(xs.as_slice()), 8, &zero, &zero, &mut tape);
                black_box(tape.final_h()[0])
            })
        });
    }
    group.finish();
}

fn bench_attention(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let d = 150;
    let memory: Vec<Vector> = (0..8)
        .map(|_| init::uniform_vector(d, -1.0, 1.0, &mut rng))
        .collect();
    let s = init::uniform_vector(d, -1.0, 1.0, &mut rng);
    c.bench_function("attention_forward_n8_d150", |b| {
        b.iter(|| black_box(DotAttention.forward(black_box(&memory), black_box(&s))))
    });
}

fn bench_tfidf(c: &mut Criterion) {
    // A synthetic posting structure comparable to a thousand-concept
    // ontology.
    let docs: Vec<Vec<String>> = (0..1000)
        .map(|i| {
            tokenize(&format!(
                "condition type{} of organ{} stage {}",
                i % 37,
                i % 53,
                i % 5
            ))
        })
        .collect();
    let idx = TfIdfIndex::build(&docs);
    let q = tokenize("condition type3 organ7 stage 2");
    c.bench_function("tfidf_top20_1000docs", |b| {
        b.iter(|| black_box(idx.top_k(black_box(&q), 20)))
    });
}

fn bench_edit_distance(c: &mut Criterion) {
    c.bench_function("damerau_neuropaty", |b| {
        b.iter(|| {
            black_box(damerau_levenshtein(
                black_box("neuropaty"),
                black_box("neuropathy"),
            ))
        })
    });
}

fn bench_pca(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut data = Matrix::zeros(64, 32);
    for v in data.as_mut_slice() {
        *v = rand::Rng::gen_range(&mut rng, -1.0..1.0);
    }
    c.bench_function("pca2_64x32", |b| {
        b.iter(|| black_box(ncl_tensor::pca::Pca::fit(black_box(&data), 2)))
    });
}

criterion_group!(
    benches,
    bench_gemv,
    bench_lstm_step,
    bench_attention,
    bench_tfidf,
    bench_edit_distance,
    bench_pca
);
criterion_main!(benches);
