//! End-to-end online-linking latency (the quantity Figure 11 plots).
//!
//! A pipeline is trained once on a small synthetic dataset; the
//! benchmark then measures `Linker::link` for different candidate-set
//! sizes `k` and query lengths, mirroring the two sweeps of Figure 11.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ncl_bench::{workload, Scale};
use ncl_core::{Linker, LinkerConfig};
use ncl_datagen::DatasetProfile;

fn bench_link(c: &mut Criterion) {
    let scale = Scale::quick();
    let ds = workload::dataset(DatasetProfile::HospitalX, &scale);
    let pipeline = workload::fit_default(&ds, &scale);
    let queries = ds.query_group(24, 12, 5);

    let mut group = c.benchmark_group("link_vs_k");
    group.sample_size(20);
    for &k in &[10usize, 20, 50] {
        let linker = Linker::new(
            &pipeline.model,
            &ds.ontology,
            LinkerConfig {
                k,
                ..LinkerConfig::default()
            },
        );
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                black_box(linker.link(black_box(&q.tokens)))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("link_vs_qlen");
    group.sample_size(20);
    let linker = Linker::new(&pipeline.model, &ds.ontology, LinkerConfig::default());
    for qlen in [1usize, 3, 6] {
        let subset: Vec<Vec<String>> = queries
            .iter()
            .map(|q| {
                let mut t = q.tokens.clone();
                t.truncate(qlen);
                t
            })
            .filter(|t| !t.is_empty())
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(qlen), &qlen, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let q = &subset[i % subset.len()];
                i += 1;
                black_box(linker.link(black_box(q)))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_link);
criterion_main!(benches);
