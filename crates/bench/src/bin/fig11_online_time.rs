//! Figure 11 (Appendix B.1): online linking time analysis.
//!
//! The linking call is split into OR (out-of-vocabulary replacement), CR
//! (candidate retrieval), ED (encode-decode) and RT (ranking); times are
//! reported (a)(b) per candidate cardinality `k` ∈ {10..50} and (c)(d)
//! per query length `|q|` ∈ {1..6}, for both datasets.
//!
//! Expected shape: total time grows with `k`, dominated by ED (more
//! candidates to decode, sub-linearly once retrieval saturates); it
//! grows with `|q|` through both CR (more postings examined) and ED
//! (longer decode chains); hospital-x runs slower than MIMIC-III because
//! ICD-10-style canonical descriptions are longer.
//!
//! **Phase-I scale sweep** (repo extension): the paper's ontologies hold
//! 17k–94k concepts (§6.1), far beyond the trained-model profiles above,
//! and at that size candidate retrieval is where a naive scan hurts. The
//! second half of this binary drops the model and measures the
//! [`TfIdfIndex`] alone on synthetic ontologies across a concept-count ×
//! query-length grid: MaxScore-pruned `top_k` against the exhaustive
//! scan, measured in paired interleaved rounds, with bit-identical
//! results asserted before any timing. Writes
//! `results/fig11_scale_sweep.json` plus a flat `BENCH_fig11.json` for
//! the CI regression gate; the acceptance is pruned ≥ 3× exhaustive at
//! ≥ 50k concepts.

use ncl_bench::config::table1;
use ncl_bench::{table, workload, Scale};
use ncl_core::{Linker, LinkerConfig, StageKind};
use ncl_datagen::ontology_gen::generate_at_least;
use ncl_ontology::codes::IcdRevision;
use ncl_text::tfidf::{RetrievalStats, TfIdfIndex};
use ncl_text::tokenize;
use std::time::{Duration, Instant};

struct TimingRow {
    dataset: String,
    axis: String,
    value: usize,
    or_ms: f64,
    cr_ms: f64,
    ed_ms: f64,
    rt_ms: f64,
}
ncl_bench::impl_to_json!(TimingRow {
    dataset,
    axis,
    value,
    or_ms,
    cr_ms,
    ed_ms,
    rt_ms
});

struct ScaleRow {
    concepts: usize,
    qlen: usize,
    k: usize,
    pruned_qps: f64,
    exhaustive_qps: f64,
    speedup: f64,
    postings_pruned_frac: f64,
}
ncl_bench::impl_to_json!(ScaleRow {
    concepts,
    qlen,
    k,
    pruned_qps,
    exhaustive_qps,
    speedup,
    postings_pruned_frac
});

fn mean_ms(ds: &[Duration]) -> f64 {
    if ds.is_empty() {
        return 0.0;
    }
    ds.iter().map(|d| d.as_secs_f64()).sum::<f64>() / ds.len() as f64 * 1e3
}

/// Times pruned vs exhaustive retrieval in alternating rounds, returning
/// `(pruned_qps, exhaustive_qps)`. Interleaving makes the ratio immune
/// to machine-speed drift across the sweep.
fn measure_paired_topk(
    index: &TfIdfIndex,
    queries: &[Vec<String>],
    k: usize,
    min_secs: f64,
) -> (f64, f64) {
    for q in queries.iter().take(3) {
        let _ = index.top_k(q, k);
        let _ = index.top_k_exhaustive(q, k);
    }
    let (mut tp, mut te) = (0.0f64, 0.0f64);
    let (mut np, mut ne) = (0usize, 0usize);
    while tp + te < min_secs {
        let s = Instant::now();
        for q in queries {
            let _ = index.top_k(q, k);
            np += 1;
        }
        tp += s.elapsed().as_secs_f64();
        let s = Instant::now();
        for q in queries {
            let _ = index.top_k_exhaustive(q, k);
            ne += 1;
        }
        te += s.elapsed().as_secs_f64();
    }
    (np as f64 / tp, ne as f64 / te)
}

/// Builds `want` fixed-length queries by striding over the corpus and
/// truncating documents that are at least `qlen` tokens long.
fn scale_queries(docs: &[Vec<String>], qlen: usize, want: usize) -> Vec<Vec<String>> {
    let mut queries = Vec::with_capacity(want);
    // A stride coprime with typical corpus sizes spreads samples across
    // the whole ontology rather than one subtree.
    let stride = (docs.len() / want).max(1) | 1;
    let mut i = 0usize;
    while queries.len() < want && i < docs.len() * 2 {
        let d = &docs[i % docs.len()];
        if d.len() >= qlen {
            queries.push(d[..qlen].to_vec());
        }
        i += stride;
    }
    queries
}

fn main() {
    let scale = Scale::from_args();
    println!("Figure 11 reproduction — online linking time analysis");
    let mut records = Vec::new();

    for &profile in workload::PROFILES {
        let ds = workload::dataset(profile, &scale);
        let pipeline = workload::fit_default(&ds, &scale);
        let queries: Vec<_> = ds
            .query_group(scale.group_size, scale.purposive, 99)
            .into_iter()
            .collect();

        // (a)(b): vary k.
        let mut rows = Vec::new();
        for &k in table1::K_VALUES {
            let linker = Linker::new(
                &pipeline.model,
                &ds.ontology,
                LinkerConfig {
                    k,
                    ..LinkerConfig::default()
                },
            );
            let (mut or, mut cr, mut ed, mut rt) = (vec![], vec![], vec![], vec![]);
            for q in &queries {
                let res = linker.link(&q.tokens);
                or.push(res.trace.stage_wall(StageKind::Rewrite));
                cr.push(res.trace.stage_wall(StageKind::Retrieve));
                ed.push(res.trace.stage_wall(StageKind::Score));
                rt.push(res.trace.stage_wall(StageKind::Rank));
            }
            let (o, c, e, r) = (mean_ms(&or), mean_ms(&cr), mean_ms(&ed), mean_ms(&rt));
            rows.push(vec![
                k.to_string(),
                format!("{o:.3}"),
                format!("{c:.3}"),
                format!("{e:.3}"),
                format!("{r:.3}"),
                format!("{:.3}", o + c + e + r),
            ]);
            records.push(TimingRow {
                dataset: ds.profile.name().into(),
                axis: "k".into(),
                value: k,
                or_ms: o,
                cr_ms: c,
                ed_ms: e,
                rt_ms: r,
            });
        }
        table::banner(&format!(
            "Figure 11(a)(b): time vs k (ms/query), {}",
            ds.profile.name()
        ));
        println!(
            "{}",
            table::render(&["k", "OR", "CR", "ED", "RT", "total"], &rows)
        );

        // (c)(d): vary |q|.
        let linker = pipeline.linker(&ds.ontology);
        let mut rows = Vec::new();
        for qlen in 1..=6usize {
            let subset: Vec<Vec<String>> = queries
                .iter()
                .map(|q| {
                    let mut toks = q.tokens.clone();
                    toks.truncate(qlen);
                    toks
                })
                .filter(|t| t.len() == qlen)
                .collect();
            if subset.is_empty() {
                continue;
            }
            let (mut or, mut cr, mut ed, mut rt) = (vec![], vec![], vec![], vec![]);
            for toks in &subset {
                let res = linker.link(toks);
                or.push(res.trace.stage_wall(StageKind::Rewrite));
                cr.push(res.trace.stage_wall(StageKind::Retrieve));
                ed.push(res.trace.stage_wall(StageKind::Score));
                rt.push(res.trace.stage_wall(StageKind::Rank));
            }
            let (o, c, e, r) = (mean_ms(&or), mean_ms(&cr), mean_ms(&ed), mean_ms(&rt));
            rows.push(vec![
                qlen.to_string(),
                format!("{o:.3}"),
                format!("{c:.3}"),
                format!("{e:.3}"),
                format!("{r:.3}"),
                format!("{:.3}", o + c + e + r),
            ]);
            records.push(TimingRow {
                dataset: ds.profile.name().into(),
                axis: "qlen".into(),
                value: qlen,
                or_ms: o,
                cr_ms: c,
                ed_ms: e,
                rt_ms: r,
            });
        }
        table::banner(&format!(
            "Figure 11(c)(d): time vs |q| (ms/query), {}",
            ds.profile.name()
        ));
        println!(
            "{}",
            table::render(&["|q|", "OR", "CR", "ED", "RT", "total"], &rows)
        );
    }

    // Shape checks.
    let total = |axis: &str, v: usize| -> f64 {
        let xs: Vec<f64> = records
            .iter()
            .filter(|r| r.axis == axis && r.value == v)
            .map(|r| r.or_ms + r.cr_ms + r.ed_ms + r.rt_ms)
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    table::banner("Shape check");
    println!(
        "time grows with k: {} ({:.3} -> {:.3} ms)",
        total("k", 50) > total("k", 10),
        total("k", 10),
        total("k", 50)
    );
    println!(
        "time grows with |q|: {} ({:.3} -> {:.3} ms)",
        total("qlen", 6) > total("qlen", 1),
        total("qlen", 1),
        total("qlen", 6)
    );

    ncl_bench::results::write_json("fig11_online_time", &records);

    // ---- Phase-I scale sweep: pruned vs exhaustive retrieval ----
    let quick = ncl_bench::config::quick_from_args();
    let sizes: &[usize] = if quick {
        &[2_000, 50_000]
    } else {
        &[2_000, 10_000, 50_000, 100_000]
    };
    let qlens = [2usize, 4, 8];
    let k = 20usize;
    let min_secs = if quick { 0.75 } else { 2.0 };

    let mut scale_rows: Vec<ScaleRow> = Vec::new();
    let mut table_rows = Vec::new();
    for &n in sizes {
        let onto = generate_at_least(IcdRevision::Icd10, n, 17);
        let docs: Vec<Vec<String>> = onto.iter().map(|(_, c)| tokenize(&c.canonical)).collect();
        let index = TfIdfIndex::build(&docs);
        for &qlen in &qlens {
            let queries = scale_queries(&docs, qlen, 120);
            assert!(
                !queries.is_empty(),
                "no length-{qlen} queries at {n} concepts"
            );
            // Exactness first: the pruned path must return bit-identical
            // (doc, score) lists before its speed means anything.
            let mut stats = RetrievalStats::default();
            for q in &queries {
                let (pruned, s) = index.top_k_with_stats(q, k);
                let exhaustive = index.top_k_exhaustive(q, k);
                assert_eq!(pruned.len(), exhaustive.len(), "result length diverged");
                for (p, e) in pruned.iter().zip(&exhaustive) {
                    assert_eq!(p.0, e.0, "doc order diverged at {n} concepts");
                    assert_eq!(p.1.to_bits(), e.1.to_bits(), "score bits diverged");
                }
                stats.merge(&s);
            }
            let total_postings = stats.postings_examined + stats.postings_pruned;
            let pruned_frac = if total_postings == 0 {
                0.0
            } else {
                stats.postings_pruned as f64 / total_postings as f64
            };
            let (pruned_qps, exhaustive_qps) = measure_paired_topk(&index, &queries, k, min_secs);
            let speedup = pruned_qps / exhaustive_qps;
            table_rows.push(vec![
                onto.num_concepts().to_string(),
                qlen.to_string(),
                format!("{pruned_qps:.0}"),
                format!("{exhaustive_qps:.0}"),
                format!("{speedup:.2}"),
                format!("{:.1}%", pruned_frac * 100.0),
            ]);
            scale_rows.push(ScaleRow {
                concepts: onto.num_concepts(),
                qlen,
                k,
                pruned_qps,
                exhaustive_qps,
                speedup,
                postings_pruned_frac: pruned_frac,
            });
        }
    }
    table::banner("Phase-I scale sweep: MaxScore-pruned vs exhaustive top-20");
    println!(
        "{}",
        table::render(
            &[
                "concepts",
                "|q|",
                "pruned q/s",
                "exhaustive q/s",
                "speedup",
                "postings pruned"
            ],
            &table_rows
        )
    );
    ncl_bench::results::write_json("fig11_scale_sweep", &scale_rows);

    // Flat gate record for the CI bench-smoke job (`bench_gate` against
    // `ci/bench_baseline_fig11.json`). Keys use the nominal sweep size so
    // they stay stable across corpus regenerations.
    let mut gate = String::from("{\n");
    for (row, &n) in scale_rows
        .iter()
        .zip(sizes.iter().flat_map(|n| qlens.iter().map(move |_| n)))
    {
        gate.push_str(&format!(
            "  \"pruned_c{}_q{}_qps\": {:.3},\n",
            n, row.qlen, row.pruned_qps
        ));
        gate.push_str(&format!(
            "  \"speedup_c{}_q{}\": {:.3},\n",
            n, row.qlen, row.speedup
        ));
    }
    let headline: Vec<f64> = scale_rows
        .iter()
        .filter(|r| r.concepts >= 50_000)
        .map(|r| r.speedup)
        .collect();
    let headline_speedup = headline.iter().sum::<f64>() / headline.len().max(1) as f64;
    gate.push_str(&format!(
        "  \"headline_scale_speedup\": {headline_speedup:.3}\n}}\n"
    ));
    match std::fs::write("BENCH_fig11.json", &gate) {
        Ok(()) => println!("[results] wrote BENCH_fig11.json"),
        Err(e) => eprintln!("warning: cannot write BENCH_fig11.json: {e}"),
    }

    assert!(
        headline_speedup >= 3.0,
        "pruned retrieval must average >= 3x exhaustive at >= 50k concepts (got {headline_speedup:.2}x)"
    );
    println!("\nfig11 acceptance: pruned >= 3x exhaustive at >= 50k concepts — ok ({headline_speedup:.2}x)");
}
