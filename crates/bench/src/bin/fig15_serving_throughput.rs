//! Figure 15 (repo extension): serving throughput with and without the
//! frozen concept-encoding cache.
//!
//! The paper serves COM-AID with per-query encode-decode over every
//! candidate (Appendix B.1: ED is ~98% of linking time).
//! PR "serving cache" freezes every concept's encoder pass at
//! `Linker::new` ([`ncl_core::comaid::ComAid::freeze`]) so online
//! scoring only runs the decoder, batched one timestep across the
//! candidate set. Scores are bit-identical either way (see
//! `crates/core/tests/serving_cache.rs`); this binary measures what the
//! cache buys in queries/sec.
//!
//! Sweeps cache {off, on} × k {10, 20} on one
//! profile, prints a paper-style table, writes
//! `results/fig15_serving_throughput.json`, and drops a flat
//! `BENCH_fig15.json` at the working directory root for the CI
//! regression gate (`bench_gate`).
//!
//! Expected shape: cache on beats cache off at every k; the paired
//! headline (k=10) must clear 3x.

use ncl_bench::{table, workload, Scale};
use ncl_core::{Linker, LinkerConfig};
use ncl_datagen::DatasetProfile;
use std::time::Instant;

struct ThroughputRow {
    dataset: String,
    cache: bool,
    k: usize,
    queries_per_sec: f64,
    mean_ms_per_query: f64,
}
ncl_bench::impl_to_json!(ThroughputRow {
    dataset,
    cache,
    k,
    queries_per_sec,
    mean_ms_per_query
});

/// Links every query repeatedly until the clock covers at least
/// `min_secs`, returning queries/sec. A warm-up pass runs first so
/// one-time lazy work does not pollute the timed region.
fn measure_qps(linker: &Linker, queries: &[Vec<String>], min_secs: f64) -> f64 {
    for q in queries.iter().take(3) {
        let _ = linker.link(q);
    }
    let mut linked = 0usize;
    let start = Instant::now();
    loop {
        for q in queries {
            let _ = linker.link(q);
            linked += 1;
        }
        if start.elapsed().as_secs_f64() >= min_secs {
            break;
        }
    }
    linked as f64 / start.elapsed().as_secs_f64()
}

/// Measures two linkers in alternating rounds and returns their
/// queries/sec as `(a, b)`. Machine-speed drift over the run (CPU
/// scaling, noisy neighbours) hits both sides of each round equally,
/// which the one-after-the-other sweep above cannot guarantee — so
/// ratios (the speedup acceptance) come from here.
fn measure_paired(a: &Linker, b: &Linker, queries: &[Vec<String>], min_secs: f64) -> (f64, f64) {
    for q in queries.iter().take(3) {
        let _ = a.link(q);
        let _ = b.link(q);
    }
    let (mut ta, mut tb) = (0.0f64, 0.0f64);
    let (mut na, mut nb) = (0usize, 0usize);
    while ta + tb < min_secs {
        let s = Instant::now();
        for q in queries {
            let _ = a.link(q);
            na += 1;
        }
        ta += s.elapsed().as_secs_f64();
        let s = Instant::now();
        for q in queries {
            let _ = b.link(q);
            nb += 1;
        }
        tb += s.elapsed().as_secs_f64();
    }
    (na as f64 / ta, nb as f64 / tb)
}

fn main() {
    let scale = Scale::from_args();
    let quick = std::env::args().any(|a| a == "--quick");
    println!("Figure 15 reproduction — serving throughput, frozen concept cache");

    let ds = workload::dataset(DatasetProfile::HospitalX, &scale);
    let pipeline = workload::fit_default(&ds, &scale);
    let queries: Vec<Vec<String>> = ds
        .query_group(scale.group_size, scale.purposive, 99)
        .into_iter()
        .map(|q| q.tokens)
        .collect();
    // Long enough for stable rates, short enough for the CI smoke leg.
    let min_secs = if quick { 0.75 } else { 2.0 };

    let mut records: Vec<ThroughputRow> = Vec::new();
    let mut rows = Vec::new();
    for &cache in &[false, true] {
        for &k in &[10usize, 20] {
            let linker = Linker::new(
                &pipeline.model,
                &ds.ontology,
                LinkerConfig {
                    k,
                    precompute: cache,
                    ..LinkerConfig::default()
                },
            );
            assert_eq!(linker.cache().is_some(), cache);
            let qps = measure_qps(&linker, &queries, min_secs);
            rows.push(vec![
                if cache { "on" } else { "off" }.to_string(),
                k.to_string(),
                format!("{qps:.1}"),
                format!("{:.3}", 1e3 / qps),
            ]);
            records.push(ThroughputRow {
                dataset: ds.profile.name().into(),
                cache,
                k,
                queries_per_sec: qps,
                mean_ms_per_query: 1e3 / qps,
            });
        }
    }
    table::banner(&format!(
        "Figure 15: serving throughput (queries/sec), {}",
        ds.profile.name()
    ));
    println!("{}", table::render(&["cache", "k", "q/s", "ms/q"], &rows));

    let qps_of = |cache: bool, k: usize| -> f64 {
        records
            .iter()
            .find(|r| r.cache == cache && r.k == k)
            .map(|r| r.queries_per_sec)
            .unwrap_or(f64::NAN)
    };

    table::banner("Shape check");
    let mut ordered = true;
    for &k in &[10usize, 20] {
        let on = qps_of(true, k);
        let off = qps_of(false, k);
        let ok = on > off;
        ordered &= ok;
        println!("cache on beats off (k={k}): {ok} ({on:.1} vs {off:.1} q/s)");
    }

    // The headline speedup is measured paired (interleaved rounds) so a
    // machine-speed drift between sweep rows cannot fake or hide it.
    let headline = |cache: bool| -> Linker<'_> {
        Linker::new(
            &pipeline.model,
            &ds.ontology,
            LinkerConfig {
                k: 10,
                precompute: cache,
                ..LinkerConfig::default()
            },
        )
    };
    let (uncached_qps, cached_qps) =
        measure_paired(&headline(false), &headline(true), &queries, 2.0 * min_secs);
    let speedup = cached_qps / uncached_qps;
    println!(
        "headline (paired, k=10): cached {cached_qps:.1} vs uncached {uncached_qps:.1} q/s — {speedup:.2}x"
    );

    ncl_bench::results::write_json("fig15_serving_throughput", &records);

    // Flat gate record at the invocation root: the CI bench-smoke job
    // uploads this as an artifact and feeds it to `bench_gate` against
    // `ci/bench_baseline_fig15.json`.
    let mut gate = String::from("{\n");
    for r in &records {
        let state = if r.cache { "cached" } else { "uncached" };
        gate.push_str(&format!(
            "  \"{}_k{}_qps\": {:.3},\n",
            state, r.k, r.queries_per_sec
        ));
    }
    gate.push_str(&format!(
        "  \"headline_cached_qps\": {cached_qps:.3},\n  \"headline_uncached_qps\": {uncached_qps:.3},\n"
    ));
    gate.push_str(&format!("  \"speedup_k10\": {speedup:.3}\n}}\n"));
    match std::fs::write("BENCH_fig15.json", &gate) {
        Ok(()) => println!("[results] wrote BENCH_fig15.json"),
        Err(e) => eprintln!("warning: cannot write BENCH_fig15.json: {e}"),
    }

    assert!(ordered, "cache must not slow serving down");
    assert!(
        speedup >= 3.0,
        "frozen cache must give >= 3x queries/sec at k=10 (got {speedup:.2}x)"
    );
    println!("\nfig15 acceptance: cache >= 3x — ok");
}
