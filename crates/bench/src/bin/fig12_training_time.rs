//! Figure 12 (Appendix B.2): offline training time analysis.
//!
//! (a) the word-embedding pre-training time and (b) the COM-AID
//! refinement time, as the amount of training data grows (25–100%), for
//! both datasets.
//!
//! Expected shape: pre-training is far cheaper than refinement;
//! hospital-x pre-trains slower than MIMIC-III (more unlabeled
//! snippets); refinement time grows approximately linearly with the
//! labeled-pair count and is similar across datasets.
//!
//! A second sweep exercises the data-parallel training engine:
//! `train_threads` ∈ {1, 2, 4} for COM-AID refinement on one profile
//! (pre-training is single-threaded; its column is there for the
//! phase split), with per-epoch wall-clock and pairs/sec from
//! [`ncl_core::comaid::TrainReport`]. It
//! drops a flat `BENCH_fig12.json` at the working directory root for
//! the CI regression gate (`bench_gate` vs
//! `ci/bench_baseline_fig12.json`). Thread-scaling ratios are recorded
//! and gated against the baseline rather than hard-asserted — the CI
//! workload is too small for sharding to reliably pay for itself (the
//! committed baseline measured ~1x at 4 threads); only a loose
//! collapse floor is enforced.

use ncl_bench::{table, workload, Scale};
use ncl_core::comaid::Variant;
use ncl_core::NclPipeline;
use ncl_datagen::{Dataset, DatasetConfig, DatasetProfile};

struct TimeRow {
    dataset: String,
    fraction: f32,
    labeled_pairs: usize,
    unlabeled: usize,
    pretrain_s: f64,
    refine_s: f64,
}
ncl_bench::impl_to_json!(TimeRow {
    dataset,
    fraction,
    labeled_pairs,
    unlabeled,
    pretrain_s,
    refine_s
});

struct SweepRow {
    threads: usize,
    pretrain_s: f64,
    refine_s: f64,
    refine_pairs_per_sec: f64,
    sync_s: f64,
    merge_s: f64,
}
ncl_bench::impl_to_json!(SweepRow {
    threads,
    pretrain_s,
    refine_s,
    refine_pairs_per_sec,
    sync_s,
    merge_s
});

fn main() {
    let scale = Scale::from_args();
    println!("Figure 12 reproduction — offline training time analysis");
    let mut records = Vec::new();

    for &profile in workload::PROFILES {
        let mut rows = Vec::new();
        for frac in [0.25f32, 0.5, 0.75, 1.0] {
            // Scale the data volume through the generator so both labeled
            // and unlabeled sets shrink together, like subsampling the
            // paper's corpora.
            let ds = Dataset::generate(DatasetConfig {
                profile,
                categories: ((scale.categories as f32 * frac).round() as usize).max(4),
                aliases_per_concept: scale.aliases_per_concept,
                unlabeled_snippets: (scale.unlabeled as f32 * frac) as usize,
                seed: scale.seed,
            });
            let cfg = workload::ncl_config(&scale, scale.dim_default, Variant::Full, true);
            let pipeline = NclPipeline::fit(&ds.ontology, &ds.unlabeled, cfg);
            rows.push(vec![
                format!("{:.0}%", frac * 100.0),
                pipeline.num_pairs.to_string(),
                ds.unlabeled.len().to_string(),
                format!("{:.3}", pipeline.pretrain_time.as_secs_f64()),
                format!("{:.3}", pipeline.refine_time.as_secs_f64()),
            ]);
            records.push(TimeRow {
                dataset: ds.profile.name().into(),
                fraction: frac,
                labeled_pairs: pipeline.num_pairs,
                unlabeled: ds.unlabeled.len(),
                pretrain_s: pipeline.pretrain_time.as_secs_f64(),
                refine_s: pipeline.refine_time.as_secs_f64(),
            });
        }
        table::banner(&format!(
            "Figure 12: training times (s), {}",
            profile.name()
        ));
        println!(
            "{}",
            table::render(
                &[
                    "data",
                    "labeled pairs",
                    "unlabeled",
                    "pre-train (a)",
                    "refine (b)"
                ],
                &rows
            )
        );
    }

    // Shape checks.
    let full: Vec<&TimeRow> = records.iter().filter(|r| r.fraction == 1.0).collect();
    table::banner("Shape check");
    for r in &full {
        println!(
            "{}: refinement/pre-training ratio {:.1}x (paper: hours vs minutes)",
            r.dataset,
            r.refine_s / r.pretrain_s.max(1e-9)
        );
    }
    // Endpoint comparison: intermediate points vary with the sampled
    // category mix (different description lengths), so only 25% vs 100%
    // is a stable growth signal on a laptop.
    let growth_ok = workload::PROFILES.iter().all(|p| {
        let xs: Vec<f64> = records
            .iter()
            .filter(|r| r.dataset == p.name())
            .map(|r| r.refine_s)
            .collect();
        xs.last().copied().unwrap_or(0.0) > xs.first().copied().unwrap_or(0.0)
    });
    println!("refinement time grows with data (25% -> 100%): {growth_ok}");

    ncl_bench::results::write_json("fig12_training_time", &records);

    // ---- Threads sweep: the data-parallel training engine ----
    //
    // One profile, full data, batch size 64 so the refinement batches
    // split into all 8 gradient shards.
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    table::banner(&format!(
        "Figure 12 extension: threads sweep ({hw} hardware threads)"
    ));
    let ds = workload::dataset(DatasetProfile::HospitalX, &scale);
    let mut sweep: Vec<SweepRow> = Vec::new();
    let mut losses_by_threads = Vec::new();
    let mut sweep_rows = Vec::new();
    for &threads in &[1usize, 2, 4] {
        let mut cfg = workload::ncl_config(&scale, scale.dim_default, Variant::Full, true);
        cfg.comaid.train_threads = threads;
        cfg.comaid.batch_size = 64;
        let pipeline = NclPipeline::fit(&ds.ontology, &ds.unlabeled, cfg);
        let report = &pipeline.report;
        let pretrain_s = pipeline.pretrain_time.as_secs_f64();
        let refine_s = pipeline.refine_time.as_secs_f64();
        println!(
            "threads={threads}: pretrain {pretrain_s:.3}s, refine {refine_s:.3}s \
             ({:.0} pairs/s over {} epochs; first epochs {:?} s; \
             replica sync {:.3}s + grad merge {:.3}s = {:.1}% of refine)",
            report.pairs_per_sec(),
            report.epoch_seconds.len(),
            report
                .epoch_seconds
                .iter()
                .take(3)
                .map(|s| (s * 1e3).round() / 1e3)
                .collect::<Vec<_>>(),
            report.sync_seconds,
            report.merge_seconds,
            (report.sync_seconds + report.merge_seconds) / refine_s.max(1e-9) * 100.0,
        );
        sweep_rows.push(vec![
            threads.to_string(),
            format!("{pretrain_s:.3}"),
            format!("{refine_s:.3}"),
            format!("{:.0}", report.pairs_per_sec()),
            format!("{:.3}", report.sync_seconds),
            format!("{:.3}", report.merge_seconds),
        ]);
        sweep.push(SweepRow {
            threads,
            pretrain_s,
            refine_s,
            refine_pairs_per_sec: report.pairs_per_sec(),
            sync_s: report.sync_seconds,
            merge_s: report.merge_seconds,
        });
        losses_by_threads.push((threads, report.epoch_losses.clone()));
    }
    println!(
        "{}",
        table::render(
            &[
                "threads",
                "pretrain (s)",
                "refine (s)",
                "refine pairs/s",
                "sync (s)",
                "merge (s)"
            ],
            &sweep_rows
        )
    );
    // The sync + merge columns quantify the structural serial cost of
    // value-synchronous sharding: every wide batch copies |Θ| parameter
    // values into each replica and left-folds the shard gradients back,
    // independent of the thread count. At this workload scale that
    // fixed cost is why thread scaling plateaus (DESIGN.md §10, "the
    // wide-batch scaling bound"); the columns make the bound visible
    // rather than inferred.

    // Refinement losses must be bit-identical across the sharded thread
    // counts (the gradient shards merge in a fixed order).
    let refine_deterministic = losses_by_threads[1].1 == losses_by_threads[2].1;
    println!("refinement losses identical at 2 vs 4 threads: {refine_deterministic}");
    assert!(
        refine_deterministic,
        "data-parallel refinement must not depend on the thread count"
    );

    let refine_speedup = |threads: usize| -> f64 {
        let at = sweep
            .iter()
            .find(|r| r.threads == threads)
            .map_or(f64::NAN, |r| r.refine_s);
        sweep[0].refine_s / at.max(1e-9)
    };
    let refine_speedup_t2 = refine_speedup(2);
    let refine_speedup_t4 = refine_speedup(4);
    println!(
        "refinement speedup: {refine_speedup_t2:.2}x at 2 threads, {refine_speedup_t4:.2}x at 4"
    );

    ncl_bench::results::write_json("fig12_threads_sweep", &sweep);

    // Flat gate record at the invocation root for the CI bench-smoke
    // job (uploaded as an artifact, fed to `bench_gate` against
    // `ci/bench_baseline_fig12.json`).
    let mut gate = String::from("{\n");
    for r in &sweep {
        gate.push_str(&format!(
            "  \"refine_t{}_pairs_per_sec\": {:.3},\n",
            r.threads, r.refine_pairs_per_sec
        ));
    }
    gate.push_str(&format!(
        "  \"refine_speedup_t2\": {refine_speedup_t2:.3},\n  \"refine_speedup_t4\": {refine_speedup_t4:.3},\n"
    ));
    // Informational (not in the baseline key set): the serial
    // sync+merge share of refinement at 4 threads, recorded so a future
    // overlap optimisation has a before/after number to point at.
    let t4 = sweep.iter().find(|r| r.threads == 4);
    let sync_merge_frac_t4 = t4
        .map(|r| (r.sync_s + r.merge_s) / r.refine_s.max(1e-9))
        .unwrap_or(f64::NAN);
    gate.push_str(&format!(
        "  \"sync_merge_frac_t4\": {sync_merge_frac_t4:.4}\n}}\n"
    ));
    match std::fs::write("BENCH_fig12.json", &gate) {
        Ok(()) => println!("[results] wrote BENCH_fig12.json"),
        Err(e) => eprintln!("warning: cannot write BENCH_fig12.json: {e}"),
    }

    // The thread-scaling ratio is *recorded* (gated as a throughput
    // regression via `ci/bench_baseline_fig12.json`), not asserted: at
    // the quick/CI workload scale the per-epoch pair count is small
    // enough that sharding + gradient-merge overhead eats the win — the
    // committed baseline itself measured ~1x at 4 threads, so the old
    // hard `>= 2x` assert failed on exactly the configuration CI runs.
    // A loose sanity floor still catches a pathological engine (threads
    // actively destroying throughput) without encoding a scaling claim
    // the workload cannot support.
    if hw >= 4 {
        assert!(
            refine_speedup_t4 > 0.25,
            "4-thread refinement collapsed vs 1 thread: {refine_speedup_t4:.2}x"
        );
        println!(
            "refinement speedup at 4 threads: {refine_speedup_t4:.2}x (recorded; gated vs baseline, not asserted)"
        );
    } else {
        println!("note: {hw} hardware thread(s) < 4 — thread-sweep ratios are informational");
    }
}
