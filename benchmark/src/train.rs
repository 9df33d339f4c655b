//! `hx-train`: the write side of the model. `Dataset::generate`
//! (hospital-x) → `NclPipeline::fit` → accuracy on standard and
//! OOV-heavy queries → cold start of the trained checkpoint →
//! `retrain_and_publish` rounds on gold-labelled OOV-heavy queries into
//! a hot-swap cell. Training does nearly all the work and serving Score
//! almost none, so a Score change predicts no movement here and a
//! training change predicts none on the three serving workloads.

use crate::api::{self, Query, Serving, Trained, World};
use crate::check::{self, Tally};
use crate::digest::Fnv;
use crate::report::Report;
use crate::sandbox;
use crate::serving::{setup_layers, COLD_STARTS_AFTER, COLD_STARTS_BEFORE};
use crate::spans::Recorder;
use crate::spec::Workload;
use crate::stats;
use crate::Opts;
use std::time::Instant;

/// Feedback rounds: at least this many, then until `--seconds` is spent.
const MIN_ROUNDS: usize = 4;
const MAX_ROUNDS: usize = 12;

/// Links every query once, checks every answer, tallies quality.
/// Returns the per-query fingerprints.
fn checked_pass(
    serving: &Serving,
    world: &World,
    queries: &[Query],
    tally: &mut Tally,
    report: &mut Report,
    mut spans: Option<(&mut Recorder, &'static str)>,
) -> Vec<u64> {
    let started = Instant::now();
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let at = started.elapsed().as_nanos() as u64;
            let (cost, a) = serving.link(&q.tokens);
            report.attempted += 1;
            if let Some(f) = check::answer_fault(&a, world) {
                report.fail(&format!("eval query {i}: {f}"));
            }
            tally.query(&a, q.truth);
            if let Some((rec, name)) = &mut spans {
                let root = rec.root(i as u32, name, at, at + (cost.secs * 1e9) as u64);
                rec.children_from_walls(root, &a.stages.named());
            }
            check::answer_print(&a)
        })
        .collect()
}

pub fn run(opts: &Opts) -> Report {
    let sizes = opts.sizes();
    let mut report = Report::default();
    let world = World::hospital_x(&sizes, opts.seed);
    let (standard, oov) = world.eval_queries(&sizes);
    let feedback: Vec<Vec<Query>> = (0..MAX_ROUNDS)
        .map(|r| world.feedback_queries(&sizes, r))
        .collect();
    let mut h = Fnv::default();
    world.digest_into(&mut h);
    for q in standard.iter().chain(&oov).chain(feedback.iter().flatten()) {
        h.tokens(&q.tokens);
        h.u32(q.truth);
    }
    let inputs_digest = h.finish();
    report.fact("inputs_digest", format!("{inputs_digest:016x}"));
    report.fact("concepts", world.concepts());
    crate::require_pinned_inputs(Workload::Train, opts, inputs_digest);

    let mut rec = Recorder::default();
    sandbox::prefault(if opts.smoke { 16 } else { 64 });
    let started = Instant::now();

    // ---- fit
    let (fit_cost, mut trained) = Trained::fit(&world, &sizes, opts.seed);
    let fit = trained.report();
    let epochs = fit.epoch_seconds.len();
    // Interference only adds time: charge every epoch (same pairs, same
    // work) the fastest epoch's time; what is not an epoch stays as
    // measured.
    let in_epochs: f64 = fit.epoch_seconds.iter().sum();
    let fit_quiet_s = fit_cost.secs - in_epochs + epochs as f64 * stats::min(&fit.epoch_seconds);
    let pair_epochs = (fit.num_pairs * epochs) as f64;
    report.fact("train_pairs", fit.num_pairs);
    report.fact("fit_quiet_s", fit_quiet_s);
    report.require(
        fit.final_loss.is_finite() && fit.final_loss < fit.first_loss,
        "training loss is finite and fell",
    );

    // ---- accuracy of the fitted model
    let mut tally = Tally::default();
    let mut tally_oov = Tally::default();
    let (rss_mb, cache, prints) = trained.with_serving(&world, |serving| {
        let mut prints = checked_pass(
            serving,
            &world,
            &standard,
            &mut tally,
            &mut report,
            Some((&mut rec, "eval.link")),
        );
        prints.extend(checked_pass(
            serving,
            &world,
            &oov,
            &mut tally_oov,
            &mut report,
            Some((&mut rec, "eval.link_oov")),
        ));
        let rss_mb = sandbox::rss_mb();
        // Same model, same queries: the answers must repeat bit for bit.
        let mut again = Tally::default();
        let mut second = checked_pass(serving, &world, &standard, &mut again, &mut report, None);
        second.extend(checked_pass(
            serving,
            &world,
            &oov,
            &mut again,
            &mut report,
            None,
        ));
        for (i, (a, b)) in prints.iter().zip(&second).enumerate() {
            if a != b {
                report.fail(&format!("eval query {i} did not repeat bit for bit"));
            }
        }
        (rss_mb, serving.cache_bytes(), prints)
    });
    let ranked_digest = check::pass_digest(&prints);
    report.fact("ranked_digest", format!("{ranked_digest:016x}"));
    report.require(
        tally.acc_top1() > 2.0 / api::K as f64,
        "the trained model ranks better than chance",
    );

    // ---- cold start of the trained checkpoint
    let path = sandbox::checkpoint_path(Workload::Train.name(), opts.seed);
    let saved = trained.save(&path);
    let first = &standard[..sizes.first_answers.min(standard.len())];
    let cold_start = || api::cold_start(&path, &world, first, |_, c| c);
    let mut colds: Vec<api::ColdStart> = (0..COLD_STARTS_BEFORE).map(|_| cold_start()).collect();

    // ---- feedback rounds
    let fed_accuracy = |trained: &Trained, report: &mut Report| {
        let mut t = Tally::default();
        trained.with_serving(&world, |s| {
            checked_pass(s, &world, &feedback[0], &mut t, report, None)
        });
        t.acc_top1()
    };
    let fed_before = fed_accuracy(&trained, &mut report);
    let mut fed_after = fed_before;
    let cell = trained.serving_cell(&world);
    let mut publishes = Vec::new();
    for (round, labels) in feedback.iter().enumerate() {
        if round >= MIN_ROUNDS && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        let at = started.elapsed().as_nanos() as u64;
        let (cost, generation) =
            trained.retrain_and_publish(&world, labels, sizes.feedback_epochs, &cell);
        report.attempted += 1;
        if generation != round as u64 + 1 {
            report.fail(&format!("round {round} published generation {generation}"));
        }
        rec.root(
            round as u32,
            "feedback.retrain_and_publish",
            at,
            at + (cost.secs * 1e9) as u64,
        );
        publishes.push(cost.secs);
        if round == 0 {
            fed_after = fed_accuracy(&trained, &mut report);
        }
    }
    let publish_s = stats::min(&publishes);
    report.fact(
        "publish_rounds_ms",
        publishes
            .iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" "),
    );
    // The same checkpoint (the fitted model), started cold again after
    // the rounds: one burst of interference cannot cover both groups.
    if !opts.trace {
        colds.extend((0..COLD_STARTS_AFTER).map(|_| cold_start()));
    }
    let _ = std::fs::remove_file(&path);

    if !opts.trace {
        report.set("throughput", pair_epochs / fit_quiet_s, epochs);
        report.set("p50_ms", publish_s * 1e3, publishes.len());
        let totals: Vec<f64> = colds.iter().map(api::ColdStart::total).collect();
        report.set("setup_s", stats::min(&totals), totals.len());
        report.set("rss_mb", rss_mb, 1);
        // MRR, not top-1: the same rankings, and between seeds it moves
        // by a third less (5% against 8% over ten seeds).
        report.set("quality", tally.mrr(), tally.labelled);
        crate::enforce_pinned_ranked(Workload::Train, opts, ranked_digest, &mut report);
        return report;
    }

    // ---- per-layer numbers (traced run)
    setup_layers(&mut report, &saved, &colds);
    report.set("comaid.cache_mb", cache.0 as f64 / 1e6, 1);
    report.set("comaid.cache_bytes_per_concept", cache.1, 1);
    // Where a request's time goes on the small trained ontology: the
    // evaluation queries' stage walls, summed from their spans.
    let evals = standard.len() + oov.len();
    let totals = rec.totals();
    for (metric, stage) in [
        ("serving.rewrite_us", "rewrite"),
        ("serving.retrieve_us", "retrieve"),
        ("serving.score_us", "score"),
        ("serving.rank_us", "rank"),
    ] {
        if let Some(&(_, total_s, _)) = totals.get(stage) {
            report.set(metric, total_s / evals as f64 * 1e6, evals);
        }
    }
    report.set("comaid.final_loss", fit.final_loss, fit.num_pairs);
    report.set("pipeline.fit_s", fit_cost.secs, 1);
    report.set("pipeline.pretrain_s", fit.pretrain_s, 1);
    report.set("pipeline.refine_s", fit.refine_s, 1);
    report.set(
        "pipeline.other_s",
        fit_cost.secs - fit.pretrain_s - fit.refine_s,
        1,
    );
    report.set(
        "pipeline.refine_pairs_per_s",
        pair_epochs / fit.refine_s,
        epochs,
    );
    let fit_root = rec.root(0, "pipeline.fit", 0, (fit_cost.secs * 1e9) as u64);
    rec.children_from_walls(
        fit_root,
        &[("pretrain", fit.pretrain_s), ("refine", fit.refine_s)],
    );

    report.set("quality.acc_top1", tally.acc_top1(), tally.labelled);
    report.set("quality.mrr", tally.mrr(), tally.labelled);
    report.set("quality.cov_at_k", tally.cov_at_k(), tally.labelled);
    report.set(
        "quality.acc_top1_oov",
        tally_oov.acc_top1(),
        tally_oov.labelled,
    );

    report.set(
        "feedback.acc_delta_fed",
        fed_after - fed_before,
        feedback[0].len(),
    );
    let freezes: Vec<f64> = (0..3)
        .map(|_| trained.publish_only(&world, &cell).secs)
        .collect();
    let freeze_s = stats::min(&freezes);
    report.set("feedback.publish_s", publish_s, publishes.len());
    report.set("feedback.publish_freeze_s", freeze_s, freezes.len());
    report.set("feedback.retrain_s", publish_s - freeze_s, publishes.len());

    let probe = trained.index_probe(&world, &oov);
    report.set("text.tfidf_topk_us", probe.tfidf_topk_us, oov.len());
    report.set(
        "text.edit_nearest_us",
        probe.edit_nearest_us,
        probe.oov_words,
    );
    report.set(
        "embedding.nearest_us",
        probe.embedding_nearest_us,
        oov.len(),
    );

    crate::enforce_pinned_ranked(Workload::Train, opts, ranked_digest, &mut report);
    crate::write_trace(Workload::Train, opts, &rec);
    report
}
