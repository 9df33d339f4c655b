//! Extra figure — serving fault tolerance (the robustness layer's
//! `fig13`-style bench mode).
//!
//! Sweeps deterministic fault injection over the online linker and
//! measures what the degradation ladder (full ED → partial ED →
//! TF-IDF-only) costs in accuracy:
//!
//! (a) scoring-worker panics with probability p ∈ {0, ¼, ½, ¾, 1} at
//!     the `ed.score` site — at p = 1 every answer is the Phase-I
//!     TF-IDF ranking, so the p = 1 row *is* the lexical-fallback
//!     accuracy floor;
//! (b) injected ED delays against a per-call ED budget — the
//!     deadline-degraded accuracy at decreasing budgets.
//!
//! Every call must return a ranked list (zero aborts); the binary
//! itself would crash otherwise.

use ncl_bench::{table, workload, Scale};
use ncl_core::metrics::EvalAccumulator;
use ncl_core::FaultPlan;
use ncl_core::{LinkBudget, Linker};
use ncl_datagen::LabeledQuery;
use std::sync::Arc;
use std::time::Duration;

struct FaultRow {
    dataset: String,
    axis: String,
    level: f32,
    accuracy: f32,
    degraded_frac: f32,
}
ncl_bench::impl_to_json!(FaultRow {
    dataset,
    axis,
    level,
    accuracy,
    degraded_frac
});

/// Accuracy plus the fraction of *linkable* calls (≥ 1 candidate — a
/// call with nothing to score cannot degrade) that returned a degraded
/// answer.
fn evaluate_with_degradation(linker: &Linker<'_>, groups: &[Vec<LabeledQuery>]) -> (f32, f32) {
    let mut accs = Vec::new();
    let mut degraded = 0usize;
    let mut linkable = 0usize;
    for group in groups {
        let mut acc = EvalAccumulator::new();
        for q in group {
            let res = linker.link(&q.tokens);
            if !res.candidates.is_empty() {
                linkable += 1;
                if res.is_degraded() {
                    degraded += 1;
                }
            }
            let covered = res.candidates.contains(&q.truth);
            acc.record(&res.ranked_ids(), q.truth, covered);
        }
        accs.push(acc.accuracy());
    }
    (
        ncl_core::metrics::group_mean(&accs),
        degraded as f32 / linkable.max(1) as f32,
    )
}

fn main() {
    // The sweeps below fire thousands of injected worker panics on
    // purpose; silence the default hook for those so stderr stays
    // readable, while genuine panics (assert failures) still print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected fault at "));
        if !injected {
            default_hook(info);
        }
    }));

    let scale = Scale::from_args();
    println!("Extra figure — fault-tolerant serving (degradation ladder)");
    let mut records = Vec::new();

    for &profile in workload::PROFILES {
        let ds = workload::dataset(profile, &scale);
        let pipeline = workload::fit_default(&ds, &scale);
        let groups = workload::query_groups(&ds, &scale);

        // (a) panic-probability sweep at the ED scoring site.
        let mut rows = Vec::new();
        for (i, &p) in [0.0f64, 0.25, 0.5, 0.75, 1.0].iter().enumerate() {
            let linker = pipeline
                .linker(&ds.ontology)
                .with_faults(Arc::new(FaultPlan::panics(41 + i as u64, "ed.score", p)));
            let (acc, frac) = evaluate_with_degradation(&linker, &groups);
            rows.push(vec![
                format!("{p:.2}"),
                table::f(acc),
                format!("{:.0}%", frac * 100.0),
            ]);
            records.push(FaultRow {
                dataset: profile.name().into(),
                axis: "ed_panic_prob".into(),
                level: p as f32,
                accuracy: acc,
                degraded_frac: frac,
            });
        }
        table::banner(&format!("Worker panics at ed.score, {}", profile.name()));
        println!("{}", table::render(&["p(panic)", "Acc", "degraded"], &rows));

        // (b) ED-budget sweep against injected per-candidate delays.
        let mut rows = Vec::new();
        for &budget_ms in &[u64::MAX, 50, 5, 0] {
            let mut cfg = *pipeline.linker(&ds.ontology).config();
            cfg.budget = if budget_ms == u64::MAX {
                LinkBudget::default()
            } else {
                LinkBudget::with_ed(Duration::from_millis(budget_ms))
            };
            let linker = Linker::new(&pipeline.model, &ds.ontology, cfg).with_faults(Arc::new(
                FaultPlan::delays(7, "ed.score", 1.0, Duration::from_millis(2)),
            ));
            let (acc, frac) = evaluate_with_degradation(&linker, &groups);
            let label = if budget_ms == u64::MAX {
                "none".to_string()
            } else {
                format!("{budget_ms}ms")
            };
            rows.push(vec![label, table::f(acc), format!("{:.0}%", frac * 100.0)]);
            records.push(FaultRow {
                dataset: profile.name().into(),
                axis: "ed_budget_ms".into(),
                level: if budget_ms == u64::MAX {
                    -1.0
                } else {
                    budget_ms as f32
                },
                accuracy: acc,
                degraded_frac: frac,
            });
        }
        table::banner(&format!(
            "ED budget vs 2ms injected delays, {}",
            profile.name()
        ));
        println!(
            "{}",
            table::render(&["ED budget", "Acc", "degraded"], &rows)
        );
    }

    // Shape checks: the ladder must hold — no-fault accuracy on top, the
    // TF-IDF floor still standing, and degradation fractions tracking
    // the injected probability.
    table::banner("Shape check");
    for &profile in workload::PROFILES {
        let name = profile.name();
        let by = |axis: &str, level: f32| -> &FaultRow {
            records
                .iter()
                .find(|r| r.dataset == name && r.axis == axis && r.level == level)
                .expect("row recorded above")
        };
        let clean = by("ed_panic_prob", 0.0);
        let floor = by("ed_panic_prob", 1.0);
        println!(
            "{name}: full ED {:.3} → TF-IDF floor {:.3} (degraded {:.0}% of calls at p=1)",
            clean.accuracy,
            floor.accuracy,
            floor.degraded_frac * 100.0
        );
        assert_eq!(clean.degraded_frac, 0.0, "p=0 must not degrade");
        assert_eq!(floor.degraded_frac, 1.0, "p=1 must always degrade");
        // (The full-ED vs floor *ordering* is a model-quality statement,
        // established at default scale by fig7 — at --quick scale the
        // lexical floor can tie or even win, so it is reported, not
        // asserted.)
        assert!(floor.accuracy > 0.0, "TF-IDF floor must still link");
    }
    println!("zero aborts across {} linking sweeps", records.len());

    ncl_bench::results::write_json("fig14_fault_tolerance", &records);
}
