//! `--agree`: do two sets of runs of the same code agree within the
//! benchmark's own bounds? Runs every workload `--runs` times per set
//! (a fresh process and another seed each time), twice, and prints per
//! metric both set medians, how much worse the second is, each set's
//! quartile spread, and the bound. `--runs 10` is the driver's own
//! acceptance procedure. Exits non-zero if a gap or a spread (other
//! than `setup_s`'s) exceeds its bound, or a run is incorrect.

use crate::json::Json;
use crate::spec::Workload;
use crate::stats;
use crate::Cli;
use std::process::Command;

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn bounds(manifest: &Json) -> Vec<Bound> {
    manifest
        .get("end_to_end")
        .expect("end_to_end")
        .as_arr()
        .iter()
        .map(|m| Bound {
            name: m.get("name").and_then(Json::as_str).expect("name").into(),
            higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
            bound: m.get("bound").and_then(Json::as_f64).expect("bound"),
        })
        .collect()
}

/// One child run; the metric values in `bounds` order, or why not.
fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    bounds: &[Bound],
) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("exit {:?}", out.status.code()));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = Json::parse(stdout.lines().last().ok_or("no output")?)?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err("the run reports correct: false".into());
    }
    bounds
        .iter()
        .map(|b| {
            result
                .get("metrics")
                .and_then(|m| m.get(&b.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or(format!("no {}", b.name))
        })
        .collect()
}

pub fn run(cli: &Cli) -> i32 {
    let manifest = crate::manifest();
    let bounds = bounds(&manifest);
    let seconds = if cli.seconds_given {
        cli.opts.seconds
    } else {
        manifest
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds")
    };
    let mut ok = true;
    let mut rows = Vec::new();
    println!(
        "{:<13} {:<11} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "worse", "spread A", "spread B", "bound"
    );
    for workload in Workload::ALL {
        // sets[set][metric] = values over the runs
        let mut sets = vec![vec![Vec::new(); bounds.len()]; 2];
        for (s, set) in sets.iter_mut().enumerate() {
            for r in 0..cli.runs {
                let fresh = if cli.fresh_seeds { s * cli.runs } else { 0 };
                let seed = cli.seed_base + (fresh + r) as u64;
                match child(workload, seed, seconds, &bounds) {
                    Ok(values) => {
                        for (m, v) in values.into_iter().enumerate() {
                            set[m].push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("{} seed {seed}: {e}", workload.name());
                        return 1;
                    }
                }
            }
        }
        for (m, b) in bounds.iter().enumerate() {
            let (a, z) = (stats::median(&sets[0][m]), stats::median(&sets[1][m]));
            let worse = if b.higher_is_better { a - z } else { z - a } / a.abs();
            let spread = [
                stats::quartile_spread(&sets[0][m]),
                stats::quartile_spread(&sets[1][m]),
            ];
            let within =
                worse <= b.bound && (b.name == "setup_s" || spread.iter().all(|&s| s <= b.bound));
            ok &= within;
            println!(
                "{:<13} {:<11} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%{}",
                workload.name(),
                b.name,
                a,
                z,
                worse * 100.0,
                spread[0] * 100.0,
                spread[1] * 100.0,
                b.bound * 100.0,
                if within { "" } else { "  <-- outside" }
            );
            rows.push(Json::Obj(vec![
                ("workload".into(), Json::Str(workload.name().into())),
                ("metric".into(), Json::Str(b.name.clone())),
                ("median_a".into(), Json::Num(a)),
                ("median_b".into(), Json::Num(z)),
                ("worse_frac".into(), Json::Num(worse)),
                ("spread_a".into(), Json::Num(spread[0])),
                ("spread_b".into(), Json::Num(spread[1])),
                ("bound".into(), Json::Num(b.bound)),
                ("values_a".into(), nums(&sets[0][m])),
                ("values_b".into(), nums(&sets[1][m])),
            ]));
        }
    }
    if let Some(out) = &cli.out {
        let doc = Json::Obj(vec![
            ("runs_per_set".into(), Json::Num(cli.runs as f64)),
            ("seed_base".into(), Json::Num(cli.seed_base as f64)),
            ("fresh_seeds".into(), Json::Bool(cli.fresh_seeds)),
            ("run_seconds".into(), Json::Num(seconds)),
            ("agree".into(), Json::Bool(ok)),
            ("rows".into(), Json::Arr(rows)),
        ]);
        // One row per line keeps the committed baseline diffable.
        let text = doc.render().replace("{\"workload\"", "\n  {\"workload\"");
        if let Err(e) = std::fs::write(out, text + "\n") {
            eprintln!("cannot write {out}: {e}");
            return 1;
        }
    }
    println!("{}", if ok { "agree: yes" } else { "agree: NO" });
    i32::from(!ok)
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}
