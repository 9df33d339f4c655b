//! CI perf-regression gate.
//!
//! Compares freshly measured benchmark records (the flat JSON the
//! `fig12_training_time` / `fig17_scale_serving` binaries drop,
//! e.g. `BENCH_fig12.json`) against checked-in baselines
//! (`ci/bench_baseline_*.json`) and exits non-zero when any metric in
//! any pair regressed by more than the tolerance.
//!
//! ```text
//! bench_gate <current.json> <baseline.json> [<current2> <baseline2> ...] [--tolerance 0.20]
//! bench_gate <fresh.json> <committed.json> <baseline.json> [...] --rebase [--headroom 0.5]
//! ```
//!
//! Every numeric key in the *baseline* is gated, higher-is-better: the
//! current value must reach `baseline * (1 - tolerance)`. Keys present
//! only in the current file are informational (new metrics don't need a
//! baseline to land); keys missing from the current file fail the gate
//! (a silently dropped metric must not pass). Baselines are set well
//! below locally observed rates so runner-speed variance does not flake
//! the gate while a real (>20%-plus-headroom) regression still trips it.
//!
//! `--rebase` rewrites each baseline file in place from **two**
//! measurements — a fresh one (CI's `--quick` profile) and the committed
//! record (a full run, which is slower on absolute rates): every *gated*
//! key (i.e. every key already in the baseline — the curated set is
//! preserved, informational current-only keys stay ungated) is set to
//! `min(fresh, committed) * (1 - headroom)`, so the gate passes on the
//! record CI measures and on the one the repo carries. Promote an
//! informational key by adding it to the baseline file by hand first,
//! then rebasing. `ci/refresh_baselines.sh` wires the gated fig
//! binaries through this mode.
//!
//! The parser handles exactly the flat `{"key": number, ...}` shape the
//! bench binaries emit — no nesting, no arrays — which keeps this
//! dependency-free.

use std::process::ExitCode;

/// Parses a flat JSON object's `"key": number` pairs, ignoring anything
/// non-numeric (string values, etc.).
fn parse_flat_json(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find('"') {
        rest = &rest[start + 1..];
        let Some(end) = rest.find('"') else { break };
        let key = &rest[..end];
        rest = &rest[end + 1..];
        let trimmed = rest.trim_start();
        let Some(after_colon) = trimmed.strip_prefix(':') else {
            continue;
        };
        let value_text = after_colon.trim_start();
        let len = value_text
            .find([',', '}', '\n', ' '])
            .unwrap_or(value_text.len());
        if let Ok(v) = value_text[..len].trim().parse::<f64>() {
            out.push((key.to_string(), v));
        }
        rest = value_text;
    }
    out
}

fn load(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let metrics = parse_flat_json(&text);
    if metrics.is_empty() {
        return Err(format!("{path}: no numeric metrics found"));
    }
    Ok(metrics)
}

fn lookup(metrics: &[(String, f64)], key: &str) -> Option<f64> {
    metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

fn run(current_path: &str, baseline_path: &str, tolerance: f64) -> Result<bool, String> {
    let current = load(current_path)?;
    let baseline = load(baseline_path)?;

    println!(
        "bench_gate: {current_path} vs {baseline_path} (tolerance {:.0}%)",
        tolerance * 100.0
    );
    let mut failures = 0usize;
    for (key, base) in &baseline {
        let floor = base * (1.0 - tolerance);
        match lookup(&current, key) {
            None => {
                failures += 1;
                println!("  FAIL {key}: missing from {current_path} (baseline {base:.3})");
            }
            Some(now) if now < floor => {
                failures += 1;
                println!(
                    "  FAIL {key}: {now:.3} < floor {floor:.3} ({:.1}% below baseline {base:.3})",
                    (1.0 - now / base) * 100.0
                );
            }
            Some(now) => {
                println!("  ok   {key}: {now:.3} (baseline {base:.3}, floor {floor:.3})");
            }
        }
    }
    for (key, now) in &current {
        if lookup(&baseline, key).is_none() {
            println!("  info {key}: {now:.3} (no baseline)");
        }
    }
    Ok(failures == 0)
}

/// Rewrites `baseline_path` in place: every key it already gates gets
/// the lower of the freshly measured and the committed value, minus
/// `headroom`. The curated key set is preserved exactly — keys only the
/// records carry stay informational.
fn rebase(
    fresh_path: &str,
    committed_path: &str,
    baseline_path: &str,
    headroom: f64,
) -> Result<(), String> {
    let fresh = load(fresh_path)?;
    let committed = load(committed_path)?;
    let baseline = load(baseline_path)?;
    let gated = |metrics: &[(String, f64)], path: &str, key: &str| {
        lookup(metrics, key).ok_or_else(|| format!("{key}: gated key missing from {path}"))
    };
    let mut out = String::from("{\n");
    for (i, (key, old)) in baseline.iter().enumerate() {
        let quick = gated(&fresh, fresh_path, key)?;
        let full = gated(&committed, committed_path, key)?;
        let new = quick.min(full) * (1.0 - headroom);
        println!(
            "  rebase {key}: {old:.3} -> {new:.3} (fresh {quick:.3}, committed {full:.3}, headroom {:.0}%)",
            headroom * 100.0
        );
        let sep = if i + 1 == baseline.len() { "" } else { "," };
        out.push_str(&format!("  \"{key}\": {new:.3}{sep}\n"));
    }
    out.push_str("}\n");
    std::fs::write(baseline_path, out).map_err(|e| format!("cannot write {baseline_path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut tolerance = 0.20f64;
    let mut headroom = 0.5f64;
    let mut do_rebase = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--tolerance" || a == "--headroom" {
            let target = if a == "--tolerance" {
                &mut tolerance
            } else {
                &mut headroom
            };
            match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if (0.0..1.0).contains(&t) => *target = t,
                _ => {
                    eprintln!("bench_gate: {a} needs a value in [0, 1)");
                    return ExitCode::from(2);
                }
            }
        } else if a == "--rebase" {
            do_rebase = true;
        } else {
            paths.push(a.clone());
        }
    }
    let group = if do_rebase { 3 } else { 2 };
    if paths.is_empty() || paths.len() % group != 0 {
        eprintln!(
            "usage: bench_gate <current.json> <baseline.json> [...] [--tolerance 0.20]\n       \
             bench_gate <fresh.json> <committed.json> <baseline.json> [...] --rebase [--headroom 0.5]"
        );
        return ExitCode::from(2);
    }
    if do_rebase {
        for set in paths.chunks(3) {
            println!(
                "bench_gate: rebasing {} from {} and {}",
                set[2], set[0], set[1]
            );
            if let Err(e) = rebase(&set[0], &set[1], &set[2], headroom) {
                eprintln!("bench_gate: {e}");
                return ExitCode::from(2);
            }
        }
        println!("bench_gate: baselines rebased");
        return ExitCode::SUCCESS;
    }
    let mut all_pass = true;
    for pair in paths.chunks(2) {
        match run(&pair[0], &pair[1], tolerance) {
            Ok(true) => {}
            Ok(false) => all_pass = false,
            Err(e) => {
                eprintln!("bench_gate: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if all_pass {
        println!("bench_gate: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_gate: FAIL — throughput regressed beyond tolerance");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_numeric_object() {
        let m = parse_flat_json("{\n  \"a_qps\": 123.5,\n  \"b\": 7,\n  \"name\": \"x\"\n}\n");
        assert_eq!(m.len(), 2);
        assert_eq!(m[0], ("a_qps".to_string(), 123.5));
        assert_eq!(m[1], ("b".to_string(), 7.0));
    }

    #[test]
    fn parses_compact_form() {
        let m = parse_flat_json(r#"{"x":1.25,"y":-3}"#);
        assert_eq!(m, vec![("x".into(), 1.25), ("y".into(), -3.0)]);
    }

    #[test]
    fn ignores_strings_and_empty() {
        assert!(parse_flat_json("{}").is_empty());
        assert!(parse_flat_json(r#"{"only": "strings"}"#).is_empty());
    }

    #[test]
    fn rebase_rewrites_gated_keys_with_headroom() {
        let dir = std::env::temp_dir().join("ncl_bench_gate_rebase_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (fresh, full, base) = (path("fresh.json"), path("full.json"), path("base.json"));
        // Each record is the lower one on one key; both carry an extra
        // informational key that must NOT be promoted into the baseline.
        std::fs::write(
            &fresh,
            "{\n  \"a_qps\": 1000.0,\n  \"b_ratio\": 3.0,\n  \"extra\": 5.0\n}\n",
        )
        .unwrap();
        std::fs::write(
            &full,
            "{\n  \"a_qps\": 800.0,\n  \"b_ratio\": 4.0,\n  \"extra\": 6.0\n}\n",
        )
        .unwrap();
        std::fs::write(&base, "{\n  \"a_qps\": 10.0,\n  \"b_ratio\": 1.0\n}\n").unwrap();
        rebase(&fresh, &full, &base, 0.5).unwrap();
        let rebased = parse_flat_json(&std::fs::read_to_string(&base).unwrap());
        assert_eq!(
            rebased,
            vec![("a_qps".to_string(), 400.0), ("b_ratio".to_string(), 1.5)]
        );
        // Both records clear the gate the rebase just set.
        assert!(run(&fresh, &base, 0.2).unwrap() && run(&full, &base, 0.2).unwrap());
        // A gated key missing from either measurement is an error, not a
        // silent drop.
        std::fs::write(&base, "{\n  \"a_qps\": 10.0,\n  \"gone\": 1.0\n}\n").unwrap();
        assert!(rebase(&fresh, &full, &base, 0.5).is_err());
        std::fs::write(&full, "{\n  \"b_ratio\": 4.0\n}\n").unwrap();
        std::fs::write(&base, "{\n  \"a_qps\": 10.0\n}\n").unwrap();
        assert!(rebase(&fresh, &full, &base, 0.5).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
