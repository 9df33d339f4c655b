//! The repo benchmark: four pinned closed-loop workloads, end-to-end
//! metrics a user would see, and per-layer spans timed from outside the
//! program. See README.md for why these workloads and these metrics.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload icd30k-link --seed 17 --seconds 25 --trace 0
//! ```
//!
//! prints one `name value unit n=samples` line per metric and, last,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.

mod agree;
mod api;
mod check;
mod digest;
mod json;
mod report;
mod sandbox;
mod serving;
mod spans;
mod spec;
mod stats;
mod train;

use report::Report;
use spec::Workload;

#[global_allocator]
static ALLOCATOR: sandbox::CountingAlloc = sandbox::CountingAlloc;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Report the per-layer metrics (spans on) instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Tiny inputs: the self-test's way through every code path.
    pub smoke: bool,
}

impl Opts {
    pub fn sizes(&self) -> api::Sizes {
        if self.smoke {
            api::Sizes::smoke()
        } else {
            api::Sizes::full()
        }
    }
}

/// `../BENCHMARK.json`: what the driver is told this benchmark declares.
pub fn manifest() -> json::Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|t| json::Json::parse(&t))
        .unwrap_or_else(|e| panic!("{path}: {e}"))
}

const USAGE: &str = "usage: ncl-benchmark --workload <icd30k-link|icd30k-notes|icd30k-fe|hx-train>
           [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--smoke] [--no-pin]
       ncl-benchmark --agree [--runs <n>] [--seed-base <u64>] [--fresh-seeds]
           [--seconds <s>] [--out <file>]";

fn usage(problem: &str) -> ! {
    eprintln!("{problem}\n{USAGE}");
    std::process::exit(2)
}

struct Cli {
    workload: Option<Workload>,
    opts: Opts,
    seconds_given: bool,
    pin: bool,
    agree: bool,
    runs: usize,
    seed_base: u64,
    fresh_seeds: bool,
    out: Option<String>,
}

fn parse_cli(args: &[String]) -> Cli {
    let mut cli = Cli {
        workload: None,
        opts: Opts {
            seed: spec::DEFAULT_SEED,
            seconds: 25.0,
            trace: false,
            smoke: false,
        },
        seconds_given: false,
        pin: true,
        agree: false,
        runs: 2,
        seed_base: 1,
        fresh_seeds: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name");
                cli.workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => {
                cli.opts.seed = value("a u64")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a u64"));
            }
            "--seconds" => {
                cli.opts.seconds = value("a number of seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a positive number"));
                cli.seconds_given = true;
            }
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => {
                cli.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.opts.smoke = true,
            "--no-pin" => cli.pin = false,
            "--agree" => cli.agree = true,
            "--fresh-seeds" => cli.fresh_seeds = true,
            "--runs" => {
                cli.runs = value("a count")
                    .parse()
                    .ok()
                    .filter(|&n| n >= 2)
                    .unwrap_or_else(|| usage("--runs needs a count of at least 2"));
            }
            "--seed-base" => {
                cli.seed_base = value("a u64")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed-base needs a u64"));
            }
            "--out" => cli.out = Some(value("a file")),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if cli.opts.smoke && !cli.seconds_given {
        cli.opts.seconds = 0.5;
    }
    cli
}

pub fn run(workload: Workload, opts: &Opts) -> Report {
    match workload {
        Workload::Train => train::run(opts),
        serving => serving::run(serving, opts),
    }
}

/// Seed 17's inputs are recorded (spec.rs): if they drift, nothing
/// measured on them compares with anything measured before.
pub fn require_pinned_inputs(workload: Workload, opts: &Opts, digest: u64) {
    if opts.smoke || opts.seed != spec::DEFAULT_SEED {
        return;
    }
    if let Some(p) = spec::pinned(workload) {
        if p.inputs_digest != digest {
            eprintln!(
                "inputs drifted — re-baseline in a benchmark issue \
                 ({}: inputs_digest {digest:016x}, recorded {:016x})",
                workload.name(),
                p.inputs_digest
            );
            std::process::exit(3);
        }
    }
}

/// Seed 17's rankings are recorded too: a different ranking fails every
/// answer of the workload. Enforced only under the libm the digests
/// were recorded with — score bits go through the platform's `exp`.
pub fn enforce_pinned_ranked(workload: Workload, opts: &Opts, digest: u64, report: &mut Report) {
    if opts.smoke || opts.seed != spec::DEFAULT_SEED {
        return;
    }
    let Some(p) = spec::pinned(workload) else {
        return;
    };
    let libm = sandbox::libm_fingerprint();
    if libm != spec::PINNED_LIBM {
        report.fact(
            "ranked_digest_pin",
            format!("not enforced: libm fingerprint {libm:016x} is not the recorded one"),
        );
    } else if p.ranked_digest != digest {
        eprintln!(
            "{}: ranked_digest {digest:016x}, recorded {:016x} — every answer counts as failed",
            workload.name(),
            p.ranked_digest
        );
        report.failed = report.attempted;
    } else {
        report.fact("ranked_digest_pin", "matches the recorded digest");
    }
}

/// Spans are held in memory while the run measures and written once.
pub fn write_trace(workload: Workload, opts: &Opts, rec: &spans::Recorder) {
    let name = if opts.smoke {
        format!("{}.smoke.trace.json", workload.name())
    } else {
        format!("{}.trace.json", workload.name())
    };
    let path = sandbox::results_dir().join(name);
    let text = rec.to_json(workload.name(), opts.seed).render();
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args);
    if cli.agree {
        std::process::exit(agree::run(&cli));
    }
    let workload = cli
        .workload
        .unwrap_or_else(|| usage("--workload is required"));
    // Before any thread exists.
    let pinned = if cli.pin {
        match sandbox::pin_to_current_cpu() {
            Ok(cpu) => format!("cpu {cpu}"),
            Err(e) => {
                eprintln!("warning: not pinned ({e}); numbers will not compare with pinned runs");
                "no".to_string()
            }
        }
    } else {
        "no (--no-pin)".to_string()
    };
    let mut report = run(workload, &cli.opts);
    report.fact(
        "libm_fingerprint",
        format!("{:016x}", sandbox::libm_fingerprint()),
    );
    report.facts.insert(0, ("pinned".into(), pinned));
    report
        .facts
        .insert(0, ("seed".into(), cli.opts.seed.to_string()));
    report
        .facts
        .insert(0, ("workload".into(), workload.name().into()));
    let declared = if cli.opts.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    report.print(declared);
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;
    use std::collections::BTreeSet;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_takes_the_drivers_arguments_and_the_bare_trace_flag() {
        let c = parse_cli(&args("--workload hx-train --seed 9 --seconds 12 --trace 0"));
        assert_eq!(c.workload, Some(Workload::Train));
        assert_eq!(
            (c.opts.seed, c.opts.seconds, c.opts.trace),
            (9, 12.0, false)
        );
        assert!(
            parse_cli(&args("--workload icd30k-fe --trace 1"))
                .opts
                .trace
        );
        let c = parse_cli(&args("--trace --workload icd30k-fe"));
        assert!(c.opts.trace && c.workload == Some(Workload::Frontend));
        assert_eq!(c.opts.seed, spec::DEFAULT_SEED);
        assert_eq!(
            parse_cli(&args("--smoke --workload icd30k-link"))
                .opts
                .seconds,
            0.5
        );
    }

    fn names(list: &Json) -> Vec<String> {
        list.as_arr()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn manifest_declares_what_the_code_declares() {
        let m = manifest();
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names(m.get("workloads").unwrap()), workloads);
        for (key, declared) in [
            ("end_to_end", spec::END_TO_END),
            ("per_layer", spec::PER_LAYER),
        ] {
            let listed = m.get(key).unwrap().as_arr();
            assert_eq!(listed.len(), declared.len(), "{key}");
            for (j, d) in listed.iter().zip(declared) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(
                    j.get("unit").and_then(Json::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    j.get("better").and_then(Json::as_str),
                    Some(d.better),
                    "{}",
                    d.name
                );
            }
        }
        let all: Vec<String> = names(m.get("workloads").unwrap())
            .into_iter()
            .chain(names(m.get("end_to_end").unwrap()))
            .chain(names(m.get("per_layer").unwrap()))
            .collect();
        assert!(all.iter().all(|n| well_formed(n)), "{all:?}");
        assert_eq!(
            all.iter().collect::<BTreeSet<_>>().len(),
            all.len(),
            "a name is used twice"
        );
        assert!(!well_formed("-x") && !well_formed("a b") && well_formed("serving.score_us"));
        for e in m.get("end_to_end").unwrap().as_arr() {
            let bound = e.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let seconds = m.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }

    /// A `--smoke` run of every workload, both ways: the names it prints
    /// are the names declared, every end-to-end metric is set and never
    /// 0, every per-layer metric is set by the workload that exercises
    /// its layer, and no answer fails.
    #[test]
    fn smoke_runs_print_exactly_the_declared_names() {
        let _serial = sandbox::TEST_SERIAL.lock().unwrap();
        let m = manifest();
        let mut layers_set = BTreeSet::new();
        for workload in Workload::ALL {
            for trace in [false, true] {
                let opts = Opts {
                    seed: 5,
                    seconds: 0.3,
                    trace,
                    smoke: true,
                };
                let report = run(workload, &opts);
                assert!(report.correct(), "{} trace={trace}", workload.name());
                assert!(report.attempted > 0);
                let (key, declared) = if trace {
                    ("per_layer", spec::PER_LAYER)
                } else {
                    ("end_to_end", spec::END_TO_END)
                };
                let printed: Vec<String> = report
                    .to_json(declared)
                    .get("metrics")
                    .unwrap()
                    .fields()
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect();
                assert_eq!(printed, names(m.get(key).unwrap()));
                for d in declared {
                    match (trace, report.value(d.name)) {
                        (false, v) => assert!(
                            v.is_some_and(|v| v.is_finite() && v > 0.0),
                            "{} on {} is {v:?}",
                            d.name,
                            workload.name()
                        ),
                        (true, Some(v)) => {
                            assert!(v.is_finite(), "{} is {v}", d.name);
                            layers_set.insert(d.name);
                        }
                        (true, None) => {}
                    }
                }
            }
        }
        let never: Vec<&str> = spec::PER_LAYER
            .iter()
            .map(|d| d.name)
            .filter(|n| !layers_set.contains(n))
            .collect();
        assert!(never.is_empty(), "no workload sets {never:?}");
    }

    #[test]
    fn every_seed_gets_the_same_notes_per_mention_count() {
        for seed in [5, 6] {
            let inputs = serving::Inputs::generate(&api::Sizes::smoke(), seed);
            let mut per_count = std::collections::BTreeMap::new();
            for note in &inputs.notes {
                *per_count.entry(note.gold.len()).or_insert(0) += 1;
            }
            let expected: Vec<(usize, i32)> = (3..=8).map(|mentions| (mentions, 2)).collect();
            assert_eq!(per_count.into_iter().collect::<Vec<_>>(), expected);
        }
    }

    #[test]
    fn same_seed_same_digests() {
        let _serial = sandbox::TEST_SERIAL.lock().unwrap();
        let digests = |seed| {
            let opts = Opts {
                seed,
                seconds: 0.1,
                trace: false,
                smoke: true,
            };
            let r = run(Workload::Notes, &opts);
            let fact = |k: &str| r.facts.iter().find(|(n, _)| n == k).unwrap().1.clone();
            (fact("inputs_digest"), fact("ranked_digest"))
        };
        assert_eq!(digests(3), digests(3));
        assert_ne!(digests(3).0, digests(4).0);
    }
}
