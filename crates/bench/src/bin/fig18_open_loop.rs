//! Figure 18 (repo extension): open-loop serving under overload —
//! admission control, load shedding, and tail latency.
//!
//! The closed-loop figures (11, 15) measure how fast the linker runs
//! when the caller politely waits for each answer. A deployed linker
//! faces *open-loop* arrivals: requests land on their own clock, and
//! past saturation an unprotected server grows an unbounded queue and
//! every latency diverges. This binary drives the serving front end
//! ([`ncl_core::serving::Frontend`]) with a deterministic Poisson
//! arrival schedule swept from half of measured capacity to 6x past
//! it, and checks the two properties admission control buys:
//!
//! 1. **Bounded tails**: the end-to-end p99 stays under a fixed bound
//!    derived from the queue ceiling and the per-request deadline, at
//!    *every* offered rate — overload cannot stretch it arbitrarily.
//! 2. **Graceful, monotone shedding**: the fraction of traffic shed
//!    (TF-IDF-only rung) or rejected (typed `Overloaded`) rises with
//!    the offered rate, and *every* submission is accounted for —
//!    completed or typed-rejected, nothing lost.
//!
//! Arrival gaps are pre-drawn from a seeded generator, so the offered
//! schedule is reproducible; actual service interleaving is not (this
//! is a load test, not a replay test — the *assertions* hold for any
//! interleaving). The gaps are sub-millisecond (service time is
//! ~0.2 ms), shorter than an OS sleep is accurate to, so the generator
//! sleeps only to within a spin window of each due time and spins the
//! rest: the schedule, not the OS timer, owns the clock. The window is
//! a quarter of the offered mean gap ([`spin_window`]) — a fixed one
//! longer than the gap never sleeps, and on a host with as many cores
//! as workers a generator that only spins takes a core from the loops
//! it feeds. How late it still ran is reported per rate, in
//! microseconds and as a fraction of the offered gap
//! (`gen_late_mean_us`, `gen_late_frac`); a half-load point whose
//! generator ran more than half a gap late describes the harness, not
//! the linker, and the run refuses to record it. How much of the
//! half-load schedule is served in full (`low_load_full_frac`) is
//! recorded and gated against the baseline, with only a collapse floor
//! asserted here.
//!
//! Prints a paper-style table, writes `results/fig18_open_loop.json`,
//! and drops a flat `BENCH_fig18.json` at the working directory root
//! for the CI regression gate (`bench_gate`, baseline
//! `ci/bench_baseline_fig18.json`).

use ncl_bench::{table, workload, Scale};
use ncl_core::serving::{Frontend, FrontendConfig};
use ncl_core::{Linker, LinkerConfig};
use ncl_datagen::DatasetProfile;
use std::time::{Duration, Instant};

struct OpenLoopRow {
    rate_multiplier: f64,
    offered_qps: f64,
    submitted: u64,
    completed: u64,
    rejected: u64,
    admitted_full: u64,
    admitted_partial: u64,
    admitted_shed: u64,
    queued_past_deadline: u64,
    shed_fraction: f64,
    completed_per_sec: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    queue_wait_p99_ms: f64,
    gen_late_mean_us: f64,
    gen_late_frac: f64,
}
ncl_bench::impl_to_json!(OpenLoopRow {
    rate_multiplier,
    offered_qps,
    submitted,
    completed,
    rejected,
    admitted_full,
    admitted_partial,
    admitted_shed,
    queued_past_deadline,
    shed_fraction,
    completed_per_sec,
    p50_ms,
    p95_ms,
    p99_ms,
    queue_wait_p99_ms,
    gen_late_mean_us,
    gen_late_frac
});

/// splitmix64: the pre-drawn arrival schedule's seeded generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` exponential inter-arrival gaps at `rate` arrivals/sec
/// (a Poisson process), pre-drawn so every sweep point replays the
/// same offered schedule shape.
fn draw_gaps(n: usize, rate: f64, seed: u64) -> Vec<Duration> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            // u in (0, 1]: never ln(0).
            let u = ((splitmix64(&mut state) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            Duration::from_secs_f64((-u.ln()) / rate)
        })
        .collect()
}

/// How close to a due time the generator trusts `thread::sleep` at an
/// offered mean gap of `mean_gap`: a quarter of the gap, at most
/// 200 µs. An oversleep of a few hundred microseconds is several whole
/// arrival gaps at these rates and turns a half-load schedule into
/// bursts; a window longer than the gap itself never sleeps at all.
fn spin_window(mean_gap: Duration) -> Duration {
    Duration::from_micros(200).min(mean_gap / 4)
}

/// Blocks until `due`: sleeps while more than `spin` remains, then
/// spins. Returns how late the caller is (zero unless the due time had
/// already passed on entry or the thread lost its core).
fn wait_until(due: Instant, spin: Duration) -> Duration {
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        if wait > spin {
            std::thread::sleep(wait - spin);
        }
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
    due.elapsed()
}

/// Mean service time of one request, measured on the same linker the
/// front end will drive. Everything else — deadlines, watermark budgets, offered
/// rates, the p99 bound — is denominated in this unit so the sweep
/// self-calibrates to the machine.
fn measure_service_time(linker: &Linker, queries: &[Vec<String>]) -> Duration {
    for q in queries.iter().take(3) {
        let _ = linker.link(q);
    }
    let mut n = 0usize;
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(300) {
        for q in queries {
            let _ = linker.link(q);
            n += 1;
        }
    }
    start.elapsed() / (n as u32)
}

fn main() {
    let scale = Scale::from_args();
    let quick = ncl_bench::config::quick_from_args();
    println!("Figure 18 reproduction — open-loop serving: admission control and tail latency");

    let ds = workload::dataset(DatasetProfile::HospitalX, &scale);
    let pipeline = workload::fit_default(&ds, &scale);
    let queries: Vec<Vec<String>> = ds
        .query_group(scale.group_size, scale.purposive, 99)
        .into_iter()
        .map(|q| q.tokens)
        .collect();
    let linker = Linker::new(
        &pipeline.model,
        &ds.ontology,
        LinkerConfig {
            k: 10,
            ..LinkerConfig::default()
        },
    );

    let s = measure_service_time(&linker, &queries);
    let s_secs = s.as_secs_f64();
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let workers = 2usize;
    // Effective service capacity: worker loops beyond the physical
    // cores timeshare rather than add throughput.
    let capacity_qps = workers.min(hw) as f64 / s_secs;
    println!(
        "calibration: mean service {:.3}ms, {hw} hardware threads, {workers} workers -> capacity ~{capacity_qps:.1} q/s",
        s_secs * 1e3
    );

    let config = FrontendConfig {
        queue_capacity: 32,
        degrade_watermark: 4,
        shed_watermark: 12,
        deadline: Some(s * 25),
        partial_ed_budget: s * 2,
        workers,
        retry_after: s,
        ..FrontendConfig::default()
    };
    // The tail bound the figure is about: a full queue of (mostly
    // degraded, hence faster) requests plus a deadline-capped service,
    // with a 4x safety factor for scheduler noise. Open-loop overload
    // *without* admission control would blow far past this within one
    // sweep point (the queue grows by (rate - capacity) x duration).
    let p99_bound =
        Duration::from_secs_f64(4.0 * (config.queue_capacity as f64 * s_secs + 25.0 * s_secs));

    let n_requests = if quick { 160 } else { 400 };
    let multipliers = [0.5f64, 1.5, 3.0, 6.0];
    let mut records: Vec<OpenLoopRow> = Vec::new();
    let mut rows = Vec::new();

    for (sweep, &mult) in multipliers.iter().enumerate() {
        let rate = mult * capacity_qps;
        let gaps = draw_gaps(n_requests, rate, 0x000F_1618 + sweep as u64);
        let spin = spin_window(Duration::from_secs_f64(1.0 / rate));
        let fe = Frontend::new(&linker, config);
        let started = Instant::now();
        let mut rejected_seen = 0u64;
        let mut late = Duration::ZERO;
        fe.serve(|| {
            // Schedule-driven open loop: each request has a target
            // arrival time; running late yields a burst of catch-up
            // submissions, which is exactly what a real arrival process
            // does to a stalled server — the schedule, not the server,
            // owns the clock.
            let mut next = Instant::now();
            for (i, gap) in gaps.iter().enumerate() {
                next += *gap;
                late += wait_until(next, spin);
                let q = &queries[i % queries.len()];
                if fe.submit(q.clone()).is_err() {
                    rejected_seen += 1;
                }
            }
        });
        let elapsed = started.elapsed().as_secs_f64();
        let stats = fe.stats();
        let completions = fe.take_completions();

        // Accounting: nothing lost, nothing double-counted, and the
        // caller-side error count agrees with the front end's own.
        assert_eq!(stats.submitted, n_requests as u64);
        assert_eq!(stats.rejected, rejected_seen);
        assert_eq!(
            stats.completed + stats.rejected,
            n_requests as u64,
            "every submission must complete or be typed-rejected (x{mult})"
        );
        assert_eq!(completions.len() as u64, stats.completed);
        // Every completion is structurally sound: the ranking is a
        // permutation of the retrieved candidates, and unscored answers
        // carry a degradation marker.
        for c in &completions {
            let mut ranked = c.result.ranked_ids();
            let mut cands = c.result.candidates.clone();
            ranked.sort();
            cands.sort();
            assert_eq!(ranked, cands, "ranking must be a permutation (x{mult})");
            let fully_scored = c.result.ranked.iter().all(|&(_, s)| s > f32::NEG_INFINITY);
            assert!(
                fully_scored || c.result.is_degraded(),
                "unscored answers must be marked degraded (x{mult})"
            );
        }

        let shed_frac = stats.shed_fraction();
        let p99 = stats.e2e.p99;
        let gen_late_mean_us = late.as_secs_f64() * 1e6 / n_requests as f64;
        let gen_late_frac = gen_late_mean_us * 1e-6 * rate;
        if mult < 1.0 && gen_late_frac > 0.5 {
            eprintln!(
                "fig18: refusing to record — at {mult:.1}x the generator ran {gen_late_mean_us:.0} µs \
                 ({gen_late_frac:.2} of the {:.0} µs offered gap) late on average, so the schedule \
                 served was not the half-load schedule offered. The generator needs a core of its \
                 own beside the {workers} workers ({hw} hardware threads here): rerun on a larger \
                 or quieter host",
                1e6 / rate
            );
            std::process::exit(1);
        }
        rows.push(vec![
            format!("{mult:.1}x"),
            format!("{rate:.1}"),
            stats.submitted.to_string(),
            stats.completed.to_string(),
            stats.rejected.to_string(),
            format!(
                "{}/{}/{}",
                stats.admitted_full, stats.admitted_partial, stats.admitted_shed
            ),
            format!("{:.3}", shed_frac),
            format!("{:.2}", stats.e2e.p50.as_secs_f64() * 1e3),
            format!("{:.2}", p99.as_secs_f64() * 1e3),
            format!("{gen_late_mean_us:.0}"),
            format!("{gen_late_frac:.2}"),
        ]);
        records.push(OpenLoopRow {
            rate_multiplier: mult,
            offered_qps: rate,
            submitted: stats.submitted,
            completed: stats.completed,
            rejected: stats.rejected,
            admitted_full: stats.admitted_full,
            admitted_partial: stats.admitted_partial,
            admitted_shed: stats.admitted_shed,
            queued_past_deadline: stats.queued_past_deadline,
            shed_fraction: shed_frac,
            completed_per_sec: stats.completed as f64 / elapsed,
            p50_ms: stats.e2e.p50.as_secs_f64() * 1e3,
            p95_ms: stats.e2e.p95.as_secs_f64() * 1e3,
            p99_ms: p99.as_secs_f64() * 1e3,
            queue_wait_p99_ms: stats.queue_wait.p99.as_secs_f64() * 1e3,
            gen_late_mean_us,
            gen_late_frac,
        });
    }

    table::banner(&format!(
        "Figure 18: open-loop serving, {} (N={n_requests}/rate, bound p99 <= {:.1}ms)",
        ds.profile.name(),
        p99_bound.as_secs_f64() * 1e3
    ));
    println!(
        "{}",
        table::render(
            &[
                "rate",
                "q/s",
                "subm",
                "done",
                "rej",
                "full/part/shed",
                "shed%",
                "p50ms",
                "p99ms",
                "late µs",
                "late/gap"
            ],
            &rows
        )
    );

    // ---- Acceptance ----
    table::banner("Shape check");
    // 1. Bounded tails at every offered rate.
    for r in &records {
        let ok = r.p99_ms <= p99_bound.as_secs_f64() * 1e3;
        println!(
            "p99 bounded at {:.1}x ({:.2}ms <= {:.1}ms): {ok}",
            r.rate_multiplier,
            r.p99_ms,
            p99_bound.as_secs_f64() * 1e3
        );
        assert!(
            ok,
            "p99 must stay bounded under overload (x{}: {:.2}ms > {:.1}ms)",
            r.rate_multiplier,
            r.p99_ms,
            p99_bound.as_secs_f64() * 1e3
        );
    }
    // 2. Shedding rises (weakly) monotonically with the offered rate,
    //    and saturation actually sheds.
    for w in records.windows(2) {
        assert!(
            w[1].shed_fraction >= w[0].shed_fraction - 0.05,
            "shed fraction must rise with offered load ({:.3} at {:.1}x -> {:.3} at {:.1}x)",
            w[0].shed_fraction,
            w[0].rate_multiplier,
            w[1].shed_fraction,
            w[1].rate_multiplier
        );
    }
    let first = records.first().unwrap();
    let last = records.last().unwrap();
    assert!(
        last.shed_fraction > first.shed_fraction && last.shed_fraction >= 0.25,
        "6x overload must shed substantially more than half-load ({:.3} -> {:.3})",
        first.shed_fraction,
        last.shed_fraction
    );
    println!(
        "shed fraction monotone: {:.3} at {:.1}x -> {:.3} at {:.1}x",
        first.shed_fraction, first.rate_multiplier, last.shed_fraction, last.rate_multiplier
    );
    // 3. Low load mostly serves the full answer — recorded and gated
    //    against the baseline, asserted below only against collapse.
    let low_load_full_frac = first.admitted_full as f64 / first.submitted as f64;
    println!(
        "full-rung fraction at 0.5x: {low_load_full_frac:.3} (generator {:.0} µs = {:.2} of a gap late on average)",
        first.gen_late_mean_us, first.gen_late_frac
    );

    ncl_bench::results::write_json("fig18_open_loop", &records);

    // Flat gate record for CI (`bench_gate` vs
    // `ci/bench_baseline_fig18.json`); every gated key higher-is-better
    // (`gen_late_frac_low_load` is informational: it is what the
    // refusal above bounds).
    let p99_headroom = p99_bound.as_secs_f64() * 1e3 / last.p99_ms.max(1e-6);
    let gate = format!(
        "{{\n  \"sat_completed_per_sec\": {:.3},\n  \"p99_headroom\": {:.3},\n  \"low_load_full_frac\": {:.3},\n  \"shed_frac_rise\": {:.3},\n  \"accounted\": 1.0,\n  \"gen_late_frac_low_load\": {:.3}\n}}\n",
        last.completed_per_sec,
        p99_headroom,
        low_load_full_frac,
        last.shed_fraction - first.shed_fraction + 1.0,
        first.gen_late_frac,
    );
    match std::fs::write("BENCH_fig18.json", &gate) {
        Ok(()) => println!("[results] wrote BENCH_fig18.json"),
        Err(e) => eprintln!("warning: cannot write BENCH_fig18.json: {e}"),
    }

    // How much of a half-load schedule is served in full still depends
    // on the host — on a 2-vCPU one the generator shares the cores with
    // the two workers it feeds — so the fraction is a recorded,
    // baseline-gated key like fig12's thread ratios and fig17's
    // cold-start ratio; only a dead full rung is fatal here. A run whose
    // generator lost its clock never gets this far.
    assert!(
        low_load_full_frac > 0.1,
        "the full rung collapsed at half load (got {low_load_full_frac:.3})"
    );

    println!(
        "\nfig18 acceptance: bounded p99 at every rate, monotone shedding, full accounting — ok \
         (low-load full fraction {low_load_full_frac:.3}: recorded; gated vs baseline, asserted only > 0.1)"
    );
}
