//! Deterministic fault injection for the serving layer.
//!
//! A serving claim like "the linker never aborts" is only as strong as
//! the failure modes it has been exercised against. [`FaultPlan`] lets
//! tests and benchmarks inject three kinds of faults — panics, delays,
//! and I/O errors — at named *sites* inside the linking pipeline, with
//! fully deterministic triggering: each `(seed, site, call-ordinal)`
//! triple hashes to a decision, so a failing run replays bit-identically
//! from its seed. There is no global state and no feature gate; a linker
//! without an attached plan pays one `Option` check per site.
//!
//! Sites are hierarchical dot-paths (`"ed.score"`, `"or.rewrite"`), and
//! rules match by prefix, so a rule on `"ed"` covers every ED-phase
//! site.
//!
//! The linking pipeline's sites: `"or.rewrite"` (one visit per rewritten
//! token), `"cr.topk"` (candidate retrieval — the term-at-a-time TF-IDF
//! scan; a panic here yields an empty candidate set, not an abort),
//! and `"ed.score"` (one visit per scored candidate). The serving front
//! end adds `"frontend.queue"` (an I/O-style site consulted once per
//! submission — an injected error forces the admission-control overload
//! path, rejecting the request with `NclError::Overloaded` regardless of
//! actual queue depth). Document-level linking adds `"doc.propose"`
//! (one visit per accepted span proposal — a panic drops that single
//! span, recorded as [`crate::serving::TraceEvent::ProposeFaulted`],
//! while the rest of the note links normally).
//!
//! Attaching a plan also disables the linker's rewrite memo: memoising
//! out-of-vocabulary rewrites would change how many times `"or.rewrite"`
//! is visited across repeated queries, and the visit *ordinal* is an
//! input to the fault decision — replay determinism requires the visit
//! sequence to be a pure function of the query stream.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What a matched rule does at the fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `panic!` at the site (exercises panic isolation).
    Panic,
    /// Sleep for the given duration (exercises deadline budgets).
    Delay(Duration),
    /// Report an injected I/O error (exercises persistence paths).
    Io,
}

/// One injection rule: `kind` fires with `probability` at every site
/// whose dot-path starts with `site_prefix`.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Dot-path prefix the rule applies to (empty matches every site).
    pub site_prefix: String,
    /// What happens when the rule fires.
    pub kind: FaultKind,
    /// Probability in `[0, 1]` that a matching visit fires.
    pub probability: f64,
}

/// A deterministic, thread-safe fault schedule.
///
/// The plan is `Sync`: the only mutable state is a per-site visit
/// counter, so concurrent scoring workers can consult the same plan.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    visits: AtomicU64,
    fired: AtomicU64,
}

/// SplitMix64: a seed and a counter in, a well-mixed word out.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_site(site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in site.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl FaultPlan {
    /// A plan that never fires (useful as a neutral default).
    pub fn none() -> Self {
        Self::new(0)
    }

    /// An empty plan with the given seed; add rules with
    /// [`FaultPlan::with_rule`] or the shorthand constructors.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
            visits: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        }
    }

    /// Adds a rule (builder style).
    pub fn with_rule(
        mut self,
        site_prefix: impl Into<String>,
        kind: FaultKind,
        probability: f64,
    ) -> Self {
        self.rules.push(FaultRule {
            site_prefix: site_prefix.into(),
            kind,
            probability: probability.clamp(0.0, 1.0),
        });
        self
    }

    /// Shorthand: panic with probability `p` at sites under `prefix`.
    pub fn panics(seed: u64, prefix: impl Into<String>, p: f64) -> Self {
        Self::new(seed).with_rule(prefix, FaultKind::Panic, p)
    }

    /// Shorthand: delay by `d` with probability `p` at sites under
    /// `prefix`.
    pub fn delays(seed: u64, prefix: impl Into<String>, p: f64, d: Duration) -> Self {
        Self::new(seed).with_rule(prefix, FaultKind::Delay(d), p)
    }

    /// Number of site visits so far.
    pub fn visits(&self) -> u64 {
        self.visits.load(Ordering::Relaxed)
    }

    /// Number of faults actually fired so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// The deterministic decision for one visit: the first matching rule
    /// whose hash draw lands under its probability.
    fn decide(&self, site: &str) -> Option<FaultKind> {
        let ordinal = self.visits.fetch_add(1, Ordering::Relaxed);
        for rule in &self.rules {
            if !site.starts_with(rule.site_prefix.as_str()) {
                continue;
            }
            let h = mix(self.seed ^ hash_site(site) ^ ordinal.wrapping_mul(0x9E37_79B9));
            // Map the top 53 bits to [0, 1).
            let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
            if draw < rule.probability {
                self.fired.fetch_add(1, Ordering::Relaxed);
                return Some(rule.kind);
            }
        }
        None
    }

    /// Visits a compute site: may sleep or panic. Sites that can only
    /// tolerate I/O faults should use [`FaultPlan::visit_io`] instead.
    ///
    /// # Panics
    /// Panics (by design) when a `Panic` rule fires.
    pub fn visit(&self, site: &str) {
        match self.decide(site) {
            Some(FaultKind::Panic) => panic!("injected fault at {site}"),
            Some(FaultKind::Delay(d)) => std::thread::sleep(d),
            Some(FaultKind::Io) | None => {}
        }
    }

    /// Visits an I/O site: may sleep, or return an injected error.
    /// `Panic` rules also surface as errors here — I/O boundaries report
    /// failures, they don't unwind.
    pub fn visit_io(&self, site: &str) -> std::io::Result<()> {
        match self.decide(site) {
            Some(FaultKind::Delay(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(FaultKind::Io) | Some(FaultKind::Panic) => Err(std::io::Error::other(format!(
                "injected I/O fault at {site}"
            ))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::none();
        for _ in 0..100 {
            plan.visit("ed.score");
        }
        assert_eq!(plan.fired(), 0);
        assert_eq!(plan.visits(), 100);
    }

    #[test]
    fn probability_one_always_fires() {
        let plan = FaultPlan::delays(7, "ed", 1.0, Duration::ZERO);
        for _ in 0..10 {
            plan.visit("ed.score");
        }
        assert_eq!(plan.fired(), 10);
    }

    #[test]
    fn prefix_scoping() {
        let plan = FaultPlan::delays(7, "ed", 1.0, Duration::ZERO);
        plan.visit("or.rewrite");
        plan.visit("cr.topk");
        assert_eq!(plan.fired(), 0);
        plan.visit("ed.score");
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let outcomes = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed).with_rule("ed", FaultKind::Io, 0.5);
            (0..64)
                .map(|_| plan.visit_io("ed.score").is_err())
                .collect()
        };
        assert_eq!(outcomes(42), outcomes(42));
        assert_ne!(outcomes(42), outcomes(43), "seeds should decorrelate");
    }

    #[test]
    fn mid_probability_fires_sometimes() {
        let plan = FaultPlan::new(5).with_rule("", FaultKind::Io, 0.3);
        let errs = (0..200).filter(|_| plan.visit_io("x").is_err()).count();
        assert!(errs > 20 && errs < 120, "fired {errs}/200 at p=0.3");
    }

    #[test]
    fn panic_rule_panics_at_compute_sites() {
        let plan = FaultPlan::panics(1, "ed", 1.0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.visit("ed.score");
        }));
        assert!(caught.is_err());
        // …but surfaces as an error at I/O sites.
        assert!(plan.visit_io("ed.flush").is_err());
    }
}
