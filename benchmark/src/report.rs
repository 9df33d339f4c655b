//! What one run reports: `name value unit` lines, then the one JSON
//! object the driver reads from the last line of standard output.

use crate::json::Json;
use crate::spec::{Metric, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

#[derive(Debug, Default)]
pub struct Report {
    /// Answers asked for, and answers that were wrong (structurally
    /// invalid, degraded, refused, or not bit-identical to the checked
    /// pass).
    pub attempted: u64,
    pub failed: u64,
    /// Run-level invariants that are not a single answer's fault.
    broken: Vec<String>,
    metrics: BTreeMap<&'static str, (f64, usize)>,
    /// Digests, sizes and the like: printed, not part of the JSON.
    pub facts: Vec<(String, String)>,
}

impl Report {
    /// Records a metric with the number of samples behind it.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is declared nowhere"
        );
        self.metrics.insert(name, (value, samples));
    }

    pub fn fact(&mut self, name: &str, value: impl std::fmt::Display) {
        self.facts.push((name.to_string(), value.to_string()));
    }

    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        // The first few reasons are worth reading; the count is in `failed`.
        if self.failed <= 5 {
            eprintln!("failed answer: {why}");
        }
    }

    pub fn require(&mut self, holds: bool, what: &str) {
        if !holds {
            eprintln!("broken invariant: {what}");
            self.broken.push(what.to_string());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty()
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|&(v, _)| v)
    }

    /// The result object over exactly the `declared` metrics. A declared
    /// metric the run did not set reads 0: the workload does not
    /// exercise that layer.
    pub fn to_json(&self, declared: &[Metric]) -> Json {
        let metrics = declared
            .iter()
            .map(|m| {
                let value = self.value(m.name).unwrap_or(0.0);
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// Prints facts, one `name value unit n=samples` line per declared
    /// metric, and the JSON object last.
    pub fn print(&self, declared: &[Metric]) {
        for (k, v) in &self.facts {
            println!("{k} {v}");
        }
        for m in declared {
            let (value, samples) = self.metrics.get(m.name).copied().unwrap_or((0.0, 0));
            println!("{} {} {} n={}", m.name, value, m.unit, samples);
        }
        println!("{}", self.to_json(declared).render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_object_has_exactly_the_declared_metrics() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.set("throughput", 1234.5, 10);
        r.set("serving.score_us", 450.0, 10);
        let j = r.to_json(END_TO_END);
        let keys: Vec<&str> = j.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = j
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        let per_layer = r.to_json(PER_LAYER);
        assert_eq!(
            per_layer.get("metrics").unwrap().fields().len(),
            PER_LAYER.len()
        );
        assert_eq!(
            per_layer
                .get("metrics")
                .unwrap()
                .get("serving.score_us")
                .unwrap()
                .get("value")
                .and_then(Json::as_f64),
            Some(450.0)
        );
    }

    #[test]
    fn a_failed_answer_or_a_broken_invariant_makes_the_run_incorrect() {
        let mut r = Report::default();
        assert!(r.correct());
        r.require(true, "holds");
        assert!(r.correct());
        r.require(false, "does not hold");
        assert!(!r.correct());
        let mut r = Report::default();
        r.fail("bad");
        assert!(!r.correct());
        assert_eq!(
            r.to_json(END_TO_END).get("failed").and_then(Json::as_f64),
            Some(1.0)
        );
    }
}
