//! Spans recorded from outside the program, around the calls into each
//! layer. Held in memory during the traced pass and written once at
//! exit; one root span per request, its children laid out from the
//! stage walls the program already returns, and the direct-call passes
//! as span families of their own.

use crate::json::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Shared by every span of one request.
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
}

impl Recorder {
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records a root span and returns its id.
    pub fn root(&mut self, request: u32, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        self.push(None, request, name, start_ns, end_ns)
    }

    /// Lays `stages` (name, duration) out back to back from the start
    /// of `parent` — the program reports stage durations, not
    /// timestamps, and runs its stages in this order.
    pub fn children_from_walls(&mut self, parent: u32, stages: &[(&'static str, f64)]) {
        let (request, mut at) = {
            let p = &self.spans[parent as usize];
            (p.request, p.start_ns)
        };
        for &(name, secs) in stages {
            if secs <= 0.0 {
                continue;
            }
            let end = at + (secs * 1e9).round() as u64;
            self.push(Some(parent), request, name, at, end);
            at = end;
        }
    }

    fn push(
        &mut self,
        parent: Option<u32>,
        request: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Per span name: (count, total duration, total self time) in
    /// seconds. Self time is the span's duration minus the part of its
    /// interval that its children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let own = dur - covered(s.start_ns, s.end_ns, &mut children[s.id as usize]);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e9;
            e.2 += own as f64 / 1e9;
        }
        out
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(f64::from(s.id))),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("request".into(), Json::Num(f64::from(s.request))),
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("count".into(), Json::Num(count as f64)),
                        ("total_s".into(), Json::Num(total)),
                        ("self_s".into(), Json::Num(own)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("seed".into(), Json::Num(seed as f64)),
            ("totals".into(), Json::Obj(totals)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

/// Length of `[start, end)` covered by the union of `intervals`
/// (clipped to it).
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut at = start;
    for &(s, e) in intervals.iter() {
        let s = s.clamp(at, end);
        let e = e.clamp(at, end);
        total += e - s;
        at = at.max(e);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_with_abutting_children() {
        let mut r = Recorder::default();
        let root = r.root(0, "link", 1_000, 2_000);
        r.children_from_walls(
            root,
            &[
                ("rewrite", 100e-9),
                ("retrieve", 200e-9),
                ("score", 600e-9),
                ("rank", 0.0),
            ],
        );
        // rank had no wall: no span.
        assert_eq!(r.spans().len(), 4);
        assert_eq!(r.spans()[1].start_ns, 1_000);
        assert_eq!(r.spans()[2].start_ns, 1_100);
        assert_eq!(r.spans()[3].end_ns, 1_900);
        assert!(r.spans().iter().all(|s| s.request == 0));
        let t = r.totals();
        let (count, total, own) = t["link"];
        assert_eq!(count, 1);
        assert!((total - 1_000e-9).abs() < 1e-15);
        assert!((own - 100e-9).abs() < 1e-15);
        assert!((t["score"].2 - 600e-9).abs() < 1e-15);
    }

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        let mut r = Recorder::default();
        let root = r.root(7, "note", 0, 1_000);
        // Two overlapping children cover [100, 500) once, not twice;
        // a grandchild takes nothing from the root.
        let a = r.push(Some(root), 7, "a", 100, 400);
        r.push(Some(root), 7, "b", 300, 500);
        r.push(Some(a), 7, "a.inner", 150, 250);
        // A child that overruns its parent is clipped to it.
        r.push(Some(root), 7, "c", 900, 1_200);
        let t = r.totals();
        assert!((t["note"].2 - 500e-9).abs() < 1e-15);
        assert!((t["a"].2 - 200e-9).abs() < 1e-15);
        assert!((t["a.inner"].2 - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn trace_file_lists_every_span_with_its_request() {
        let mut r = Recorder::default();
        let root = r.root(3, "link", 10, 20);
        r.children_from_walls(root, &[("score", 5e-9)]);
        let j = r.to_json("icd30k-link", 17);
        let spans = j.get("spans").unwrap().as_arr();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spans[1].get("request").and_then(Json::as_f64), Some(3.0));
        assert!(j.get("totals").unwrap().get("link").is_some());
    }
}
