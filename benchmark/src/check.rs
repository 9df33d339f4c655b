//! Output checks. Every answer is checked structurally on any seed; the
//! measured repeats are then held to the fingerprint their input got
//! on the checked pass — the repo's bit-identity invariant, enforced
//! per answer.

use crate::api::{Answer, Gold, NoteAnswer, World, K};
use crate::digest::Fnv;

/// Why an answer is structurally wrong, or `None`.
pub fn answer_fault(a: &Answer, world: &World) -> Option<&'static str> {
    if a.degraded {
        return Some("degraded");
    }
    if a.candidates.len() > K {
        return Some("more than k candidates");
    }
    if a.ranked.len() != a.candidates.len() {
        return Some("|ranked| != |candidates|");
    }
    if a.ranked.iter().any(|&(_, s)| !s.is_finite()) {
        return Some("non-finite score");
    }
    let ordered = a
        .ranked
        .windows(2)
        .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
    if !ordered {
        return Some("not descending by score, ties by id");
    }
    if a.ranked.iter().any(|&(c, _)| !world.is_fine_grained(c)) {
        return Some("coarse or unknown concept id");
    }
    let mut ranked: Vec<u32> = a.ranked.iter().map(|&(c, _)| c).collect();
    let mut candidates = a.candidates.clone();
    ranked.sort_unstable();
    candidates.sort_unstable();
    if ranked != candidates {
        return Some("ranked is not a permutation of candidates");
    }
    None
}

pub fn note_fault(n: &NoteAnswer, tokens: usize, world: &World) -> Option<&'static str> {
    if n.degraded {
        return Some("degraded");
    }
    let mut at = 0;
    for s in &n.spans {
        if s.len == 0 || s.start < at || s.start + s.len > tokens {
            return Some("spans not sorted, disjoint and in range");
        }
        at = s.start + s.len;
        if let Some(f) = answer_fault(&s.answer, world) {
            return Some(f);
        }
    }
    None
}

/// Concept ids and score bits of a ranking.
pub fn ranking_print(ranked: &[(u32, f32)]) -> u64 {
    let mut h = Fnv::default();
    ranking_into(ranked, &mut h);
    h.finish()
}

pub fn answer_print(a: &Answer) -> u64 {
    ranking_print(&a.ranked)
}

pub fn note_print(n: &NoteAnswer) -> u64 {
    let mut h = Fnv::default();
    for s in &n.spans {
        h.u64(s.start as u64);
        h.u64(s.len as u64);
        ranking_into(&s.answer.ranked, &mut h);
    }
    h.finish()
}

fn ranking_into(ranked: &[(u32, f32)], h: &mut Fnv) {
    for &(c, s) in ranked {
        h.u32(c);
        h.u32(s.to_bits());
    }
    h.bytes(&[0xfd]);
}

/// Digest over a pass's per-input fingerprints, in input order.
pub fn pass_digest(prints: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for &p in prints {
        h.u64(p);
    }
    h.finish()
}

/// Quality tallies over labelled inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub labelled: usize,
    pub covered: usize,
    pub top1: usize,
    pub reciprocal_rank: f64,
}

impl Tally {
    pub fn query(&mut self, a: &Answer, truth: u32) {
        self.labelled += 1;
        if a.candidates.contains(&truth) {
            self.covered += 1;
        }
        if let Some(rank) = a.ranked.iter().position(|&(c, _)| c == truth) {
            self.reciprocal_rank += 1.0 / (rank + 1) as f64;
            if rank == 0 {
                self.top1 += 1;
            }
        }
    }

    pub fn cov_at_k(&self) -> f64 {
        self.covered as f64 / self.labelled.max(1) as f64
    }

    pub fn acc_top1(&self) -> f64 {
        self.top1 as f64 / self.labelled.max(1) as f64
    }

    pub fn mrr(&self) -> f64 {
        self.reciprocal_rank / self.labelled.max(1) as f64
    }
}

/// Span-level tallies of one note: (gold spans some proposed span
/// overlaps, gold spans whose concept is among an overlapping span's
/// candidates).
pub fn note_recall(n: &NoteAnswer, gold: &[Gold]) -> (usize, usize) {
    let mut found = 0;
    let mut covered = 0;
    for g in gold {
        let mut overlapping = n
            .spans
            .iter()
            .filter(|s| s.start < g.start + g.len && g.start < s.start + s.len)
            .peekable();
        if overlapping.peek().is_some() {
            found += 1;
        }
        if overlapping.any(|s| s.answer.candidates.contains(&g.truth)) {
            covered += 1;
        }
    }
    (found, covered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Counters, SpanAnswer, StageWalls};

    fn world() -> World {
        World::icd(300, 5)
    }

    fn fine_ids(w: &World) -> Vec<u32> {
        (0..w.concepts() as u32 + 1)
            .filter(|&c| w.is_fine_grained(c))
            .take(4)
            .collect()
    }

    fn answer(ranked: Vec<(u32, f32)>) -> Answer {
        Answer {
            candidates: ranked.iter().map(|&(c, _)| c).rev().collect(),
            ranked,
            degraded: false,
            stages: StageWalls::default(),
            counters: Counters::default(),
        }
    }

    #[test]
    fn structural_check_accepts_a_well_formed_answer_and_names_each_fault() {
        let w = world();
        let f = fine_ids(&w);
        let good = answer(vec![(f[1], -1.0), (f[0], -2.0), (f[2], -2.0)]);
        assert_eq!(answer_fault(&good, &w), None);

        let mut bad = good.clone();
        bad.degraded = true;
        assert_eq!(answer_fault(&bad, &w), Some("degraded"));

        let ascending = answer(vec![(f[0], -2.0), (f[1], -1.0)]);
        assert!(answer_fault(&ascending, &w).unwrap().contains("descending"));

        let tie_wrong_way = answer(vec![(f[2], -1.0), (f[0], -1.0)]);
        assert!(answer_fault(&tie_wrong_way, &w).unwrap().contains("ties"));

        let nan = answer(vec![(f[0], f32::NAN)]);
        assert_eq!(answer_fault(&nan, &w), Some("non-finite score"));

        let unknown = answer(vec![(u32::MAX, -1.0)]);
        assert!(answer_fault(&unknown, &w).unwrap().contains("concept id"));

        let mut dropped = good.clone();
        dropped.candidates.pop();
        assert_eq!(answer_fault(&dropped, &w), Some("|ranked| != |candidates|"));

        let mut swapped = good.clone();
        swapped.candidates[0] = f[3];
        assert!(answer_fault(&swapped, &w).unwrap().contains("permutation"));
    }

    #[test]
    fn fingerprints_see_ids_score_bits_and_span_bounds() {
        let a = answer(vec![(1, -1.0), (2, -2.0)]);
        let b = answer(vec![(1, -1.0), (2, -2.000_000_2)]);
        let c = answer(vec![(2, -1.0), (1, -2.0)]);
        assert_eq!(answer_print(&a), answer_print(&a.clone()));
        assert_ne!(answer_print(&a), answer_print(&b));
        assert_ne!(answer_print(&a), answer_print(&c));
        let note = |start| NoteAnswer {
            spans: vec![SpanAnswer {
                start,
                len: 2,
                answer: a.clone(),
            }],
            degraded: false,
            stages: StageWalls::default(),
            counters: Counters::default(),
        };
        assert_eq!(note_print(&note(3)), note_print(&note(3)));
        assert_ne!(note_print(&note(3)), note_print(&note(4)));
        assert_ne!(pass_digest(&[1, 2]), pass_digest(&[2, 1]));
    }

    #[test]
    fn tallies_and_span_recall() {
        let a = answer(vec![(5, -1.0), (6, -2.0)]);
        let mut t = Tally::default();
        t.query(&a, 5);
        t.query(&a, 6);
        t.query(&a, 7);
        assert_eq!((t.labelled, t.covered, t.top1), (3, 2, 1));
        assert!((t.mrr() - 0.5).abs() < 1e-12);
        assert!((t.cov_at_k() - 2.0 / 3.0).abs() < 1e-12);

        let note = NoteAnswer {
            spans: vec![SpanAnswer {
                start: 4,
                len: 3,
                answer: a,
            }],
            degraded: false,
            stages: StageWalls::default(),
            counters: Counters::default(),
        };
        let gold = [
            Gold {
                start: 5,
                len: 4,
                truth: 6,
            }, // overlapped and covered
            Gold {
                start: 6,
                len: 1,
                truth: 9,
            }, // overlapped, concept missed
            Gold {
                start: 7,
                len: 2,
                truth: 5,
            }, // abuts: not overlapped
        ];
        assert_eq!(note_recall(&note, &gold), (2, 1));
    }
}
