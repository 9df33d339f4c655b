//! Free-running decoding: generating a text snippet *from* a concept.
//!
//! COM-AID is a translation model (§3: "COM-AID is capable of translating
//! a concept into an arbitrary query"); besides *scoring* a given query
//! it can therefore *generate* likely surface forms of a concept — useful
//! for inspecting what the model has learned per concept and for
//! suggesting candidate aliases to experts. This module implements greedy
//! and beam-search decoding over the trained decoder.

use super::{ComAid, OntologyIndex};
use ncl_ontology::ConceptId;
use ncl_tensor::ops::log_softmax;
use ncl_text::Vocab;

/// One decoded hypothesis.
#[derive(Debug, Clone)]
pub struct Decoded {
    /// The generated word ids (without BOS/EOS).
    pub ids: Vec<u32>,
    /// Total log probability, including the terminal EOS step.
    pub log_prob: f32,
}

impl Decoded {
    /// Renders the hypothesis through a vocabulary.
    pub fn text(&self, vocab: &Vocab) -> String {
        vocab.decode(&self.ids).join(" ")
    }
}

/// A partial hypothesis during beam search.
#[derive(Clone)]
struct Beam {
    ids: Vec<u32>,
    log_prob: f32,
    finished: bool,
}

impl ComAid {
    /// Greedy decoding: repeatedly emits the argmax word until EOS or
    /// `max_len` words.
    pub fn generate_greedy(
        &self,
        index: &OntologyIndex,
        concept: ConceptId,
        max_len: usize,
    ) -> Decoded {
        self.generate_beam(index, concept, max_len, 1)
            .into_iter()
            .next()
            // Structurally unreachable: EOS is always a candidate
            // continuation, so the beam is never empty.
            .unwrap_or(Decoded {
                ids: Vec::new(),
                log_prob: f32::NEG_INFINITY,
            })
    }

    /// Beam-search decoding with `beam_width` hypotheses; returns up to
    /// `beam_width` finished hypotheses, best first.
    ///
    /// Implementation note: partial hypotheses are re-scored by running
    /// the full prefix forward — O(len²) per hypothesis, but decoding is
    /// a diagnostic path, not the §5 hot path, and lengths are short
    /// (clinical snippets average 3–6 words).
    ///
    /// # Panics
    /// Panics if `beam_width == 0`.
    pub fn generate_beam(
        &self,
        index: &OntologyIndex,
        concept: ConceptId,
        max_len: usize,
        beam_width: usize,
    ) -> Vec<Decoded> {
        assert!(beam_width > 0, "beam width must be positive");
        let plan = self.plan();
        let mut beams = vec![Beam {
            ids: Vec::new(),
            log_prob: 0.0,
            finished: false,
        }];

        for _ in 0..max_len {
            let mut next: Vec<Beam> = Vec::new();
            for beam in &beams {
                if beam.finished {
                    next.push(beam.clone());
                    continue;
                }
                // Run the prefix forward; the run scores `prefix + EOS`,
                // so the last step's distribution is what we need, and we
                // recover the pre-EOS cumulative log prob by subtracting
                // the recorded EOS term.
                let run = self.run_example(&plan, index, concept, &beam.ids);
                let logits = self.step_logits(&run);
                let lp = log_softmax(&logits);
                // Candidate continuations: top `beam_width` words plus
                // the EOS option. EOS is *always* a candidate — every
                // unfinished beam contributes at least one finished
                // hypothesis, so the search can never end empty (this
                // makes `generate_greedy`'s non-empty guarantee
                // structural rather than probabilistic).
                let mut scored: Vec<(u32, f32)> =
                    (0..lp.len() as u32).map(|w| (w, lp[w as usize])).collect();
                scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                let prefix_lp = run.log_prob - run.step_log_probs.last().copied().unwrap_or(0.0);
                next.push(Beam {
                    ids: beam.ids.clone(),
                    log_prob: prefix_lp + lp[Vocab::EOS as usize],
                    finished: true,
                });
                for &(w, wlp) in scored
                    .iter()
                    .filter(|&&(w, _)| {
                        w != Vocab::EOS && w != Vocab::BOS && w != Vocab::PAD && w != Vocab::UNK
                    })
                    .take(beam_width)
                {
                    let mut ids = beam.ids.clone();
                    ids.push(w);
                    next.push(Beam {
                        ids,
                        log_prob: prefix_lp + wlp,
                        finished: false,
                    });
                }
            }
            next.sort_by(|a, b| {
                b.log_prob
                    .partial_cmp(&a.log_prob)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            next.truncate(beam_width);
            let all_done = next.iter().all(|b| b.finished);
            beams = next;
            if all_done {
                break;
            }
        }

        // Finalise: unfinished hypotheses get their EOS term appended via
        // a scoring pass.
        let mut out: Vec<Decoded> = beams
            .into_iter()
            .map(|b| {
                if b.finished {
                    Decoded {
                        ids: b.ids,
                        log_prob: b.log_prob,
                    }
                } else {
                    let lp = self.run_example(&plan, index, concept, &b.ids).log_prob;
                    Decoded {
                        ids: b.ids,
                        log_prob: lp,
                    }
                }
            })
            .collect();
        out.sort_by(|a, b| {
            b.log_prob
                .partial_cmp(&a.log_prob)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }

    /// The output-layer logits of the *last* decoder step of a run (the
    /// distribution over the next word after the run's target prefix).
    /// The taped pass turns its logits into probabilities in place, so
    /// they are read again off the step's composite state — the same
    /// bias-plus-ascending-dot per word, hence the same bits.
    fn step_logits(&self, run: &super::model::ExampleRun) -> ncl_tensor::Vector {
        self.output
            .apply(&ncl_tensor::Vector::from_slice(run.last_s_tilde()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comaid::{ComAidConfig, TrainPair, Variant};
    use ncl_ontology::OntologyBuilder;
    use ncl_text::tokenize;

    fn trained() -> (ncl_ontology::Ontology, ComAid) {
        let mut b = OntologyBuilder::new();
        let n18 = b.add_root_concept("N18", "chronic kidney disease");
        let _n185 = b.add_child(n18, "N18.5", "chronic kidney disease stage 5");
        let d50 = b.add_root_concept("D50", "iron deficiency anemia");
        let _d500 = b.add_child(d50, "D50.0", "iron deficiency anemia blood loss");
        let o = b.build().unwrap();
        let mut v = ncl_text::Vocab::new();
        for w in [
            "chronic",
            "kidney",
            "disease",
            "stage",
            "5",
            "ckd",
            "iron",
            "deficiency",
            "anemia",
            "blood",
            "loss",
            "fe",
        ] {
            v.add(w);
        }
        let config = ComAidConfig {
            dim: 12,
            epochs: 60,
            lr: 0.4,
            variant: Variant::Full,
            seed: 5,
            ..ComAidConfig::tiny()
        };
        let mut m = ComAid::new(v.clone(), config, None);
        let idx = super::super::OntologyIndex::build(&o, &v, 2);
        let enc = |s: &str| -> Vec<u32> { tokenize(s).iter().map(|t| v.get_or_unk(t)).collect() };
        let pairs = vec![
            TrainPair {
                concept: o.by_code("N18.5").unwrap(),
                target: enc("ckd stage 5"),
            },
            TrainPair {
                concept: o.by_code("D50.0").unwrap(),
                target: enc("fe anemia"),
            },
        ];
        m.fit(&idx, &pairs);
        (o, m)
    }

    #[test]
    fn greedy_generates_trained_alias() {
        let (o, m) = trained();
        let idx = super::super::OntologyIndex::build(&o, m.vocab(), 2);
        let out = m.generate_greedy(&idx, o.by_code("N18.5").unwrap(), 6);
        let text = out.text(m.vocab());
        // A heavily-trained two-pair model must reproduce its alias (or
        // at least start with its distinctive first word).
        assert!(
            text.starts_with("ckd"),
            "expected alias-like generation, got {text:?}"
        );
        assert!(out.log_prob <= 0.0);
    }

    #[test]
    fn beam_contains_greedy_or_better() {
        let (o, m) = trained();
        let idx = super::super::OntologyIndex::build(&o, m.vocab(), 2);
        let c = o.by_code("D50.0").unwrap();
        let greedy = m.generate_greedy(&idx, c, 6);
        let beams = m.generate_beam(&idx, c, 6, 3);
        assert!(!beams.is_empty());
        assert!(beams[0].log_prob >= greedy.log_prob - 1e-4);
        // Best-first ordering.
        for w in beams.windows(2) {
            assert!(w[0].log_prob >= w[1].log_prob);
        }
    }

    #[test]
    fn generations_never_contain_special_tokens() {
        let (o, m) = trained();
        let idx = super::super::OntologyIndex::build(&o, m.vocab(), 2);
        for c in o.fine_grained() {
            for hyp in m.generate_beam(&idx, c, 5, 2) {
                for &id in &hyp.ids {
                    assert!(id >= 4, "special token {id} generated");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "beam width")]
    fn zero_beam_panics() {
        let (o, m) = trained();
        let idx = super::super::OntologyIndex::build(&o, m.vocab(), 2);
        let _ = m.generate_beam(&idx, o.by_code("N18.5").unwrap(), 4, 0);
    }

    #[test]
    fn max_len_bounds_generation() {
        let (o, m) = trained();
        let idx = super::super::OntologyIndex::build(&o, m.vocab(), 2);
        let out = m.generate_greedy(&idx, o.by_code("N18.5").unwrap(), 2);
        assert!(out.ids.len() <= 2);
    }
}
