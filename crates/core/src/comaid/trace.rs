//! Attention introspection.
//!
//! §3 illustrates COM-AID's behaviour qualitatively: "when q is 'abdomen
//! pain', decoder attends more on 'abdomen' than 'unspecified' for
//! concept R10.9", and for the structural attention, "the decoder also
//! attends to its parent concept R10". This module exposes exactly those
//! weights — the `α_tr` of Eq. 5 and `α'_tr` of Eq. 7 — per decoder step,
//! so users can audit *why* a concept was (mis)ranked.

use super::{ComAid, OntologyIndex};
use ncl_ontology::ConceptId;

/// Attention weights recorded at one decoder step.
#[derive(Debug, Clone)]
pub struct StepTrace {
    /// The word being predicted at this step (`None` = the EOS step).
    pub target: Option<u32>,
    /// Textual attention `α_t·` over the encoder positions (Eq. 5);
    /// empty when the variant disables textual attention.
    pub text_weights: Vec<f32>,
    /// Structural attention `α'_t·` over the β context slots (Eq. 7);
    /// empty when disabled.
    pub struct_weights: Vec<f32>,
}

/// A full attention trace for one (concept, query) pair.
#[derive(Debug, Clone)]
pub struct AttentionTrace {
    /// The encoder-side word ids (the concept's canonical description).
    pub encoder_words: Vec<u32>,
    /// The structural-context concepts, one per slot (with Definition
    /// 4.1 duplication).
    pub context_concepts: Vec<ConceptId>,
    /// One entry per decoder step (query words then EOS).
    pub steps: Vec<StepTrace>,
    /// `log p(q|c)` of the traced pair.
    pub log_prob: f32,
}

impl AttentionTrace {
    /// The total textual attention mass each encoder word received,
    /// summed over the decoder steps — a quick "which description words
    /// mattered" summary.
    pub fn text_mass_per_encoder_word(&self) -> Vec<f32> {
        let n = self.encoder_words.len();
        let mut mass = vec![0.0f32; n];
        for step in &self.steps {
            for (m, w) in mass.iter_mut().zip(&step.text_weights) {
                *m += w;
            }
        }
        mass
    }
}

impl ComAid {
    /// Records the attention weights produced while scoring `target`
    /// against `concept` (a re-run of the Eq. 3 chain with the caches
    /// kept).
    pub fn attention_trace(
        &self,
        index: &OntologyIndex,
        concept: ConceptId,
        target: &[u32],
    ) -> AttentionTrace {
        let run = self.run_example(&self.plan(), index, concept, target);
        run.into_attention_trace(index, concept)
    }
}

impl super::model::ExampleRun {
    pub(crate) fn into_attention_trace(
        self,
        index: &OntologyIndex,
        concept: ConceptId,
    ) -> AttentionTrace {
        let encoder_words = index.tokens(concept).to_vec();
        let context_concepts = index.context(concept).to_vec();
        let steps = (0..self.steps())
            .map(|t| StepTrace {
                target: self.target(t),
                text_weights: self.text_weights(t).to_vec(),
                struct_weights: self.struct_weights(t).to_vec(),
            })
            .collect();
        AttentionTrace {
            encoder_words,
            context_concepts,
            steps,
            log_prob: self.log_prob,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comaid::{ComAidConfig, TrainPair, Variant};
    use ncl_ontology::OntologyBuilder;
    use ncl_text::{tokenize, Vocab};

    fn world(variant: Variant) -> (ncl_ontology::Ontology, ComAid) {
        let mut b = OntologyBuilder::new();
        let r10 = b.add_root_concept("R10", "abdominal and pelvic pain");
        let r109 = b.add_child(r10, "R10.9", "unspecified abdominal pain");
        let o = b.build().unwrap();
        let mut v = Vocab::new();
        for w in [
            "abdominal",
            "and",
            "pelvic",
            "pain",
            "unspecified",
            "abdomen",
        ] {
            v.add(w);
        }
        let config = ComAidConfig {
            dim: 10,
            epochs: 40,
            lr: 0.4,
            variant,
            seed: 3,
            ..ComAidConfig::tiny()
        };
        let mut m = ComAid::new(v.clone(), config, None);
        let idx = crate::comaid::OntologyIndex::build(&o, &v, 2);
        let pairs = vec![TrainPair {
            concept: r109,
            target: tokenize("abdomen pain")
                .iter()
                .map(|t| v.get_or_unk(t))
                .collect(),
        }];
        m.fit(&idx, &pairs);
        (o, m)
    }

    #[test]
    fn weights_form_simplices_per_step() {
        let (o, m) = world(Variant::Full);
        let idx = crate::comaid::OntologyIndex::build(&o, m.vocab(), 2);
        let c = o.by_code("R10.9").unwrap();
        let trace = m.attention_trace(&idx, c, &m.encode_text("abdomen pain"));
        assert_eq!(trace.steps.len(), 3); // two words + EOS
        for step in &trace.steps {
            let ts: f32 = step.text_weights.iter().sum();
            assert!((ts - 1.0).abs() < 1e-4, "text weights sum {ts}");
            let ss: f32 = step.struct_weights.iter().sum();
            assert!((ss - 1.0).abs() < 1e-4, "struct weights sum {ss}");
            assert_eq!(step.text_weights.len(), trace.encoder_words.len());
            assert_eq!(step.struct_weights.len(), trace.context_concepts.len());
        }
        // Last step is the EOS step.
        assert!(trace.steps.last().unwrap().target.is_none());
        assert!(trace.log_prob.is_finite());
    }

    #[test]
    fn disabled_attentions_trace_empty() {
        let (o, m) = world(Variant::NoBoth);
        let idx = crate::comaid::OntologyIndex::build(&o, m.vocab(), 2);
        let c = o.by_code("R10.9").unwrap();
        let trace = m.attention_trace(&idx, c, &m.encode_text("abdomen pain"));
        for step in &trace.steps {
            assert!(step.text_weights.is_empty());
            assert!(step.struct_weights.is_empty());
        }
    }

    #[test]
    fn mass_summary_has_encoder_arity() {
        let (o, m) = world(Variant::Full);
        let idx = crate::comaid::OntologyIndex::build(&o, m.vocab(), 2);
        let c = o.by_code("R10.9").unwrap();
        let trace = m.attention_trace(&idx, c, &m.encode_text("abdomen pain"));
        let mass = trace.text_mass_per_encoder_word();
        assert_eq!(mass.len(), 3); // "unspecified abdominal pain"
        let total: f32 = mass.iter().sum();
        // One unit of mass per decoder step.
        assert!((total - trace.steps.len() as f32).abs() < 1e-3);
    }

    /// The paper's qualitative claim: decoding "abdomen pain" from R10.9
    /// puts more total textual attention on "abdominal"/"pain" than on
    /// "unspecified" once the model has trained on the alias.
    #[test]
    fn trained_attention_prefers_content_words() {
        let (o, m) = world(Variant::Full);
        let idx = crate::comaid::OntologyIndex::build(&o, m.vocab(), 2);
        let c = o.by_code("R10.9").unwrap();
        let trace = m.attention_trace(&idx, c, &m.encode_text("abdomen pain"));
        let mass = trace.text_mass_per_encoder_word();
        // encoder words: [unspecified, abdominal, pain]
        let unspecified = mass[0];
        let content = mass[1] + mass[2];
        assert!(
            content > unspecified,
            "content mass {content} should exceed 'unspecified' {unspecified}"
        );
    }
}
