//! End-to-end NCL assembly (Figure 2).
//!
//! `NclPipeline::fit` runs the full offline side of the system:
//!
//! 1. **Corpus construction** — labeled snippets (canonical descriptions
//!    and aliases) are altered with concept-id incorporation; unlabeled
//!    snippets are added verbatim (§3, Model Training; §4.2);
//! 2. **Pre-training** — CBOW learns word representations over the
//!    corpus (skippable: the COM-AID⁻ᵒ¹ configuration of §6.5);
//! 3. **Refinement** — COM-AID is trained by MLE over
//!    ⟨canonical, alias⟩ pairs (Eq. 10).
//!
//! The durations of phases 2 and 3 are recorded separately because
//! Figure 12 reports them on different scales.

use crate::comaid::{ComAid, ComAidConfig, OntologyIndex, TrainPair, TrainReport};
use crate::feedback::HotSwapCell;
use crate::linker::Linker;
use crate::serving::LinkerConfig;
use ncl_embedding::corpus::CorpusBuilder;
use ncl_embedding::{CbowConfig, CbowModel};
use ncl_ontology::Ontology;
use ncl_text::tokenize;
use std::time::{Duration, Instant};

/// Configuration of the full pipeline.
#[derive(Debug, Clone, Copy)]
pub struct NclConfig {
    /// COM-AID model/training settings.
    pub comaid: ComAidConfig,
    /// CBOW pre-training settings; `cbow.dim` is forced to `comaid.dim`.
    pub cbow: CbowConfig,
    /// Run the pre-training phase (`false` = COM-AID⁻ᵒ¹, §6.5).
    pub pretrain: bool,
    /// Online-linker settings used by [`NclPipeline::linker`].
    pub linker: LinkerConfig,
}

impl Default for NclConfig {
    fn default() -> Self {
        Self {
            comaid: ComAidConfig::default(),
            cbow: CbowConfig::default(),
            pretrain: true,
            linker: LinkerConfig::default(),
        }
    }
}

impl NclConfig {
    /// A small configuration for tests and examples.
    pub fn tiny() -> Self {
        Self {
            comaid: ComAidConfig::tiny(),
            cbow: CbowConfig {
                dim: ComAidConfig::tiny().dim,
                window: 5,
                negative: 5,
                epochs: 4,
                lr: 0.05,
                seed: 0x5eed,
            },
            pretrain: true,
            linker: LinkerConfig::default(),
        }
    }
}

/// The trained offline state of NCL.
pub struct NclPipeline {
    /// The trained COM-AID model.
    pub model: ComAid,
    /// Refinement-phase diagnostics.
    pub report: TrainReport,
    /// Wall-clock time of the pre-training phase (Figure 12(a)).
    pub pretrain_time: Duration,
    /// Wall-clock time of the COM-AID training phase (Figure 12(b)).
    pub refine_time: Duration,
    /// Number of labeled pairs trained on.
    pub num_pairs: usize,
    config: NclConfig,
}

impl NclPipeline {
    /// Runs the offline pipeline over an ontology (with aliases attached)
    /// and an unlabeled snippet corpus.
    ///
    /// # Panics
    /// Panics if the ontology contributes no labeled pairs at all.
    pub fn fit(ontology: &Ontology, unlabeled: &[Vec<String>], config: NclConfig) -> Self {
        // 1. Corpus with concept-id incorporation.
        let mut builder = CorpusBuilder::new();
        for (_, concept) in ontology.iter() {
            let cid = concept.code.to_ascii_lowercase();
            builder.add_labeled(&tokenize(&concept.canonical), &cid);
            for alias in &concept.aliases {
                builder.add_labeled(&tokenize(alias), &cid);
            }
        }
        for snippet in unlabeled {
            builder.add_unlabeled(snippet);
        }
        let corpus = builder.build();

        // 2. Pre-training (optional).
        let mut cbow_cfg = config.cbow;
        cbow_cfg.dim = config.comaid.dim;
        let (pretrained, pretrain_time) = if config.pretrain {
            let t0 = Instant::now();
            let table = CbowModel::train(&corpus, cbow_cfg).into_embeddings();
            (Some(table), t0.elapsed())
        } else {
            (None, Duration::ZERO)
        };

        // 3. Refinement: MLE over ⟨canonical, alias⟩ pairs.
        let vocab = corpus.vocab;
        let mut pairs = Vec::new();
        for (id, concept) in ontology.iter() {
            for alias in &concept.aliases {
                pairs.push(TrainPair {
                    concept: id,
                    target: tokenize(alias)
                        .iter()
                        .map(|t| vocab.get_or_unk(t))
                        .collect(),
                });
            }
        }
        assert!(
            !pairs.is_empty(),
            "pipeline: the ontology has no aliases to train on"
        );
        let mut model = ComAid::new(vocab, config.comaid, pretrained.as_ref());
        let index = OntologyIndex::build(ontology, model.vocab(), config.comaid.beta);
        let t1 = Instant::now();
        let report = model.fit(&index, &pairs);
        let refine_time = t1.elapsed();

        Self {
            model,
            report,
            pretrain_time,
            refine_time,
            num_pairs: pairs.len(),
            config,
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &NclConfig {
        &self.config
    }

    /// Builds the online linker over this model and `ontology` (which may
    /// have gained expert-feedback aliases since training).
    pub fn linker<'a>(&'a self, ontology: &'a Ontology) -> Linker<'a> {
        Linker::new(&self.model, ontology, self.config.linker)
    }

    /// Incremental retraining with expert feedback (Appendix A): each
    /// label becomes a training pair; the model is refreshed with a few
    /// extra epochs at a reduced learning rate.
    pub fn retrain_with_feedback(
        &mut self,
        ontology: &Ontology,
        labels: &[crate::feedback::ExpertLabel],
        extra_epochs: usize,
    ) {
        if labels.is_empty() {
            return;
        }
        let vocab = self.model.vocab().clone();
        let mut pairs: Vec<TrainPair> = Vec::new();
        for (id, concept) in ontology.iter() {
            for alias in &concept.aliases {
                pairs.push(TrainPair {
                    concept: id,
                    target: tokenize(alias)
                        .iter()
                        .map(|t| vocab.get_or_unk(t))
                        .collect(),
                });
            }
        }
        for label in labels {
            pairs.push(TrainPair {
                concept: label.concept,
                target: label.query.iter().map(|t| vocab.get_or_unk(t)).collect(),
            });
        }
        let index = OntologyIndex::build(ontology, &vocab, self.config.comaid.beta);
        let lr = self.config.comaid.lr * 0.3;
        self.model.fit_epochs(
            &index,
            &pairs,
            extra_epochs,
            ncl_nn::optimizer::LrSchedule::constant(lr),
        );
    }

    /// Builds a [`HotSwapCell`] whose generation 0 is frozen from the
    /// pipeline's current model — the serving side of the feedback loop
    /// (DESIGN.md §17). `config` is typically `self.config().linker`.
    pub fn serving_cell(&self, ontology: &Ontology, config: LinkerConfig) -> HotSwapCell {
        HotSwapCell::new(&self.model, ontology, config)
    }

    /// [`NclPipeline::retrain_with_feedback`] followed by
    /// [`HotSwapCell::publish`]: retrains on `labels`, freezes the new
    /// model + cache generation *outside* the cell's swap lock, and
    /// installs it with an atomic generation bump. In-flight requests
    /// finish on their snapshot; returns the new generation number.
    pub fn retrain_and_publish(
        &mut self,
        ontology: &Ontology,
        labels: &[crate::feedback::ExpertLabel],
        extra_epochs: usize,
        cell: &HotSwapCell,
    ) -> u64 {
        self.retrain_with_feedback(ontology, labels, extra_epochs);
        cell.publish(&self.model, ontology)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncl_ontology::OntologyBuilder;

    fn world() -> (Ontology, Vec<Vec<String>>) {
        let mut b = OntologyBuilder::new();
        let n18 = b.add_root_concept("N18", "chronic kidney disease");
        let n185 = b.add_child(n18, "N18.5", "chronic kidney disease stage 5");
        let n189 = b.add_child(n18, "N18.9", "chronic kidney disease unspecified");
        let d50 = b.add_root_concept("D50", "iron deficiency anemia");
        let d500 = b.add_child(
            d50,
            "D50.0",
            "iron deficiency anemia secondary to blood loss",
        );
        b.add_alias(n185, "ckd stage 5");
        b.add_alias(n185, "renal disease stage 5");
        b.add_alias(n189, "ckd unspecified");
        b.add_alias(n189, "renal disease nos");
        b.add_alias(d500, "anemia chronic blood loss");
        b.add_alias(d500, "fe def anemia");
        let o = b.build().unwrap();
        let unlabeled: Vec<Vec<String>> = [
            "ckd stage 5 follow up",
            "fe def anemia from menorrhagia",
            "renal disease stage 5 on dialysis",
            "iron deficiency anemia noted",
            "chronic kidney disease stage 5 clinic",
        ]
        .iter()
        .map(|s| tokenize(s))
        .collect();
        (o, unlabeled)
    }

    fn tiny_config() -> NclConfig {
        let mut c = NclConfig::tiny();
        c.comaid.epochs = 20;
        c.comaid.lr = 0.3;
        c.comaid.seed = 17;
        c
    }

    #[test]
    fn fit_produces_working_linker() {
        let (o, unlabeled) = world();
        let p = NclPipeline::fit(&o, &unlabeled, tiny_config());
        assert_eq!(p.num_pairs, 6);
        assert!(p.report.final_loss() < p.report.epoch_losses[0]);
        let linker = p.linker(&o);
        let res = linker.link_text("ckd stage 5");
        assert_eq!(res.top1(), o.by_code("N18.5"));
    }

    #[test]
    fn pretraining_can_be_disabled() {
        let (o, unlabeled) = world();
        let mut cfg = tiny_config();
        cfg.pretrain = false;
        let p = NclPipeline::fit(&o, &unlabeled, cfg);
        assert_eq!(p.pretrain_time, Duration::ZERO);
        assert!(p.refine_time > Duration::ZERO);
    }

    #[test]
    fn pretrain_time_recorded_when_enabled() {
        let (o, unlabeled) = world();
        let p = NclPipeline::fit(&o, &unlabeled, tiny_config());
        assert!(p.pretrain_time > Duration::ZERO);
    }

    #[test]
    fn vocab_covers_unlabeled_words() {
        // Ω' must include words that only occur in unlabeled data
        // ("dialysis", "menorrhagia") — needed by query rewriting.
        let (o, unlabeled) = world();
        let p = NclPipeline::fit(&o, &unlabeled, tiny_config());
        assert!(p.model.vocab().contains("dialysis"));
        assert!(p.model.vocab().contains("menorrhagia"));
        // And cid tokens from incorporation.
        assert!(p.model.vocab().contains("n18.5"));
    }

    #[test]
    fn retrain_with_feedback_improves_the_fed_query() {
        let (o, unlabeled) = world();
        let mut p = NclPipeline::fit(&o, &unlabeled, tiny_config());
        let d500 = o.by_code("D50.0").unwrap();
        let q = tokenize("hemorrhagic anemia");
        let idx = OntologyIndex::build(&o, p.model.vocab(), 2);
        let ids = p.model.encode_words(&q);
        let before = p.model.log_prob_ids(&idx, d500, &ids);
        p.retrain_with_feedback(
            &o,
            &[crate::feedback::ExpertLabel {
                concept: d500,
                query: q.clone(),
            }],
            5,
        );
        let after = p.model.log_prob_ids(&idx, d500, &ids);
        assert!(after > before, "{before} -> {after}");
    }

    #[test]
    #[should_panic(expected = "no aliases")]
    fn aliasless_ontology_panics() {
        let mut b = OntologyBuilder::new();
        b.add_root_concept("A", "alpha");
        let o = b.build().unwrap();
        let _ = NclPipeline::fit(&o, &[], tiny_config());
    }
}
