//! Dataset and pipeline construction shared by every figure binary.

use crate::config::{table1, Scale};
use ncl_core::comaid::{ComAidConfig, Variant};
use ncl_core::{LinkerConfig, NclConfig, NclPipeline};
use ncl_datagen::{Dataset, DatasetConfig, DatasetProfile, LabeledQuery};
use ncl_embedding::CbowConfig;

/// Generates the synthetic stand-in for one of the paper's datasets.
pub fn dataset(profile: DatasetProfile, scale: &Scale) -> Dataset {
    Dataset::generate(DatasetConfig {
        profile,
        categories: scale.categories,
        aliases_per_concept: scale.aliases_per_concept,
        unlabeled_snippets: scale.unlabeled,
        seed: scale.seed
            ^ match profile {
                DatasetProfile::HospitalX => 0x1,
                DatasetProfile::MimicIii => 0x2,
            },
    })
}

/// The two dataset profiles, in the paper's presentation order.
pub const PROFILES: &[DatasetProfile] = &[DatasetProfile::HospitalX, DatasetProfile::MimicIii];

/// NCL configuration for a given dimensionality/variant at this scale.
pub fn ncl_config(scale: &Scale, dim: usize, variant: Variant, pretrain: bool) -> NclConfig {
    NclConfig {
        comaid: ComAidConfig {
            dim,
            beta: table1::BETA_DEFAULT,
            variant,
            epochs: scale.epochs,
            lr: 0.3,
            lr_decay: 0.96,
            batch_size: 16,
            clip_norm: 5.0,
            seed: scale.seed ^ dim as u64,
            train_threads: 1,
        },
        cbow: CbowConfig {
            dim,
            window: 5,
            negative: 8,
            epochs: scale.cbow_epochs,
            lr: 0.05,
            seed: scale.seed ^ 0xCB0,
        },
        pretrain,
        linker: LinkerConfig {
            k: table1::K_DEFAULT,
            ..LinkerConfig::default()
        },
    }
}

/// Trains the default-configuration pipeline on a dataset.
pub fn fit_default(ds: &Dataset, scale: &Scale) -> NclPipeline {
    let cfg = ncl_config(scale, scale.dim_default, Variant::Full, true);
    NclPipeline::fit(&ds.ontology, &ds.unlabeled, cfg)
}

/// Generates the evaluation query groups at this scale.
pub fn query_groups(ds: &Dataset, scale: &Scale) -> Vec<Vec<LabeledQuery>> {
    ds.query_groups(scale.groups, scale.group_size, scale.purposive)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_differ_by_profile() {
        let s = Scale::quick();
        let a = dataset(DatasetProfile::HospitalX, &s);
        let b = dataset(DatasetProfile::MimicIii, &s);
        assert_eq!(a.profile.name(), "hospital-x");
        assert_eq!(b.profile.name(), "MIMIC-III");
        assert!(a.ontology.num_concepts() > 0);
    }

    #[test]
    fn config_respects_dim_and_variant() {
        let s = Scale::quick();
        let c = ncl_config(&s, 24, Variant::NoBoth, false);
        assert_eq!(c.comaid.dim, 24);
        assert_eq!(c.cbow.dim, 24);
        assert_eq!(c.comaid.variant, Variant::NoBoth);
        assert!(!c.pretrain);
    }

    #[test]
    fn groups_have_requested_shape() {
        let s = Scale::quick();
        let ds = dataset(DatasetProfile::HospitalX, &s);
        let groups = query_groups(&ds, &s);
        assert_eq!(groups.len(), s.groups);
        assert!(groups.iter().all(|g| g.len() == s.group_size));
    }
}
