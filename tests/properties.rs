//! Property-based integration tests over the trained system.
//!
//! These use a single lazily-trained model (training inside every
//! proptest case would be prohibitively slow) and check invariants that
//! must hold for *arbitrary* queries, not just the generated workloads.

use ncl::core::comaid::OntologyIndex;
use ncl::core::{NclConfig, NclPipeline};
use ncl::datagen::{Dataset, DatasetConfig, DatasetProfile};
use ncl::ontology::ConceptId;
use proptest::prelude::*;
use std::sync::OnceLock;

struct World {
    ds: Dataset,
    pipeline: NclPipeline,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let ds = Dataset::generate(DatasetConfig {
            profile: DatasetProfile::HospitalX,
            categories: 8,
            aliases_per_concept: 3,
            unlabeled_snippets: 120,
            seed: 1234,
        });
        let mut cfg = NclConfig::tiny();
        cfg.comaid.dim = 12;
        cfg.cbow.dim = 12;
        cfg.comaid.epochs = 6;
        let pipeline = NclPipeline::fit(&ds.ontology, &ds.unlabeled, cfg);
        World { ds, pipeline }
    })
}

/// Strategy: hostile tokens — empty strings, printable ASCII with
/// punctuation, control characters, emoji, accented Latin, and kana.
fn hostile_token() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just(" ".to_string()),
        "[ -~]{0,12}",
        "[\u{1}-\u{1f}]{1,4}",
        "[😀-🙏]{1,3}",
        "[À-ÿ]{1,6}",
        "[ぁ-ゖ]{1,5}",
    ]
}

/// Strategy: 1–6 lowercase words, a mix of in- and out-of-vocabulary.
fn query_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        prop_oneof![
            Just("anemia".to_string()),
            Just("chronic".to_string()),
            Just("fracture".to_string()),
            Just("zzzunknownzzz".to_string()),
            "[a-z]{2,10}",
            Just("5".to_string()),
        ],
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `log p(q|c)` is finite and non-positive for every query and every
    /// fine-grained concept probed.
    #[test]
    fn log_prob_is_finite_and_nonpositive(q in query_strategy(), pick in 0usize..64) {
        let w = world();
        let fine = w.ds.ontology.fine_grained();
        let concept = fine[pick % fine.len()];
        let index = OntologyIndex::build(&w.ds.ontology, w.pipeline.model.vocab(), 2);
        let ids = w.pipeline.model.encode_words(&q);
        let lp = w.pipeline.model.log_prob_ids(&index, concept, &ids);
        prop_assert!(lp.is_finite());
        prop_assert!(lp <= 1e-5);
    }

    /// Masking words out of the probability can only raise the score:
    /// each decoder term is a log probability ≤ 0.
    #[test]
    fn masking_is_monotone(q in query_strategy(), mask_bits in 0u32..64) {
        let w = world();
        let fine = w.ds.ontology.fine_grained();
        let concept = fine[0];
        let index = OntologyIndex::build(&w.ds.ontology, w.pipeline.model.vocab(), 2);
        let ids = w.pipeline.model.encode_words(&q);
        let full_mask = vec![true; ids.len()];
        let partial: Vec<bool> = (0..ids.len()).map(|i| mask_bits >> (i % 32) & 1 == 0).collect();
        let full = w.pipeline.model.log_prob_ids_masked(&index, concept, &ids, &full_mask);
        let masked = w.pipeline.model.log_prob_ids_masked(&index, concept, &ids, &partial);
        prop_assert!(masked >= full - 1e-4, "masked {masked} < full {full}");
    }

    /// The linker never returns non-fine-grained concepts, never returns
    /// duplicates, and its scores are sorted.
    #[test]
    fn linker_output_invariants(q in query_strategy()) {
        let w = world();
        let linker = w.pipeline.linker(&w.ds.ontology);
        let res = linker.link(&q);
        let ids = res.ranked_ids();
        let mut dedup: Vec<ConceptId> = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), ids.len(), "duplicate concepts in ranking");
        for &c in &ids {
            prop_assert!(w.ds.ontology.is_fine_grained(c));
        }
        for pair in res.ranked.windows(2) {
            prop_assert!(pair[0].1 >= pair[1].1);
        }
        prop_assert!(res.candidates.len() <= linker.config().k);
    }

    /// `link` never panics and always returns a well-formed ranking on
    /// arbitrary UTF-8 queries (ISSUE 1: empty strings, emoji, control
    /// characters); so do the raw-text and validating entry points.
    #[test]
    fn link_never_panics_on_hostile_utf8(q in proptest::collection::vec(hostile_token(), 0..8)) {
        let w = world();
        let linker = w.pipeline.linker(&w.ds.ontology);
        let res = linker.link(&q);
        prop_assert_eq!(res.ranked.len(), res.candidates.len());
        prop_assert!(!res.is_degraded(), "no faults, no budgets — no degradation");
        for pair in res.ranked.windows(2) {
            prop_assert!(pair[0].1 >= pair[1].1);
        }
        // The raw-text path re-tokenises; it must digest the same bytes.
        let _ = linker.link_text(&q.join(" "));
        // The validating entry point may reject, but only with the
        // typed InvalidQuery error.
        match linker.try_link(&q) {
            Ok(r) => prop_assert_eq!(r.ranked.len(), r.candidates.len()),
            Err(e) => prop_assert!(matches!(e, ncl::core::NclError::InvalidQuery { .. })),
        }
    }

    /// Phase-I retrieval with a larger k extends (never reorders) the
    /// candidate prefix.
    #[test]
    fn retrieval_is_prefix_monotone_in_k(q in query_strategy()) {
        let w = world();
        let small = ncl::core::Linker::new(
            &w.pipeline.model,
            &w.ds.ontology,
            ncl::core::LinkerConfig { k: 5, ..ncl::core::LinkerConfig::default() },
        );
        let large = ncl::core::Linker::new(
            &w.pipeline.model,
            &w.ds.ontology,
            ncl::core::LinkerConfig { k: 15, ..ncl::core::LinkerConfig::default() },
        );
        let (_, c5) = small.retrieve(&q);
        let (_, c15) = large.retrieve(&q);
        prop_assert!(c5.len() <= c15.len());
        prop_assert_eq!(&c15[..c5.len()], &c5[..]);
    }
}

/// A 10k-token query links without panicking (the non-validating path
/// accepts any length), and the validating path rejects it with the
/// typed `InvalidQuery` error (`MAX_QUERY_TOKENS` is 4096).
#[test]
fn link_handles_10k_token_query() {
    let w = world();
    let linker = w.pipeline.linker(&w.ds.ontology);
    let q: Vec<String> = (0..10_000)
        .map(|i| match i % 4 {
            0 => "anemia".to_string(),
            1 => "chronic".to_string(),
            2 => format!("tok{i}"),
            _ => "🩺".to_string(),
        })
        .collect();
    let res = linker.link(&q);
    assert_eq!(res.ranked.len(), res.candidates.len());
    assert!(matches!(
        linker.try_link(&q),
        Err(ncl::core::NclError::InvalidQuery { .. })
    ));
}
