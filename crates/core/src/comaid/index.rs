//! Pre-tokenised view of an ontology for COM-AID.
//!
//! Training touches every concept's canonical description and structural
//! context (Definition 4.1) thousands of times; tokenising and resolving
//! ancestors once up front keeps the hot loops allocation-free.

use crate::csr::Csr;
use ncl_ontology::{ConceptId, Ontology};
use ncl_text::{for_each_token, Vocab};

/// Every canonical description tokenised once, each token sent through
/// `id_of`: row `cid.index()` of the result is that concept's ids, and
/// the synthetic root's row is empty.
pub(crate) fn description_rows(ontology: &Ontology, mut id_of: impl FnMut(&str) -> u32) -> Csr {
    let mut rows = Csr::with_rows(ontology.len());
    rows.end_row(); // the root
    for (_, concept) in ontology.iter() {
        for_each_token(&concept.canonical, |t| rows.push(id_of(t)));
        rows.end_row();
    }
    rows
}

/// Token ids of every concept's canonical description plus its resolved
/// structural context, aligned with a specific [`Vocab`] and depth `β`.
///
/// Flat: the descriptions are the rows of one offset-delimited id
/// array and the contexts one `len × β` array (Definition 4.1 gives
/// every non-root node exactly β slots), so an index is three
/// allocations however many concepts it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OntologyIndex {
    /// Row `cid.index()` = word ids of the canonical description
    /// (empty for the synthetic root).
    tokens: Csr,
    /// `contexts[cid.index() * β..][..β]` = the β structural-context
    /// concepts; the root's slots are filler, never handed out.
    contexts: Vec<ConceptId>,
    beta: usize,
}

impl OntologyIndex {
    /// Builds the index. Unknown words map to `Vocab::UNK`, so the index
    /// is total even when the vocabulary was built from a different
    /// snapshot of the ontology.
    ///
    /// # Panics
    /// Panics if `beta == 0` and the ontology has a concept (the root
    /// alone has no structural context to resolve).
    pub fn build(ontology: &Ontology, vocab: &Vocab, beta: usize) -> Self {
        let tokens = description_rows(ontology, |t| vocab.get_or_unk(t));
        Self::with_tokens(ontology, tokens, beta)
    }

    /// The index over descriptions already resolved to vocabulary ids:
    /// row `i` of `tokens` is concept `i`'s (root row empty).
    pub(crate) fn with_tokens(ontology: &Ontology, tokens: Csr, beta: usize) -> Self {
        let n = ontology.len();
        assert_eq!(tokens.rows(), n, "one token row per ontology node");
        assert!(
            beta > 0 || n <= 1,
            "structural context depth must be positive"
        );
        // `Ontology::structural_context` without its two `Vec`s per
        // node: the nearest β ancestors below the root, then the
        // first-level concept of the path (the node itself when it is
        // first-level) repeated until β slots are full.
        let mut contexts = vec![Ontology::ROOT; n * beta];
        for (id, slots) in ontology
            .all_concepts()
            .zip(contexts.chunks_mut(beta.max(1)).skip(1))
        {
            let mut nearest = id;
            for slot in slots {
                if let Some(p) = ontology.parent(nearest).filter(|&p| p != Ontology::ROOT) {
                    nearest = p;
                }
                *slot = nearest;
            }
        }
        Self {
            tokens,
            contexts,
            beta,
        }
    }

    /// Word ids of a concept's canonical description.
    pub fn tokens(&self, id: ConceptId) -> &[u32] {
        self.tokens.row(id.index())
    }

    /// Every description as one row per node, in node order.
    pub(crate) fn token_rows(&self) -> &Csr {
        &self.tokens
    }

    /// The β structural-context concepts of `id` (none for the root).
    pub fn context(&self, id: ConceptId) -> &[ConceptId] {
        if id == Ontology::ROOT {
            return &[];
        }
        &self.contexts[id.index() * self.beta..][..self.beta]
    }

    /// The depth β this index was built for.
    pub fn beta(&self) -> usize {
        self.beta
    }

    /// Number of ontology nodes covered (including the root slot).
    pub fn len(&self) -> usize {
        self.tokens.rows()
    }

    /// Whether the index covers no concepts.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncl_ontology::OntologyBuilder;
    use ncl_text::tokenize;

    fn tiny() -> (Ontology, Vocab) {
        let mut b = OntologyBuilder::new();
        let n18 = b.add_root_concept("N18", "chronic kidney disease");
        b.add_child(n18, "N18.5", "chronic kidney disease stage 5");
        let o = b.build().unwrap();
        let mut v = Vocab::new();
        for (_, c) in o.iter() {
            for t in tokenize(&c.canonical) {
                v.add(&t);
            }
        }
        (o, v)
    }

    #[test]
    fn tokens_resolve_to_vocab_ids() {
        let (o, v) = tiny();
        let idx = OntologyIndex::build(&o, &v, 2);
        let leaf = o.by_code("N18.5").unwrap();
        let toks = idx.tokens(leaf);
        assert_eq!(toks.len(), 5);
        assert_eq!(v.word(toks[0]), Some("chronic"));
        assert_eq!(v.word(toks[4]), Some("5"));
    }

    #[test]
    fn contexts_follow_definition_4_1() {
        let (o, v) = tiny();
        let idx = OntologyIndex::build(&o, &v, 2);
        let leaf = o.by_code("N18.5").unwrap();
        let n18 = o.by_code("N18").unwrap();
        // Depth 1 below first level: N18 duplicated to fill β = 2.
        assert_eq!(idx.context(leaf), &[n18, n18]);
        assert_eq!(idx.beta(), 2);
    }

    #[test]
    fn unknown_words_map_to_unk() {
        let (o, _) = tiny();
        let empty_vocab = Vocab::new();
        let idx = OntologyIndex::build(&o, &empty_vocab, 1);
        let leaf = o.by_code("N18.5").unwrap();
        assert!(idx.tokens(leaf).iter().all(|&t| t == Vocab::UNK));
    }

    /// The nested layout the flat one replaced, written the obvious
    /// way: a token `Vec` and a [`Ontology::structural_context`] `Vec`
    /// per node.
    fn nested_reference(
        o: &Ontology,
        vocab: &Vocab,
        beta: usize,
    ) -> (Vec<Vec<u32>>, Vec<Vec<ConceptId>>) {
        let mut tokens = vec![Vec::new(); o.len()];
        let mut contexts = vec![Vec::new(); o.len()];
        for (id, c) in o.iter() {
            tokens[id.index()] = tokenize(&c.canonical)
                .iter()
                .map(|t| vocab.get_or_unk(t))
                .collect();
            contexts[id.index()] = o.structural_context(id, beta);
        }
        (tokens, contexts)
    }

    /// A vocabulary holding every other distinct description word, so
    /// half of them resolve to `UNK`.
    fn half_vocab(o: &Ontology) -> Vocab {
        let mut all = Vocab::new();
        for (_, c) in o.iter() {
            for t in tokenize(&c.canonical) {
                all.add(&t);
            }
        }
        let mut half = Vocab::new();
        for (id, w) in all.iter_words() {
            if id % 2 == 0 {
                half.add(w);
            }
        }
        half
    }

    #[test]
    fn flat_layout_equals_the_nested_reference_on_generated_ontologies() {
        use ncl_datagen::ontology_gen::generate_icd10cm_at_least;
        use ncl_datagen::{Dataset, DatasetConfig, DatasetProfile};
        let hospital_x = Dataset::generate(DatasetConfig::tiny(DatasetProfile::HospitalX)).ontology;
        let icd = generate_icd10cm_at_least(600, 17);
        for o in [&hospital_x, &icd] {
            let vocab = half_vocab(o);
            for beta in 1..=3 {
                let (tokens, contexts) = nested_reference(o, &vocab, beta);
                let idx = OntologyIndex::build(o, &vocab, beta);
                assert_eq!((idx.len(), idx.beta()), (o.len(), beta));
                assert!(idx.tokens(Ontology::ROOT).is_empty());
                assert!(idx.context(Ontology::ROOT).is_empty());
                let mut unk = 0;
                for id in o.all_concepts() {
                    assert_eq!(idx.tokens(id), tokens[id.index()], "{id:?}");
                    assert_eq!(idx.context(id), contexts[id.index()], "{id:?} β={beta}");
                    unk += idx.tokens(id).iter().filter(|&&t| t == Vocab::UNK).count();
                }
                assert!(unk > 0, "the half vocabulary must miss some words");
            }
        }
    }

    #[test]
    fn beta_zero_is_refused_like_the_nested_build_refused_it() {
        let (o, v) = tiny();
        for build in [
            (|o, v| drop(nested_reference(o, v, 0))) as fn(&Ontology, &Vocab),
            |o, v| drop(OntologyIndex::build(o, v, 0)),
        ] {
            let err = std::panic::catch_unwind(|| build(&o, &v)).unwrap_err();
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("depth must be positive"), "{msg}");
        }
        // The root alone has no context to resolve at any depth.
        let root_only = OntologyBuilder::new().build().unwrap();
        let idx = OntologyIndex::build(&root_only, &v, 0);
        assert!(idx.is_empty() && idx.context(Ontology::ROOT).is_empty());
    }

    #[test]
    fn root_slot_is_empty() {
        let (o, v) = tiny();
        let idx = OntologyIndex::build(&o, &v, 1);
        assert!(idx.tokens(Ontology::ROOT).is_empty());
        assert!(!idx.is_empty());
        assert_eq!(idx.len(), o.len());
    }
}
