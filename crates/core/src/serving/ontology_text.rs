//! The one pass over the ontology's text behind [`Linker::new`].
//!
//! Everything a linker derives from descriptions and aliases — the
//! model's [`OntologyIndex`], the Phase-I TF-IDF index, the shared-word
//! lists — is built from one tokenisation of each string, interned into
//! a linker-local [`Vocab`] and kept as rows of flat id arrays
//! ([`Csr`]). No token is hashed twice and no per-concept `Vec` or
//! `String` is made: construction allocates per distinct *word*, not per
//! concept (`tests/linker_build_allocations.rs` counts).
//!
//! [`Linker::new`]: crate::linker::Linker::new

use crate::comaid::index::description_rows;
use crate::comaid::OntologyIndex;
use crate::csr::Csr;
use ncl_ontology::{ConceptId, Ontology};
use ncl_text::tfidf::TfIdfIndex;
use ncl_text::{for_each_token, Vocab};

/// The canonical descriptions, read once: row `i` of `canon` is concept
/// `i`'s tokens as ids of `words` (root row empty).
pub(crate) struct OntologyText {
    /// The interner. Not the model vocabulary: that one maps every word
    /// it lacks to `⟨UNK⟩`, and both Phase I and shared-word removal
    /// must tell such words apart. No tokenizer output can spell one of
    /// its `<…>` specials, so those ids sit in no row.
    words: Vocab,
    canon: Csr,
}

impl OntologyText {
    /// Tokenises and interns every canonical description.
    pub(crate) fn read(ontology: &Ontology) -> Self {
        let mut words = Vocab::new();
        let canon = description_rows(ontology, |t| words.add(t));
        Self { words, canon }
    }

    /// The descriptions as `vocab` ids — what [`OntologyIndex::build`]
    /// computes, with one `vocab` probe per distinct word instead of one
    /// per token.
    pub(crate) fn index(&self, ontology: &Ontology, vocab: &Vocab, beta: usize) -> OntologyIndex {
        let to_vocab: Vec<u32> = (0..self.words.len() as u32)
            .map(|w| vocab.get_or_unk(self.words.word(w).expect("id within the interner")))
            .collect();
        let tokens = self.canon.map(|w| to_vocab[w as usize]);
        OntologyIndex::with_tokens(ontology, tokens, beta)
    }

    /// The Phase-I index: one document per fine-grained concept — its
    /// description and its aliases — and the concept each document id
    /// stands for.
    pub(crate) fn phase_one(&mut self, ontology: &Ontology) -> (TfIdfIndex, Vec<ConceptId>) {
        let doc_map = ontology.fine_grained();
        let mut docs = Csr::with_rows(doc_map.len());
        for &id in &doc_map {
            docs.extend_from_slice(self.canon.row(id.index()));
            for alias in &ontology.concept(id).aliases {
                for_each_token(alias, |t| docs.push(self.words.add(t)));
            }
            docs.end_row();
        }
        let (doc_off, doc_words) = docs.parts();
        let tfidf = TfIdfIndex::from_interned(&self.words, doc_off, doc_words);
        (tfidf, doc_map)
    }

    /// What shared-word removal keeps of the pass: each description's
    /// distinct words, and the interner to find a query word's id with.
    pub(crate) fn into_shared_words(mut self) -> SharedWords {
        self.canon.sort_dedup_rows();
        SharedWords {
            ids: self.words,
            rows: self.canon,
        }
    }
}

/// The canonical descriptions as shared-word removal reads them: each
/// concept's distinct words as sorted ids from the linker-local
/// interner. A request interns its query words once; a candidate's mask
/// is then a scan of a handful of integers instead of a hash probe per
/// word. Words only an alias has own an id too (Phase I interned them)
/// but sit in no row, so they are never "shared".
pub(crate) struct SharedWords {
    ids: Vocab,
    /// Row `c` = concept `c`'s word ids, ascending.
    rows: Csr,
}

impl SharedWords {
    /// Id of a query word the interner has never seen.
    const NOWHERE: u32 = u32::MAX;

    /// The interned id of every query word.
    pub(crate) fn intern(&self, query: &[String]) -> Vec<u32> {
        query
            .iter()
            .map(|w| self.ids.get(w).unwrap_or(Self::NOWHERE))
            .collect()
    }

    /// `mask[t]` = whether query word `t` is absent from `concept`'s
    /// description, i.e. still counted after shared-word removal.
    pub(crate) fn mask(&self, concept: ConceptId, query: &[u32], mask: &mut [bool]) {
        let words = self.rows.row(concept.index());
        for (m, w) in mask.iter_mut().zip(query) {
            *m = !words.contains(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncl_datagen::ontology_gen::generate_icd10cm_at_least;
    use ncl_datagen::{Dataset, DatasetConfig, DatasetProfile};
    use ncl_text::tokenize;
    use std::collections::HashSet;

    /// A hospital-x ontology (aliases on every concept) and an
    /// ICD-10-CM-shaped one (none).
    fn worlds() -> [Ontology; 2] {
        let hospital_x = Dataset::generate(DatasetConfig::tiny(DatasetProfile::HospitalX)).ontology;
        assert!(hospital_x.num_labeled_pairs() > 0);
        [hospital_x, generate_icd10cm_at_least(600, 17)]
    }

    /// A model vocabulary that knows the even-numbered half of the
    /// description words.
    fn half_vocab(o: &Ontology) -> Vocab {
        let mut half = Vocab::new();
        let mut seen = HashSet::new();
        for (_, c) in o.iter() {
            for t in tokenize(&c.canonical) {
                if seen.insert(t.clone()) && seen.len() % 2 == 0 {
                    half.add(&t);
                }
            }
        }
        half
    }

    #[test]
    fn index_equals_the_per_token_build() {
        for o in worlds() {
            let vocab = half_vocab(&o);
            let want = OntologyIndex::build(&o, &vocab, 2);
            let got = OntologyText::read(&o).index(&o, &vocab, 2);
            assert_eq!(got.len(), want.len());
            for id in std::iter::once(Ontology::ROOT).chain(o.all_concepts()) {
                assert_eq!(got.tokens(id), want.tokens(id), "{id:?}");
                assert_eq!(got.context(id), want.context(id), "{id:?}");
            }
        }
    }

    #[test]
    fn phase_one_equals_the_index_over_per_concept_token_lists() {
        for o in worlds() {
            // The documents as one `Vec<String>` per concept.
            let docs: Vec<Vec<String>> = o
                .fine_grained()
                .iter()
                .map(|&id| {
                    let c = o.concept(id);
                    let mut toks = tokenize(&c.canonical);
                    toks.extend(c.aliases.iter().flat_map(|a| tokenize(a)));
                    toks
                })
                .collect();
            let want = TfIdfIndex::build(&docs);
            let (got, doc_map) = OntologyText::read(&o).phase_one(&o);
            assert_eq!(doc_map, o.fine_grained());
            assert_eq!(got.len(), want.len());
            assert!(got.terms().eq(want.terms()));
            for doc in docs.iter().step_by(7) {
                let (a, sa) = got.top_k_with_stats(doc, 20);
                let (b, sb) = want.top_k_with_stats(doc, 20);
                assert_eq!(sa, sb);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!((x.0, x.1.to_bits()), (y.0, y.1.to_bits()));
                }
            }
        }
    }

    #[test]
    fn shared_words_are_each_descriptions_distinct_words() {
        for o in worlds() {
            let mut text = OntologyText::read(&o);
            // Aliases interned before or after: no row changes.
            let _ = text.phase_one(&o);
            let shared = text.into_shared_words();
            let everything: Vec<String> = o
                .iter()
                .flat_map(|(_, c)| std::iter::once(&c.canonical).chain(&c.aliases))
                .flat_map(|s| tokenize(s))
                .chain(["<unk>".to_string(), "neverseen".to_string()])
                .collect::<HashSet<_>>()
                .into_iter()
                .collect();
            let query = shared.intern(&everything);
            let mut mask = vec![false; everything.len()];
            for (id, c) in o.iter() {
                let description: HashSet<String> = tokenize(&c.canonical).into_iter().collect();
                shared.mask(id, &query, &mut mask);
                for (w, &counted) in everything.iter().zip(&mask) {
                    assert_eq!(counted, !description.contains(w), "{id:?} {w}");
                }
                let row = shared.rows.row(id.index());
                assert_eq!(row.len(), description.len());
                assert!(row.windows(2).all(|p| p[0] < p[1]));
            }
            assert!(shared.rows.row(Ontology::ROOT.index()).is_empty());
        }
    }
}
