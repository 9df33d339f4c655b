//! Prints the synthetic-workload statistics corresponding to the
//! datasets paragraph of §6.1 ("the ICD-9-CM has 17,418 concepts (14,567
//! are fine-grained) … 194,094 labeled text snippets … 1,148,004
//! unlabeled text snippets"), so EXPERIMENTS.md can state the actual
//! scale the figures were produced at.
//!
//! A second table reads each ontology's *text* the way `Linker::new`
//! does — one `for_each_token` pass into an interner and flat rows — and
//! prints what the long-tail-lexicon work (ROADMAP item 1) is gated on:
//! the distinct description words |V|, description length, the words
//! only aliases have, and how many descriptions merely extend their
//! parent's — and what the frozen concept cache stores for that text
//! (DESIGN.md §9): one encoder row per distinct description prefix
//! within a chapter plus the one zero row, how many rows a
//! single ontology-wide prefix set would need instead, how many leaf
//! tokens repeat the parent's description (and so cost a leaf no row),
//! and one head per fine-grained concept. Both dataset profiles, and
//! the ICD-10-CM-shaped generator at the three scales the serving
//! figures use.

use ncl_bench::{table, workload, Scale};
use ncl_datagen::ontology_gen::generate_icd10cm_at_least;
use ncl_ontology::{ConceptId, Ontology};
use ncl_text::{for_each_token, Vocab};
use std::collections::HashSet;

/// One row of the ontology-text table.
fn text_row(name: &str, o: &Ontology) -> Vec<String> {
    // Row `i` of (`off`, `ids`) = concept `i`'s description tokens as
    // interner ids; the root's row is empty.
    let mut words = Vocab::new();
    let (mut off, mut ids) = (vec![0usize, 0], Vec::new());
    for (_, c) in o.iter() {
        for_each_token(&c.canonical, |t| ids.push(words.add(t)));
        off.push(ids.len());
    }
    let description_words = words.iter_words().count();
    for (_, c) in o.iter() {
        for alias in &c.aliases {
            for_each_token(alias, |t| {
                words.add(t);
            });
        }
    }
    let alias_only = words.iter_words().count() - description_words;
    let row = |i: usize| &ids[off[i]..off[i + 1]];
    let extends_parent = o
        .all_concepts()
        .filter(|&id| {
            let (own, parent) = (
                row(id.index()),
                row(o.parent(id).expect("non-root").index()),
            );
            !parent.is_empty() && own.len() > parent.len() && own.starts_with(parent)
        })
        .count();
    // The cache's rows: the zero row, then a prefix trie's rows per
    // chapter (the freeze's unit).
    let chapter = |mut id: ConceptId| {
        while let Some(p) = o.parent(id).filter(|&p| p != Ontology::ROOT) {
            id = p;
        }
        id
    };
    let mut chapter_prefixes: HashSet<(ConceptId, &[u32])> = HashSet::new();
    let mut prefixes: HashSet<&[u32]> = HashSet::new();
    for id in o.all_concepts() {
        let own = row(id.index());
        for n in 1..=own.len() {
            chapter_prefixes.insert((chapter(id), &own[..n]));
            prefixes.insert(&own[..n]);
        }
    }
    let fine = o.fine_grained();
    let (mut leaf_tokens, mut leaf_shared) = (0, 0);
    for &id in &fine {
        let own = row(id.index());
        let parent = row(o.parent(id).expect("non-root").index());
        leaf_tokens += own.len();
        leaf_shared += own.iter().zip(parent).take_while(|(a, b)| a == b).count();
    }
    vec![
        name.to_string(),
        o.num_concepts().to_string(),
        fine.len().to_string(),
        description_words.to_string(),
        ids.len().to_string(),
        format!("{:.2}", ids.len() as f64 / o.num_concepts() as f64),
        alias_only.to_string(),
        format!("{:.3}", extends_parent as f64 / o.num_concepts() as f64),
        (chapter_prefixes.len() + 1).to_string(),
        prefixes.len().to_string(),
        format!("{leaf_shared} of {leaf_tokens}"),
        fine.len().to_string(),
    ]
}

fn main() {
    let scale = Scale::from_args();
    println!("Synthetic workload statistics at the current scale");
    let mut rows = Vec::new();
    let mut text_rows = Vec::new();
    for &profile in workload::PROFILES {
        let ds = workload::dataset(profile, &scale);
        text_rows.push(text_row(ds.profile.name(), &ds.ontology));
        let fine = ds.ontology.fine_grained();
        let depth3 = fine
            .iter()
            .filter(|&&id| ds.ontology.depth(id) == 3)
            .count();
        let vocab: std::collections::HashSet<String> = ds
            .ontology
            .iter()
            .flat_map(|(_, c)| {
                let mut toks = ncl_text::tokenize(&c.canonical);
                for a in &c.aliases {
                    toks.extend(ncl_text::tokenize(a));
                }
                toks
            })
            .chain(ds.unlabeled.iter().flatten().cloned())
            .collect();
        rows.push(vec![
            ds.profile.name().to_string(),
            ds.ontology.num_concepts().to_string(),
            fine.len().to_string(),
            depth3.to_string(),
            ds.ontology.num_labeled_pairs().to_string(),
            ds.unlabeled.len().to_string(),
            vocab.len().to_string(),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "dataset",
                "concepts",
                "fine-grained",
                "depth-3 leaves",
                "labeled pairs",
                "unlabeled",
                "vocabulary",
            ],
            &rows
        )
    );
    println!(
        "(paper scale: ICD-9-CM 17,418/14,567 concepts, ICD-10-CM 93,830/71,486;\n \
         194,094 / 176,736 labeled snippets; 1,148,004 / 253,130 unlabeled)"
    );

    for n in [10_000, 30_000, 93_830] {
        let o = generate_icd10cm_at_least(n, 17);
        text_rows.push(text_row(&format!("icd10cm_at_least({n}, 17)"), &o));
    }
    println!("\nOntology text, as one tokenisation pass reads it");
    println!(
        "{}",
        table::render(
            &[
                "ontology",
                "|C|",
                "fine-grained |C'|",
                "description words |V|",
                "description tokens",
                "tokens / concept",
                "alias-only words",
                "extends parent's",
                "cache rows",
                "ontology-wide prefixes",
                "leaf tokens shared with parent",
                "heads (|C'|)",
            ],
            &text_rows
        )
    );
}
