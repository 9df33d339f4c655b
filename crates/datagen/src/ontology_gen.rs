//! ICD-style ontology generation.
//!
//! The generated tree mirrors the structure of ICD-9-CM/ICD-10-CM as
//! characterised in the paper: categories (`N18`) whose leaf subcategories
//! (`N18.5`, `N18.9`) share most of their canonical description and differ
//! only by a qualifier — exactly the "minor concept meaning difference"
//! (§1/§2.1) that the structural attention exists to disambiguate. Depth
//! is ≤ 3 below the root, matching §6.2's observation that "the ontology
//! depths of ICD-9-CM and ICD-10-CM are typically less than 3 levels".

use crate::lexicon::{synonyms_of, CAUSES, FAMILIES, NUTRIENTS, SITES};
use ncl_ontology::codes::IcdRevision;
use ncl_ontology::{ConceptId, Ontology, OntologyBuilder};
use ncl_text::tokenize;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How the leaves of a category qualify its base description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QualifierScheme {
    /// `stage 1` … `stage 5` plus `unspecified` (the N18 block).
    Staged,
    /// `left` / `right` / `unspecified` (paired organs only).
    Sided,
    /// `mild` / `moderate` / `severe`.
    Severity,
    /// `acute` / `chronic` / `unspecified`.
    Acuity,
    /// `with complication` / `without complication`.
    Complication,
    /// `primary` / `secondary` / `unspecified`.
    Cause,
}

impl QualifierScheme {
    fn qualifiers(self) -> Vec<String> {
        match self {
            Self::Staged => (1..=5)
                .map(|s| format!("stage {s}"))
                .chain(std::iter::once("unspecified".to_string()))
                .collect(),
            Self::Sided => ["left", "right", "unspecified"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            Self::Severity => ["mild", "moderate", "severe"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            Self::Acuity => ["acute", "chronic", "unspecified"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            Self::Complication => ["with complication", "without complication"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            Self::Cause => ["primary", "secondary", "unspecified"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }

    /// Whether the qualifier prefixes (`acute colon ulcer`) rather than
    /// suffixes (`colon ulcer stage 2`) the base description.
    fn prefixes(self) -> bool {
        matches!(self, Self::Severity | Self::Acuity | Self::Cause)
    }
}

/// Configuration for [`generate`].
#[derive(Debug, Clone, Copy)]
pub struct OntologyGenConfig {
    /// ICD revision (drives code formatting).
    pub revision: IcdRevision,
    /// Number of three-character categories to generate. Each category
    /// yields 2–6 fine-grained leaves, so expect roughly `4×` this many
    /// concepts.
    pub categories: usize,
    /// RNG seed.
    pub seed: u64,
}

/// One generated category before it is written into the builder.
struct CategorySpec {
    base: String,
    scheme: QualifierScheme,
}

/// Replaces the first substitutable word of `base` with its primary
/// synonym (`malignant neoplasm of kidney` → `malignant tumor of
/// kidney`); returns the base unchanged when nothing substitutes.
fn synonym_variant(base: &str) -> String {
    let mut tokens = tokenize(base);
    for t in tokens.iter_mut() {
        if let Some(syns) = synonyms_of(t) {
            if let Some(first) = syns.first() {
                *t = first.to_string();
                break;
            }
        }
    }
    tokens.join(" ")
}

/// Builds the shuffled category-spec pool shared by both generators:
/// `family × site` combinations plus the nutrient-anemia block,
/// shuffled once with the seeded RNG (the only RNG draws either
/// generator makes).
fn spec_pool(rng: &mut StdRng) -> Vec<CategorySpec> {
    let mut specs: Vec<CategorySpec> = Vec::new();
    for nutrient in NUTRIENTS {
        specs.push(CategorySpec {
            base: format!("{nutrient} deficiency anemia"),
            scheme: QualifierScheme::Cause,
        });
    }
    let schemes = [
        QualifierScheme::Staged,
        QualifierScheme::Severity,
        QualifierScheme::Acuity,
        QualifierScheme::Complication,
        QualifierScheme::Cause,
    ];
    for (fi, (family, site_first)) in FAMILIES.iter().enumerate() {
        for (si, (site, paired)) in SITES.iter().enumerate() {
            let base = if *site_first {
                format!("{site} {family}")
            } else {
                format!("{family} of {site}")
            };
            let scheme = if *paired && (fi + si) % 3 == 0 {
                QualifierScheme::Sided
            } else {
                schemes[(fi * SITES.len() + si) % schemes.len()]
            };
            specs.push(CategorySpec { base, scheme });
        }
    }
    specs.shuffle(rng);
    specs
}

/// The base and scheme for global category index `ci`. The base pool
/// covers `NUTRIENTS + FAMILIES × SITES` (≈ 490 categories); scale
/// sweeps (fig11, fig17) need 10k–100k-concept ontologies, so past the
/// pool the specs are cycled with a deterministic `type N` elaboration
/// per round — mirroring ICD's own numbered subtypes ("diabetes
/// mellitus type 2"). No RNG draws happen here, so configurations
/// within the base pool remain byte-identical to what [`generate`] has
/// always produced.
fn spec_for(specs: &[CategorySpec], ci: usize) -> (String, QualifierScheme) {
    let spec = &specs[ci % specs.len()];
    let round = ci / specs.len();
    let base = if round == 0 {
        spec.base.clone()
    } else {
        format!("{} type {round}", spec.base)
    };
    (base, spec.scheme)
}

/// Writes one category subtree (category → subcategories → optional
/// depth split → optional encounter leaves) under `parent` (the
/// ontology root when `None`). `ci` is the global category index — it
/// deterministically drives the description elaborations, so the same
/// `(ci, base, scheme)` always produces the same subtree.
fn build_category(
    builder: &mut OntologyBuilder,
    parent: Option<ConceptId>,
    cat_code: &str,
    ci: usize,
    base: &str,
    scheme: QualifierScheme,
    encounter_leaves: bool,
) {
    // A third of the categories get a compound elaboration, mirroring
    // long ICD-10-CM descriptions; this lengthens encoder sequences
    // so the textual attention has something to select from.
    let cat_desc = if ci.is_multiple_of(3) {
        format!("{} {}", base, CAUSES[ci % CAUSES.len()])
    } else {
        base.to_string()
    };
    let cat = match parent {
        None => builder.add_root_concept(cat_code, cat_desc),
        Some(p) => builder.add_child(p, cat_code, cat_desc),
    };
    // ~40% of categories go three levels deep (subcategory → leaf),
    // matching ICD chains like S52.5 → S52.52 → S52.521; the rest
    // stay two levels. §6.2 relies on the mixture: "the ontology
    // depths of ICD-9-CM and ICD-10-CM are typically less than 3
    // levels", and β = 2 only helps when some depth-3 leaves exist.
    let deep = ci % 5 < 2;
    for (li, qual) in scheme.qualifiers().iter().enumerate() {
        let sub_code = format!("{cat_code}.{li}");
        // Real ICD leaves do not repeat the category wording
        // verbatim — E61.1 "iron deficiency" sits under a very
        // different parent description. Let some leaves use a
        // synonym-variant base so their vocabulary diverges from the
        // category's: the structural context (Definition 4.1) then
        // carries complementary words, which is what the paper's
        // structure-based attention exploits.
        let qbase = if (ci + li) % 3 == 1 {
            synonym_variant(base)
        } else {
            base.to_string()
        };
        let desc = if qual == "unspecified" {
            format!("{qbase} unspecified")
        } else if scheme.prefixes() {
            format!("{qual} {qbase}")
        } else {
            format!("{qbase} {qual}")
        };
        let sub = builder.add_child(cat, sub_code.clone(), desc.clone());
        if deep && qual != "unspecified" {
            // Split the subcategory into depth-3 leaves whose
            // qualifiers come from a second scheme.
            let sub_quals: &[&str] = if scheme == QualifierScheme::Complication {
                &["mild", "severe"]
            } else {
                &["with complication", "without complication"]
            };
            for (lj, sq) in sub_quals.iter().enumerate() {
                let leaf_code = format!("{sub_code}{}", lj + 1);
                let leaf = builder.add_child(sub, leaf_code.clone(), format!("{desc} {sq}"));
                if encounter_leaves {
                    for (ch, enc) in ENCOUNTERS {
                        builder.add_child(
                            leaf,
                            format!("{leaf_code}{ch}"),
                            format!("{desc} {sq} {enc}"),
                        );
                    }
                }
            }
        } else if encounter_leaves {
            for (ch, enc) in ENCOUNTERS {
                builder.add_child(sub, format!("{sub_code}{ch}"), format!("{desc} {enc}"));
            }
        }
    }
}

/// Generates an ICD-style ontology.
///
/// Categories cycle deterministically (after a seeded shuffle) through
/// `family × site` combinations plus the nutrient-anemia block, so two
/// calls with the same config produce identical ontologies.
pub fn generate(config: OntologyGenConfig) -> Ontology {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let specs = spec_pool(&mut rng);
    let mut builder = OntologyBuilder::new();
    for ci in 0..config.categories {
        let chapter = ci / 36;
        let number = ci % 100;
        let cat_code = match config.revision {
            // The `LNN` grid holds 26 × 36 = 936 distinct codes and the
            // 3-digit grid 1000; past those, wraparound would collide, so
            // scaled categories switch to wider formats whose lengths can
            // never clash with a legacy 3-character code.
            IcdRevision::Icd10 if ci < 936 => config.revision.category_code(chapter, number),
            IcdRevision::Icd10 => format!("U{ci:05}"),
            IcdRevision::Icd9 if ci < 1000 => format!("{ci:03}"),
            IcdRevision::Icd9 => format!("{ci:06}"),
        };
        let (base, scheme) = spec_for(&specs, ci);
        build_category(&mut builder, None, &cat_code, ci, &base, scheme, false);
    }
    builder
        .build()
        .expect("generated ontology must always validate")
}

/// ICD-10-CM 7th-character encounter extensions, applied to childless
/// fine-grained codes when [`Icd10CmGenConfig::encounter_leaves`] is
/// set (`S52.521A` "… initial encounter").
const ENCOUNTERS: &[(char, &str)] = &[
    ('A', "initial encounter"),
    ('D', "subsequent encounter"),
    ('S', "sequela"),
];

/// The 21 chapters of ICD-10-CM as `(range, title, decade spans)`.
/// Each span `(letter, first_decade, last_decade)` is the slice of the
/// `letter × decade` category grid the chapter owns; the spans are
/// mutually disjoint (the real H00-H59/H60-H95 and C00-D49/D50-D89
/// splits fall on decade boundaries), so generated category codes can
/// never collide across chapters. Span widths are taken from the real
/// code ranges, which is what skews chapter sizes — external causes
/// (V00-Y99) owns 40 decades, blood disorders (D50-D89) only 4.
type ChapterSpec = (&'static str, &'static str, &'static [(char, u8, u8)]);
const ICD10CM_CHAPTERS: &[ChapterSpec] = &[
    ("A00-B99", "certain infectious and parasitic diseases", &[('A', 0, 9), ('B', 0, 9)]),
    ("C00-D49", "neoplasms", &[('C', 0, 9), ('D', 0, 4)]),
    (
        "D50-D89",
        "diseases of the blood and blood forming organs and certain disorders involving the immune mechanism",
        &[('D', 5, 8)],
    ),
    ("E00-E89", "endocrine nutritional and metabolic diseases", &[('E', 0, 8)]),
    ("F01-F99", "mental behavioral and neurodevelopmental disorders", &[('F', 0, 9)]),
    ("G00-G99", "diseases of the nervous system", &[('G', 0, 9)]),
    ("H00-H59", "diseases of the eye and adnexa", &[('H', 0, 5)]),
    ("H60-H95", "diseases of the ear and mastoid process", &[('H', 6, 9)]),
    ("I00-I99", "diseases of the circulatory system", &[('I', 0, 9)]),
    ("J00-J99", "diseases of the respiratory system", &[('J', 0, 9)]),
    ("K00-K95", "diseases of the digestive system", &[('K', 0, 9)]),
    ("L00-L99", "diseases of the skin and subcutaneous tissue", &[('L', 0, 9)]),
    ("M00-M99", "diseases of the musculoskeletal system and connective tissue", &[('M', 0, 9)]),
    ("N00-N99", "diseases of the genitourinary system", &[('N', 0, 9)]),
    ("O00-O9A", "pregnancy childbirth and the puerperium", &[('O', 0, 9)]),
    ("P00-P96", "certain conditions originating in the perinatal period", &[('P', 0, 9)]),
    (
        "Q00-Q99",
        "congenital malformations deformations and chromosomal abnormalities",
        &[('Q', 0, 9)],
    ),
    (
        "R00-R99",
        "symptoms signs and abnormal clinical and laboratory findings not elsewhere classified",
        &[('R', 0, 9)],
    ),
    (
        "S00-T88",
        "injury poisoning and certain other consequences of external causes",
        &[('S', 0, 9), ('T', 0, 8)],
    ),
    (
        "V00-Y99",
        "external causes of morbidity",
        &[('V', 0, 9), ('W', 0, 9), ('X', 0, 9), ('Y', 0, 9)],
    ),
    (
        "Z00-Z99",
        "factors influencing health status and contact with health services",
        &[('Z', 0, 9)],
    ),
];

/// Category codes per decade cell: ten numeric third characters plus
/// the 26-letter alphanumeric extension ICD-10-CM itself uses past the
/// numeric grid (`C7A`, `M1A`, `O9A`, `Z3A`, …).
const DECADE_CAPACITY: usize = 36;

fn chapter_capacity(spans: &[(char, u8, u8)]) -> usize {
    spans
        .iter()
        .map(|&(_, lo, hi)| (hi - lo + 1) as usize * DECADE_CAPACITY)
        .sum()
}

/// Total category capacity of the ICD-10-CM code grid — the most
/// categories [`generate_icd10cm`] can emit before running out of
/// collision-free chapter-prefixed codes.
pub fn icd10cm_category_capacity() -> usize {
    ICD10CM_CHAPTERS
        .iter()
        .map(|(_, _, spans)| chapter_capacity(spans))
        .sum()
}

/// The category codes a chapter owns, in range order: numeric third
/// characters first within each decade (`A00`…`A09`), then the
/// alphanumeric extension (`A0A`…`A0Z`), then the next decade.
fn chapter_codes(spans: &'static [(char, u8, u8)]) -> impl Iterator<Item = String> {
    spans.iter().flat_map(|&(letter, lo, hi)| {
        (lo..=hi).flat_map(move |decade| {
            ('0'..='9')
                .chain('A'..='Z')
                .map(move |c| format!("{letter}{decade}{c}"))
        })
    })
}

/// Configuration for [`generate_icd10cm`].
#[derive(Debug, Clone, Copy)]
pub struct Icd10CmGenConfig {
    /// Number of categories, distributed across the 21 chapters
    /// proportionally to each chapter's share of the code grid and
    /// clamped to [`icd10cm_category_capacity`].
    pub categories: usize,
    /// RNG seed (spec-pool shuffle only, as in [`generate`]).
    pub seed: u64,
    /// Give every childless fine-grained code three encounter children
    /// (`A` initial / `D` subsequent / `S` sequela seventh
    /// characters); roughly triples the concept yield, which is
    /// how the profile reaches ICD-10-CM's 93,830 codes within the
    /// category grid.
    pub encounter_leaves: bool,
}

/// Generates an ICD-10-CM-shaped ontology: 21 skewed chapters as
/// first-level concepts (so the cache freeze's chapters mirror the real
/// ontology's layout), chapter-prefixed alphanumeric category codes
/// that are collision-free by construction at any size the grid
/// admits, and the same qualifier-scheme subtrees as [`generate`].
/// Deterministic: a pure function of the config.
pub fn generate_icd10cm(config: Icd10CmGenConfig) -> Ontology {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let specs = spec_pool(&mut rng);
    let capacity = icd10cm_category_capacity();
    let categories = config.categories.min(capacity);
    let mut builder = OntologyBuilder::new();
    let mut ci = 0usize;
    let mut cap_prefix = 0usize;
    for (range, title, spans) in ICD10CM_CHAPTERS {
        // Telescoping proportional split: chapter `i` gets
        // `floor(C·prefix_i/T) − floor(C·prefix_{i−1}/T)` categories,
        // which sums to exactly `categories` and never exceeds the
        // chapter's own capacity.
        cap_prefix += chapter_capacity(spans);
        let want = categories * cap_prefix / capacity - ci;
        if want == 0 {
            continue;
        }
        let chapter = builder.add_root_concept(*range, *title);
        for code in chapter_codes(spans).take(want) {
            let (base, scheme) = spec_for(&specs, ci);
            build_category(
                &mut builder,
                Some(chapter),
                &code,
                ci,
                &base,
                scheme,
                config.encounter_leaves,
            );
            ci += 1;
        }
    }
    builder
        .build()
        .expect("generated ICD-10-CM ontology must always validate")
}

/// Generates an ICD-10-CM-shaped ontology with **at least**
/// `min_concepts` concepts (a pure function of its inputs, like
/// [`generate_at_least`]). The category count grows geometrically
/// until the floor is met; at grid capacity the generator turns on
/// encounter leaves, which covers paper scale (93,830 concepts) with
/// room to spare.
///
/// # Panics
/// Panics if `min_concepts` exceeds what the full grid with encounter
/// leaves can produce (≈ 160k concepts).
pub fn generate_icd10cm_at_least(min_concepts: usize, seed: u64) -> Ontology {
    let capacity = icd10cm_category_capacity();
    // Concept yield per category is ≈6 without encounter leaves and
    // ≈18 with, so start below the estimate and grow geometrically —
    // the result lands near the floor instead of far past it. When the
    // grid runs out, encounter leaves turn on and the estimate resets.
    let mut encounter_leaves = false;
    let mut categories = (min_concepts / 6).clamp(ICD10CM_CHAPTERS.len(), capacity);
    loop {
        let o = generate_icd10cm(Icd10CmGenConfig {
            categories,
            seed,
            encounter_leaves,
        });
        if o.num_concepts() >= min_concepts {
            return o;
        }
        if categories < capacity {
            categories = (categories * 3 / 2 + 1).min(capacity);
        } else if !encounter_leaves {
            encounter_leaves = true;
            categories = (min_concepts / 18).clamp(ICD10CM_CHAPTERS.len(), capacity);
        } else {
            panic!(
                "ICD-10-CM grid capacity exhausted at {} concepts, below the requested {min_concepts}",
                o.num_concepts()
            );
        }
    }
}

/// Generates an ontology with **at least** `min_concepts` concepts.
///
/// Concept yield per category varies with the qualifier mix (roughly 4×
/// on average), so the category count is grown geometrically until the
/// generated ontology is large enough. The result is a pure function of
/// `(revision, min_concepts, seed)` — the scale benchmarks rely on this
/// to regenerate identical corpora across runs.
pub fn generate_at_least(revision: IcdRevision, min_concepts: usize, seed: u64) -> Ontology {
    let mut categories = (min_concepts / 4).max(1);
    loop {
        let o = generate(OntologyGenConfig {
            revision,
            categories,
            seed,
        });
        if o.num_concepts() >= min_concepts {
            return o;
        }
        categories = categories * 3 / 2 + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Ontology {
        generate(OntologyGenConfig {
            revision: IcdRevision::Icd10,
            categories: 20,
            seed: 7,
        })
    }

    #[test]
    fn produces_requested_categories() {
        let o = small();
        let first_level: Vec<_> = o.children(Ontology::ROOT).to_vec();
        assert_eq!(first_level.len(), 20);
    }

    #[test]
    fn leaves_are_fine_grained_and_related_to_category() {
        let o = small();
        let mut verbatim = 0usize;
        let mut total = 0usize;
        for cat in o.children(Ontology::ROOT) {
            let base = &o.concept(*cat).canonical;
            let base_words: Vec<&str> = base.split(' ').collect();
            assert!(o.children(*cat).len() >= 2, "category with <2 children");
            // Walk every fine-grained descendant (depth 2 or 3).
            let descendants: Vec<_> = o
                .fine_grained()
                .into_iter()
                .filter(|&id| o.ancestors(id).contains(cat))
                .collect();
            assert!(!descendants.is_empty());
            for leaf in descendants {
                let desc = &o.concept(leaf).canonical;
                total += 1;
                // Either the leaf keeps the category head word verbatim,
                // or it is a synonym variant that still shares at least
                // one content word ("of"-joined site etc.).
                if desc.contains(base_words[0]) {
                    verbatim += 1;
                } else {
                    assert!(
                        base_words.iter().any(|w| w.len() > 2 && desc.contains(*w)),
                        "leaf {desc:?} unrelated to base {base:?}"
                    );
                }
            }
        }
        // Most leaves keep the category wording; a minority diverge via
        // synonyms (the structural-context signal).
        assert!(
            verbatim * 3 >= total * 2 - total / 10,
            "verbatim {verbatim}/{total}"
        );
        assert!(verbatim < total, "no synonym-variant leaves generated");
    }

    #[test]
    fn sibling_leaves_differ() {
        let o = small();
        for cat in o.children(Ontology::ROOT) {
            let descs: Vec<&str> = o
                .children(*cat)
                .iter()
                .map(|l| o.concept(*l).canonical.as_str())
                .collect();
            let mut dedup = descs.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(descs.len(), dedup.len(), "duplicate sibling leaves");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.num_concepts(), b.num_concepts());
        for (ia, ib) in a.iter().zip(b.iter()) {
            assert_eq!(ia.1.code, ib.1.code);
            assert_eq!(ia.1.canonical, ib.1.canonical);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = small();
        let b = generate(OntologyGenConfig {
            revision: IcdRevision::Icd10,
            categories: 20,
            seed: 8,
        });
        let codes_a: Vec<_> = a.iter().map(|(_, c)| c.canonical.clone()).collect();
        let codes_b: Vec<_> = b.iter().map(|(_, c)| c.canonical.clone()).collect();
        assert_ne!(codes_a, codes_b);
    }

    #[test]
    fn depth_mixture_matches_icd() {
        let o = small();
        // Depth ≤ 3 ("typically less than 3 levels", §6.2)…
        assert!(o.max_depth() <= 3);
        // …and both depth-2 and depth-3 fine-grained concepts exist.
        let fine = o.fine_grained();
        let d2 = fine.iter().filter(|&&id| o.depth(id) == 2).count();
        let d3 = fine.iter().filter(|&&id| o.depth(id) == 3).count();
        assert!(d2 > 0, "no depth-2 leaves");
        assert!(d3 > 0, "no depth-3 leaves");
    }

    #[test]
    fn depth3_leaves_have_two_distinct_ancestors() {
        let o = small();
        let leaf = o
            .fine_grained()
            .into_iter()
            .find(|&id| o.depth(id) == 3)
            .expect("a depth-3 leaf");
        let ctx = o.structural_context(leaf, 2);
        assert_eq!(ctx.len(), 2);
        assert_ne!(ctx[0], ctx[1], "beta=2 should reach the grandparent");
    }

    #[test]
    fn icd9_codes_are_numeric() {
        let o = generate(OntologyGenConfig {
            revision: IcdRevision::Icd9,
            categories: 10,
            seed: 1,
        });
        for cat in o.children(Ontology::ROOT) {
            let code = &o.concept(*cat).code;
            let (category, _) = ncl_ontology::codes::split_code(code);
            assert!(category.chars().all(|c| c.is_ascii_digit()), "code {code}");
        }
    }

    #[test]
    fn scales_past_the_base_pool() {
        // 3000 categories ≫ the ~490-spec base pool: the cycled pool must
        // produce unique codes (build() rejects duplicates) and the
        // requested breadth at the first level.
        let o = generate(OntologyGenConfig {
            revision: IcdRevision::Icd10,
            categories: 3000,
            seed: 11,
        });
        assert_eq!(o.children(Ontology::ROOT).len(), 3000);
        assert!(o.num_concepts() > 12_000, "got {}", o.num_concepts());
        // Cycled categories carry the round label.
        let typed = o
            .iter()
            .filter(|(_, c)| c.canonical.contains(" type "))
            .count();
        assert!(typed > 0, "no cycled categories at 3000");
    }

    #[test]
    fn scaling_preserves_the_base_prefix() {
        // Growing the category count must not perturb the ontology's
        // existing prefix: same seed, first 100 categories identical.
        let small = generate(OntologyGenConfig {
            revision: IcdRevision::Icd10,
            categories: 100,
            seed: 5,
        });
        let large = generate(OntologyGenConfig {
            revision: IcdRevision::Icd10,
            categories: 2000,
            seed: 5,
        });
        let cats_small = small.children(Ontology::ROOT).to_vec();
        let cats_large = large.children(Ontology::ROOT).to_vec();
        for (a, b) in cats_small.iter().zip(cats_large.iter()).take(100) {
            assert_eq!(small.concept(*a).code, large.concept(*b).code);
            assert_eq!(small.concept(*a).canonical, large.concept(*b).canonical);
        }
    }

    #[test]
    fn scaled_icd9_codes_stay_numeric() {
        let o = generate(OntologyGenConfig {
            revision: IcdRevision::Icd9,
            categories: 1500,
            seed: 2,
        });
        assert_eq!(o.children(Ontology::ROOT).len(), 1500);
        for cat in o.children(Ontology::ROOT) {
            let code = &o.concept(*cat).code;
            let (category, _) = ncl_ontology::codes::split_code(code);
            assert!(category.chars().all(|c| c.is_ascii_digit()), "code {code}");
        }
    }

    #[test]
    fn generate_at_least_meets_the_floor() {
        let o = generate_at_least(IcdRevision::Icd10, 10_000, 9);
        assert!(o.num_concepts() >= 10_000, "got {}", o.num_concepts());
        // Deterministic: same inputs, same ontology.
        let o2 = generate_at_least(IcdRevision::Icd10, 10_000, 9);
        assert_eq!(o.num_concepts(), o2.num_concepts());
    }

    #[test]
    fn icd10cm_chapters_are_first_level_with_prefixed_codes() {
        let o = generate_icd10cm(Icd10CmGenConfig {
            categories: 500,
            seed: 17,
            encounter_leaves: false,
        });
        let chapters = o.children(Ontology::ROOT).to_vec();
        assert_eq!(chapters.len(), ICD10CM_CHAPTERS.len(), "all 21 chapters");
        let mut sizes = Vec::new();
        for (ch, (range, _, spans)) in chapters.iter().zip(ICD10CM_CHAPTERS) {
            assert_eq!(&o.concept(*ch).code, range);
            let letters: Vec<char> = spans.iter().map(|&(l, _, _)| l).collect();
            for cat in o.children(*ch) {
                let code = &o.concept(*cat).code;
                // Chapter-prefixed alphanumeric `LNX` category codes.
                let mut cs = code.chars();
                let first = cs.next().unwrap();
                assert!(letters.contains(&first), "code {code} outside {range}");
                assert!(cs.next().unwrap().is_ascii_digit(), "code {code}");
                assert!(cs.next().unwrap().is_ascii_alphanumeric(), "code {code}");
            }
            sizes.push(o.children(*ch).len());
        }
        // The real code ranges skew chapter sizes: external causes
        // (V00-Y99, 40 decades) dwarfs blood disorders (D50-D89, 4).
        let max = sizes.iter().max().unwrap();
        let min = sizes.iter().min().unwrap();
        assert!(max >= &(min * 4), "sizes not skewed: {sizes:?}");
    }

    #[test]
    fn icd10cm_reaches_paper_scale_collision_free() {
        // 93,830 is the ICD-10-CM code count the paper serves (§6.1).
        // `build()` rejects duplicate codes, so merely constructing the
        // ontology proves the grid is collision-free at paper scale.
        let o = generate_icd10cm_at_least(93_830, 13);
        assert!(o.num_concepts() >= 93_830, "got {}", o.num_concepts());
        let o2 = generate_icd10cm_at_least(93_830, 13);
        assert_eq!(o.num_concepts(), o2.num_concepts(), "deterministic");
        // Encounter leaves kicked in to reach paper scale: depth grows
        // by one (chapter) + one (encounter) over the classic profile.
        assert!(o.max_depth() <= 5);
        let enc = o
            .iter()
            .filter(|(_, c)| c.code.ends_with(['A', 'D', 'S']) && c.code.contains('.'))
            .count();
        assert!(enc > 0, "no encounter leaves at paper scale");
    }

    #[test]
    fn icd10cm_is_a_pure_function_of_its_config() {
        let cfg = Icd10CmGenConfig {
            categories: 120,
            seed: 23,
            encounter_leaves: true,
        };
        let a = generate_icd10cm(cfg);
        let b = generate_icd10cm(cfg);
        assert_eq!(a.num_concepts(), b.num_concepts());
        for (ia, ib) in a.iter().zip(b.iter()) {
            assert_eq!(ia.1.code, ib.1.code);
            assert_eq!(ia.1.canonical, ib.1.canonical);
        }
        // Encounter leaves triple the childless fine-grained codes.
        let without = generate_icd10cm(Icd10CmGenConfig {
            encounter_leaves: false,
            ..cfg
        });
        assert!(a.num_concepts() > without.num_concepts() * 2);
    }

    #[test]
    fn includes_anemia_block_at_full_size() {
        let o = generate(OntologyGenConfig {
            revision: IcdRevision::Icd10,
            categories: 500, // larger than the spec pool: keep everything
            seed: 3,
        });
        let has_anemia = o
            .iter()
            .any(|(_, c)| c.canonical.contains("iron deficiency anemia"));
        assert!(has_anemia);
    }
}
