//! TF-IDF weighted cosine retrieval over an inverted index.
//!
//! Section 5, Phase I: "We generate candidate concepts using keyword
//! search. More specifically, we compute the cosine similarity between each
//! concept and query q with the TF-IDF weighting scheme, and then return
//! the top-k concepts with the largest similarity as the candidates."
//! Appendix B.1 notes that longer queries examine "more postings in the
//! inverted index", so the index is explicitly posting-list based.
//!
//! ## Engine layout
//!
//! Terms are interned to dense [`TermId`]s (assigned in lexicographic
//! order, so scoring is bit-reproducible across builds) and postings live
//! in one CSR-style flat arena: `offsets[tid]..offsets[tid + 1]` delimits
//! a term's doc-sorted `(doc, impact)` pairs in two parallel arrays. The
//! document L2 norm is folded into each posting at build time
//! (`impact = tfidf_weight / doc_norm`), so online scoring is
//! `cosine(q, d) = (Σ_t qw_t · impact_{t,d}) / ‖q‖` — one multiply-add
//! per posting, no per-document norm lookup.
//!
//! ## Term-at-a-time top-k
//!
//! [`TfIdfIndex::top_k`] is one term-at-a-time pass: each query term, in
//! descending `qw_t · max_impact_t` order, adds `qw_t · impact` into a
//! dense per-document accumulator ([`simd::scatter_add_scaled`], eight
//! postings per gather), and one fused pass over the accumulator in
//! document order feeds a bounded top-k heap: each 64-document block is
//! copied out and re-zeroed in one read that also masks the slots above
//! the heap's floor ([`simd::take_mask_above`]), and only those slots
//! are visited. Every document's sum is the `+=` chain, in the term
//! order, that [`TfIdfIndex::top_k_exhaustive`] runs, so results are
//! **bit-identical** to it by construction (see `equivalence`). Every
//! posting of the query's lists is read; no posting is skipped by a
//! score bound (DESIGN.md §16, "MaxScore document-at-a-time scan", says
//! when pruning pays).

use crate::vocab::{Vocab, WordId};
use ncl_tensor::simd;
use std::cell::Cell;
use std::collections::{BinaryHeap, HashMap};

/// A document's id within a [`TfIdfIndex`]; callers map it to a concept.
pub type DocId = usize;

/// A dense interned term id (lexicographic rank of the term).
pub type TermId = u32;

/// Counters describing how one retrieval (and its surrounding query
/// rewrite, when driven through a linker) spent its work — the cost
/// model of Figure 11(c)/(d), where time grows as "more postings in the
/// inverted index are examined".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetrievalStats {
    /// Postings whose contribution was accumulated into a score: every
    /// posting of the query's (distinct, indexed) terms.
    pub postings_scored: usize,
    /// Always 0: the scan skips no posting. Kept only because
    /// `benchmark/src/api.rs` reads it.
    pub postings_pruned: usize,
    /// Documents offered to the top-k heap: those whose accumulated score
    /// cleared the heap's floor when the selection pass reached them —
    /// masked against the floor at the start of their 64-document block,
    /// then re-checked against the floor of the moment.
    pub docs_scored: usize,
    /// Evictions from the bounded top-k heap.
    pub heap_evictions: usize,
    /// Out-of-vocabulary tokens whose rewrite was served from the
    /// per-linker memo (filled by the linking layer, not the index).
    pub rewrite_cache_hits: usize,
    /// Out-of-vocabulary tokens whose rewrite had to be computed
    /// (filled by the linking layer, not the index).
    pub rewrite_cache_misses: usize,
}

impl RetrievalStats {
    /// Field-wise accumulation (linker-level stats absorb index-level
    /// stats; benchmark sweeps absorb per-query stats).
    pub fn merge(&mut self, other: &RetrievalStats) {
        self.postings_scored += other.postings_scored;
        self.postings_pruned += other.postings_pruned;
        self.docs_scored += other.docs_scored;
        self.heap_evictions += other.heap_evictions;
        self.rewrite_cache_hits += other.rewrite_cache_hits;
        self.rewrite_cache_misses += other.rewrite_cache_misses;
    }
}

/// Inverted index with TF-IDF weights and cosine scoring.
///
/// Documents are token sequences (typically a concept's canonical
/// description, optionally concatenated with its aliases). Scores are the
/// cosine between the TF-IDF vectors of the query and the document.
#[derive(Debug, Clone)]
pub struct TfIdfIndex {
    /// term → dense id (ids are lexicographic ranks).
    term_ids: HashMap<String, TermId>,
    /// id → term.
    terms: Vec<String>,
    /// Per-term smoothed idf, shared with query weighting.
    idf: Vec<f32>,
    /// CSR offsets: term `t`'s postings live at `offsets[t]..offsets[t+1]`.
    offsets: Vec<usize>,
    /// Posting doc ids, ascending within each term's slice.
    posting_docs: Vec<u32>,
    /// Norm-folded impacts: `tf·idf / doc_norm`, parallel to
    /// `posting_docs`.
    posting_impacts: Vec<f32>,
    /// Per-term maximum impact, the key of the query-term accumulation
    /// order.
    max_impact: Vec<f32>,
    num_docs: usize,
}

/// Documents per block of the selection pass: one bit each of the
/// `u64` mask [`simd::take_mask_above`] returns.
const SELECT_BLOCK: usize = 64;

thread_local! {
    /// The calling thread's score accumulator: one slot per document of
    /// the largest index the thread has queried, all zero between calls.
    static ACCUMULATOR: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

#[cfg(test)]
thread_local! {
    /// When set, the next scan panics after accumulating its first term.
    static PANIC_MID_SCAN: Cell<bool> = const { Cell::new(false) };
}

/// One query term resolved against the index, ready for scoring.
struct QueryTerm {
    tid: TermId,
    /// Query-side TF-IDF weight.
    qw: f32,
    /// Score ceiling of one posting of this term, `qw · max_impact`:
    /// terms are accumulated in descending `bound` (ties by term id),
    /// the one order that fixes every score's f32 bits.
    bound: f64,
}

/// Bounded worst-first heap entry: the binary max-heap's top is the
/// *worst* of the current top-k under the result ordering
/// (score descending, doc ascending).
#[derive(Debug, Clone, Copy, PartialEq)]
struct WorstFirst {
    score: f32,
    doc: u32,
    /// The accumulated sum `score` was divided from; not part of the
    /// order (it is a function of `doc`).
    acc: f32,
}

impl Eq for WorstFirst {}

impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Greater = worse: lower score first, then higher doc id. Scores
        // are finite and non-negative, so total_cmp is numeric order.
        other
            .score
            .total_cmp(&self.score)
            .then(self.doc.cmp(&other.doc))
    }
}

impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl TfIdfIndex {
    /// Builds the index over `docs`, where each document is a token list:
    /// interns the tokens and hands the ids to
    /// [`TfIdfIndex::from_interned`], the one build.
    pub fn build<S: AsRef<str>>(docs: &[Vec<S>]) -> Self {
        let mut words = Vocab::new();
        let mut doc_off = Vec::with_capacity(docs.len() + 1);
        let mut doc_words = Vec::new();
        doc_off.push(0u32);
        for doc in docs {
            doc_words.extend(doc.iter().map(|t| words.add(t.as_ref())));
            doc_off.push(u32::try_from(doc_words.len()).expect("corpus tokens fit u32"));
        }
        Self::from_interned(&words, &doc_off, &doc_words)
    }

    /// Builds the index over documents already interned through `words`:
    /// document `d` is `doc_words[doc_off[d]..doc_off[d + 1]]` (so
    /// `doc_off` has one entry more than there are documents and starts
    /// at 0). Words of `words` that occur in no document — its specials,
    /// or anything else the caller interned — are not terms.
    ///
    /// Everything here counts or sorts small integers: document
    /// frequencies come from one stamped sweep, term ids are the
    /// lexicographic ranks of the distinct words (sorted once), and a
    /// document's term frequencies are the run lengths of its sorted
    /// term ids. Each f32 is still produced by the operations a
    /// map-per-document build performs, in the same order — `tf` by
    /// repeated `+ 1.0`, `w = tf · idf`, `norm²` accumulated in ascending
    /// term id, `w / norm` — so scores are a pure function of the corpus.
    ///
    /// # Panics
    /// Panics if `doc_off` is empty or a document names an id outside
    /// `words`.
    pub fn from_interned(words: &Vocab, doc_off: &[u32], doc_words: &[WordId]) -> Self {
        let num_docs = doc_off.len().checked_sub(1).expect("doc_off starts at 0");
        let doc = |d: usize| &doc_words[doc_off[d] as usize..doc_off[d + 1] as usize];

        // Document frequencies: `stamp[w]` is the last document (+ 1)
        // that counted word `w`.
        let mut df = vec![0usize; words.len()];
        let mut stamp = vec![0usize; words.len()];
        for d in 0..num_docs {
            for &w in doc(d) {
                if stamp[w as usize] != d + 1 {
                    stamp[w as usize] = d + 1;
                    df[w as usize] += 1;
                }
            }
        }
        drop(stamp);

        // Intern terms in lexicographic order so ids (and therefore every
        // downstream accumulation order) are a pure function of the
        // vocabulary, never of the order the caller met the words in.
        let word = |w: WordId| words.word(w).expect("id within the interner");
        let mut by_rank: Vec<WordId> = (0..words.len() as WordId)
            .filter(|&w| df[w as usize] > 0)
            .collect();
        by_rank.sort_unstable_by(|&a, &b| word(a).cmp(word(b)));
        let terms: Vec<String> = by_rank.iter().map(|&w| word(w).to_string()).collect();
        let mut term_ids: HashMap<String, TermId> = HashMap::with_capacity(terms.len());
        term_ids.extend(
            terms
                .iter()
                .enumerate()
                .map(|(i, t)| (t.clone(), i as TermId)),
        );
        let mut rank = vec![0 as TermId; words.len()];
        for (tid, &w) in by_rank.iter().enumerate() {
            rank[w as usize] = tid as TermId;
        }

        // Smoothed idf, always positive so single-document corpora still
        // retrieve.
        let idf: Vec<f32> = by_rank
            .iter()
            .map(|&w| ((1.0 + num_docs as f32) / (1.0 + df[w as usize] as f32)).ln() + 1.0)
            .collect();

        // A term has one posting per document it occurs in.
        let mut offsets = Vec::with_capacity(terms.len() + 1);
        offsets.push(0usize);
        for &w in &by_rank {
            offsets.push(offsets.last().unwrap() + df[w as usize]);
        }
        let total = *offsets.last().unwrap();

        // Fill the CSR arena doc-major, so each term's slice comes out
        // doc-sorted without an extra sort. A document's row is its
        // (tid, tf) pairs in ascending term id (== lexicographic term
        // order, keeping f32 norm accumulation bit-reproducible).
        let mut cursor: Vec<usize> = offsets[..terms.len()].to_vec();
        let mut posting_docs = vec![0u32; total];
        let mut posting_impacts = vec![0.0f32; total];
        let mut max_impact = vec![0.0f32; terms.len()];
        let mut tids: Vec<TermId> = Vec::new();
        let mut row: Vec<(TermId, f32)> = Vec::new();
        for doc_id in 0..num_docs {
            tids.clear();
            tids.extend(doc(doc_id).iter().map(|&w| rank[w as usize]));
            tids.sort_unstable();
            row.clear();
            for &tid in &tids {
                match row.last_mut() {
                    Some((last, f)) if *last == tid => *f += 1.0,
                    _ => row.push((tid, 1.0)),
                }
            }
            let mut norm_sq = 0.0f32;
            for &(tid, f) in &row {
                let w = f * idf[tid as usize];
                norm_sq += w * w;
            }
            let norm = norm_sq.sqrt();
            for &(tid, f) in &row {
                let w = f * idf[tid as usize];
                let impact = if norm > f32::EPSILON { w / norm } else { 0.0 };
                let slot = cursor[tid as usize];
                posting_docs[slot] = doc_id as u32;
                posting_impacts[slot] = impact;
                cursor[tid as usize] = slot + 1;
                let m = &mut max_impact[tid as usize];
                if impact > *m {
                    *m = impact;
                }
            }
        }

        Self {
            term_ids,
            terms,
            idf,
            offsets,
            posting_docs,
            posting_impacts,
            max_impact,
            num_docs,
        }
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.num_docs
    }

    /// Whether the index holds no documents.
    pub fn is_empty(&self) -> bool {
        self.num_docs == 0
    }

    /// Number of distinct indexed terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Whether `term` occurs in any indexed document — this is the paper's
    /// description vocabulary `Ω` membership test used by query rewriting.
    pub fn contains_term(&self, term: &str) -> bool {
        self.term_ids.contains_key(term)
    }

    /// Iterator over the indexed vocabulary `Ω` (lexicographic order).
    pub fn terms(&self) -> impl Iterator<Item = &str> {
        self.terms.iter().map(|s| s.as_str())
    }

    /// Number of postings an evaluation of `query` reads — the cost
    /// driver measured in Figure 11(c)/(d) ("more postings in the
    /// inverted index are examined" as |q| grows). For a query without
    /// repeated words this is [`RetrievalStats::postings_scored`].
    pub fn postings_examined<S: AsRef<str>>(&self, query: &[S]) -> usize {
        query
            .iter()
            .filter_map(|t| self.term_ids.get(t.as_ref()))
            .map(|&tid| self.postings_range(tid).len())
            .sum()
    }

    /// The CSR slice bounds of one term.
    fn postings_range(&self, tid: TermId) -> std::ops::Range<usize> {
        self.offsets[tid as usize]..self.offsets[tid as usize + 1]
    }

    /// Resolves `query` into weighted terms in accumulation order —
    /// descending score ceiling, ties by term id — plus the query norm.
    /// Both scoring paths share this, so per-document accumulation order —
    /// and therefore every f32 score bit — is identical between them.
    fn weighted_query_terms<S: AsRef<str>>(&self, query: &[S]) -> (Vec<QueryTerm>, f32) {
        // Query TF accumulation in sorted-term order: f32 addition is not
        // associative, so summing in hash-map iteration order would make
        // the query norm (and near-tie rankings) vary from call to call.
        let mut qtf: HashMap<&str, f32> = HashMap::new();
        for t in query {
            *qtf.entry(t.as_ref()).or_insert(0.0) += 1.0;
        }
        let mut qtf: Vec<(&str, f32)> = qtf.into_iter().collect();
        qtf.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut qnorm_sq = 0.0f32;
        let mut terms = Vec::with_capacity(qtf.len());
        for (t, f) in qtf {
            let Some(&tid) = self.term_ids.get(t) else {
                continue;
            };
            let qw = f * self.idf[tid as usize];
            qnorm_sq += qw * qw;
            terms.push(QueryTerm {
                tid,
                qw,
                bound: qw as f64 * self.max_impact[tid as usize] as f64,
            });
        }
        if qnorm_sq <= f32::EPSILON {
            return (Vec::new(), 0.0);
        }
        terms.sort_unstable_by(|a, b| {
            b.bound
                .partial_cmp(&a.bound)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.tid.cmp(&b.tid))
        });
        (terms, qnorm_sq.sqrt())
    }

    /// Returns the `k` documents with the highest TF-IDF cosine similarity
    /// to `query`, best first. Documents with zero overlap are omitted, so
    /// fewer than `k` results may come back — the sub-linear growth the
    /// paper observes in Figure 11(a)/(b) when "the desired number of
    /// candidate concepts may not be met".
    ///
    /// One term-at-a-time pass over the query's postings; results are
    /// bit-identical to [`TfIdfIndex::top_k_exhaustive`].
    pub fn top_k<S: AsRef<str>>(&self, query: &[S], k: usize) -> Vec<(DocId, f32)> {
        self.top_k_with_stats(query, k).0
    }

    /// [`TfIdfIndex::top_k`] plus the work counters of the scan.
    pub fn top_k_with_stats<S: AsRef<str>>(
        &self,
        query: &[S],
        k: usize,
    ) -> (Vec<(DocId, f32)>, RetrievalStats) {
        let mut stats = RetrievalStats::default();
        if k == 0 || query.is_empty() {
            return (Vec::new(), stats);
        }
        let (terms, qnorm) = self.weighted_query_terms(query);
        if terms.is_empty() {
            return (Vec::new(), stats);
        }

        // The thread's accumulator is taken for the call and put back
        // re-zeroed. A call that unwinds drops it instead, so the next
        // call starts from a fresh zeroed buffer, never a half-summed one.
        let mut buf = ACCUMULATOR.take();
        if buf.len() < self.num_docs {
            buf.resize(self.num_docs, 0.0);
        }
        let acc = &mut buf[..self.num_docs];
        // A term's postings name distinct documents in ascending order —
        // the kernel's contract — and each document receives its terms in
        // `terms` order, one rounded `+ qw · impact` each, as in
        // `top_k_exhaustive`.
        for t in &terms {
            let r = self.postings_range(t.tid);
            stats.postings_scored += r.len();
            simd::scatter_add_scaled(
                acc,
                &self.posting_docs[r.clone()],
                &self.posting_impacts[r],
                t.qw,
            );
            #[cfg(test)]
            if PANIC_MID_SCAN.take() {
                panic!("injected mid-scan panic");
            }
        }

        // Selection, re-zeroing the accumulator as it reads it. A document
        // with `acc <= floor` cannot enter the heap: `acc / qnorm` is
        // monotone in `acc`, and the pass ascends in document id, so an
        // equal score loses its tie to every entry already held. `floor`
        // is 0 until the heap is full; every stored impact is > 0 (idf ≥ 1,
        // so norm ≥ 1), so a document was touched exactly when its
        // `acc > 0`, and zero-overlap documents are omitted as in the
        // exhaustive scan. Each block is taken out (copied, re-zeroed) in
        // one pass that masks its slots against the floor at block start;
        // the floor only rises, so an unmasked slot would fail the
        // per-slot check too, and the masked ones are re-checked because
        // the floor can rise inside the block.
        let mut heap: BinaryHeap<WorstFirst> = BinaryHeap::with_capacity(k);
        let mut floor = 0.0f32;
        let mut taken = [0.0f32; SELECT_BLOCK];
        for (b, block) in acc.chunks_mut(SELECT_BLOCK).enumerate() {
            let mut mask = simd::take_mask_above(block, &mut taken[..block.len()], floor);
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let a = taken[i];
                if a <= floor {
                    continue;
                }
                stats.docs_scored += 1;
                let entry = WorstFirst {
                    score: a / qnorm,
                    doc: (b * SELECT_BLOCK + i) as u32,
                    acc: a,
                };
                if heap.len() < k {
                    heap.push(entry);
                } else {
                    // One sift-down on the replaced worst entry.
                    let mut worst = heap.peek_mut().expect("full heap");
                    if entry >= *worst {
                        continue;
                    }
                    *worst = entry;
                    stats.heap_evictions += 1;
                }
                if heap.len() == k {
                    floor = heap.peek().expect("full heap").acc;
                }
            }
        }
        ACCUMULATOR.set(buf);

        let out = heap
            .into_sorted_vec()
            .into_iter()
            .map(|e| (e.doc as DocId, e.score))
            .collect();
        (out, stats)
    }

    /// Reference scorer: term-at-a-time accumulation over every posting
    /// of every query term into fresh buffers, then a full sort.
    /// Bit-identical to [`TfIdfIndex::top_k`]; kept as its equivalence
    /// oracle and as the baseline of the fig11 scale sweep.
    pub fn top_k_exhaustive<S: AsRef<str>>(&self, query: &[S], k: usize) -> Vec<(DocId, f32)> {
        if k == 0 || query.is_empty() {
            return Vec::new();
        }
        let (terms, qnorm) = self.weighted_query_terms(query);
        if terms.is_empty() {
            return Vec::new();
        }
        let mut acc = vec![0.0f32; self.num_docs];
        let mut seen = vec![false; self.num_docs];
        let mut touched: Vec<u32> = Vec::new();
        for t in &terms {
            let r = self.postings_range(t.tid);
            for (d, imp) in self.posting_docs[r.clone()]
                .iter()
                .zip(&self.posting_impacts[r])
            {
                let di = *d as usize;
                acc[di] += t.qw * imp;
                if !seen[di] {
                    seen[di] = true;
                    touched.push(*d);
                }
            }
        }
        let mut results: Vec<(DocId, f32)> = touched
            .into_iter()
            .map(|d| (d as DocId, acc[d as usize] / qnorm))
            .collect();
        results.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        results.truncate(k);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokenize;

    fn index() -> TfIdfIndex {
        let docs: Vec<Vec<String>> = [
            "iron deficiency anemia",                         // 0 (D50)
            "iron deficiency anemia secondary to blood loss", // 1 (D50.0)
            "protein deficiency anemia",                      // 2 (D53.0)
            "scorbutic anemia",                               // 3 (D53.2)
            "chronic kidney disease stage 5",                 // 4 (N18.5)
            "acute abdomen",                                  // 5 (R10.0)
            "unspecified abdominal pain",                     // 6 (R10.9)
        ]
        .iter()
        .map(|s| tokenize(s))
        .collect();
        TfIdfIndex::build(&docs)
    }

    #[test]
    fn exact_description_ranks_first() {
        let idx = index();
        let q = tokenize("acute abdomen");
        let hits = idx.top_k(&q, 3);
        assert_eq!(hits[0].0, 5);
        assert!(hits[0].1 > 0.99);
    }

    #[test]
    fn rare_words_dominate_common_ones() {
        let idx = index();
        // "anemia" appears in four docs; "scorbutic" in one. The rare word
        // should pull doc 3 to the top.
        let hits = idx.top_k(&tokenize("scorbutic anemia condition"), 2);
        assert_eq!(hits[0].0, 3);
    }

    #[test]
    fn no_overlap_returns_empty() {
        let idx = index();
        assert!(idx.top_k(&tokenize("zzz qqq"), 5).is_empty());
    }

    #[test]
    fn k_zero_and_empty_query() {
        let idx = index();
        assert!(idx.top_k(&tokenize("anemia"), 0).is_empty());
        assert!(idx.top_k(&Vec::<String>::new(), 5).is_empty());
    }

    #[test]
    fn fewer_than_k_results_possible() {
        let idx = index();
        let hits = idx.top_k(&tokenize("scorbutic"), 10);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn scores_monotone_nonincreasing() {
        let idx = index();
        let hits = idx.top_k(&tokenize("iron deficiency anemia"), 7);
        for w in hits.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn contains_term_reflects_corpus() {
        let idx = index();
        assert!(idx.contains_term("anemia"));
        assert!(!idx.contains_term("ckd"));
    }

    #[test]
    fn postings_examined_grows_with_query_len() {
        let idx = index();
        let short = idx.postings_examined(&tokenize("anemia"));
        let long = idx.postings_examined(&tokenize("anemia iron deficiency"));
        assert!(long > short);
        assert_eq!(idx.postings_examined(&tokenize("zzz")), 0);
    }

    #[test]
    fn empty_index() {
        let idx = TfIdfIndex::build(&Vec::<Vec<String>>::new());
        assert!(idx.is_empty());
        assert!(idx.top_k(&tokenize("anemia"), 3).is_empty());
    }

    #[test]
    fn cosine_scores_bounded() {
        let idx = index();
        for (_, s) in idx.top_k(&tokenize("iron deficiency anemia secondary"), 7) {
            assert!((0.0..=1.0 + 1e-5).contains(&s));
        }
    }

    #[test]
    fn terms_are_interned_in_lexicographic_order() {
        let idx = index();
        let terms: Vec<&str> = idx.terms().collect();
        let mut sorted = terms.clone();
        sorted.sort_unstable();
        assert_eq!(terms, sorted);
        assert_eq!(idx.num_terms(), terms.len());
    }

    #[test]
    fn top_k_matches_exhaustive_on_fixture() {
        let idx = index();
        for q in [
            "anemia",
            "iron deficiency anemia",
            "acute abdomen pain",
            "chronic disease stage 5 anemia unspecified",
            "scorbutic",
        ] {
            let toks = tokenize(q);
            for k in [1usize, 2, 3, 7, 20] {
                let hits = idx.top_k(&toks, k);
                let exhaustive = idx.top_k_exhaustive(&toks, k);
                assert_eq!(hits.len(), exhaustive.len(), "q={q} k={k}");
                for (a, b) in hits.iter().zip(&exhaustive) {
                    assert_eq!(a.0, b.0, "q={q} k={k}");
                    assert_eq!(a.1.to_bits(), b.1.to_bits(), "q={q} k={k}");
                }
            }
        }
    }

    #[test]
    fn stats_account_for_every_posting() {
        let idx = index();
        let q = tokenize("iron deficiency anemia");
        let (_, stats) = idx.top_k_with_stats(&q, 2);
        assert_eq!(stats.postings_scored, idx.postings_examined(&q));
        assert_eq!(stats.postings_pruned, 0);
        assert!(stats.docs_scored > 0);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = RetrievalStats {
            postings_scored: 1,
            rewrite_cache_hits: 2,
            ..RetrievalStats::default()
        };
        let b = RetrievalStats {
            postings_scored: 3,
            docs_scored: 4,
            ..RetrievalStats::default()
        };
        a.merge(&b);
        assert_eq!(a.postings_scored, 4);
        assert_eq!(a.docs_scored, 4);
        assert_eq!(a.rewrite_cache_hits, 2);
    }

    /// An index of `n` documents spanning several selection blocks, with
    /// overlapping three-word documents.
    fn wide_index(n: usize) -> TfIdfIndex {
        let docs: Vec<Vec<String>> = (0..n)
            .map(|i| {
                vec![
                    format!("a{}", i % 7),
                    format!("b{}", i % 11),
                    format!("c{}", i % 13),
                ]
            })
            .collect();
        TfIdfIndex::build(&docs)
    }

    /// `top_k` bits as a thread that never queried before computes them.
    fn on_fresh_thread(idx: &TfIdfIndex, q: &[String], k: usize) -> Vec<(DocId, u32)> {
        std::thread::scope(|s| s.spawn(|| bits(&idx.top_k(q, k))).join().unwrap())
    }

    fn bits(hits: &[(DocId, f32)]) -> Vec<(DocId, u32)> {
        hits.iter().map(|&(d, s)| (d, s.to_bits())).collect()
    }

    #[test]
    fn ties_across_selection_blocks_keep_the_lowest_doc_ids() {
        // 200 equal documents span four selection blocks; every score
        // ties, so the k lowest ids must win.
        let docs = vec![vec!["a".to_string(), "b".to_string()]; 200];
        let idx = TfIdfIndex::build(&docs);
        let q = tokenize("a b");
        let hits = idx.top_k(&q, 5);
        assert_eq!(bits(&hits), bits(&idx.top_k_exhaustive(&q, 5)));
        assert_eq!(
            hits.iter().map(|&(d, _)| d).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn accumulator_is_clean_across_index_sizes_on_one_thread() {
        let (large, small) = (wide_index(1000), wide_index(150));
        let q: Vec<String> = ["a3", "b5", "c1"].iter().map(|w| w.to_string()).collect();
        let want_large = on_fresh_thread(&large, &q, 10);
        let want_small = on_fresh_thread(&small, &q, 10);
        assert_eq!(bits(&small.top_k(&q, 10)), want_small);
        assert_eq!(bits(&large.top_k(&q, 10)), want_large);
        assert_eq!(bits(&small.top_k(&q, 10)), want_small);
        assert_eq!(bits(&large.top_k(&q, 10)), want_large);
    }

    #[test]
    fn accumulator_is_clean_after_an_unwound_scan() {
        let idx = wide_index(500);
        let q: Vec<String> = ["a2", "b2", "c9"].iter().map(|w| w.to_string()).collect();
        let want = on_fresh_thread(&idx, &q, 20);
        PANIC_MID_SCAN.set(true);
        let unwound = std::panic::catch_unwind(|| idx.top_k(&q, 20));
        assert!(unwound.is_err());
        assert_eq!(bits(&idx.top_k(&q, 20)), want);
    }
}

#[cfg(test)]
mod equivalence {
    use super::*;
    use proptest::prelude::*;

    /// Asserts the scan's `(doc, score)` pairs are bit-identical to the
    /// exhaustive reference (scores compared by raw f32 bits).
    fn assert_bit_identical(idx: &TfIdfIndex, query: &[String], k: usize) {
        let (hits, stats) = idx.top_k_with_stats(query, k);
        let exhaustive = idx.top_k_exhaustive(query, k);
        assert_eq!(hits.len(), exhaustive.len());
        for (a, b) in hits.iter().zip(&exhaustive) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        assert_eq!(stats.postings_pruned, 0);
        assert_eq!(
            (stats.docs_scored, stats.heap_evictions),
            reference_offers(idx, query, k)
        );
    }

    /// `(docs_scored, heap_evictions)` as a plain selection counts them:
    /// every document in order, checked against the floor of the moment,
    /// the held top-k an unordered list whose worst entry is found by a
    /// linear scan.
    fn reference_offers(idx: &TfIdfIndex, query: &[String], k: usize) -> (usize, usize) {
        if k == 0 || query.is_empty() {
            return (0, 0);
        }
        let (terms, qnorm) = idx.weighted_query_terms(query);
        let mut acc = vec![0.0f32; idx.num_docs];
        for t in &terms {
            let r = idx.postings_range(t.tid);
            for (&d, &imp) in idx.posting_docs[r.clone()]
                .iter()
                .zip(&idx.posting_impacts[r])
            {
                acc[d as usize] += t.qw * imp;
            }
        }
        let mut held: Vec<WorstFirst> = Vec::new();
        let (mut floor, mut offered, mut evicted) = (0.0f32, 0, 0);
        for (d, &a) in acc.iter().enumerate() {
            if a <= floor {
                continue;
            }
            offered += 1;
            let entry = WorstFirst {
                score: a / qnorm,
                doc: d as u32,
                acc: a,
            };
            if held.len() == k {
                let (w, worst) = held.iter().enumerate().max_by_key(|(_, e)| **e).unwrap();
                if entry >= *worst {
                    continue;
                }
                held.swap_remove(w);
                evicted += 1;
            }
            held.push(entry);
            if held.len() == k {
                floor = held.iter().max().unwrap().acc;
            }
        }
        (offered, evicted)
    }

    // Single-letter words from an 8-word closed vocabulary, so random
    // docs overlap heavily and near-ties at the k boundary are common.
    proptest! {
        /// The term-at-a-time scan is bit-identical to the exhaustive
        /// reference across random corpora, queries and k values.
        #[test]
        fn top_k_equals_exhaustive(
            docs in proptest::collection::vec(
                proptest::collection::vec("[a-h]{1}", 0..10), 0..40),
            query in proptest::collection::vec("[a-h]{1}", 0..8),
            k in 0usize..12,
        ) {
            let idx = TfIdfIndex::build(&docs);
            assert_bit_identical(&idx, &query, k);
        }

        /// Tie-heavy regime: many documents share the exact token
        /// multiset, so scores collide exactly and the k boundary cuts
        /// through a tie group — the doc-id tiebreak must agree.
        #[test]
        fn top_k_equals_exhaustive_under_ties(
            copies in 1usize..12,
            seedq in proptest::collection::vec("[a-h]{1}", 1..5),
            k in 1usize..8,
        ) {
            let base: Vec<Vec<String>> = vec![
                vec!["a".into(), "b".into()],
                vec!["b".into(), "c".into()],
                seedq.clone(),
            ];
            let mut docs = Vec::new();
            for _ in 0..copies {
                docs.extend(base.iter().cloned());
            }
            let idx = TfIdfIndex::build(&docs);
            assert_bit_identical(&idx, &seedq, k);
        }

        /// Document counts that are no multiple of 8 or 64 — a scatter
        /// tail on every long posting list, a short last selection block —
        /// with a query that always names a word of the last document.
        /// Each query runs twice on the thread: the second scan starts
        /// from the accumulator the first one re-zeroed.
        #[test]
        fn top_k_equals_exhaustive_with_ragged_blocks(
            docs in proptest::collection::vec(
                proptest::collection::vec("[a-l]{1}", 1..6), 65..250),
            extra in proptest::collection::vec("[a-l]{1}", 0..4),
            k in 1usize..24,
        ) {
            let mut docs = docs;
            if docs.len() % 8 == 0 {
                docs.pop();
            }
            let idx = TfIdfIndex::build(&docs);
            let mut query = extra;
            query.push(docs.last().unwrap()[0].clone());
            for _ in 0..2 {
                assert_bit_identical(&idx, &query, k);
            }
            prop_assert!(idx
                .top_k(&query, docs.len())
                .iter()
                .any(|&(d, _)| d == docs.len() - 1));
        }

        /// Larger k extends, never reorders, the result prefix — the
        /// property the linker's candidate sets rely on.
        #[test]
        fn top_k_is_prefix_monotone(
            docs in proptest::collection::vec(
                proptest::collection::vec("[a-h]{1}", 0..10), 0..40),
            query in proptest::collection::vec("[a-h]{1}", 1..6),
            k in 1usize..10,
        ) {
            let idx = TfIdfIndex::build(&docs);
            let small = idx.top_k(&query, k);
            let large = idx.top_k(&query, k + 5);
            prop_assert!(small.len() <= large.len());
            prop_assert_eq!(&large[..small.len()], &small[..]);
        }

        /// With `k` at least the number of documents sharing a word with
        /// the query, exactly those documents come back: a document was
        /// touched exactly when its accumulated score is > 0.
        #[test]
        fn k_covering_every_touched_document_returns_exactly_them(
            docs in proptest::collection::vec(
                proptest::collection::vec("[a-h]{1}", 0..10), 0..150),
            query in proptest::collection::vec("[a-h]{1}", 1..4),
            extra in 0usize..3,
        ) {
            let idx = TfIdfIndex::build(&docs);
            let touched: Vec<DocId> = (0..docs.len())
                .filter(|&d| docs[d].iter().any(|w| query.contains(w)))
                .collect();
            let mut got: Vec<DocId> = idx
                .top_k(&query, touched.len() + extra)
                .iter()
                .map(|&(d, _)| d)
                .collect();
            got.sort_unstable();
            prop_assert_eq!(got, touched);
        }
    }
}

/// `TfIdfIndex::build` / `from_interned` against the build they
/// replaced: same index, field for field, f32s by bit pattern.
#[cfg(test)]
mod identity {
    use super::*;
    use crate::tokenize::tokenize;
    use proptest::prelude::*;

    /// The map-per-document build `from_interned` replaced, kept as the
    /// plain reference it must reproduce field for field.
    fn reference_build<S: AsRef<str>>(docs: &[Vec<S>]) -> TfIdfIndex {
        let num_docs = docs.len();
        // Document frequencies.
        let mut df: HashMap<&str, usize> = HashMap::new();
        for doc in docs {
            let mut seen: Vec<&str> = doc.iter().map(|t| t.as_ref()).collect();
            seen.sort_unstable();
            seen.dedup();
            for t in seen {
                *df.entry(t).or_insert(0) += 1;
            }
        }

        // Intern terms in lexicographic order so ids (and therefore every
        // downstream accumulation order) are a pure function of the
        // vocabulary, never of hash-map iteration order.
        let mut terms: Vec<String> = df.keys().map(|t| t.to_string()).collect();
        terms.sort_unstable();
        let term_ids: HashMap<String, TermId> = terms
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i as TermId))
            .collect();

        // Smoothed idf, always positive so single-document corpora still
        // retrieve.
        let idf: Vec<f32> = terms
            .iter()
            .map(|t| ((1.0 + num_docs as f32) / (1.0 + df[t.as_str()] as f32)).ln() + 1.0)
            .collect();

        // Per-doc (tid, tf) rows, sorted by term id (== lexicographic
        // term order, keeping f32 norm accumulation bit-reproducible).
        let mut doc_rows: Vec<Vec<(TermId, f32)>> = Vec::with_capacity(num_docs);
        let mut counts = vec![0usize; terms.len()];
        for doc in docs {
            let mut tf: HashMap<&str, f32> = HashMap::new();
            for t in doc {
                *tf.entry(t.as_ref()).or_insert(0.0) += 1.0;
            }
            let mut row: Vec<(TermId, f32)> =
                tf.into_iter().map(|(t, f)| (term_ids[t], f)).collect();
            row.sort_unstable_by_key(|&(tid, _)| tid);
            for &(tid, _) in &row {
                counts[tid as usize] += 1;
            }
            doc_rows.push(row);
        }

        let mut offsets = Vec::with_capacity(terms.len() + 1);
        offsets.push(0usize);
        for c in &counts {
            offsets.push(offsets.last().unwrap() + c);
        }
        let total = *offsets.last().unwrap();

        // Fill the CSR arena doc-major, so each term's slice comes out
        // doc-sorted without an extra sort.
        let mut cursor: Vec<usize> = offsets[..terms.len()].to_vec();
        let mut posting_docs = vec![0u32; total];
        let mut posting_impacts = vec![0.0f32; total];
        let mut max_impact = vec![0.0f32; terms.len()];
        for (doc_id, row) in doc_rows.iter().enumerate() {
            let mut norm_sq = 0.0f32;
            for &(tid, f) in row {
                let w = f * idf[tid as usize];
                norm_sq += w * w;
            }
            let norm = norm_sq.sqrt();
            for &(tid, f) in row {
                let w = f * idf[tid as usize];
                let impact = if norm > f32::EPSILON { w / norm } else { 0.0 };
                let slot = cursor[tid as usize];
                posting_docs[slot] = doc_id as u32;
                posting_impacts[slot] = impact;
                cursor[tid as usize] = slot + 1;
                let m = &mut max_impact[tid as usize];
                if impact > *m {
                    *m = impact;
                }
            }
        }

        TfIdfIndex {
            term_ids,
            terms,
            idf,
            offsets,
            posting_docs,
            posting_impacts,
            max_impact,
            num_docs,
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same_index(got: &TfIdfIndex, want: &TfIdfIndex) {
        assert_eq!(got.num_docs, want.num_docs);
        assert_eq!(got.terms, want.terms);
        assert_eq!(got.term_ids, want.term_ids);
        assert_eq!(got.offsets, want.offsets);
        assert_eq!(got.posting_docs, want.posting_docs);
        assert_eq!(bits(&got.idf), bits(&want.idf));
        assert_eq!(bits(&got.posting_impacts), bits(&want.posting_impacts));
        assert_eq!(bits(&got.max_impact), bits(&want.max_impact));
    }

    /// `docs` through `from_interned` directly, with an interner that
    /// met the words in *reverse* document order and holds one word no
    /// document has — neither may show in the index.
    fn interned_build(docs: &[Vec<String>]) -> TfIdfIndex {
        let mut words = Vocab::new();
        words.add("never-in-a-document");
        for doc in docs.iter().rev() {
            for t in doc.iter().rev() {
                words.add(t);
            }
        }
        let mut doc_off = vec![0u32];
        let mut doc_words = Vec::new();
        for doc in docs {
            doc_words.extend(doc.iter().map(|t| words.get(t).unwrap()));
            doc_off.push(doc_words.len() as u32);
        }
        TfIdfIndex::from_interned(&words, &doc_off, &doc_words)
    }

    fn assert_builds_agree(docs: &[Vec<String>], query: &[String], k: usize) {
        let want = reference_build(docs);
        // What `top_k`'s selection relies on: a document was touched
        // exactly when its accumulated score is > 0.
        assert!(want.posting_impacts.iter().all(|&imp| imp > 0.0));
        for got in [TfIdfIndex::build(docs), interned_build(docs)] {
            assert_same_index(&got, &want);
            let (hits, _) = got.top_k_with_stats(query, k);
            let exhaustive = want.top_k_exhaustive(query, k);
            assert_eq!(hits.len(), exhaustive.len());
            for (a, b) in hits.iter().zip(&exhaustive) {
                assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()));
            }
        }
    }

    fn strings(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn degenerate_corpora() {
        let q = strings(&["a", "b"]);
        // No documents; one document; only empty documents.
        assert_builds_agree(&[], &q, 3);
        assert_builds_agree(&[strings(&["a", "a", "b"])], &q, 3);
        assert_builds_agree(&[vec![], vec![]], &q, 3);
        // A term in every document sits at the idf floor, ln(1) + 1.
        let docs = [
            strings(&["a", "b"]),
            strings(&["a"]),
            vec![],
            strings(&["a", "c", "a"]),
        ];
        assert_builds_agree(&docs[..2], &q, 3);
        let everywhere = [docs[0].clone(), docs[1].clone(), docs[3].clone()];
        assert_builds_agree(&everywhere, &q, 3);
        let idx = TfIdfIndex::build(&everywhere);
        assert_eq!(idx.idf[idx.term_ids["a"] as usize], 1.0);
        assert_builds_agree(&docs, &q, 3);
        // Words an interner's specials spell are ordinary terms.
        assert_builds_agree(
            &[strings(&["<unk>", "", "<s>", "<unk>"])],
            &strings(&["<unk>"]),
            2,
        );
    }

    #[test]
    fn words_that_differ_only_before_tokenising_are_one_term() {
        let docs: Vec<Vec<String>> = [
            "Iron-deficiency ANEMIA",
            "iron; deficiency, anemia!",
            "IRON",
        ]
        .iter()
        .map(|s| tokenize(s))
        .collect();
        assert_builds_agree(&docs, &tokenize("Iron anemia"), 3);
        assert_eq!(TfIdfIndex::build(&docs).num_terms(), 3);
    }

    proptest! {
        /// Random corpora over a small closed vocabulary: repeated
        /// words, empty documents, heavy overlap.
        #[test]
        fn build_equals_reference(
            docs in proptest::collection::vec(
                proptest::collection::vec("[a-e]{1,2}", 0..10), 0..30),
            query in proptest::collection::vec("[a-e]{1,2}", 0..6),
            k in 0usize..10,
        ) {
            assert_builds_agree(&docs, &query, k);
        }

        /// Raw text through the tokenizer first: case and punctuation
        /// variants of one word must collapse to one term on both sides.
        #[test]
        fn build_equals_reference_on_tokenised_text(
            texts in proptest::collection::vec("[a-cA-C ,;]{0,12}", 0..20),
            query in "[a-cA-C ]{0,8}",
            k in 1usize..6,
        ) {
            let docs: Vec<Vec<String>> = texts.iter().map(|t| tokenize(t)).collect();
            assert_builds_agree(&docs, &tokenize(&query), k);
        }
    }
}
