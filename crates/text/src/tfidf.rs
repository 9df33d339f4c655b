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
//! ## Exact MaxScore pruning
//!
//! [`TfIdfIndex::top_k`] runs a document-at-a-time MaxScore scan: query
//! terms are ordered by their score ceiling `qw_t · max_impact_t`, a
//! bounded min-heap tracks the current top-k, and terms whose remaining
//! ceiling cannot reach the heap threshold become *non-essential* — their
//! postings are only probed for documents already surfaced by the
//! essential terms. Results are **bit-identical** to
//! [`TfIdfIndex::top_k_exhaustive`] (see `proptests`): pruning decisions
//! compare an f64 upper bound inflated by an explicit rounding margin
//! against the threshold *strictly*, so no document that could enter the
//! top-k (including ties at the k boundary) is ever skipped.

use crate::vocab::{Vocab, WordId};
use std::collections::HashMap;

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
    /// Postings the engine actually read (scored or stepped over during
    /// a seek).
    pub postings_examined: usize,
    /// Postings whose contribution was accumulated into a score.
    pub postings_scored: usize,
    /// Postings in the query's lists that pruning skipped wholesale.
    pub postings_pruned: usize,
    /// Documents fully scored.
    pub docs_scored: usize,
    /// Documents abandoned early because their score ceiling fell below
    /// the heap threshold.
    pub docs_pruned: usize,
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
        self.postings_examined += other.postings_examined;
        self.postings_scored += other.postings_scored;
        self.postings_pruned += other.postings_pruned;
        self.docs_scored += other.docs_scored;
        self.docs_pruned += other.docs_pruned;
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
    /// Per-term maximum impact — the MaxScore upper bound.
    max_impact: Vec<f32>,
    num_docs: usize,
}

/// One query term resolved against the index, ready for scoring.
struct QueryTerm {
    tid: TermId,
    /// Query-side TF-IDF weight.
    qw: f32,
    /// Score ceiling of one posting of this term: `qw · max_impact`.
    bound: f64,
}

/// Bounded worst-first heap entry: the binary max-heap's top is the
/// *worst* of the current top-k under the result ordering
/// (score descending, doc ascending).
#[derive(Debug, Clone, Copy, PartialEq)]
struct WorstFirst {
    score: f32,
    doc: u32,
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

    /// Number of postings a fully exhaustive evaluation of `query` would
    /// read — the cost driver measured in Figure 11(c)/(d) ("more
    /// postings in the inverted index are examined" as |q| grows). The
    /// pruned scan reads fewer; see [`RetrievalStats`].
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

    /// Resolves `query` into weighted terms ordered by descending score
    /// ceiling (ties by term id), plus the query norm. Both scoring paths
    /// share this, so per-document accumulation order — and therefore
    /// every f32 score bit — is identical between them.
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
    /// This is the MaxScore-pruned scan; results are bit-identical to
    /// [`TfIdfIndex::top_k_exhaustive`].
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
        let n = terms.len();
        let qnorm_f64 = qnorm as f64;
        // Rounding-safety margin for the pruning bound. A document's f32
        // score is a forward sum of n non-negative contributions (each
        // pointwise ≤ its term's ceiling, because f32 rounding is
        // monotone) followed by one division; relative inflation from
        // rounding is < (n + 2)·ε, so multiplying the exact f64 bound by
        // this margin dominates any achievable f32 score. Pruning
        // compares *strictly* below the threshold, so boundary ties are
        // always fully scored.
        let margin = 1.0 + (n as f64 + 8.0) * f32::EPSILON as f64;
        // suffix_bound[i] = Σ_{j ≥ i} ceiling_j (exact-enough f64 sums).
        let mut suffix_bound = vec![0.0f64; n + 1];
        for i in (0..n).rev() {
            suffix_bound[i] = suffix_bound[i + 1] + terms[i].bound;
        }

        // Cursors into the CSR arena, one per query term, in bound order.
        let mut pos: Vec<usize> = Vec::with_capacity(n);
        let mut ends: Vec<usize> = Vec::with_capacity(n);
        let mut total_postings = 0usize;
        for t in &terms {
            let r = self.postings_range(t.tid);
            total_postings += r.len();
            pos.push(r.start);
            ends.push(r.end);
        }
        let starts: Vec<usize> = pos.clone();

        let mut heap: std::collections::BinaryHeap<WorstFirst> =
            std::collections::BinaryHeap::with_capacity(k + 1);
        // Number of leading terms that can still, on their own, lift a
        // fresh document over the heap threshold ("essential" terms).
        // The threshold only rises, so this only shrinks.
        let mut essential = n;
        loop {
            let threshold = if heap.len() == k {
                Some(*heap.peek().expect("non-empty full heap"))
            } else {
                None
            };
            if let Some(worst) = threshold {
                while essential > 0
                    && suffix_bound[essential - 1] * margin / qnorm_f64 < worst.score as f64
                {
                    essential -= 1;
                }
                if essential == 0 {
                    break; // no unseen document can reach the top-k
                }
            }

            // Next candidate: smallest unread doc among essential terms.
            let mut d = u32::MAX;
            for i in 0..essential {
                if pos[i] < ends[i] {
                    d = d.min(self.posting_docs[pos[i]]);
                }
            }
            if d == u32::MAX {
                break; // essential lists exhausted
            }

            // Score doc `d` across all terms in bound order — the same
            // accumulation order as the exhaustive reference. Essential
            // cursors always advance past `d` (progress guarantee); the
            // non-essential tail may abandon the doc early once its
            // ceiling falls below the threshold.
            let mut acc = 0.0f32;
            let mut abandoned = false;
            for i in 0..essential {
                if pos[i] < ends[i] && self.posting_docs[pos[i]] == d {
                    acc += terms[i].qw * self.posting_impacts[pos[i]];
                    pos[i] += 1;
                    stats.postings_scored += 1;
                }
            }
            for i in essential..n {
                if let Some(worst) = threshold {
                    if (acc as f64 + suffix_bound[i]) * margin / qnorm_f64 < worst.score as f64 {
                        abandoned = true;
                        break;
                    }
                }
                pos[i] = seek(&self.posting_docs, pos[i], ends[i], d);
                if pos[i] < ends[i] && self.posting_docs[pos[i]] == d {
                    acc += terms[i].qw * self.posting_impacts[pos[i]];
                    pos[i] += 1;
                    stats.postings_scored += 1;
                }
            }
            if abandoned {
                stats.docs_pruned += 1;
                continue;
            }
            stats.docs_scored += 1;
            let score = acc / qnorm;
            let entry = WorstFirst { score, doc: d };
            if heap.len() < k {
                heap.push(entry);
            } else if entry < *heap.peek().expect("full heap") {
                heap.pop();
                heap.push(entry);
                stats.heap_evictions += 1;
            }
        }

        stats.postings_examined = pos.iter().zip(&starts).map(|(&p, &s)| p - s).sum::<usize>();
        stats.postings_pruned = total_postings.saturating_sub(stats.postings_examined);

        let mut out: Vec<(DocId, f32)> = heap
            .into_iter()
            .map(|e| (e.doc as DocId, e.score))
            .collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        (out, stats)
    }

    /// Reference scorer: term-at-a-time accumulation over every posting
    /// of every query term, then a full sort. Bit-identical to
    /// [`TfIdfIndex::top_k`]; kept as the pruning-equivalence oracle and
    /// as the exhaustive baseline of the fig11 benchmark.
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

/// Advances `pos` to the first posting in `[pos, end)` whose doc id is
/// `>= target`: a short linear probe (the common stride between
/// consecutive candidates is small), then galloping + binary search for
/// long skips.
fn seek(docs: &[u32], mut pos: usize, end: usize, target: u32) -> usize {
    for _ in 0..8 {
        if pos >= end || docs[pos] >= target {
            return pos;
        }
        pos += 1;
    }
    let mut step = 8usize;
    let mut lo = pos;
    loop {
        let probe = lo.checked_add(step).filter(|&p| p < end);
        match probe {
            Some(p) if docs[p] < target => {
                lo = p;
                step <<= 1;
            }
            _ => break,
        }
    }
    let hi = (lo + step + 1).min(end);
    lo + docs[lo..hi].partition_point(|&d| d < target)
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
    fn pruned_matches_exhaustive_on_fixture() {
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
                let pruned = idx.top_k(&toks, k);
                let exhaustive = idx.top_k_exhaustive(&toks, k);
                assert_eq!(pruned.len(), exhaustive.len(), "q={q} k={k}");
                for (a, b) in pruned.iter().zip(&exhaustive) {
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
        let total = idx.postings_examined(&q);
        assert_eq!(stats.postings_examined + stats.postings_pruned, total);
        assert!(stats.postings_scored <= stats.postings_examined);
        assert!(stats.docs_scored > 0);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = RetrievalStats {
            postings_examined: 1,
            rewrite_cache_hits: 2,
            ..RetrievalStats::default()
        };
        let b = RetrievalStats {
            postings_examined: 3,
            docs_pruned: 4,
            ..RetrievalStats::default()
        };
        a.merge(&b);
        assert_eq!(a.postings_examined, 4);
        assert_eq!(a.docs_pruned, 4);
        assert_eq!(a.rewrite_cache_hits, 2);
    }

    #[test]
    fn seek_finds_first_at_least_target() {
        let docs: Vec<u32> = (0..400).map(|i| i * 3).collect();
        for target in [0u32, 1, 3, 299, 300, 1197, 5000] {
            let got = seek(&docs, 0, docs.len(), target);
            let want = docs.partition_point(|&d| d < target);
            assert_eq!(got, want, "target {target}");
        }
        // Starting mid-list never moves backwards.
        assert_eq!(seek(&docs, 10, docs.len(), 0), 10);
    }
}

#[cfg(test)]
mod equivalence {
    use super::*;
    use proptest::prelude::*;

    /// Asserts the pruned scan's `(doc, score)` pairs are bit-identical
    /// to the exhaustive reference (scores compared by raw f32 bits).
    fn assert_bit_identical(idx: &TfIdfIndex, query: &[String], k: usize) {
        let (pruned, stats) = idx.top_k_with_stats(query, k);
        let exhaustive = idx.top_k_exhaustive(query, k);
        assert_eq!(pruned.len(), exhaustive.len());
        for (a, b) in pruned.iter().zip(&exhaustive) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        assert!(stats.postings_examined >= stats.postings_scored);
    }

    // Single-letter words from an 8-word closed vocabulary, so random
    // docs overlap heavily and near-ties at the k boundary are common.
    proptest! {
        /// The MaxScore-pruned scan is bit-identical to the exhaustive
        /// reference across random corpora, queries and k values.
        #[test]
        fn pruned_top_k_equals_exhaustive(
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
        fn pruned_top_k_equals_exhaustive_under_ties(
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
        for got in [TfIdfIndex::build(docs), interned_build(docs)] {
            assert_same_index(&got, &want);
            let (pruned, _) = got.top_k_with_stats(query, k);
            let exhaustive = want.top_k_exhaustive(query, k);
            assert_eq!(pruned.len(), exhaustive.len());
            for (a, b) in pruned.iter().zip(&exhaustive) {
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
