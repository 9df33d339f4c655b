//! CBOW with negative sampling.
//!
//! Appendix B.2 fixes the paper's pre-training hyper-parameters: noise
//! samples 10, window 10, 10 iterations, learning rate 0.05; those are the
//! defaults here. The objective follows word2vec (Mikolov et al. \[31\]):
//! the averaged context representation predicts the centre word against
//! sampled noise words drawn from the unigram distribution raised to 3/4.

use crate::corpus::Corpus;
use ncl_tensor::ops::sigmoid;
use ncl_tensor::vector::dot;
use ncl_tensor::{init, simd, Matrix, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// CBOW hyper-parameters (defaults from Appendix B.2).
#[derive(Debug, Clone, Copy)]
pub struct CbowConfig {
    /// Embedding dimensionality `d` (Table 1 sweeps 50–200; default 150).
    pub dim: usize,
    /// Context window `α` on each side.
    pub window: usize,
    /// Number of negative samples per positive.
    pub negative: usize,
    /// Number of passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate, linearly decayed to 1e-4 of itself.
    pub lr: f32,
    /// RNG seed (training is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for CbowConfig {
    fn default() -> Self {
        Self {
            dim: 150,
            window: 10,
            negative: 10,
            epochs: 10,
            lr: 0.05,
            seed: 0x5eed,
        }
    }
}

/// A trained CBOW model: the input embeddings, the word representations
/// fed to COM-AID. The output embeddings are discarded after training.
#[derive(Debug, Clone)]
pub struct CbowModel {
    syn0: Matrix,
    config: CbowConfig,
}

impl CbowModel {
    /// Trains CBOW over `corpus` with the word2vec pure-SGD loop: every
    /// position updates `syn0`/`syn1` in place before the next position
    /// reads them. Rows are read in place and updated through the
    /// [`simd`] element-wise kernels — the scalar loops' one `mul` and
    /// one `add` per element — so a position allocates nothing.
    ///
    /// # Panics
    /// Panics if the corpus vocabulary is empty of regular words.
    pub fn train(corpus: &Corpus, config: CbowConfig) -> Self {
        let vocab_size = corpus.vocab.len();
        assert!(vocab_size > 4, "cbow: corpus has no regular words");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut syn0 = init::embedding_uniform(vocab_size, config.dim, &mut rng);
        let mut syn1 = Matrix::zeros(vocab_size, config.dim);
        let table = NegativeTable::new(&corpus.counts);

        let total_positions: usize = corpus.sentences.iter().map(|s| s.len()).sum();
        let total_steps = (total_positions * config.epochs).max(1);
        let mut step = 0usize;

        let mut h = Vector::zeros(config.dim);
        let mut dh = Vector::zeros(config.dim);

        for _epoch in 0..config.epochs {
            for sent in &corpus.sentences {
                for (i, &center) in sent.iter().enumerate() {
                    let lr = (config.lr * (1.0 - step as f32 / total_steps as f32))
                        .max(config.lr * 1e-4);
                    step += 1;

                    // word2vec uses a random dynamic window b ∈ [1, window].
                    let b = rng.gen_range(1..=config.window.max(1));
                    let lo = i.saturating_sub(b);
                    let hi = (i + b + 1).min(sent.len());
                    let mut cw = 0usize;
                    h.fill_zero();
                    for (j, &ctx) in sent.iter().enumerate().take(hi).skip(lo) {
                        if j == i {
                            continue;
                        }
                        simd::saxpy(h.as_mut_slice(), 1.0, syn0.row(ctx as usize));
                        cw += 1;
                    }
                    if cw == 0 {
                        continue;
                    }
                    h.scale(1.0 / cw as f32);

                    dh.fill_zero();
                    // Positive sample plus `negative` noise words.
                    for s in 0..=config.negative {
                        let (target, label) = if s == 0 {
                            (center as usize, 1.0f32)
                        } else {
                            let mut neg = table.sample(&mut rng);
                            if neg == center as usize {
                                neg = table.sample(&mut rng);
                            }
                            (neg, 0.0)
                        };
                        let out = syn1.row(target);
                        let score = sigmoid(dot(h.as_slice(), out));
                        let g = (label - score) * lr;
                        simd::saxpy(dh.as_mut_slice(), g, out);
                        // syn1[target] += g * h
                        simd::saxpy(syn1.row_mut(target), g, h.as_slice());
                    }
                    // Propagate to every context word (word2vec adds the
                    // full error vector to each).
                    for (j, &ctx) in sent.iter().enumerate().take(hi).skip(lo) {
                        if j == i {
                            continue;
                        }
                        simd::add_assign(syn0.row_mut(ctx as usize), dh.as_slice());
                    }
                }
            }
        }

        Self { syn0, config }
    }

    /// The learned word representations, one row per vocabulary entry —
    /// this matrix seeds COM-AID's embedding table.
    pub fn embeddings(&self) -> &Matrix {
        &self.syn0
    }

    /// Consumes the model, returning the embedding matrix.
    pub fn into_embeddings(self) -> Matrix {
        self.syn0
    }

    /// The representation of one word.
    pub fn word_vector(&self, id: u32) -> Vector {
        self.syn0.row_vector(id as usize)
    }

    /// The configuration used for training.
    pub fn config(&self) -> &CbowConfig {
        &self.config
    }
}

/// Cumulative-distribution sampler over `count^0.75`.
struct NegativeTable {
    cdf: Vec<f64>,
}

impl NegativeTable {
    fn new(counts: &[u64]) -> Self {
        let mut cdf = Vec::with_capacity(counts.len());
        let mut acc = 0.0f64;
        for (id, &c) in counts.iter().enumerate() {
            // Special tokens (ids 0..4) never appear in sentences and have
            // zero count, so they are never sampled.
            let w = if id < 4 { 0.0 } else { (c as f64).powf(0.75) };
            acc += w;
            cdf.push(acc);
        }
        Self { cdf }
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let total = *self.cdf.last().unwrap_or(&0.0);
        if total <= 0.0 {
            return 4.min(self.cdf.len().saturating_sub(1));
        }
        let x = rng.gen_range(0.0..total);
        self.cdf.partition_point(|&c| c <= x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    /// A corpus where `renal` and `kidney` appear in identical contexts
    /// but `abdomen` in different ones: kidney/renal must embed closer.
    fn synonym_corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        for _ in 0..60 {
            b.add_unlabeled(&toks("chronic kidney disease stage five"));
            b.add_unlabeled(&toks("chronic renal disease stage five"));
            b.add_unlabeled(&toks("acute abdomen pain today"));
            b.add_unlabeled(&toks("severe abdomen pain today"));
        }
        b.build()
    }

    fn small_config() -> CbowConfig {
        CbowConfig {
            dim: 16,
            window: 3,
            negative: 5,
            epochs: 12,
            lr: 0.05,
            seed: 3,
        }
    }

    #[test]
    fn embeddings_have_expected_shape() {
        let corpus = synonym_corpus();
        let model = CbowModel::train(&corpus, small_config());
        assert_eq!(model.embeddings().rows(), corpus.vocab.len());
        assert_eq!(model.embeddings().cols(), 16);
        assert!(model.embeddings().is_finite());
    }

    #[test]
    fn distributional_synonyms_embed_close() {
        let corpus = synonym_corpus();
        let model = CbowModel::train(&corpus, small_config());
        let v = |w: &str| model.word_vector(corpus.vocab.get(w).unwrap());
        let kidney = v("kidney");
        let renal = v("renal");
        let abdomen = v("abdomen");
        let sim_syn = kidney.cosine(&renal);
        let sim_other = kidney.cosine(&abdomen);
        assert!(
            sim_syn > sim_other,
            "kidney~renal ({sim_syn}) should beat kidney~abdomen ({sim_other})"
        );
    }

    /// The paper's motivating claim (§4.2): without incorporation,
    /// "protein", "folate" and "iron" embed together; with concept ids
    /// interleaved, they are pushed apart.
    #[test]
    fn concept_incorporation_separates_contrast_words() {
        let snippets = [
            ("protein deficiency anemia", "d53.0"),
            ("dietary folate deficiency anemia", "d52.0"),
            ("iron deficiency anemia unspecified", "d50.0"),
        ];
        let build = |incorporate: bool| {
            let mut b = CorpusBuilder::new();
            for _ in 0..80 {
                for (s, cid) in &snippets {
                    if incorporate {
                        b.add_labeled(&toks(s), cid);
                    } else {
                        b.add_unlabeled(&toks(s));
                    }
                }
            }
            b.build()
        };
        let cfg = small_config();
        let plain = build(false);
        let incorp = build(true);
        let m_plain = CbowModel::train(&plain, cfg);
        let m_incorp = CbowModel::train(&incorp, cfg);
        let sim = |m: &CbowModel, c: &Corpus, a: &str, b: &str| {
            m.word_vector(c.vocab.get(a).unwrap())
                .cosine(&m.word_vector(c.vocab.get(b).unwrap()))
        };
        let before = sim(&m_plain, &plain, "protein", "iron");
        let after = sim(&m_incorp, &incorp, "protein", "iron");
        assert!(
            after < before,
            "incorporation should separate protein/iron: before={before}, after={after}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = synonym_corpus();
        let a = CbowModel::train(&corpus, small_config());
        let b = CbowModel::train(&corpus, small_config());
        assert_eq!(a.embeddings().as_slice(), b.embeddings().as_slice());
    }

    #[test]
    fn negative_table_never_samples_specials() {
        let counts = vec![0, 0, 0, 0, 10, 1];
        let table = NegativeTable::new(&counts);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let s = table.sample(&mut rng);
            assert!(s >= 4, "sampled special token {s}");
        }
    }

    #[test]
    fn negative_table_prefers_frequent_words() {
        let counts = vec![0, 0, 0, 0, 1000, 1];
        let table = NegativeTable::new(&counts);
        let mut rng = StdRng::seed_from_u64(2);
        let hits4 = (0..500).filter(|_| table.sample(&mut rng) == 4).count();
        assert!(hits4 > 400);
    }

    #[test]
    #[should_panic(expected = "no regular words")]
    fn empty_corpus_panics() {
        let corpus = CorpusBuilder::new().build();
        let _ = CbowModel::train(&corpus, small_config());
    }
}
