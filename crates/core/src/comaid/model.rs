//! The COM-AID network: forward and backward passes.

use super::{ComAidConfig, OntologyIndex};
use ncl_nn::attention::AttentionCache;
use ncl_nn::dense::{Activation, Dense, DenseCache, DenseRowsCache};
use ncl_nn::lstm::LstmTape;
use ncl_nn::param::{HasParams, ParamSet, Parameter};
use ncl_nn::softmax_loss::{self, SoftmaxNll};
use ncl_nn::{DotAttention, Embedding, Lstm};
use ncl_ontology::ConceptId;
use ncl_tensor::wire::{Reader, Wire, WireError};
use ncl_tensor::{Matrix, Vector};
use ncl_text::{tokenize, Vocab};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The trained COM-AID model (Figure 4 of the paper).
///
/// All state is plain data, so a trained model is `Send + Sync` and one
/// linker over it can serve requests from several threads at once — the
/// [`crate::serving::Frontend`] workers.
#[derive(Debug, Clone)]
pub struct ComAid {
    config: ComAidConfig,
    vocab: Vocab,
    /// Shared word representations (encoder and decoder inputs).
    pub(crate) embedding: Embedding,
    /// Concept encoder (§4.1.1).
    pub(crate) encoder: Lstm,
    /// Query decoder (§4.1.2).
    pub(crate) decoder: Lstm,
    /// Composite layer `W_d, b_d` (Eq. 8).
    pub(crate) composite: Dense,
    /// Output projection `W_s, b_s` (Eq. 9).
    pub(crate) output: Dense,
    pub(crate) attention: DotAttention,
    /// Parameter generation, compared against
    /// [`ConceptCache::version`](super::ConceptCache::version) to detect
    /// stale serving caches. Drawn from a process-global counter at
    /// construction/decode and bumped on every training run; a clone
    /// keeps its source's version (identical parameters ⇒ caches built
    /// from either remain valid).
    pub(crate) version: u64,
}

/// Process-global parameter-generation counter behind
/// [`ComAid::version`]. Monotonic and never reused, so a version match
/// can only mean "the same parameters the cache was built from": a model
/// loaded from disk draws a *fresh* generation, which is what invalidates
/// any pre-existing cache on load.
fn next_version() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// Checkpoint payload layout: config, vocab, then the five parameter
/// blocks. `DotAttention` is stateless and is not persisted. Decoding
/// cross-checks the pieces against each other (vocab size vs. embedding
/// rows vs. output rows, `dim` vs. every layer) so a payload that passed
/// the container checksum but was assembled from mismatched parts still
/// fails loudly instead of panicking mid-inference.
impl Wire for ComAid {
    fn encode(&self, out: &mut Vec<u8>) {
        self.config.encode(out);
        Wire::encode(&self.vocab, out);
        self.embedding.encode(out);
        self.encoder.encode(out);
        self.decoder.encode(out);
        self.composite.encode(out);
        self.output.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let config = ComAidConfig::decode(r)?;
        let vocab = <Vocab as Wire>::decode(r)?;
        let embedding = Embedding::decode(r)?;
        let encoder = Lstm::decode(r)?;
        let decoder = Lstm::decode(r)?;
        let composite = Dense::decode(r)?;
        let output = Dense::decode(r)?;

        let d = config.dim;
        if embedding.dim() != d {
            return Err(WireError::Invalid(format!(
                "model: embedding dim {} != config dim {d}",
                embedding.dim()
            )));
        }
        if embedding.vocab() != vocab.len() {
            return Err(WireError::Invalid(format!(
                "model: embedding has {} rows for a vocab of {}",
                embedding.vocab(),
                vocab.len()
            )));
        }
        for (name, lstm) in [("encoder", &encoder), ("decoder", &decoder)] {
            if lstm.in_dim() != d || lstm.hidden() != d {
                return Err(WireError::Invalid(format!(
                    "model: {name} is {}→{}, expected {d}→{d}",
                    lstm.in_dim(),
                    lstm.hidden()
                )));
            }
        }
        let comp_in = d
            * (1 + usize::from(config.variant.uses_text())
                + usize::from(config.variant.uses_struct()));
        if composite.in_dim() != comp_in || composite.out_dim() != d {
            return Err(WireError::Invalid(format!(
                "model: composite is {}→{}, expected {comp_in}→{d}",
                composite.in_dim(),
                composite.out_dim()
            )));
        }
        if output.in_dim() != d || output.out_dim() != vocab.len() {
            return Err(WireError::Invalid(format!(
                "model: output is {}→{}, expected {d}→{}",
                output.in_dim(),
                output.out_dim(),
                vocab.len()
            )));
        }
        Ok(Self {
            config,
            vocab,
            embedding,
            encoder,
            decoder,
            composite,
            output,
            attention: DotAttention,
            // A decoded model is a *new* parameter generation: any cache
            // built before the save/load round-trip must not match it.
            version: next_version(),
        })
    }
}

/// The output head used at one decoder step: the exact full-vocabulary
/// softmax (Eq. 9), or the sampled head used during BlackOut-style
/// training (Appendix B.2), where only the target word plus shared noise
/// words receive logits.
enum OutCache {
    Full(DenseCache),
    Rows(DenseRowsCache),
}

/// Per-decoder-step caches.
struct StepRun {
    comp_cache: DenseCache,
    out_cache: OutCache,
    nll: SoftmaxNll,
    text_att: Option<AttentionCache>,
    struct_att: Option<AttentionCache>,
}

/// Everything one forward pass records (consumed by the backward pass).
pub(crate) struct ExampleRun {
    /// Total loss `−log p(q|c)` summed over decoder steps.
    pub loss: f32,
    /// `log p(q|c)` (= −loss), the ranking score of §5 Phase II.
    pub log_prob: f32,
    /// Per-step `log p(w_t | w_<t, c)` (last entry is the EOS step).
    pub step_log_probs: Vec<f32>,
    /// Output-layer logits of the final decoder step (used by decoding).
    last_logits: Vector,
    enc_ids: Vec<u32>,
    enc_tape: LstmTape,
    /// Unique ancestor encodings (structural context, deduplicated).
    anc_ids: Vec<Vec<u32>>,
    anc_tapes: Vec<LstmTape>,
    /// Maps each of the β context slots to its unique ancestor.
    slot_map: Vec<usize>,
    /// Ancestor representations per slot (the attention memory of Eq. 7).
    struct_memory: Vec<Vector>,
    dec_input_ids: Vec<u32>,
    dec_tape: LstmTape,
    targets: Vec<u32>,
    steps: Vec<StepRun>,
}

impl ExampleRun {
    /// Per-step attention snapshots `(target, text α, struct α')` for
    /// the trace API; the terminal EOS step reports `target = None`.
    pub(crate) fn step_traces(&self) -> Vec<(Option<u32>, Option<Vector>, Option<Vector>)> {
        let last = self.steps.len().saturating_sub(1);
        self.steps
            .iter()
            .enumerate()
            .map(|(t, step)| {
                let target = if t == last {
                    None
                } else {
                    Some(self.targets[t])
                };
                (
                    target,
                    step.text_att.as_ref().map(|c| c.weights.clone()),
                    step.struct_att.as_ref().map(|c| c.weights.clone()),
                )
            })
            .collect()
    }

    /// The output-layer logits of the final decoder step — the
    /// distribution over the word *after* the decoded prefix (the EOS
    /// position during scoring), used by free-running decoding.
    pub(crate) fn last_step_logits(&self) -> Vector {
        self.last_logits.clone()
    }
}

impl ComAid {
    /// Creates a model over `vocab`. If `pretrained` embeddings are given
    /// (the §4.2 pre-training path) they must be `|V| × d`; otherwise the
    /// table is randomly initialised (the COM-AID⁻ᵒ¹ setting of §6.5).
    pub fn new(vocab: Vocab, config: ComAidConfig, pretrained: Option<&Matrix>) -> Self {
        let d = config.dim;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let embedding = match pretrained {
            Some(table) => {
                assert_eq!(table.rows(), vocab.len(), "pretrained vocab mismatch");
                assert_eq!(table.cols(), d, "pretrained dimension mismatch");
                Embedding::from_pretrained(table.clone())
            }
            None => Embedding::new(vocab.len(), d, &mut rng),
        };
        let comp_in = d
            * (1 + usize::from(config.variant.uses_text())
                + usize::from(config.variant.uses_struct()));
        Self {
            embedding,
            encoder: Lstm::new(d, d, &mut rng),
            decoder: Lstm::new(d, d, &mut rng),
            composite: Dense::new(comp_in, d, Activation::Tanh, &mut rng),
            output: Dense::new(d, vocab.len(), Activation::Linear, &mut rng),
            attention: DotAttention,
            vocab,
            config,
            version: next_version(),
        }
    }

    /// The current parameter generation (see the `version` field). A
    /// [`ConceptCache`](super::ConceptCache) is valid only for the exact
    /// generation it was frozen from.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Marks the parameters as mutated, invalidating every existing
    /// serving cache. Called at the single training chokepoint
    /// (`fit_epochs`); any future in-place mutation path must do the same.
    pub(crate) fn bump_version(&mut self) {
        self.version = next_version();
    }

    /// The model configuration.
    pub fn config(&self) -> &ComAidConfig {
        &self.config
    }

    /// The vocabulary `Ω'` the model is aligned with.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The (live) word-embedding table — used by query rewriting and by
    /// the Figure 10 representation snapshots.
    pub fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    /// The (live) concept encoder of §4.1.1 — the reference the frozen
    /// serving cache is checked against.
    pub fn encoder(&self) -> &Lstm {
        &self.encoder
    }

    /// Encodes surface tokens to word ids under the model vocabulary.
    pub fn encode_words(&self, tokens: &[String]) -> Vec<u32> {
        tokens.iter().map(|t| self.vocab.get_or_unk(t)).collect()
    }

    /// Encodes a raw snippet (tokenising + interning).
    pub fn encode_text(&self, text: &str) -> Vec<u32> {
        self.encode_words(&tokenize(text))
    }

    /// The concept representation `h_n^c` (§4.1.1) of a concept under the
    /// current parameters — the quantity whose PCA drift Figure 10 plots.
    pub fn concept_representation(&self, index: &OntologyIndex, concept: ConceptId) -> Vector {
        let ids = index.tokens(concept);
        let xs = self.embedding.lookup_seq(ids);
        let h0 = Vector::zeros(self.config.dim);
        let c0 = Vector::zeros(self.config.dim);
        self.encoder.forward_seq(&xs, &h0, &c0).final_h().clone()
    }

    /// `log p(q|c; Θ)` for arbitrary target word ids (Eq. 3); the linker
    /// ranks candidates by this score, and `Loss = −log p` feeds the
    /// feedback controller (Appendix A).
    pub fn log_prob_ids(&self, index: &OntologyIndex, concept: ConceptId, target: &[u32]) -> f32 {
        self.run_example(index, concept, target).log_prob
    }

    /// `log p` with per-word masking: the full query is decoded (so every
    /// step sees its natural left context), but only the steps whose mask
    /// entry is `true` contribute to the score. This implements §5
    /// Phase II's "the words appearing in both the canonical description
    /// and the query are temporarily removed" — removed from the
    /// *probability computation*, not from the decoded sequence. The
    /// terminal EOS step is always counted.
    ///
    /// # Panics
    /// Panics if `count.len() != target.len()`.
    pub fn log_prob_ids_masked(
        &self,
        index: &OntologyIndex,
        concept: ConceptId,
        target: &[u32],
        count: &[bool],
    ) -> f32 {
        assert_eq!(count.len(), target.len(), "mask length mismatch");
        let run = self.run_example(index, concept, target);
        let mut lp = 0.0f32;
        for (t, step_lp) in run.step_log_probs.iter().enumerate() {
            let counted = count.get(t).copied().unwrap_or(true); // EOS step
            if counted {
                lp += step_lp;
            }
        }
        lp
    }

    /// Builds the deduplicated ancestor structures for `concept`.
    fn context_slots(
        &self,
        index: &OntologyIndex,
        concept: ConceptId,
    ) -> (Vec<Vec<u32>>, Vec<usize>) {
        let mut unique_ids: Vec<ConceptId> = Vec::new();
        let mut slot_map = Vec::new();
        for &anc in index.context(concept) {
            let pos = match unique_ids.iter().position(|&u| u == anc) {
                Some(p) => p,
                None => {
                    unique_ids.push(anc);
                    unique_ids.len() - 1
                }
            };
            slot_map.push(pos);
        }
        let anc_ids = unique_ids
            .iter()
            .map(|&a| index.tokens(a).to_vec())
            .collect();
        (anc_ids, slot_map)
    }

    /// One full forward pass for the pair (concept, target word sequence).
    ///
    /// The decoder consumes `⟨BOS, target…⟩` and predicts
    /// `⟨target…, EOS⟩`, so `p(q|c)` is a proper distribution over
    /// variable-length queries (Eq. 3 needs the terminal step).
    pub(crate) fn run_example(
        &self,
        index: &OntologyIndex,
        concept: ConceptId,
        target: &[u32],
    ) -> ExampleRun {
        self.run_example_with_noise(index, concept, target, None)
    }

    /// [`ComAid::run_example`], optionally with a shared noise-word set:
    /// when `noise` is `Some`, each step's softmax is computed over
    /// `{target_t} ∪ noise` only (sampled softmax, the BlackOut-style
    /// speed-up of Appendix B.2). Scoring callers always pass `None` —
    /// the sampled probability is a biased estimate used for training
    /// only.
    pub(crate) fn run_example_with_noise(
        &self,
        index: &OntologyIndex,
        concept: ConceptId,
        target: &[u32],
        noise: Option<&[u32]>,
    ) -> ExampleRun {
        let d = self.config.dim;
        let zero = Vector::zeros(d);

        // 1. Encode the concept's canonical description.
        let enc_ids: Vec<u32> = index.tokens(concept).to_vec();
        let enc_xs = self.embedding.lookup_seq(&enc_ids);
        let enc_tape = self.encoder.forward_seq(&enc_xs, &zero, &zero);

        // 2. Encode the structural context (unique ancestors once).
        let (anc_ids, slot_map) = if self.config.variant.uses_struct() {
            self.context_slots(index, concept)
        } else {
            (Vec::new(), Vec::new())
        };
        let anc_tapes: Vec<LstmTape> = anc_ids
            .iter()
            .map(|ids| {
                let xs = self.embedding.lookup_seq(ids);
                self.encoder.forward_seq(&xs, &zero, &zero)
            })
            .collect();
        let struct_memory: Vec<Vector> = slot_map
            .iter()
            .map(|&u| anc_tapes[u].final_h().clone())
            .collect();

        // 3. Decode the target query, seeded by the concept representation
        //    (`s_0 = h_n^c`, §4.1.2) and the encoder's final cell.
        let mut dec_input_ids = Vec::with_capacity(target.len() + 1);
        dec_input_ids.push(Vocab::BOS);
        dec_input_ids.extend_from_slice(target);
        let mut targets = target.to_vec();
        targets.push(Vocab::EOS);

        let dec_xs = self.embedding.lookup_seq(&dec_input_ids);
        let dec_tape = self
            .decoder
            .forward_seq(&dec_xs, enc_tape.final_h(), enc_tape.final_c());

        // 4. Attention + composite + softmax per step.
        let use_text = self.config.variant.uses_text() && !enc_tape.is_empty();
        let use_struct = self.config.variant.uses_struct() && !struct_memory.is_empty();
        let mut steps = Vec::with_capacity(targets.len());
        let mut step_log_probs = Vec::with_capacity(targets.len());
        let mut last_logits = Vector::zeros(0);
        let mut loss = 0.0f32;
        let mut log_prob = 0.0f32;
        for (t, &target_word) in targets.iter().enumerate() {
            let s_t = &dec_tape.hs[t];
            let mut comp_in = Vec::with_capacity(self.composite.in_dim());
            comp_in.extend_from_slice(s_t.as_slice());
            let text_att = if use_text {
                let (tc, cache) = self.attention.forward(&enc_tape.hs, s_t);
                comp_in.extend_from_slice(tc.as_slice());
                Some(cache)
            } else {
                if self.config.variant.uses_text() {
                    comp_in.extend_from_slice(zero.as_slice());
                }
                None
            };
            let struct_att = if use_struct {
                let (sc, cache) = self.attention.forward(&struct_memory, s_t);
                comp_in.extend_from_slice(sc.as_slice());
                Some(cache)
            } else {
                if self.config.variant.uses_struct() {
                    comp_in.extend_from_slice(zero.as_slice());
                }
                None
            };
            let comp_in = Vector::from_vec(comp_in);
            let (s_tilde, comp_cache) = self.composite.forward(&comp_in);
            let (nll, out_cache, logits) = match noise {
                None => {
                    let (logits, cache) = self.output.forward(&s_tilde);
                    let nll = softmax_loss::forward(&logits, target_word as usize);
                    (nll, OutCache::Full(cache), logits)
                }
                Some(noise_words) => {
                    // Rows: target first, then the noise words that
                    // differ from it.
                    let mut rows: Vec<usize> = Vec::with_capacity(noise_words.len() + 1);
                    rows.push(target_word as usize);
                    rows.extend(
                        noise_words
                            .iter()
                            .filter(|&&w| w != target_word)
                            .map(|&w| w as usize),
                    );
                    let (logits, cache) = self.output.forward_rows(&s_tilde, &rows);
                    let nll = softmax_loss::forward(&logits, 0);
                    (nll, OutCache::Rows(cache), logits)
                }
            };
            last_logits = logits;
            loss += nll.loss;
            log_prob += nll.log_prob;
            step_log_probs.push(nll.log_prob);
            steps.push(StepRun {
                comp_cache,
                out_cache,
                nll,
                text_att,
                struct_att,
            });
        }

        ExampleRun {
            loss,
            log_prob,
            step_log_probs,
            last_logits,
            enc_ids,
            enc_tape,
            anc_ids,
            anc_tapes,
            slot_map,
            struct_memory,
            dec_input_ids,
            dec_tape,
            targets,
            steps,
        }
    }

    /// Back-propagates one example, accumulating parameter gradients
    /// scaled by `scale` (the `1/|batch|` of Eq. 10's average).
    pub(crate) fn backward_example(&mut self, run: &ExampleRun, scale: f32) {
        let d = self.config.dim;
        let n_enc = run.enc_tape.len();
        let n_dec = run.dec_tape.len();
        let mut dhs_dec = vec![Vector::zeros(d); n_dec];
        let mut dhs_enc = vec![Vector::zeros(d); n_enc];
        let mut d_anc_final = vec![Vector::zeros(d); run.anc_tapes.len()];

        for (t, step) in run.steps.iter().enumerate() {
            let target = run.targets[t] as usize;
            let ds_tilde = match &step.out_cache {
                OutCache::Full(cache) => {
                    let dlogits = softmax_loss::backward(&step.nll, target, scale);
                    self.output.backward(cache, &dlogits)
                }
                OutCache::Rows(cache) => {
                    // Target sits at index 0 of the sampled rows.
                    let dlogits = softmax_loss::backward(&step.nll, 0, scale);
                    self.output.backward_rows(cache, &dlogits)
                }
            };
            let dcomp_in = self.composite.backward(&step.comp_cache, &ds_tilde);

            // Split the composite-input gradient back into its parts.
            let parts = dcomp_in.as_slice();
            let mut ds_t = Vector::from_slice(&parts[..d]);
            let mut offset = d;
            let s_t = &run.dec_tape.hs[t];
            if self.config.variant.uses_text() {
                if let Some(cache) = &step.text_att {
                    let dtc = Vector::from_slice(&parts[offset..offset + d]);
                    let (dmem, ds_att) =
                        self.attention.backward(&run.enc_tape.hs, s_t, cache, &dtc);
                    for (r, dm) in dmem.into_iter().enumerate() {
                        dhs_enc[r].add_assign(&dm);
                    }
                    ds_t.add_assign(&ds_att);
                }
                offset += d;
            }
            if self.config.variant.uses_struct() {
                if let Some(cache) = &step.struct_att {
                    let dsc = Vector::from_slice(&parts[offset..offset + d]);
                    let (dmem, ds_att) =
                        self.attention
                            .backward(&run.struct_memory, s_t, cache, &dsc);
                    for (slot, dm) in dmem.into_iter().enumerate() {
                        d_anc_final[run.slot_map[slot]].add_assign(&dm);
                    }
                    ds_t.add_assign(&ds_att);
                }
            }
            dhs_dec[t].add_assign(&ds_t);
        }

        // Through the decoder LSTM.
        let dec_grads = self.decoder.backward_seq(&run.dec_tape, &dhs_dec);
        self.embedding
            .accumulate_grad_seq(&run.dec_input_ids, &dec_grads.dxs);

        // Initial decoder state came from the encoder's final (h, c).
        if n_enc > 0 {
            dhs_enc[n_enc - 1].add_assign(&dec_grads.dh0);
            let enc_grads =
                self.encoder
                    .backward_seq_full(&run.enc_tape, &dhs_enc, Some(&dec_grads.dc0));
            self.embedding
                .accumulate_grad_seq(&run.enc_ids, &enc_grads.dxs);
        }

        // Through each unique ancestor encoding.
        for (u, tape) in run.anc_tapes.iter().enumerate() {
            let n = tape.len();
            if n == 0 || d_anc_final[u].norm() == 0.0 {
                continue;
            }
            let mut dhs = vec![Vector::zeros(d); n];
            dhs[n - 1] = d_anc_final[u].clone();
            let grads = self.encoder.backward_seq(tape, &dhs);
            self.embedding
                .accumulate_grad_seq(&run.anc_ids[u], &grads.dxs);
        }
    }

    /// Registers `Θ` — all trainable tensors (§4.2: "the word embeddings
    /// and the concept representations in the neural networks are also
    /// updated", the latter implicitly through the encoder). The training
    /// hot loop uses the allocation-free [`Self::visit_params`] instead;
    /// this borrow-holding form remains for the gradient checker.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn collect_params<'a>(&'a mut self, set: &mut ParamSet<'a>) {
        set.add("embedding", &mut self.embedding);
        self.encoder.collect_params(set);
        self.decoder.collect_params(set);
        self.composite.collect_params(set);
        self.output.collect_params(set);
    }

    /// Visits `Θ` in [`Self::collect_params`] order without building a
    /// `ParamSet` — the allocation-free walk used by the training hot
    /// loop (a `ParamSet` would hold `&mut self` across forward passes).
    pub(crate) fn visit_params(&mut self, f: &mut dyn FnMut(&'static str, &mut dyn Parameter)) {
        f("embedding", &mut self.embedding);
        self.encoder.visit_params(f);
        self.decoder.visit_params(f);
        self.composite.visit_params(f);
        self.output.visit_params(f);
    }

    /// One SGD update over `Θ` with global gradient-norm clipping,
    /// bitwise identical to `Sgd::new(lr, clip).step` over
    /// [`Self::collect_params`] (same walk order, same clip arithmetic)
    /// but with no per-step allocation. Returns the pre-clip norm.
    pub(crate) fn sgd_step(&mut self, lr: f32, clip: f32) -> f32 {
        let mut sq = 0.0f32;
        self.visit_params(&mut |_, p| sq += p.sq_grad_norm());
        let norm = sq.sqrt();
        let factor = if norm > clip && norm > 0.0 {
            clip / norm
        } else {
            1.0
        };
        self.visit_params(&mut |_, p| {
            if factor != 1.0 {
                p.scale_grad(factor);
            }
            p.step(lr);
            p.zero_grad();
        });
        norm
    }

    /// Drains `donor`'s accumulated gradients into this model, layer by
    /// layer in `collect_params` order (the shard-merge step of the
    /// data-parallel trainer). Embedding rows merge sparsely.
    pub(crate) fn merge_grads_from(&mut self, donor: &mut ComAid) {
        Parameter::merge_grad_from(&mut self.embedding, &mut donor.embedding);
        self.encoder.merge_grads_from(&mut donor.encoder);
        self.decoder.merge_grads_from(&mut donor.decoder);
        self.composite.merge_grads_from(&mut donor.composite);
        self.output.merge_grads_from(&mut donor.output);
    }

    /// Overwrites all parameter values with `src`'s (replica sync before
    /// a shard's forward/backward pass). Gradients are untouched.
    pub(crate) fn sync_values_from(&mut self, src: &ComAid) {
        self.embedding.copy_values_from(&src.embedding);
        self.encoder.copy_values_from(&src.encoder);
        self.decoder.copy_values_from(&src.decoder);
        self.composite.copy_values_from(&src.composite);
        self.output.copy_values_from(&src.output);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ComAidConfig, Variant};
    use super::*;
    use ncl_nn::gradcheck::check_params;
    use ncl_ontology::{Ontology, OntologyBuilder};

    fn tiny_world() -> (Ontology, Vocab) {
        let mut b = OntologyBuilder::new();
        let n18 = b.add_root_concept("N18", "chronic kidney disease");
        b.add_child(n18, "N18.5", "chronic kidney disease stage 5");
        b.add_child(n18, "N18.9", "chronic kidney disease unspecified");
        let r10 = b.add_root_concept("R10", "abdominal pain");
        b.add_child(r10, "R10.0", "acute abdomen");
        let o = b.build().unwrap();
        let mut v = Vocab::new();
        for (_, c) in o.iter() {
            for t in tokenize(&c.canonical) {
                v.add(&t);
            }
        }
        v.add("ckd");
        (o, v)
    }

    fn tiny_model(variant: Variant, vocab: Vocab) -> ComAid {
        let config = ComAidConfig {
            dim: 6,
            beta: 2,
            variant,
            seed: 11,
            ..ComAidConfig::tiny()
        };
        ComAid::new(vocab, config, None)
    }

    #[test]
    fn log_prob_is_finite_and_negative() {
        let (o, v) = tiny_world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let m = tiny_model(Variant::Full, v);
        let c = o.by_code("N18.5").unwrap();
        let target = m.encode_text("ckd stage 5");
        let lp = m.log_prob_ids(&idx, c, &target);
        assert!(lp.is_finite());
        assert!(lp < 0.0);
    }

    #[test]
    fn empty_target_scores_eos_only() {
        let (o, v) = tiny_world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let m = tiny_model(Variant::Full, v);
        let c = o.by_code("R10.0").unwrap();
        let lp = m.log_prob_ids(&idx, c, &[]);
        assert!(lp.is_finite());
    }

    #[test]
    fn all_variants_run() {
        let (o, v) = tiny_world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let c = o.by_code("N18.9").unwrap();
        for &variant in Variant::ALL {
            let m = tiny_model(variant, v.clone());
            let target = m.encode_text("ckd unspecified");
            let lp = m.log_prob_ids(&idx, c, &target);
            assert!(lp.is_finite(), "{variant:?} produced non-finite score");
        }
    }

    #[test]
    fn concept_representation_has_model_dim() {
        let (o, v) = tiny_world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let m = tiny_model(Variant::Full, v);
        let c = o.by_code("N18.5").unwrap();
        let rep = m.concept_representation(&idx, c);
        assert_eq!(rep.len(), 6);
        assert!(rep.is_finite());
        // Different concepts get different representations.
        let c2 = o.by_code("R10.0").unwrap();
        let rep2 = m.concept_representation(&idx, c2);
        assert_ne!(rep.as_slice(), rep2.as_slice());
    }

    #[test]
    fn pretrained_embeddings_are_used() {
        let (o, v) = tiny_world();
        let d = 6;
        let table = Matrix::from_vec(
            v.len(),
            d,
            (0..v.len() * d).map(|i| (i % 7) as f32 * 0.01).collect(),
        );
        let config = ComAidConfig {
            dim: d,
            seed: 1,
            ..ComAidConfig::tiny()
        };
        let m = ComAid::new(v.clone(), config, Some(&table));
        let id = v.get("chronic").unwrap();
        assert_eq!(m.embedding().lookup(id).as_slice(), table.row(id as usize));
        let _ = o;
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn pretrained_wrong_dim_panics() {
        let (_, v) = tiny_world();
        let table = Matrix::zeros(v.len(), 3);
        let config = ComAidConfig {
            dim: 6,
            ..ComAidConfig::tiny()
        };
        let _ = ComAid::new(v, config, Some(&table));
    }

    /// The sampled-softmax training path must also be exactly
    /// differentiable: with a *fixed* noise set the loss is
    /// deterministic, so finite differences apply.
    #[test]
    fn sampled_softmax_gradients_match_finite_differences() {
        let (o, v) = tiny_world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let mut m = tiny_model(Variant::Full, v);
        let c = o.by_code("N18.5").unwrap();
        let target = m.encode_text("ckd stage 5");
        let noise: Vec<u32> = vec![4, 6, 8, 10];

        let run = m.run_example_with_noise(&idx, c, &target, Some(&noise));
        m.backward_example(&run, 1.0);

        check_params(
            &mut m,
            |m| {
                m.run_example_with_noise(&idx, c, &target, Some(&noise))
                    .loss
            },
            |m, set| m.collect_params(set),
            2e-2,
            5e-2,
        );
    }

    /// The decisive correctness test: the analytic gradient of the full
    /// COM-AID loss (encoder + ancestors + decoder + both attentions +
    /// composite + softmax + embeddings) matches finite differences, for
    /// every architecture variant.
    #[test]
    fn full_model_gradients_match_finite_differences() {
        for &variant in Variant::ALL {
            let (o, v) = tiny_world();
            let idx = OntologyIndex::build(&o, &v, 2);
            let mut m = tiny_model(variant, v);
            let c = o.by_code("N18.5").unwrap();
            let target = m.encode_text("ckd stage 5");

            let run = m.run_example(&idx, c, &target);
            m.backward_example(&run, 1.0);

            check_params(
                &mut m,
                |m| m.run_example(&idx, c, &target).loss,
                |m, set| m.collect_params(set),
                2e-2,
                5e-2,
            );
        }
    }
}
