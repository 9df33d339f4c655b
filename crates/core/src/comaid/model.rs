//! The COM-AID network: forward and backward passes.

use super::{ComAidConfig, OntologyIndex};
use ncl_nn::dense::{Activation, Dense};
use ncl_nn::lstm::{LstmPlan, LstmTape, SeqGrads};
use ncl_nn::param::{HasParams, ParamSet, Parameter};
use ncl_nn::softmax_loss;
use ncl_nn::{DotAttention, Embedding, Lstm};
use ncl_ontology::ConceptId;
use ncl_tensor::vector::dot;
use ncl_tensor::wire::{Reader, Wire, WireError};
use ncl_tensor::{simd, Matrix, Vector};
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
/// fails loudly instead of panicking mid-inference, and refuses a
/// parameter section holding a non-finite value by name
/// ([`WireError::NonFinite`]) instead of serving NaN scores from it.
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
        fn lstm(l: &Lstm) -> [&[f32]; 3] {
            [l.w.v.as_slice(), l.u.v.as_slice(), l.b.v.as_slice()]
        }
        fn dense(l: &Dense) -> [&[f32]; 2] {
            [l.w.v.as_slice(), l.b.v.as_slice()]
        }
        for (section, tensors) in [
            ("embedding", &[embedding.table().as_slice()][..]),
            ("encoder", &lstm(&encoder)),
            ("decoder", &lstm(&decoder)),
            ("composite", &dense(&composite)),
            ("output", &dense(&output)),
        ] {
            if !tensors.iter().flat_map(|t| t.iter()).all(|v| v.is_finite()) {
                return Err(WireError::NonFinite { section });
            }
        }

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

/// The transposed, gate-fused layout of a model's weights that every
/// forward pass reads: both LSTMs' [`LstmPlan`]s (the fused `4d`-wide
/// `Wᵀ` and `Uᵀ` and the concatenated biases) and the composite and
/// output layers' transposed weights — ≈ 52k floats at `d = 32` over
/// 1,017 words, most of them the output layer's.
///
/// One type for training and serving: [`ComAid::fit_epochs`] builds one
/// before every batch and all of the batch's shards read it, and a
/// [`ConceptCache`](super::ConceptCache) keeps the one it was frozen
/// with. It is an explicit value, not state inside the layers: it holds
/// copies, so it goes stale when the parameters change, and whoever
/// holds one rebuilds it after an update (the trainer after every
/// optimizer step, the cache through its version counter). Every
/// product over it is bit-identical to the row-major one over the
/// parameters (the [`ncl_tensor::simd`] contract).
#[derive(Debug, Clone)]
pub struct ComAidPlan {
    pub(crate) encoder: LstmPlan,
    pub(crate) decoder: LstmPlan,
    /// `W_d` transposed, `comp_in × d`.
    pub(crate) composite_wt: Matrix,
    /// `W_s` transposed, `d × |V|`.
    pub(crate) output_wt: Matrix,
}

impl ComAidPlan {
    /// Number of `f32`s the plan holds.
    pub fn memory_floats(&self) -> usize {
        self.encoder.memory_floats()
            + self.decoder.memory_floats()
            + self.composite_wt.rows() * self.composite_wt.cols()
            + self.output_wt.rows() * self.output_wt.cols()
    }
}

/// Everything one forward pass records and the backward pass consumes:
/// the three kinds of LSTM tape plus one flat slab per decoder-step
/// quantity (`T` rows each), which is what the sequence kernels read.
/// The backward scratch lives here too, so a run is reusable —
/// `run_shard` hands each example the previous example's buffers, and a
/// steady-state training example allocates nothing.
#[derive(Default)]
pub(crate) struct ExampleRun {
    /// Total loss `−log p(q|c)` summed over decoder steps.
    pub loss: f32,
    /// `log p(q|c)` (= −loss), the ranking score of §5 Phase II.
    pub log_prob: f32,
    /// Per-step `log p(w_t | w_<t, c)` (last entry is the EOS step).
    pub step_log_probs: Vec<f32>,
    enc_ids: Vec<u32>,
    enc_tape: LstmTape,
    /// Unique ancestor encodings (structural context, deduplicated): the
    /// concepts, their word ids end to end, and one tape each. Only the
    /// first `unique.len()` tapes belong to this example.
    unique: Vec<ConceptId>,
    anc_ids: Vec<u32>,
    anc_tapes: Vec<LstmTape>,
    /// Maps each of the β context slots to its unique ancestor.
    slot_map: Vec<usize>,
    /// Ancestor representations per slot (the attention memory of
    /// Eq. 7), `slots × d`.
    struct_memory: Vec<f32>,
    dec_input_ids: Vec<u32>,
    dec_tape: LstmTape,
    targets: Vec<u32>,
    /// Memory rows the textual / structural attention ran over (0 when
    /// the variant, or an empty memory, disables it).
    n_text: usize,
    n_struct: usize,
    /// Attention weights `α` (Eq. 5) and `α'` (Eq. 7), `T × n_text` and
    /// `T × n_struct`.
    text_alpha: Vec<f32>,
    struct_alpha: Vec<f32>,
    /// Composite-layer inputs `[s_t ‖ tc_t ‖ sc_t]` and outputs `s̃_t`.
    comp_in: Vec<f32>,
    s_tilde: Vec<f32>,
    /// `T × |V|`: the output layer's logits, turned into probabilities
    /// in place by the loss and into `d logits` in place by the backward
    /// pass.
    probs: Vec<f32>,
    /// Embedding rows of the sequence being encoded, and a zero state.
    xs: Vec<f32>,
    zero: Vec<f32>,
    bwd: BackwardScratch,
}

/// Buffers of [`ComAid::backward_example`], kept across examples.
#[derive(Default)]
struct BackwardScratch {
    ds_tilde: Vec<f32>,
    dcomp_in: Vec<f32>,
    dhs_dec: Vec<f32>,
    dhs_enc: Vec<f32>,
    dhs_anc: Vec<f32>,
    d_anc_final: Vec<f32>,
    /// One step's `ds_t`, and the attention backward's outputs.
    ds_t: Vec<f32>,
    ds_att: Vec<f32>,
    de: Vec<f32>,
    dmem: Vec<f32>,
    dec_grads: SeqGrads,
    enc_grads: SeqGrads,
}

/// `v` as `len` zeros, keeping its allocation.
fn zeroed(v: &mut Vec<f32>, len: usize) -> &mut [f32] {
    v.clear();
    v.resize(len, 0.0);
    v
}

impl ExampleRun {
    /// Decoder steps of the run (query words plus the EOS step).
    pub(crate) fn steps(&self) -> usize {
        self.targets.len()
    }

    /// The word predicted at step `t`; `None` for the terminal EOS step.
    pub(crate) fn target(&self, t: usize) -> Option<u32> {
        (t + 1 < self.steps()).then(|| self.targets[t])
    }

    /// Textual attention weights `α_t·` of step `t` (Eq. 5); empty when
    /// the textual attention did not run.
    pub(crate) fn text_weights(&self, t: usize) -> &[f32] {
        &self.text_alpha[t * self.n_text..(t + 1) * self.n_text]
    }

    /// Structural attention weights `α'_t·` of step `t` (Eq. 7); empty
    /// when the structural attention did not run.
    pub(crate) fn struct_weights(&self, t: usize) -> &[f32] {
        &self.struct_alpha[t * self.n_struct..(t + 1) * self.n_struct]
    }

    /// The composite state `s̃` of the final decoder step — what the
    /// output layer turns into the distribution over the word *after*
    /// the decoded prefix (the EOS position during scoring).
    pub(crate) fn last_s_tilde(&self) -> &[f32] {
        let d = self.s_tilde.len() / self.steps();
        &self.s_tilde[self.s_tilde.len() - d..]
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

    /// Packs the current parameters into a [`ComAidPlan`]: one
    /// transpose of every weight matrix the forward pass reads,
    /// O(`|Θ|` − embeddings) copies. Build one per batch, freeze or
    /// request, not per example.
    pub fn plan(&self) -> ComAidPlan {
        ComAidPlan {
            encoder: self.encoder.plan(),
            decoder: self.decoder.plan(),
            composite_wt: self.composite.weight_t(),
            output_wt: self.output.weight_t(),
        }
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
        let mut xs = Vec::new();
        self.embedding.lookup_rows_into(ids, &mut xs);
        let zero = vec![0.0; self.config.dim];
        let mut tape = LstmTape::default();
        self.encoder
            .forward_seq(&xs, ids.len(), &zero, &zero, &mut tape);
        Vector::from_slice(tape.final_h())
    }

    /// `log p(q|c; Θ)` for arbitrary target word ids (Eq. 3); the linker
    /// ranks candidates by this score, and `Loss = −log p` feeds the
    /// feedback controller (Appendix A).
    pub fn log_prob_ids(&self, index: &OntologyIndex, concept: ConceptId, target: &[u32]) -> f32 {
        self.run_example(&self.plan(), index, concept, target)
            .log_prob
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
        let run = self.run_example(&self.plan(), index, concept, target);
        let mut lp = 0.0f32;
        for (t, step_lp) in run.step_log_probs.iter().enumerate() {
            let counted = count.get(t).copied().unwrap_or(true); // EOS step
            if counted {
                lp += step_lp;
            }
        }
        lp
    }

    /// One full forward pass for the pair (concept, target word sequence)
    /// under the exact softmax — the uncached scoring reference. `plan`
    /// must be [`ComAid::plan`] of the current parameters.
    pub(crate) fn run_example(
        &self,
        plan: &ComAidPlan,
        index: &OntologyIndex,
        concept: ConceptId,
        target: &[u32],
    ) -> ExampleRun {
        let mut run = ExampleRun::default();
        self.run_example_into(plan, index, concept, target, &mut run);
        run
    }

    /// One full forward pass for the pair (concept, target word
    /// sequence), recorded into `run` (overwritten; its buffers are
    /// reused). The one taped path: training, feedback retraining and
    /// uncached scoring all come through here. Every weight product
    /// reads `plan`, which must be [`ComAid::plan`] of the current
    /// parameters; the embeddings are read from the model.
    ///
    /// The decoder consumes `⟨BOS, target…⟩` and predicts
    /// `⟨target…, EOS⟩`, so `p(q|c)` is a proper distribution over
    /// variable-length queries (Eq. 3 needs the terminal step).
    ///
    /// Only the recurrences and the attentions (which read the decoder
    /// state of their own step) run step by step; the LSTM input
    /// projections, the composite layer and the output layer are each
    /// one call over the whole sequence (DESIGN.md §10).
    pub(crate) fn run_example_into(
        &self,
        plan: &ComAidPlan,
        index: &OntologyIndex,
        concept: ConceptId,
        target: &[u32],
        run: &mut ExampleRun,
    ) {
        let d = self.config.dim;
        zeroed(&mut run.zero, d);

        // 1. Encode the concept's canonical description.
        run.enc_ids.clear();
        run.enc_ids.extend_from_slice(index.tokens(concept));
        self.embedding.lookup_rows_into(&run.enc_ids, &mut run.xs);
        let n_enc = run.enc_ids.len();
        plan.encoder
            .forward_seq(&run.xs, n_enc, &run.zero, &run.zero, &mut run.enc_tape);

        // 2. Encode the structural context (unique ancestors once).
        run.unique.clear();
        run.slot_map.clear();
        run.anc_ids.clear();
        run.struct_memory.clear();
        if self.config.variant.uses_struct() {
            for &anc in index.context(concept) {
                let pos = match run.unique.iter().position(|&u| u == anc) {
                    Some(p) => p,
                    None => {
                        run.unique.push(anc);
                        run.unique.len() - 1
                    }
                };
                run.slot_map.push(pos);
            }
        }
        if run.anc_tapes.len() < run.unique.len() {
            run.anc_tapes
                .resize_with(run.unique.len(), LstmTape::default);
        }
        for (&anc, tape) in run.unique.iter().zip(&mut run.anc_tapes) {
            let ids = index.tokens(anc);
            run.anc_ids.extend_from_slice(ids);
            self.embedding.lookup_rows_into(ids, &mut run.xs);
            plan.encoder
                .forward_seq(&run.xs, ids.len(), &run.zero, &run.zero, tape);
        }
        for &u in &run.slot_map {
            run.struct_memory
                .extend_from_slice(run.anc_tapes[u].final_h());
        }

        // 3. Decode the target query, seeded by the concept representation
        //    (`s_0 = h_n^c`, §4.1.2) and the encoder's final cell.
        run.dec_input_ids.clear();
        run.dec_input_ids.push(Vocab::BOS);
        run.dec_input_ids.extend_from_slice(target);
        run.targets.clear();
        run.targets.extend_from_slice(target);
        run.targets.push(Vocab::EOS);
        let t_len = run.targets.len();

        self.embedding
            .lookup_rows_into(&run.dec_input_ids, &mut run.xs);
        plan.decoder.forward_seq(
            &run.xs,
            t_len,
            run.enc_tape.final_h(),
            run.enc_tape.final_c(),
            &mut run.dec_tape,
        );

        // 4. The attentions, step by step, straight into the rows
        //    `[s_t ‖ tc_t ‖ sc_t]` of the composite layer's input slab; a
        //    context the variant keeps but has no memory for stays zero.
        run.n_text = if self.config.variant.uses_text() {
            n_enc
        } else {
            0
        };
        run.n_struct = run.slot_map.len();
        let width = self.composite.in_dim();
        zeroed(&mut run.comp_in, t_len * width);
        run.text_alpha.resize(t_len * run.n_text, 0.0);
        run.struct_alpha.resize(t_len * run.n_struct, 0.0);
        for (t, row) in run.comp_in.chunks_exact_mut(width).enumerate() {
            let s_t = &run.dec_tape.hs()[t * d..(t + 1) * d];
            row[..d].copy_from_slice(s_t);
            if run.n_text > 0 {
                self.attention.attend_into(
                    run.enc_tape.hs().chunks_exact(d),
                    s_t,
                    &mut run.text_alpha[t * run.n_text..(t + 1) * run.n_text],
                    &mut row[d..2 * d],
                );
            }
            if run.n_struct > 0 {
                self.attention.attend_into(
                    run.struct_memory.chunks_exact(d),
                    s_t,
                    &mut run.struct_alpha[t * run.n_struct..(t + 1) * run.n_struct],
                    // `sc_t` is the row's last block, after `tc_t` if any.
                    &mut row[width - d..],
                );
            }
        }

        // 5. Composite layer, output layer and loss, each over all steps.
        run.s_tilde.resize(t_len * d, 0.0);
        self.composite.forward_seq_with_t(
            &plan.composite_wt,
            &run.comp_in,
            &mut run.s_tilde,
            t_len,
        );
        run.step_log_probs.resize(t_len, 0.0);
        run.probs.resize(t_len * self.output.out_dim(), 0.0);
        self.output
            .forward_seq_with_t(&plan.output_wt, &run.s_tilde, &mut run.probs, t_len);
        softmax_loss::forward_seq(&mut run.probs, &run.targets, &mut run.step_log_probs);
        run.loss = 0.0;
        run.log_prob = 0.0;
        for &lp in &run.step_log_probs {
            run.loss += -lp;
            run.log_prob += lp;
        }
    }

    /// Back-propagates one example, accumulating parameter gradients
    /// scaled by `scale` (the `1/|batch|` of Eq. 10's average). Consumes
    /// the run's probabilities in place.
    ///
    /// Mirrors the forward pass: output layer, then composite layer,
    /// each once over all steps (their gradients take their terms `t`
    /// ascending); the attentions step by step; then the decoder, the
    /// encoder and each unique ancestor through
    /// [`Lstm::backward_seq_full`], in that order.
    pub(crate) fn backward_example(&mut self, run: &mut ExampleRun, scale: f32) {
        let d = self.config.dim;
        let t_len = run.steps();
        let n_enc = run.enc_tape.len();
        let bwd = &mut run.bwd;

        bwd.ds_tilde.resize(t_len * d, 0.0);
        softmax_loss::backward_seq(&mut run.probs, &run.targets, scale);
        self.output
            .backward_seq(&run.s_tilde, &[], &mut run.probs, &mut bwd.ds_tilde, t_len);
        let width = self.composite.in_dim();
        bwd.dcomp_in.resize(t_len * width, 0.0);
        self.composite.backward_seq(
            &run.comp_in,
            &run.s_tilde,
            &mut bwd.ds_tilde,
            &mut bwd.dcomp_in,
            t_len,
        );

        // Split each composite-input gradient back into its parts.
        zeroed(&mut bwd.dhs_dec, t_len * d);
        zeroed(&mut bwd.dhs_enc, n_enc * d);
        zeroed(&mut bwd.d_anc_final, run.unique.len() * d);
        bwd.ds_t.resize(d, 0.0);
        bwd.ds_att.resize(d, 0.0);
        let (n_text, n_struct) = (run.n_text, run.n_struct);
        bwd.de.resize(n_text.max(n_struct), 0.0);
        bwd.dmem.resize(n_text.max(n_struct) * d, 0.0);
        for (t, parts) in bwd.dcomp_in.chunks_exact(width).enumerate() {
            let at = t * d..(t + 1) * d;
            let s_t = &run.dec_tape.hs()[at.clone()];
            bwd.ds_t.copy_from_slice(&parts[..d]);
            if n_text > 0 {
                self.attention.backward_into(
                    run.enc_tape.hs().chunks_exact(d),
                    s_t,
                    &run.text_alpha[t * n_text..(t + 1) * n_text],
                    &parts[d..2 * d],
                    &mut bwd.de[..n_text],
                    &mut bwd.dmem[..n_text * d],
                    &mut bwd.ds_att,
                );
                simd::add_assign(&mut bwd.dhs_enc, &bwd.dmem[..n_text * d]);
                simd::add_assign(&mut bwd.ds_t, &bwd.ds_att);
            }
            if n_struct > 0 {
                self.attention.backward_into(
                    run.struct_memory.chunks_exact(d),
                    s_t,
                    &run.struct_alpha[t * n_struct..(t + 1) * n_struct],
                    &parts[width - d..],
                    &mut bwd.de[..n_struct],
                    &mut bwd.dmem[..n_struct * d],
                    &mut bwd.ds_att,
                );
                for (&u, dm) in run.slot_map.iter().zip(bwd.dmem.chunks_exact(d)) {
                    simd::add_assign(&mut bwd.d_anc_final[u * d..(u + 1) * d], dm);
                }
                simd::add_assign(&mut bwd.ds_t, &bwd.ds_att);
            }
            simd::add_assign(&mut bwd.dhs_dec[at], &bwd.ds_t);
        }

        // Through the decoder LSTM.
        self.decoder
            .backward_seq(&run.dec_tape, &bwd.dhs_dec, &mut bwd.dec_grads);
        self.embedding
            .accumulate_grad_rows(&run.dec_input_ids, &bwd.dec_grads.dxs);

        // Initial decoder state came from the encoder's final (h, c).
        if n_enc > 0 {
            simd::add_assign(&mut bwd.dhs_enc[(n_enc - 1) * d..], &bwd.dec_grads.dh0);
            self.encoder.backward_seq_full(
                &run.enc_tape,
                &bwd.dhs_enc,
                Some(&bwd.dec_grads.dc0),
                &mut bwd.enc_grads,
            );
            self.embedding
                .accumulate_grad_rows(&run.enc_ids, &bwd.enc_grads.dxs);
        }

        // Through each unique ancestor encoding.
        let mut first_id = 0;
        for (tape, d_final) in run.anc_tapes.iter().zip(bwd.d_anc_final.chunks_exact(d)) {
            let n = tape.len();
            let ids = &run.anc_ids[first_id..first_id + n];
            first_id += n;
            if n == 0 || dot(d_final, d_final).sqrt() == 0.0 {
                continue;
            }
            zeroed(&mut bwd.dhs_anc, n * d)[(n - 1) * d..].copy_from_slice(d_final);
            self.encoder
                .backward_seq(tape, &bwd.dhs_anc, &mut bwd.enc_grads);
            self.embedding.accumulate_grad_rows(ids, &bwd.enc_grads.dxs);
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

            let mut run = m.run_example(&m.plan(), &idx, c, &target);
            m.backward_example(&mut run, 1.0);

            check_params(
                &mut m,
                |m| m.run_example(&m.plan(), &idx, c, &target).loss,
                |m, set| m.collect_params(set),
                2e-2,
                5e-2,
            );
        }
    }
}
