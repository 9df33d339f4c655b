//! Frozen-model serving cache.
//!
//! At serving time the model parameters are fixed, so everything Phase II
//! recomputes per query *about the concepts* is loop-invariant: the
//! encoder states `h_1..h_n^c` of every candidate's canonical description
//! (the textual attention memory of Eq. 5), the final state `h_n^c` that
//! seeds the decoder (`s_0 = h_n^c`, §4.1.2) together with the final
//! cell, and the β ancestor encodings forming the structural attention
//! memory (Eq. 7). A [`ConceptCache`] computes all of it once per
//! ontology chapter — on the first request that scores a candidate in
//! the chapter, or ahead of traffic through [`ConceptCache::warm`] —
//! and online scoring then only runs the decoder over the query.
//!
//! The freeze itself shares work exactly. The encoder starts every
//! description from the zero state, so its state after a token prefix is
//! a function of that prefix alone, and ICD-style descriptions extend
//! their parent's: each shard walks its descriptions through a prefix
//! trie and runs an encoder step only for a prefix it has not met
//! (`CacheMemoryReport::encoder_share_ratio`). Inside a step the input
//! half `b + W·x` of the gate pre-activations depends on the input alone
//! ([`LstmPlan::project_input`]), so the freeze projects each word id
//! once per shard and scoring projects each query word once per request
//! instead of once per candidate. Both reuse the very values the
//! unshared computation would produce, so neither can move a bit.
//!
//! Two invariants make the cache safe and exact:
//!
//! - **Bit identity.** Cached scoring reuses the very kernels of the
//!   uncached forward pass (`gemv_acc` gates, the same attention, the
//!   same composite layer) in the same order, so `log p(q|c)` is
//!   bit-identical to [`ComAid::log_prob_ids_masked`] — asserted by
//!   tests, relied on by the linker.
//! - **Version coherence.** A cache remembers the parameter generation
//!   ([`ComAid::version`]) it was frozen from. Training bumps the
//!   generation and loading a checkpoint draws a fresh one, so a stale
//!   cache can never silently serve: every cached entry point checks
//!   [`ConceptCache::is_valid_for`] and falls back to the uncached path.

use super::{ComAid, OntologyIndex};
use ncl_nn::lstm::LstmPlan;
use ncl_nn::{softmax_loss, Embedding};
use ncl_ontology::ConceptId;
use ncl_tensor::ops::{log_softmax_at_slice, log_softmax_at_slice_relaxed, log_sum_exp_slice};
use ncl_tensor::{simd, Matrix, Vector};
use ncl_text::Vocab;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Storage tier of a [`ConceptCache`] (`LinkerConfig::cache_tier`).
///
/// `Exact` is the default and preserves the cache's founding guarantee:
/// cached scores are **bit-identical** to the uncached forward pass.
/// `Compact` trades that guarantee for memory — per-concept rows are
/// stored as bf16-style `u16` mantissa trims ([`simd::narrow_bf16`]),
/// duplicated ancestor blocks collapse to one shared row, and the
/// per-concept step-0 logits table (`|V|` floats per concept, the
/// dominant term at ontology scale) is dropped and recomputed per query.
/// Compact scores are epsilon-bounded, not bit-equal — flagged exactly
/// like `fast_math`: opt-in, deterministic at every dispatch level, and
/// reported by [`ConceptCache::tier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheTier {
    /// Full-precision rows, per-concept ancestor clones, frozen step-0
    /// logits: bit-identical cached scoring.
    #[default]
    Exact,
    /// bf16 rows + shared ancestor pool + recomputed step 0:
    /// epsilon-bounded scoring at a fraction of the resident bytes.
    Compact,
}

impl CacheTier {
    /// Short label for tables and logs (`"exact"` / `"compact"`).
    pub fn name(self) -> &'static str {
        match self {
            Self::Exact => "exact",
            Self::Compact => "compact",
        }
    }
}

/// Resident-size breakdown of a [`ConceptCache`]
/// ([`ConceptCache::memory_report`]), in bytes per component. The
/// numbers cover the shards frozen so far — `frozen_concepts` says how
/// much of the ontology that is.
#[derive(Debug, Clone, Copy)]
pub struct CacheMemoryReport {
    /// Storage tier the cache was frozen with.
    pub tier: CacheTier,
    /// Ontology nodes the cache covers when fully frozen (including the
    /// root slot).
    pub concepts: usize,
    /// Nodes in shards that are actually frozen (equals `concepts` after
    /// [`ConceptCache::warm`]).
    pub frozen_concepts: usize,
    /// Freeze shards (one per ontology chapter plus the root slot).
    pub shards: usize,
    /// Shards frozen so far.
    pub frozen_shards: usize,
    /// Encoder hidden-state rows `h_1..h_n^c` (f32 in `Exact`, bf16 in
    /// `Compact`).
    pub enc_state_bytes: usize,
    /// Structural attention memory: per-concept ancestor clones in
    /// `Exact`; the shared dedup'd row pool plus per-slot `u32` row
    /// references in `Compact`.
    pub ancestor_bytes: usize,
    /// Frozen post-BOS decoder states (`dec_h1`/`dec_c1`, f32 in both
    /// tiers).
    pub decoder_state_bytes: usize,
    /// Frozen step-0 logits and their log-sum-exp (`Exact` only —
    /// `Compact` recomputes step 0 per query).
    pub step0_bytes: usize,
    /// Transposed/fused weight plans (decoder serve plan, and the
    /// encoder plan once the first shard freeze has materialised it).
    pub plan_bytes: usize,
    /// Total ancestor slots across frozen nodes (β per non-root node).
    pub ancestor_slots: usize,
    /// Ancestor *rows actually stored* for those slots: equals
    /// `ancestor_slots` in `Exact` (cloned per slot), the dedup'd pool
    /// size in `Compact`.
    pub ancestor_rows_stored: usize,
    /// Distinct ancestor concepts behind those slots — the floor
    /// row-sharing can reach.
    pub ancestor_rows_unique: usize,
    /// Description tokens of the frozen nodes: the encoder steps a
    /// per-concept pass would run.
    pub encoder_tokens: usize,
    /// Encoder steps the freeze actually ran — one per distinct
    /// description prefix within a shard.
    pub encoder_steps_run: usize,
}

impl CacheMemoryReport {
    /// Total resident bytes, weight plans included.
    pub fn total_bytes(&self) -> usize {
        self.enc_state_bytes
            + self.ancestor_bytes
            + self.decoder_state_bytes
            + self.step0_bytes
            + self.plan_bytes
    }

    /// Per-concept resident bytes over the *frozen* nodes, excluding the
    /// weight plans (which are model-sized, not ontology-sized): the
    /// number that scales with `|C|` and the fig17 comparison metric.
    pub fn bytes_per_concept(&self) -> f64 {
        if self.frozen_concepts == 0 {
            return 0.0;
        }
        (self.enc_state_bytes + self.ancestor_bytes + self.decoder_state_bytes + self.step0_bytes)
            as f64
            / self.frozen_concepts as f64
    }

    /// `ancestor_slots / ancestor_rows_stored`: how many duplicated
    /// ancestor blocks each stored row serves (1.0 = no sharing).
    pub fn ancestor_dedup_ratio(&self) -> f64 {
        if self.ancestor_rows_stored == 0 {
            return 1.0;
        }
        self.ancestor_slots as f64 / self.ancestor_rows_stored as f64
    }

    /// `encoder_tokens / encoder_steps_run`: how many description tokens
    /// each encoder step served (1.0 = no two descriptions in a shard
    /// share a prefix).
    pub fn encoder_share_ratio(&self) -> f64 {
        if self.encoder_steps_run == 0 {
            return 1.0;
        }
        self.encoder_tokens as f64 / self.encoder_steps_run as f64
    }
}

/// SIMD-friendly weight layouts frozen alongside the per-concept states:
/// the decoder's fused gate plan plus the transposed composite and output
/// weights, so every online decoder step streams contiguous columns
/// ([`LstmPlan::step_projected`], `Dense::apply_with_t`/`apply_batch_with_t`)
/// instead of re-walking row-major matrices. Derived data at the same
/// parameter generation as the rest of the cache — the version counter
/// covers it.
#[derive(Debug, Clone)]
struct ServePlan {
    decoder: LstmPlan,
    composite_wt: Matrix,
    output_wt: Matrix,
}

impl ServePlan {
    fn memory_floats(&self) -> usize {
        self.decoder.memory_floats()
            + self.composite_wt.rows() * self.composite_wt.cols()
            + self.output_wt.rows() * self.output_wt.cols()
    }
}

/// Tier-specific per-node rows of one frozen shard, indexed by the
/// node's *local* position within the shard.
#[derive(Debug, Clone)]
enum ShardRows {
    /// Full-precision rows and the frozen step-0 table — the layout
    /// behind the bit-identity guarantee.
    Exact {
        /// `enc_hs[l]` = encoder hidden states `h_1..h_n^c` (the textual
        /// attention memory; empty for token-less nodes).
        enc_hs: Vec<Vec<Vector>>,
        /// `struct_memory[l]` = the β slot-expanded ancestor
        /// representations (empty when the variant has no structural
        /// attention).
        struct_memory: Vec<Vec<Vector>>,
        /// Full output logits of the frozen BOS step (Eq. 9 at `t = 0`):
        /// query-invariant, so the first scored word of every query
        /// costs one table lookup instead of an attention + composite +
        /// output pass.
        step0_logits: Vec<Vector>,
        /// Log-sum-exp denominators of `step0_logits`
        /// ([`ncl_tensor::ops::log_sum_exp_slice`]), so the step-0
        /// log-prob `logits[w] − lse` is bit-identical to
        /// `log_softmax(logits)[w]`.
        step0_lse: Vec<f32>,
    },
    /// bf16 rows, a shared ancestor pool, and no step-0 table.
    Compact {
        /// `enc_hs_q[l]` = the `n_c · d` encoder states as bf16 words
        /// ([`simd::narrow_bf16`]), dequantized into scratch per score.
        enc_hs_q: Vec<Vec<u16>>,
        /// The shard's dedup'd ancestor rows (`rows · d` bf16 words):
        /// siblings share one row per distinct ancestor instead of each
        /// cloning it.
        anc_rows: Vec<u16>,
        /// `anc_refs[l]` = β row indices into `anc_rows`, slot-expanded
        /// exactly like the `Exact` tier's clones.
        anc_refs: Vec<Vec<u32>>,
    },
}

/// One frozen shard: every per-node artifact for the nodes of one
/// ontology chapter (plus shard 0, the synthetic root's own slot).
#[derive(Debug, Clone)]
struct ShardData {
    /// `dec_h1[l]`/`dec_c1[l]` = the decoder state after consuming the
    /// `⟨BOS⟩` embedding. The first decoder step sees only the concept
    /// (its input is the fixed BOS vector, its initial state the encoder
    /// final state), so it is query-invariant and frozen here — in both
    /// tiers, at f32 (two vectors per node are not where the bytes go).
    dec_h1: Vec<Vector>,
    dec_c1: Vec<Vector>,
    /// Total ancestor slots across the shard's nodes (β per non-root
    /// node) — the memory-report numerator.
    anc_slots: usize,
    /// Distinct ancestor concepts behind those slots — what row-sharing
    /// collapses them to.
    anc_unique: usize,
    /// Description tokens across the shard's nodes, and the encoder
    /// steps the prefix trie ran for them.
    enc_tokens: usize,
    enc_steps: usize,
    rows: ShardRows,
}

/// Freeze-time scratch of one shard: the encoder state after every
/// distinct description prefix met so far. The encoder starts each
/// description from the zero state, so that state is a function of the
/// prefix alone and every description sharing the prefix reads it
/// instead of recomputing it.
///
/// States live in two flat arenas rather than a `Vector` per node: the
/// scratch is then a handful of large blocks that go back to the
/// allocator whole when the shard is done, instead of tens of thousands
/// of small ones interleaved with the rows the cache keeps.
struct PrefixTrie<'m> {
    plan: &'m LstmPlan,
    embedding: &'m Embedding,
    /// `(parent node, word id)` → node; node 0 is the empty prefix.
    edges: HashMap<(usize, u32), usize>,
    /// Row `n` of `hs` / `cs` (`d` floats each) = the encoder's `h` / `c`
    /// after node `n`'s prefix; row 0 is the zero start state.
    hs: Vec<f32>,
    cs: Vec<f32>,
    /// Word id → its input projection `b + W·x`, made the first time the
    /// shard steps on the word.
    word_proj: HashMap<u32, Vector>,
}

impl<'m> PrefixTrie<'m> {
    fn new(plan: &'m LstmPlan, embedding: &'m Embedding) -> Self {
        let d = plan.hidden();
        Self {
            plan,
            embedding,
            edges: HashMap::new(),
            hs: vec![0.0; d],
            cs: vec![0.0; d],
            word_proj: HashMap::new(),
        }
    }

    /// Encoder steps run so far: one per distinct non-empty prefix.
    fn steps_run(&self) -> usize {
        self.edges.len()
    }

    /// The hidden states `h_1..h_n` and the final cell of one
    /// description — what a pass over `tokens` from the zero state
    /// returns — stepping the encoder only where the prefix is new.
    fn encode(&mut self, tokens: &[u32]) -> (Vec<Vector>, Vector) {
        let d = self.plan.hidden();
        let row = |n: usize| n * d..(n + 1) * d;
        let mut node = 0usize;
        let mut hs = Vec::with_capacity(tokens.len());
        for &word in tokens {
            // Every edge made one node, so the next free row is:
            let next = self.edges.len() + 1;
            match self.edges.entry((node, word)) {
                Entry::Occupied(e) => {
                    node = *e.get();
                    hs.push(Vector::from_slice(&self.hs[row(node)]));
                }
                Entry::Vacant(e) => {
                    let proj = self.word_proj.entry(word).or_insert_with(|| {
                        self.plan
                            .project_input(self.embedding.table().row(word as usize))
                    });
                    let (h, c) = self.plan.step_projected(
                        proj.as_slice(),
                        &self.hs[row(node)],
                        &self.cs[row(node)],
                    );
                    node = *e.insert(next);
                    self.hs.extend_from_slice(h.as_slice());
                    self.cs.extend_from_slice(c.as_slice());
                    hs.push(h);
                }
            }
        }
        (hs, Vector::from_slice(&self.cs[row(node)]))
    }
}

/// A decode target prepared for cached scoring: the query's word ids
/// plus each word's decoder input projection, made once per request by
/// [`ComAid::prepare_target`] and read by every candidate.
pub(crate) struct PreparedTarget<'t> {
    ids: &'t [u32],
    /// `x_proj[t − 1]` = `b + W·x` of decoder step `t ≥ 1`, whose input
    /// is the word `ids[t − 1]`. Step 0 consumes `⟨BOS⟩` and is frozen
    /// in the cache.
    x_proj: Vec<Vector>,
}

impl PreparedTarget<'_> {
    /// `(t, projection)` for the online decoder steps `t = 1..=n`.
    fn steps(&self) -> impl Iterator<Item = (usize, &[f32])> {
        self.x_proj
            .iter()
            .enumerate()
            .map(|(i, p)| (i + 1, p.as_slice()))
    }
}

/// One concept's cached rows, fetched for scoring: borrowed straight
/// from the shard in the `Exact` tier, dequantized into owned scratch in
/// `Compact`. `step0` is the frozen logits table when the tier keeps one.
struct ConceptEntry<'c> {
    enc_hs: Cow<'c, [Vector]>,
    struct_mem: Cow<'c, [Vector]>,
    dec_h1: &'c Vector,
    dec_c1: &'c Vector,
    step0: Option<(&'c Vector, f32)>,
}

/// Precomputed per-concept encoder state, frozen at a specific parameter
/// generation and partitioned into per-chapter **shards** (the freeze
/// unit). Index-aligned with the [`OntologyIndex`] it was built from
/// (entry `cid.index()` belongs to concept `cid`).
///
/// [`ComAid::freeze_tiered`] returns the skeleton; each shard freezes on
/// first touch (its `OnceLock` runs the freeze once, other scoring
/// threads block until it is ready), so cold-start-to-first-link pays
/// one chapter, not the whole ontology. [`ConceptCache::warm`] freezes
/// whatever is left.
///
/// `Send + Sync`: scoring threads share one cache; interior mutability
/// is confined to the per-shard `OnceLock`s.
#[derive(Debug, Clone)]
pub struct ConceptCache {
    /// The [`ComAid::version`] this cache was frozen from.
    version: u64,
    dim: usize,
    tier: CacheTier,
    /// `node_shard[i]`/`node_local[i]` = which shard holds node `i`, and
    /// where within it. A node's chapter is the last entry of its
    /// structural context (the duplicated first-level ancestor of
    /// Definition 4.1); the root slot is shard 0 on its own.
    node_shard: Vec<u32>,
    node_local: Vec<u32>,
    /// `shard_nodes[s]` = member node indices of shard `s`, in local
    /// order (the freeze iteration order).
    shard_nodes: Vec<Vec<u32>>,
    /// Frozen shard payloads; unset entries are chapters not yet
    /// touched.
    shards: Vec<OnceLock<ShardData>>,
    /// Transposed/fused weight layouts for the online decoder steps.
    plan: ServePlan,
    /// The encoder's fused plan, materialised by the first shard freeze
    /// and kept for the shards still to come.
    enc_plan: OnceLock<LstmPlan>,
    /// Whether cached scoring may use the epsilon-relaxed fast-math
    /// kernels (`LinkerConfig::fast_math`). Off by default: exact,
    /// bit-identical scoring.
    fast_math: bool,
}

impl ConceptCache {
    /// The parameter generation this cache was frozen from.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether this cache may serve for `model`: true exactly when the
    /// model's parameters are the generation the cache was frozen from.
    pub fn is_valid_for(&self, model: &ComAid) -> bool {
        self.version == model.version()
    }

    /// Whether this cache may serve `model` over `index`: the
    /// parameter generation it was frozen from, and an index the size
    /// of the one its shard map was laid out over (a cache shared across
    /// ontologies would otherwise be read out of bounds).
    pub(crate) fn serves(&self, model: &ComAid, index: &OntologyIndex) -> bool {
        self.is_valid_for(model) && self.len() == index.len()
    }

    /// Number of ontology nodes covered (including the root slot).
    pub fn len(&self) -> usize {
        self.node_shard.len()
    }

    /// Whether the cache covers no concepts.
    pub fn is_empty(&self) -> bool {
        self.node_shard.is_empty()
    }

    /// The storage tier this cache was frozen with.
    pub fn tier(&self) -> CacheTier {
        self.tier
    }

    /// Number of freeze shards (one per ontology chapter, plus the root
    /// slot's own shard).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// How many shards are frozen so far (equals
    /// [`ConceptCache::shard_count`] after [`ConceptCache::warm`]).
    pub fn frozen_shard_count(&self) -> usize {
        self.shards.iter().filter(|s| s.get().is_some()).count()
    }

    /// Freezes every shard no request has touched yet, so nothing
    /// served afterwards pays a first-touch freeze. The rows are the
    /// ones first touch would have produced — both run `freeze_shard`
    /// on the same inputs.
    ///
    /// # Panics
    /// Panics if the cache is stale for `model`
    /// ([`ConceptCache::is_valid_for`]) or `index` is not the size of
    /// the one it was built from.
    pub fn warm(&self, model: &ComAid, index: &OntologyIndex) {
        assert!(self.serves(model, index), "warm: stale cache");
        for si in 0..self.shards.len() {
            self.shard(model, index, si);
        }
    }

    /// Shard `si`, frozen now if nothing has touched it yet — the one
    /// place a shard is filled.
    fn shard(&self, model: &ComAid, index: &OntologyIndex, si: usize) -> &ShardData {
        self.shards[si].get_or_init(|| model.freeze_shard(index, self, si))
    }

    /// Enables or disables the epsilon-relaxed fast-math serving kernels
    /// for scores computed through this cache (relaxed attention dots and
    /// polynomial log-sum-exp). Off by default; when off, cached scores
    /// are bit-identical to the uncached path. [`crate::Linker::new`]
    /// sets this from `LinkerConfig::fast_math`.
    pub fn set_fast_math(&mut self, enabled: bool) {
        self.fast_math = enabled;
    }

    /// Whether fast-math scoring is enabled (see
    /// [`ConceptCache::set_fast_math`]).
    pub fn fast_math(&self) -> bool {
        self.fast_math
    }

    /// Resident-size breakdown over the shards frozen so far:
    /// per-component bytes, shard/concept coverage, and the
    /// ancestor-memory dedup ratio.
    pub fn memory_report(&self) -> CacheMemoryReport {
        let d = self.dim;
        let mut r = CacheMemoryReport {
            tier: self.tier,
            concepts: self.node_shard.len(),
            frozen_concepts: 0,
            shards: self.shards.len(),
            frozen_shards: 0,
            enc_state_bytes: 0,
            ancestor_bytes: 0,
            decoder_state_bytes: 0,
            step0_bytes: 0,
            plan_bytes: self.plan.memory_floats() * 4,
            ancestor_slots: 0,
            ancestor_rows_stored: 0,
            ancestor_rows_unique: 0,
            encoder_tokens: 0,
            encoder_steps_run: 0,
        };
        if let Some(p) = self.enc_plan.get() {
            r.plan_bytes += p.memory_floats() * 4;
        }
        for (s, lock) in self.shards.iter().enumerate() {
            let Some(shard) = lock.get() else { continue };
            r.frozen_shards += 1;
            r.frozen_concepts += self.shard_nodes[s].len();
            r.decoder_state_bytes += (shard.dec_h1.len() + shard.dec_c1.len()) * d * 4;
            r.ancestor_slots += shard.anc_slots;
            r.ancestor_rows_unique += shard.anc_unique;
            r.encoder_tokens += shard.enc_tokens;
            r.encoder_steps_run += shard.enc_steps;
            match &shard.rows {
                ShardRows::Exact {
                    enc_hs,
                    struct_memory,
                    step0_logits,
                    step0_lse,
                } => {
                    r.enc_state_bytes += enc_hs.iter().map(Vec::len).sum::<usize>() * d * 4;
                    r.ancestor_bytes += struct_memory.iter().map(Vec::len).sum::<usize>() * d * 4;
                    r.ancestor_rows_stored += shard.anc_slots;
                    r.step0_bytes += step0_logits.iter().map(Vector::len).sum::<usize>() * 4
                        + step0_lse.len() * 4;
                }
                ShardRows::Compact {
                    enc_hs_q,
                    anc_rows,
                    anc_refs,
                } => {
                    r.enc_state_bytes += enc_hs_q.iter().map(Vec::len).sum::<usize>() * 2;
                    r.ancestor_bytes +=
                        anc_rows.len() * 2 + anc_refs.iter().map(Vec::len).sum::<usize>() * 4;
                    r.ancestor_rows_stored += anc_rows.len() / d.max(1);
                }
            }
        }
        r
    }

    /// Total cache footprint in `f32`-equivalents
    /// ([`CacheMemoryReport::total_bytes`] ÷ 4): the per-token encoder
    /// states, the ancestor memory, the frozen post-BOS decoder states,
    /// the frozen step-0 tables (`Exact` tier), and the transposed/fused
    /// weight plans the online steps stream from.
    pub fn memory_floats(&self) -> usize {
        self.memory_report().total_bytes() / 4
    }

    /// The frozen encoder states `h_1..h_n^c` of `concept` — its textual
    /// attention memory as scoring reads it (dequantized in the
    /// `Compact` tier; empty for a token-less node) — freezing the
    /// concept's shard first if nothing has touched it yet.
    ///
    /// # Panics
    /// Panics if the cache is stale for `model`
    /// ([`ConceptCache::is_valid_for`]) or `index` is not the size of
    /// the one it was built from.
    pub fn encoder_states(
        &self,
        model: &ComAid,
        index: &OntologyIndex,
        concept: ConceptId,
    ) -> Vec<Vector> {
        assert!(self.serves(model, index), "encoder_states: stale cache");
        self.entry(model, index, concept.index())
            .enc_hs
            .into_owned()
    }

    /// Fetches `ci`'s cached rows, freezing its shard first if the
    /// chapter has not been touched yet. Callers must have checked
    /// [`ConceptCache::serves`] — the freeze reads `model`'s live
    /// parameters, and `ci` indexes the shard map unchecked.
    fn entry<'c>(&'c self, model: &ComAid, index: &OntologyIndex, ci: usize) -> ConceptEntry<'c> {
        let si = self.node_shard[ci] as usize;
        let li = self.node_local[ci] as usize;
        let shard = self.shard(model, index, si);
        let (enc_hs, struct_mem, step0) = match &shard.rows {
            ShardRows::Exact {
                enc_hs,
                struct_memory,
                step0_logits,
                step0_lse,
            } => (
                Cow::Borrowed(enc_hs[li].as_slice()),
                Cow::Borrowed(struct_memory[li].as_slice()),
                Some((&step0_logits[li], step0_lse[li])),
            ),
            ShardRows::Compact {
                enc_hs_q,
                anc_rows,
                anc_refs,
            } => {
                let d = self.dim;
                let widen_row = |row: &[u16]| {
                    let mut v = Vector::zeros(d);
                    simd::widen_bf16(v.as_mut_slice(), row);
                    v
                };
                let hs: Vec<Vector> = enc_hs_q[li].chunks_exact(d).map(widen_row).collect();
                let mem: Vec<Vector> = anc_refs[li]
                    .iter()
                    .map(|&row| widen_row(&anc_rows[row as usize * d..(row as usize + 1) * d]))
                    .collect();
                (Cow::Owned(hs), Cow::Owned(mem), None)
            }
        };
        ConceptEntry {
            enc_hs,
            struct_mem,
            dec_h1: &shard.dec_h1[li],
            dec_c1: &shard.dec_c1[li],
            step0,
        }
    }
}

impl ComAid {
    /// [`ComAid::freeze_tiered`] in the `Exact` tier: cached scores are
    /// bit-identical to the uncached pass.
    pub fn freeze(&self, index: &OntologyIndex) -> ConceptCache {
        self.freeze_tiered(index, CacheTier::Exact)
    }

    /// Builds the serving cache of `index` at the current parameter
    /// generation: the chapter shard map and the decoder serve plan, no
    /// per-concept state yet. Each shard freezes on first touch by a
    /// cached scoring call (one encoder step per distinct description
    /// prefix of the chapter; the structural memory reuses those same
    /// states, because an ancestor's encoding *is* that ancestor's
    /// concept encoding), so cold-start-to-first-link pays one chapter's
    /// encoder passes instead of the whole ontology's.
    /// [`ConceptCache::warm`] freezes the rest ahead of traffic.
    pub fn freeze_tiered(&self, index: &OntologyIndex, tier: CacheTier) -> ConceptCache {
        let n = index.len();
        // Chapter resolution. A node's context holds its β *nearest*
        // ancestors, so the farthest entry is the chapter only for
        // shallow nodes; follow `last()` transitively (parents always
        // have smaller indices than children, so one ascending pass with
        // a memo terminates). Shard 0 is the root slot's own shard.
        let mut node_shard = vec![0u32; n];
        let mut node_local = vec![0u32; n];
        let mut shard_nodes: Vec<Vec<u32>> = vec![Vec::new()];
        let mut shard_of_chapter: HashMap<u32, u32> = HashMap::new();
        for i in 0..n {
            let id = ConceptId(i as u32);
            let si = match index.context(id).last() {
                None => 0u32,
                Some(anc) if anc.index() == i => {
                    // First-level concept: its own chapter.
                    *shard_of_chapter.entry(i as u32).or_insert_with(|| {
                        shard_nodes.push(Vec::new());
                        (shard_nodes.len() - 1) as u32
                    })
                }
                // Proper ancestor: created before `i`, already resolved.
                Some(anc) => node_shard[anc.index()],
            };
            node_shard[i] = si;
            node_local[i] = shard_nodes[si as usize].len() as u32;
            shard_nodes[si as usize].push(i as u32);
        }
        // The decoder/composite/output plan is kept for every online
        // step; the encoder plan is only needed by shard freezes and is
        // materialised lazily alongside the first one.
        let plan = ServePlan {
            decoder: self.decoder.plan(),
            composite_wt: self.composite.weight_t(),
            output_wt: self.output.weight_t(),
        };
        let shards = (0..shard_nodes.len()).map(|_| OnceLock::new()).collect();
        ConceptCache {
            version: self.version(),
            dim: self.config().dim,
            tier,
            node_shard,
            node_local,
            shard_nodes,
            shards,
            plan,
            enc_plan: OnceLock::new(),
            fast_math: false,
        }
    }

    /// Freezes one chapter shard: the encoder states of its member
    /// nodes, the slot-expanded (or row-shared) ancestor memory, the
    /// frozen post-BOS decoder states, and — in the `Exact` tier — the
    /// step-0 logits tables. Chapter subtrees are self-contained (every
    /// context entry of a member is itself a member), so the shard never
    /// reads outside its own encoder states.
    ///
    /// The one freeze path — first touch, [`ConceptCache::warm`] and
    /// hot-swap publish all land here. Descriptions go through a
    /// [`PrefixTrie`], so a shard with
    /// no shared prefix pays one hash probe per token over a plain
    /// per-concept pass and any other shard runs fewer encoder steps.
    fn freeze_shard(&self, index: &OntologyIndex, cache: &ConceptCache, si: usize) -> ShardData {
        let d = self.config().dim;
        let zero = Vector::zeros(d);
        let nodes = &cache.shard_nodes[si];
        let enc_plan = cache.enc_plan.get_or_init(|| self.encoder.plan());
        let mut enc_hs: Vec<Vec<Vector>> = Vec::with_capacity(nodes.len());
        let mut enc_final_c: Vec<Vector> = Vec::with_capacity(nodes.len());
        let mut enc_tokens = 0usize;
        // The trie holds a state pair per distinct prefix; it goes out
        // of scope here, before the post-BOS states and the (much
        // larger) step-0 tables below are allocated.
        let enc_steps = {
            let mut trie = PrefixTrie::new(enc_plan, &self.embedding);
            for &ni in nodes {
                let tokens = index.tokens(ConceptId(ni));
                enc_tokens += tokens.len();
                let (hs, final_c) = trie.encode(tokens);
                enc_hs.push(hs);
                enc_final_c.push(final_c);
            }
            trie.steps_run()
        };
        // Final encoder state of an in-shard ancestor; the zero fallback
        // mirrors LstmTape::final_h() on an empty sequence.
        let local_of = |anc: ConceptId| -> usize {
            debug_assert_eq!(
                cache.node_shard[anc.index()] as usize,
                si,
                "context entry outside its chapter shard"
            );
            cache.node_local[anc.index()] as usize
        };
        let anc_final =
            |l: usize| -> Vector { enc_hs[l].last().cloned().unwrap_or_else(|| zero.clone()) };
        let uses_struct = self.config().variant.uses_struct();
        let mut anc_slots = 0usize;
        let mut anc_unique_set: std::collections::HashSet<u32> = std::collections::HashSet::new();
        // The first decoder step is query-invariant: its input is the
        // BOS embedding and its state the encoder final state, both
        // frozen above. Run it once per node — from the *exact* states
        // in both tiers (quantization narrows stored rows, never the
        // inputs of frozen computation) — with the BOS input projected
        // once for the whole shard.
        let bos_proj = cache
            .plan
            .decoder
            .project_input(self.embedding.table().row(Vocab::BOS as usize));
        let mut dec_h1 = Vec::with_capacity(nodes.len());
        let mut dec_c1 = Vec::with_capacity(nodes.len());
        for (hs, final_c) in enc_hs.iter().zip(&enc_final_c) {
            let h0 = hs.last().unwrap_or(&zero);
            let (h1, c1) = cache.plan.decoder.step_projected(
                bos_proj.as_slice(),
                h0.as_slice(),
                final_c.as_slice(),
            );
            dec_h1.push(h1);
            dec_c1.push(c1);
        }
        let rows = match cache.tier {
            CacheTier::Exact => {
                let mut struct_memory: Vec<Vec<Vector>> = Vec::with_capacity(nodes.len());
                for &ni in nodes.iter() {
                    let mem: Vec<Vector> = if uses_struct {
                        index
                            .context(ConceptId(ni))
                            .iter()
                            .map(|&anc| {
                                anc_slots += 1;
                                anc_unique_set.insert(anc.index() as u32);
                                anc_final(local_of(anc))
                            })
                            .collect()
                    } else {
                        Vec::new()
                    };
                    struct_memory.push(mem);
                }
                // Frozen tables are always exact (relaxed = false):
                // fast-math only perturbs per-query reads, never the
                // cache contents.
                let mut step0_logits = Vec::with_capacity(nodes.len());
                let mut step0_lse = Vec::with_capacity(nodes.len());
                for l in 0..nodes.len() {
                    let comp_in = self.composite_input_cached(
                        &dec_h1[l],
                        &enc_hs[l],
                        &struct_memory[l],
                        &zero,
                        false,
                    );
                    let s_tilde = self
                        .composite
                        .apply_with_t(&comp_in, &cache.plan.composite_wt);
                    let logits = self.output.apply_with_t(&s_tilde, &cache.plan.output_wt);
                    step0_lse.push(log_sum_exp_slice(logits.as_slice()));
                    step0_logits.push(logits);
                }
                ShardRows::Exact {
                    enc_hs,
                    struct_memory,
                    step0_logits,
                    step0_lse,
                }
            }
            CacheTier::Compact => {
                // bf16 rows; the ancestor memory collapses to one shared
                // row per distinct ancestor, referenced per slot.
                let mut anc_rows: Vec<u16> = Vec::new();
                let mut anc_refs: Vec<Vec<u32>> = Vec::with_capacity(nodes.len());
                let mut row_of: HashMap<u32, u32> = HashMap::new();
                for &ni in nodes.iter() {
                    let refs: Vec<u32> = if uses_struct {
                        index
                            .context(ConceptId(ni))
                            .iter()
                            .map(|&anc| {
                                anc_slots += 1;
                                anc_unique_set.insert(anc.index() as u32);
                                *row_of.entry(anc.index() as u32).or_insert_with(|| {
                                    let row = (anc_rows.len() / d) as u32;
                                    let v = anc_final(local_of(anc));
                                    let start = anc_rows.len();
                                    anc_rows.resize(start + d, 0);
                                    simd::narrow_bf16(&mut anc_rows[start..], v.as_slice());
                                    row
                                })
                            })
                            .collect()
                    } else {
                        Vec::new()
                    };
                    anc_refs.push(refs);
                }
                let enc_hs_q: Vec<Vec<u16>> = enc_hs
                    .iter()
                    .map(|hs| {
                        let mut q = vec![0u16; hs.len() * d];
                        for (row, h) in q.chunks_exact_mut(d).zip(hs) {
                            simd::narrow_bf16(row, h.as_slice());
                        }
                        q
                    })
                    .collect();
                ShardRows::Compact {
                    enc_hs_q,
                    anc_rows,
                    anc_refs,
                }
            }
        };
        ShardData {
            dec_h1,
            dec_c1,
            anc_slots,
            anc_unique: anc_unique_set.len(),
            enc_tokens,
            enc_steps,
            rows,
        }
    }

    /// Cached [`ComAid::log_prob_ids_masked`]: bit-identical score, but
    /// the concept-side encoder work comes from `cache`. A stale cache
    /// (parameters changed since [`ComAid::freeze`], or frozen over a
    /// different ontology) transparently falls back to the uncached
    /// path.
    ///
    /// # Panics
    /// Panics if `count.len() != target.len()`.
    pub fn log_prob_ids_masked_cached(
        &self,
        index: &OntologyIndex,
        cache: &ConceptCache,
        concept: ConceptId,
        target: &[u32],
        count: &[bool],
    ) -> f32 {
        if !cache.serves(self, index) {
            return self.log_prob_ids_masked(index, concept, target, count);
        }
        let prepared = self.prepare_target(cache, target);
        self.log_prob_ids_masked_prepared(index, cache, concept, &prepared, count)
    }

    /// Projects a decode target's words through the cached decoder plan,
    /// once, for any number of candidates scored against it. Callers
    /// must have checked [`ConceptCache::serves`].
    pub(crate) fn prepare_target<'t>(
        &self,
        cache: &ConceptCache,
        target: &'t [u32],
    ) -> PreparedTarget<'t> {
        let x_proj = target
            .iter()
            .map(|&w| {
                cache
                    .plan
                    .decoder
                    .project_input(self.embedding.table().row(w as usize))
            })
            .collect();
        PreparedTarget {
            ids: target,
            x_proj,
        }
    }

    /// [`ComAid::log_prob_ids_masked_cached`] on a target already
    /// prepared against `cache` — the per-candidate scoring path of a
    /// request under a deadline or fault plan. Callers must have checked
    /// [`ConceptCache::serves`].
    ///
    /// # Panics
    /// Panics if `count.len()` differs from the target's length.
    pub(crate) fn log_prob_ids_masked_prepared(
        &self,
        index: &OntologyIndex,
        cache: &ConceptCache,
        concept: ConceptId,
        prepared: &PreparedTarget<'_>,
        count: &[bool],
    ) -> f32 {
        let target = prepared.ids;
        assert_eq!(count.len(), target.len(), "mask length mismatch");
        let zero = Vector::zeros(self.config().dim);
        let entry = cache.entry(self, index, concept.index());
        let enc_hs: &[Vector] = &entry.enc_hs;
        let struct_mem: &[Vector] = &entry.struct_mem;
        let relaxed = cache.fast_math;
        // Step 0 (the BOS step) is frozen in the cache: resume from the
        // precomputed state. When the step is counted, the `Exact` tier
        // reads the first word's log-prob off the frozen logits; the
        // `Compact` tier recomputes the step-0 head from the dequantized
        // rows (the table is what it dropped).
        let mut h = entry.dec_h1.clone();
        let mut c = entry.dec_c1.clone();
        let mut lp = 0.0f32;
        if count.first().copied().unwrap_or(true) {
            let word = target.first().copied().unwrap_or(Vocab::EOS) as usize;
            lp += match entry.step0 {
                Some((logits, lse)) => logits[word] - lse,
                None => {
                    let comp_in =
                        self.composite_input_cached(&h, enc_hs, struct_mem, &zero, relaxed);
                    let s_tilde = self
                        .composite
                        .apply_with_t(&comp_in, &cache.plan.composite_wt);
                    let logits = self.output.apply_with_t(&s_tilde, &cache.plan.output_wt);
                    if relaxed {
                        softmax_loss::log_prob_relaxed(&logits, word)
                    } else {
                        softmax_loss::log_prob(&logits, word)
                    }
                }
            };
        }
        for (t, x_proj) in prepared.steps() {
            (h, c) = cache
                .plan
                .decoder
                .step_projected(x_proj, h.as_slice(), c.as_slice());
            // The EOS step (t == target.len()) is always counted.
            if !count.get(t).copied().unwrap_or(true) {
                // Uncounted steps contribute nothing to the masked sum
                // and nothing downstream depends on their head outputs,
                // so the attention/composite/output work is skipped
                // entirely — the decoder recurrence above is all that
                // must advance.
                continue;
            }
            let word = target.get(t).copied().unwrap_or(Vocab::EOS) as usize;
            let comp_in = self.composite_input_cached(&h, enc_hs, struct_mem, &zero, relaxed);
            let s_tilde = self
                .composite
                .apply_with_t(&comp_in, &cache.plan.composite_wt);
            let logits = self.output.apply_with_t(&s_tilde, &cache.plan.output_wt);
            lp += if relaxed {
                softmax_loss::log_prob_relaxed(&logits, word)
            } else {
                softmax_loss::log_prob(&logits, word)
            };
        }
        lp
    }

    /// Scores `log p(q|c)` for a *batch* of candidates sharing one
    /// decoded query, advancing all candidates one timestep per pass so
    /// the output projection `W_s` (by far the largest matrix) is
    /// streamed once per step for the whole batch instead of once per
    /// candidate per step. Per-candidate results are bit-identical to
    /// [`ComAid::log_prob_ids_masked_cached`]. `counts[i]` is candidate
    /// `i`'s masking of the shared `target`. A stale cache falls back to
    /// the uncached path per candidate.
    ///
    /// # Panics
    /// Panics if `counts.len() != concepts.len()` or any mask's length
    /// differs from `target.len()`.
    pub fn log_prob_batch_cached(
        &self,
        index: &OntologyIndex,
        cache: &ConceptCache,
        concepts: &[ConceptId],
        target: &[u32],
        counts: &[Vec<bool>],
    ) -> Vec<f32> {
        assert_eq!(counts.len(), concepts.len(), "one mask per concept");
        if !cache.serves(self, index) {
            return concepts
                .iter()
                .zip(counts)
                .map(|(&c, m)| self.log_prob_ids_masked(index, c, target, m))
                .collect();
        }
        let prepared = self.prepare_target(cache, target);
        self.log_prob_batch_prepared(index, cache, concepts, &prepared, counts)
    }

    /// [`ComAid::log_prob_batch_cached`] on a target already prepared
    /// against `cache`: each query word's input projection is shared by
    /// every candidate of the step. Callers must have checked
    /// [`ConceptCache::serves`].
    ///
    /// # Panics
    /// Panics if `counts.len() != concepts.len()` or any mask's length
    /// differs from the target's.
    pub(crate) fn log_prob_batch_prepared(
        &self,
        index: &OntologyIndex,
        cache: &ConceptCache,
        concepts: &[ConceptId],
        prepared: &PreparedTarget<'_>,
        counts: &[Vec<bool>],
    ) -> Vec<f32> {
        let target = prepared.ids;
        assert_eq!(counts.len(), concepts.len(), "one mask per concept");
        for m in counts {
            assert_eq!(m.len(), target.len(), "mask length mismatch");
        }
        let k = concepts.len();
        let zero = Vector::zeros(self.config().dim);
        let relaxed = cache.fast_math;

        // Fetch every candidate's rows once (freezing untouched shards,
        // dequantizing Compact rows into per-batch scratch).
        let entries: Vec<ConceptEntry<'_>> = concepts
            .iter()
            .map(|&c| cache.entry(self, index, c.index()))
            .collect();

        // Every candidate resumes from its frozen post-BOS decoder state.
        let mut hs: Vec<Vector> = Vec::with_capacity(k);
        let mut cs: Vec<Vector> = Vec::with_capacity(k);
        let mut lps = vec![0.0f32; k];
        let word0 = target.first().copied().unwrap_or(Vocab::EOS) as usize;
        let mut counted: Vec<usize> = Vec::with_capacity(k);
        for (i, (e, m)) in entries.iter().zip(counts).enumerate() {
            hs.push(e.dec_h1.clone());
            cs.push(e.dec_c1.clone());
            if m.first().copied().unwrap_or(true) {
                // Exact tier: counted first words come straight off the
                // frozen step-0 logits. Compact candidates are deferred
                // to the batched recompute below.
                match e.step0 {
                    Some((logits, lse)) => lps[i] += logits[word0] - lse,
                    None => counted.push(i),
                }
            }
        }
        // Compact step 0: one batched head pass over the counted
        // candidates — the same kernel pairing as the t ≥ 1 steps, so
        // batched results stay bit-identical to the single-query path.
        if !counted.is_empty() {
            let mut comp = Matrix::zeros(counted.len(), self.composite.in_dim());
            for (r, &i) in counted.iter().enumerate() {
                let comp_in = self.composite_input_cached(
                    &hs[i],
                    &entries[i].enc_hs,
                    &entries[i].struct_mem,
                    &zero,
                    relaxed,
                );
                comp.set_row(r, &comp_in);
            }
            let s_tilde = self
                .composite
                .apply_batch_with_t(&comp, &cache.plan.composite_wt);
            let logits = self
                .output
                .apply_batch_with_t(&s_tilde, &cache.plan.output_wt);
            for (r, &i) in counted.iter().enumerate() {
                lps[i] += if relaxed {
                    log_softmax_at_slice_relaxed(logits.row(r), word0)
                } else {
                    log_softmax_at_slice(logits.row(r), word0)
                };
            }
        }

        for (t, x_proj) in prepared.steps() {
            for (h, c) in hs.iter_mut().zip(&mut cs) {
                (*h, *c) = cache
                    .plan
                    .decoder
                    .step_projected(x_proj, h.as_slice(), c.as_slice());
            }
            counted.clear();
            counted.extend(
                counts
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| m.get(t).copied().unwrap_or(true))
                    .map(|(i, _)| i),
            );
            if counted.is_empty() {
                continue;
            }
            let word = target.get(t).copied().unwrap_or(Vocab::EOS) as usize;
            let mut comp = Matrix::zeros(counted.len(), self.composite.in_dim());
            for (r, &i) in counted.iter().enumerate() {
                let comp_in = self.composite_input_cached(
                    &hs[i],
                    &entries[i].enc_hs,
                    &entries[i].struct_mem,
                    &zero,
                    relaxed,
                );
                comp.set_row(r, &comp_in);
            }
            let s_tilde = self
                .composite
                .apply_batch_with_t(&comp, &cache.plan.composite_wt);
            let logits = self
                .output
                .apply_batch_with_t(&s_tilde, &cache.plan.output_wt);
            for (r, &i) in counted.iter().enumerate() {
                lps[i] += if relaxed {
                    log_softmax_at_slice_relaxed(logits.row(r), word)
                } else {
                    log_softmax_at_slice(logits.row(r), word)
                };
            }
        }
        lps
    }

    /// Builds one step's composite-layer input `[s_t ‖ textual ctx ‖
    /// structural ctx]` from cached memories, with exactly the
    /// zero-padding rules of the uncached forward pass: a variant that
    /// *uses* a context but has an empty memory gets a zero block.
    /// `relaxed` selects the fast-math attention dots
    /// ([`ncl_nn::DotAttention::forward_relaxed`]); exact serving and
    /// freezing pass `false`.
    fn composite_input_cached(
        &self,
        s_t: &Vector,
        enc_hs: &[Vector],
        struct_mem: &[Vector],
        zero: &Vector,
        relaxed: bool,
    ) -> Vector {
        let variant = self.config().variant;
        let ctx = |memory: &[Vector]| {
            if relaxed {
                self.attention.forward_relaxed(memory, s_t)
            } else {
                self.attention.forward(memory, s_t).0
            }
        };
        let mut comp_in = Vec::with_capacity(self.composite.in_dim());
        comp_in.extend_from_slice(s_t.as_slice());
        if variant.uses_text() {
            if enc_hs.is_empty() {
                comp_in.extend_from_slice(zero.as_slice());
            } else {
                comp_in.extend_from_slice(ctx(enc_hs).as_slice());
            }
        }
        if variant.uses_struct() {
            if struct_mem.is_empty() {
                comp_in.extend_from_slice(zero.as_slice());
            } else {
                comp_in.extend_from_slice(ctx(struct_mem).as_slice());
            }
        }
        Vector::from_vec(comp_in)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ComAidConfig, Variant};
    use super::*;
    use ncl_ontology::{Ontology, OntologyBuilder};
    use ncl_text::tokenize;

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

    fn model_for(variant: Variant, vocab: Vocab) -> ComAid {
        let config = ComAidConfig {
            dim: 6,
            beta: 2,
            variant,
            seed: 23,
            ..ComAidConfig::tiny()
        };
        ComAid::new(vocab, config, None)
    }

    #[test]
    fn cached_score_bit_identical_for_all_variants() {
        let (o, v) = tiny_world();
        let idx = OntologyIndex::build(&o, &v, 2);
        for &variant in Variant::ALL {
            let m = model_for(variant, v.clone());
            let cache = m.freeze(&idx);
            assert!(cache.is_valid_for(&m));
            let target = m.encode_text("ckd stage 5");
            let masks = [
                vec![true; target.len()],
                vec![false; target.len()],
                (0..target.len()).map(|i| i % 2 == 0).collect::<Vec<_>>(),
            ];
            for id in o.all_concepts() {
                for mask in &masks {
                    let plain = m.log_prob_ids_masked(&idx, id, &target, mask);
                    let cached = m.log_prob_ids_masked_cached(&idx, &cache, id, &target, mask);
                    assert_eq!(
                        plain.to_bits(),
                        cached.to_bits(),
                        "{variant:?} {:?} mask {mask:?}",
                        o.concept(id).code
                    );
                }
            }
        }
    }

    #[test]
    fn batched_scores_bit_identical_to_single() {
        let (o, v) = tiny_world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let m = model_for(Variant::Full, v);
        let cache = m.freeze(&idx);
        let target = m.encode_text("chronic kidney disease stage 5");
        let concepts: Vec<ConceptId> = o.all_concepts().collect();
        // Per-candidate masks that differ (as shared-word removal does).
        let counts: Vec<Vec<bool>> = (0..concepts.len())
            .map(|i| (0..target.len()).map(|t| (t + i) % 3 != 0).collect())
            .collect();
        let batch = m.log_prob_batch_cached(&idx, &cache, &concepts, &target, &counts);
        for ((&c, mask), lp) in concepts.iter().zip(&counts).zip(&batch) {
            let single = m.log_prob_ids_masked_cached(&idx, &cache, c, &target, mask);
            assert_eq!(single.to_bits(), lp.to_bits(), "{:?}", o.concept(c).code);
        }
    }

    #[test]
    fn empty_target_and_empty_batch() {
        let (o, v) = tiny_world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let m = model_for(Variant::Full, v);
        let cache = m.freeze(&idx);
        let c = o.by_code("R10.0").unwrap();
        let plain = m.log_prob_ids_masked(&idx, c, &[], &[]);
        let cached = m.log_prob_ids_masked_cached(&idx, &cache, c, &[], &[]);
        assert_eq!(plain.to_bits(), cached.to_bits());
        assert!(m
            .log_prob_batch_cached(&idx, &cache, &[], &[], &[])
            .is_empty());
    }

    #[test]
    fn stale_cache_falls_back_to_uncached() {
        let (o, v) = tiny_world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let mut m = model_for(Variant::Full, v);
        let cache = m.freeze(&idx);
        let c = o.by_code("N18.5").unwrap();
        let target = m.encode_text("ckd stage 5");
        let mask = vec![true; target.len()];

        // Mutate the parameters through the training chokepoint.
        let pairs = vec![super::super::TrainPair {
            concept: c,
            target: target.clone(),
        }];
        m.fit_epochs(
            &idx,
            &pairs,
            1,
            ncl_nn::optimizer::LrSchedule::constant(0.1),
        );

        assert!(!cache.is_valid_for(&m));
        // The stale cache must not serve stale encodings: the cached
        // entry points fall back to the live parameters.
        let plain = m.log_prob_ids_masked(&idx, c, &target, &mask);
        let via_cache = m.log_prob_ids_masked_cached(&idx, &cache, c, &target, &mask);
        assert_eq!(plain.to_bits(), via_cache.to_bits());
        let via_batch = m.log_prob_batch_cached(&idx, &cache, &[c], &target, &[mask]);
        assert_eq!(plain.to_bits(), via_batch[0].to_bits());

        // Refreezing restores validity.
        let fresh = m.freeze(&idx);
        assert!(fresh.is_valid_for(&m));
    }

    #[test]
    fn clone_keeps_cache_valid_until_either_trains() {
        let (o, v) = tiny_world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let m = model_for(Variant::Full, v);
        let cache = m.freeze(&idx);
        let clone = m.clone();
        // Identical parameters: the cache serves for both.
        assert!(cache.is_valid_for(&clone));
        assert_eq!(m.version(), clone.version());
    }

    #[test]
    fn fast_math_scores_close_but_flag_off_is_exact() {
        let (o, v) = tiny_world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let m = model_for(Variant::Full, v);
        let mut cache = m.freeze(&idx);
        assert!(!cache.fast_math());
        let target = m.encode_text("chronic kidney disease stage 5");
        let mask = vec![true; target.len()];
        let concepts: Vec<ConceptId> = o.all_concepts().collect();
        let exact: Vec<f32> = concepts
            .iter()
            .map(|&c| m.log_prob_ids_masked_cached(&idx, &cache, c, &target, &mask))
            .collect();

        cache.set_fast_math(true);
        assert!(cache.fast_math());
        let masks = vec![mask.clone(); concepts.len()];
        let relaxed_batch = m.log_prob_batch_cached(&idx, &cache, &concepts, &target, &masks);
        for (i, &c) in concepts.iter().enumerate() {
            let relaxed = m.log_prob_ids_masked_cached(&idx, &cache, c, &target, &mask);
            // Relaxed kernels perturb the score by rounding noise only.
            assert!(
                (relaxed - exact[i]).abs() < 1e-3 * exact[i].abs().max(1.0),
                "{:?}: exact {} relaxed {relaxed}",
                o.concept(c).code,
                exact[i]
            );
            // Batched and single relaxed paths agree bitwise with each
            // other at a fixed dispatch level (same kernels, same order).
            assert_eq!(relaxed.to_bits(), relaxed_batch[i].to_bits());
        }

        cache.set_fast_math(false);
        for (i, &c) in concepts.iter().enumerate() {
            let back = m.log_prob_ids_masked_cached(&idx, &cache, c, &target, &mask);
            assert_eq!(back.to_bits(), exact[i].to_bits());
        }
    }

    #[test]
    fn memory_accounting_counts_all_vectors() {
        let (o, v) = tiny_world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let m = model_for(Variant::Full, v);
        let cache = m.freeze(&idx);
        assert_eq!(cache.len(), idx.len());
        assert!(!cache.is_empty());
        // Lower bound: every node has a final cell (1·d), plus β = 2
        // ancestor slots for each non-root node.
        let d = 6;
        let non_root = idx.len() - 1;
        assert!(cache.memory_floats() >= d * (idx.len() + 2 * non_root));
    }
}
