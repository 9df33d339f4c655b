//! Frozen-model serving cache.
//!
//! At serving time the model parameters are fixed, so everything Phase II
//! recomputes per query *about the concepts* is loop-invariant: the
//! encoder states `h_1..h_n^c` of every candidate's canonical description
//! (the textual attention memory of Eq. 5), the decoder state after the
//! query-invariant `⟨BOS⟩` step, that step's composite state `s̃₀` with
//! the log-sum-exp of its logits (the first scored word), and the β
//! ancestor encodings forming the structural attention memory (Eq. 7).
//! A [`ConceptCache`] computes all of it once per ontology chapter — on
//! the first request that scores a candidate in the chapter, or ahead of
//! traffic through [`ConceptCache::warm`] — and online scoring then only
//! runs the decoder over the query.
//!
//! **Layout.** A frozen shard is flat storage laid out for its reader:
//! per node one contiguous run `[dec_h1 | dec_c1 | s̃₀ | lse₀ | h_1..h_n]`
//! in a per-shard slab (DESIGN.md §9), and the structural memory as β
//! references to each ancestor's final encoder row *in the same slab* —
//! an ancestor's encoding is that ancestor's own last row, so nothing is
//! stored twice. Scoring a candidate reads one run front to back; a
//! request prefetches its candidates' runs as soon as Phase I names them
//! ([`ConceptCache::prefetch`]).
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
//! - **Bit identity.** Cached scoring runs the slice-level forms of the
//!   uncached forward pass's kernels (the same gate accumulators, the
//!   same attention, the same composite layer) in the same order, so
//!   `log p(q|c)` is bit-identical to [`ComAid::log_prob_ids_masked`] —
//!   asserted by tests, relied on by the linker.
//! - **Version coherence.** A cache remembers the parameter generation
//!   ([`ComAid::version`]) it was frozen from. Training bumps the
//!   generation and loading a checkpoint draws a fresh one, so a stale
//!   cache can never silently serve: every cached entry point checks
//!   [`ConceptCache::is_valid_for`] and falls back to the uncached path.

use super::{ComAid, OntologyIndex};
use ncl_nn::lstm::LstmPlan;
use ncl_nn::Embedding;
use ncl_ontology::ConceptId;
use ncl_tensor::ops::{log_softmax_at_slice, log_softmax_at_slice_relaxed, log_sum_exp_slice};
use ncl_tensor::{simd, Matrix, Vector};
use ncl_text::Vocab;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Storage tier of a [`ConceptCache`] (`LinkerConfig::cache_tier`).
///
/// `Exact` is the default and preserves the cache's founding guarantee:
/// cached scores are **bit-identical** to the uncached forward pass.
/// `Compact` trades that guarantee for memory: the encoder rows — the
/// bulk of a node's run, and through the row references its structural
/// memory too — are stored as bf16-style `u16` mantissa trims
/// ([`simd::narrow_bf16`]) and widened into request scratch per
/// candidate. Everything else (layout, frozen `⟨BOS⟩` state, step-0
/// state, both at f32) is shared with `Exact`. Compact scores are
/// epsilon-bounded, not bit-equal — flagged exactly like `fast_math`:
/// opt-in, deterministic at every dispatch level, and reported by
/// [`ConceptCache::tier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheTier {
    /// Full-precision rows: bit-identical cached scoring.
    #[default]
    Exact,
    /// bf16 encoder rows: epsilon-bounded scoring at about two thirds
    /// of the resident bytes.
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
/// ([`ConceptCache::memory_report`]), in bytes per component: the
/// `capacity()` of every slab and index array the cache holds, so the
/// total is what is resident, not a payload estimate. The per-concept
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
    /// `Compact`) and the per-node row offsets that index them.
    pub enc_state_bytes: usize,
    /// Structural attention memory: the per-slot `u32` references to
    /// ancestor rows. The rows themselves are encoder rows, counted
    /// once, above.
    pub ancestor_bytes: usize,
    /// Frozen post-BOS decoder states (`dec_h1`/`dec_c1`, f32 in both
    /// tiers).
    pub decoder_state_bytes: usize,
    /// Frozen step-0 composite state `s̃₀` and the log-sum-exp of its
    /// logits (`d + 1` floats per node, f32 in both tiers).
    pub step0_bytes: usize,
    /// What the skeleton holds before any shard freezes: the
    /// transposed/fused weight plans (decoder serve plan, and the
    /// encoder plan once the first shard freeze has materialised it)
    /// and the node → shard map.
    pub plan_bytes: usize,
    /// Total ancestor slots across frozen nodes (β per non-root node).
    pub ancestor_slots: usize,
    /// Distinct encoder rows those slots reference — every sibling
    /// shares its ancestors' rows, in both tiers.
    pub ancestor_rows_stored: usize,
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
        self.per_concept_bytes() + self.plan_bytes
    }

    fn per_concept_bytes(&self) -> usize {
        self.enc_state_bytes + self.ancestor_bytes + self.decoder_state_bytes + self.step0_bytes
    }

    /// Per-concept resident bytes over the *frozen* nodes, excluding the
    /// skeleton (model-sized plans and a shard map that is there before
    /// any freeze): the number that scales with `|C|` and the fig17
    /// comparison metric.
    pub fn bytes_per_concept(&self) -> f64 {
        if self.frozen_concepts == 0 {
            return 0.0;
        }
        self.per_concept_bytes() as f64 / self.frozen_concepts as f64
    }

    /// `ancestor_slots / ancestor_rows_stored`: how many ancestor slots
    /// each referenced row serves (1.0 = no sharing).
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
/// ([`LstmPlan::step_projected_into`], `Dense::apply_with_t_into`)
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

/// Floats in a node's head `[dec_h1 | dec_c1 | s̃₀ | lse₀]`, the
/// query-invariant start of every decode against it:
///
/// - `dec_h1`/`dec_c1` — the decoder state after consuming `⟨BOS⟩`. The
///   first decoder step sees only the concept (its input is the fixed
///   BOS vector, its initial state the encoder final state), never the
///   query.
/// - `s̃₀` — that step's composite state (Eq. 8), and `lse₀` the
///   log-sum-exp of its output logits (Eq. 9): the first scored word `w`
///   of any query is `b_s[w] + W_s[w]·s̃₀ − lse₀`, one row of the output
///   layer instead of all `|V|`.
const fn head_len(d: usize) -> usize {
    3 * d + 1
}

/// The storage of one frozen shard, in the tier's row width. Heads are
/// f32 in both tiers; quantization narrows stored rows, never the inputs
/// of frozen computation.
#[derive(Debug, Clone)]
enum Slab {
    /// One run of f32 per node, in local order: `[head | h_1..h_n]`.
    Exact(Vec<f32>),
    /// The same runs split by width: every node's head in `heads`, its
    /// `h_1..h_n` as bf16 words ([`simd::narrow_bf16`]) in `rows`.
    Compact { heads: Vec<f32>, rows: Vec<u16> },
}

/// One frozen shard: every per-node artifact for the nodes of one
/// ontology chapter (plus shard 0, the synthetic root's own slot),
/// indexed by the node's *local* position within the shard.
#[derive(Debug, Clone)]
struct ShardData {
    /// `row_off[l]..row_off[l + 1]` = node `l`'s encoder rows, counted
    /// in rows from the shard's first. With the fixed-size heads this is
    /// the only offset either slab needs.
    row_off: Vec<u32>,
    slab: Slab,
    /// Structural memory: `anc[l·β..(l + 1)·β]` = the local ids of node
    /// `l`'s context entries, slot-expanded as Definition 4.1 lists them
    /// (β is 0 for the root slot and for variants without structural
    /// attention). A slot's memory row is that node's *last* encoder
    /// row, or the zero row when it has no tokens —
    /// `LstmTape::final_h()` on an empty sequence.
    anc: Vec<u32>,
    /// Distinct rows `anc` references.
    anc_rows: usize,
    /// Encoder steps the prefix trie ran for the shard's descriptions.
    enc_steps: usize,
}

/// A span of encoder rows as a shard stores them.
enum Rows<'a> {
    F32(&'a [f32]),
    Bf16(&'a [u16]),
}

impl Rows<'_> {
    /// The rows as f32, written over `out`.
    fn widen_into(&self, out: &mut [f32]) {
        match self {
            Self::F32(rows) => out.copy_from_slice(rows),
            Self::Bf16(rows) => simd::widen_bf16(out, rows),
        }
    }

    fn prefetch(&self) {
        match self {
            Self::F32(rows) => simd::prefetch_read(rows),
            Self::Bf16(rows) => simd::prefetch_read(rows),
        }
    }
}

impl ShardData {
    /// Context slots per node.
    fn beta(&self) -> usize {
        self.anc.len() / (self.row_off.len() - 1)
    }

    /// Node `l`'s context slots, as local ids.
    fn slots(&self, l: usize) -> &[u32] {
        let beta = self.beta();
        &self.anc[l * beta..][..beta]
    }

    /// Node `l`'s rows as indices into the shard's row sequence.
    fn rows_of(&self, l: usize) -> std::ops::Range<usize> {
        self.row_off[l] as usize..self.row_off[l + 1] as usize
    }

    /// Node `l`'s head.
    fn head(&self, d: usize, l: usize) -> &[f32] {
        let heads = match &self.slab {
            // `l` heads and every earlier node's rows precede the run.
            Slab::Exact(slab) => &slab[l * head_len(d) + self.row_off[l] as usize * d..],
            Slab::Compact { heads, .. } => &heads[l * head_len(d)..],
        };
        &heads[..head_len(d)]
    }

    /// Rows `rows` (a sub-range of [`ShardData::rows_of`]`(l)`) of node
    /// `l`.
    fn rows(&self, d: usize, l: usize, rows: std::ops::Range<usize>) -> Rows<'_> {
        match &self.slab {
            // `l + 1` heads precede node `l`'s rows.
            Slab::Exact(slab) => {
                Rows::F32(&slab[(l + 1) * head_len(d) + rows.start * d..][..rows.len() * d])
            }
            Slab::Compact { rows: q, .. } => Rows::Bf16(&q[rows.start * d..rows.end * d]),
        }
    }

    /// The memory row of a context slot naming node `a`: its last
    /// encoder row, `None` (the zero row) when it has no tokens.
    fn final_row(&self, d: usize, a: u32) -> Option<Rows<'_>> {
        let last = self.rows_of(a as usize).last()?;
        Some(self.rows(d, a as usize, last..last + 1))
    }

    /// Node `l`'s encoder rows as f32: borrowed from the slab in
    /// `Exact`, widened into `scratch` in `Compact`.
    fn enc_rows<'a>(&'a self, d: usize, l: usize, scratch: &'a mut [f32]) -> &'a [f32] {
        match self.rows(d, l, self.rows_of(l)) {
            Rows::F32(rows) => rows,
            stored => {
                let out = &mut scratch[..self.rows_of(l).len() * d];
                stored.widen_into(out);
                out
            }
        }
    }

    /// Node `l`'s structural memory, one row per context slot, gathered
    /// into `out` (`β·d` floats).
    fn struct_memory<'a>(&self, d: usize, l: usize, out: &'a mut [f32]) -> &'a [f32] {
        let out = &mut out[..self.beta() * d];
        for (&a, row) in self.slots(l).iter().zip(out.chunks_exact_mut(d)) {
            match self.final_row(d, a) {
                Some(stored) => stored.widen_into(row),
                None => row.fill(0.0),
            }
        }
        out
    }

    /// Hints node `l`'s run, and the rows its context slots reference,
    /// towards L1.
    fn prefetch(&self, d: usize, l: usize) {
        simd::prefetch_read(self.head(d, l));
        self.rows(d, l, self.rows_of(l)).prefetch();
        for &a in self.slots(l) {
            if let Some(row) = self.final_row(d, a) {
                row.prefetch();
            }
        }
    }
}

/// Freeze-time scratch of one shard: the encoder state after every
/// distinct description prefix met so far. The encoder starts each
/// description from the zero state, so that state is a function of the
/// prefix alone and every description sharing the prefix reads it
/// instead of recomputing it.
///
/// States and input projections live in flat arenas rather than a
/// `Vector` per node: the scratch is then a handful of large blocks that
/// go back to the allocator whole when the shard is done.
struct PrefixTrie<'m> {
    plan: &'m LstmPlan,
    embedding: &'m Embedding,
    /// `(parent node, word id)` → node; node 0 is the empty prefix.
    edges: HashMap<(usize, u32), usize>,
    /// Row `n` of `hs` / `cs` (`d` floats each) = the encoder's `h` / `c`
    /// after node `n`'s prefix; row 0 is the zero start state.
    hs: Vec<f32>,
    cs: Vec<f32>,
    /// Word id → its slot in `projs` (`4d` floats each): the input
    /// projection `b + W·x`, made the first time the shard steps on the
    /// word.
    word_slot: HashMap<u32, usize>,
    projs: Vec<f32>,
    gates: Vec<f32>,
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
            word_slot: HashMap::new(),
            projs: Vec::new(),
            gates: vec![0.0; 4 * d],
        }
    }

    /// Encoder steps run so far: one per distinct non-empty prefix.
    fn steps_run(&self) -> usize {
        self.edges.len()
    }

    /// The encoder's `(h, c)` after node `n`'s prefix.
    fn state(&self, n: usize) -> (&[f32], &[f32]) {
        let d = self.plan.hidden();
        (&self.hs[n * d..][..d], &self.cs[n * d..][..d])
    }

    /// The node of `node`'s prefix extended by `word`, stepping the
    /// encoder only when that prefix is new.
    fn step(&mut self, node: usize, word: u32) -> usize {
        let d = self.plan.hidden();
        // Every edge made one node, so the next free row is:
        let next = self.edges.len() + 1;
        match self.edges.entry((node, word)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let slots = self.word_slot.len();
                let slot = *self.word_slot.entry(word).or_insert(slots);
                if slot == slots {
                    self.projs.resize((slots + 1) * 4 * d, 0.0);
                    self.plan.project_input_into(
                        self.embedding.table().row(word as usize),
                        &mut self.projs[slots * 4 * d..],
                    );
                }
                // The child starts as a copy of its parent's state and
                // is stepped in place.
                self.hs.extend_from_within(node * d..(node + 1) * d);
                self.cs.extend_from_within(node * d..(node + 1) * d);
                self.plan.step_projected_into(
                    &self.projs[slot * 4 * d..][..4 * d],
                    &mut self.hs[next * d..],
                    &mut self.cs[next * d..],
                    &mut self.gates,
                );
                *e.insert(next)
            }
        }
    }
}

/// A decode target prepared for cached scoring — the query's word ids,
/// each word's decoder input projection, and every buffer a decode
/// writes — made once per request by [`ComAid::prepare_target`] and
/// reused by every candidate, so scoring a candidate allocates nothing.
pub(crate) struct PreparedTarget<'t> {
    ids: &'t [u32],
    /// Row `t − 1` (`4d` floats) = `b + W·x` of decoder step `t ≥ 1`,
    /// whose input is the word `ids[t − 1]`. Step 0 consumes `⟨BOS⟩` and
    /// is frozen in the cache.
    x_proj: Vec<f32>,
    /// The running decoder state, stepped in place.
    h: Vec<f32>,
    c: Vec<f32>,
    gates: Vec<f32>,
    /// `[s_t ‖ textual ctx ‖ structural ctx]`, `s̃_t`, and the `|V|`
    /// logits of one counted step.
    comp_in: Vec<f32>,
    s_tilde: Vec<f32>,
    logits: Vec<f32>,
    /// Attention weights, sized for the longest memory in the cache.
    att: Vec<f32>,
    /// Where the `Compact` tier widens one candidate's rows, and where
    /// either tier gathers its β ancestor rows.
    rows: Vec<f32>,
    anc: Vec<f32>,
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
    /// `shard_nodes[shard_off[s]..shard_off[s + 1]]` = member node
    /// indices of shard `s`, in local order (the freeze iteration
    /// order).
    shard_off: Vec<u32>,
    shard_nodes: Vec<u32>,
    /// The longest attention memory any node has — description tokens
    /// or context slots — which sizes a request's scratch.
    max_memory: usize,
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

    /// Member node indices of shard `si`, in local order.
    fn members(&self, si: usize) -> &[u32] {
        &self.shard_nodes[self.shard_off[si] as usize..self.shard_off[si + 1] as usize]
    }

    /// Shard `si`, frozen now if nothing has touched it yet — the one
    /// place a shard is filled.
    fn shard(&self, model: &ComAid, index: &OntologyIndex, si: usize) -> &ShardData {
        self.shards[si].get_or_init(|| model.freeze_shard(index, self, si))
    }

    /// The shard and local position of node `ci`, freezing the shard
    /// first if the chapter has not been touched yet. Callers must have
    /// checked [`ConceptCache::serves`] — the freeze reads `model`'s
    /// live parameters, and `ci` indexes the shard map unchecked.
    fn locate(&self, model: &ComAid, index: &OntologyIndex, ci: usize) -> (&ShardData, usize) {
        let shard = self.shard(model, index, self.node_shard[ci] as usize);
        (shard, self.node_local[ci] as usize)
    }

    /// Hints the frozen runs of `concepts` towards L1 — what a request
    /// calls with its candidate list the moment Phase I returns it, so
    /// the lines are in flight while the query is still being prepared.
    /// Chapters nothing has touched yet are skipped (their first decode
    /// freezes them, which leaves them hot anyway): a hint never
    /// freezes. Like [`ConceptCache::locate`], for callers that have
    /// checked [`ConceptCache::serves`].
    pub(crate) fn prefetch(&self, concepts: &[ConceptId]) {
        for c in concepts {
            if let Some(shard) = self.shards[self.node_shard[c.index()] as usize].get() {
                shard.prefetch(self.dim, self.node_local[c.index()] as usize);
            }
        }
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
        let map_words = self.node_shard.capacity()
            + self.node_local.capacity()
            + self.shard_off.capacity()
            + self.shard_nodes.capacity();
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
            plan_bytes: (self.plan.memory_floats() + map_words) * 4,
            ancestor_slots: 0,
            ancestor_rows_stored: 0,
            encoder_tokens: 0,
            encoder_steps_run: 0,
        };
        if let Some(p) = self.enc_plan.get() {
            r.plan_bytes += p.memory_floats() * 4;
        }
        for (s, lock) in self.shards.iter().enumerate() {
            let Some(shard) = lock.get() else { continue };
            let nodes = self.members(s).len();
            r.frozen_shards += 1;
            r.frozen_concepts += nodes;
            r.decoder_state_bytes += nodes * 2 * d * 4;
            r.step0_bytes += nodes * (d + 1) * 4;
            // Whatever a slab holds beyond its heads is encoder rows.
            let heads = nodes * head_len(d) * 4;
            r.enc_state_bytes += shard.row_off.capacity() * 4
                + match &shard.slab {
                    Slab::Exact(slab) => slab.capacity() * 4 - heads,
                    Slab::Compact { heads: h, rows } => {
                        h.capacity() * 4 - heads + rows.capacity() * 2
                    }
                };
            r.ancestor_bytes += shard.anc.capacity() * 4;
            r.ancestor_slots += shard.anc.len();
            r.ancestor_rows_stored += shard.anc_rows;
            r.encoder_tokens += shard.row_off[nodes] as usize;
            r.encoder_steps_run += shard.enc_steps;
        }
        r
    }

    /// Total cache footprint in `f32`-equivalents
    /// ([`CacheMemoryReport::total_bytes`] ÷ 4).
    pub fn memory_floats(&self) -> usize {
        self.memory_report().total_bytes() / 4
    }

    /// The frozen encoder states `h_1..h_n^c` of `concept` — its textual
    /// attention memory as scoring reads it (widened in the `Compact`
    /// tier; empty for a token-less node) — freezing the concept's
    /// shard first if nothing has touched it yet.
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
        let (shard, l) = self.locate(model, index, concept.index());
        let mut scratch = vec![0.0f32; shard.rows_of(l).len() * self.dim];
        let rows = shard.enc_rows(self.dim, l, &mut scratch);
        rows.chunks_exact(self.dim)
            .map(Vector::from_slice)
            .collect()
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
        let mut shard_count = 1u32;
        let mut max_memory = 0usize;
        for i in 0..n {
            let id = ConceptId(i as u32);
            node_shard[i] = match index.context(id).last() {
                None => 0,
                Some(anc) if anc.index() == i => {
                    // First-level concept: its own chapter.
                    shard_count += 1;
                    shard_count - 1
                }
                // Proper ancestor: created before `i`, already resolved.
                Some(anc) => node_shard[anc.index()],
            };
            max_memory = max_memory
                .max(index.tokens(id).len())
                .max(index.context(id).len());
        }
        // Members by shard, ascending within each (a counting sort):
        // `shard_off[s]..shard_off[s + 1]` of `shard_nodes`.
        let mut shard_off = vec![0u32; shard_count as usize + 1];
        for &si in &node_shard {
            shard_off[si as usize + 1] += 1;
        }
        for si in 0..shard_count as usize {
            shard_off[si + 1] += shard_off[si];
        }
        let mut node_local = vec![0u32; n];
        let mut shard_nodes = vec![0u32; n];
        let mut filled = vec![0u32; shard_count as usize];
        for (i, &si) in node_shard.iter().enumerate() {
            let si = si as usize;
            node_local[i] = filled[si];
            shard_nodes[(shard_off[si] + filled[si]) as usize] = i as u32;
            filled[si] += 1;
        }
        // The decoder/composite/output plan is kept for every online
        // step; the encoder plan is only needed by shard freezes and is
        // materialised lazily alongside the first one.
        let plan = ServePlan {
            decoder: self.decoder.plan(),
            composite_wt: self.composite.weight_t(),
            output_wt: self.output.weight_t(),
        };
        let shards = (0..shard_count).map(|_| OnceLock::new()).collect();
        ConceptCache {
            version: self.version(),
            dim: self.config().dim,
            tier,
            node_shard,
            node_local,
            shard_off,
            shard_nodes,
            max_memory,
            shards,
            plan,
            enc_plan: OnceLock::new(),
            fast_math: false,
        }
    }

    /// Freezes one chapter shard, writing every node's run straight
    /// into a slab sized up front: its encoder rows off the prefix trie,
    /// the post-BOS decoder state, the step-0 composite state and
    /// log-sum-exp, and its context slots as row references. Chapter
    /// subtrees are self-contained (every context entry of a member is
    /// itself a member, and precedes it or is it), so the shard never
    /// reads outside its own encoder states.
    ///
    /// The one freeze path — first touch, [`ConceptCache::warm`] and
    /// hot-swap publish all land here. Descriptions go through a
    /// [`PrefixTrie`], so a shard with
    /// no shared prefix pays one hash probe per token over a plain
    /// per-concept pass and any other shard runs fewer encoder steps.
    /// Frozen computation always reads the *exact* trie states and the
    /// exact kernels, in both tiers and whatever `fast_math` says:
    /// those only perturb per-query reads, never the cache contents.
    fn freeze_shard(&self, index: &OntologyIndex, cache: &ConceptCache, si: usize) -> ShardData {
        let d = self.config().dim;
        let nodes = cache.members(si);
        let enc_plan = cache.enc_plan.get_or_init(|| self.encoder.plan());
        let mut row_off = Vec::with_capacity(nodes.len() + 1);
        let mut total_rows = 0usize;
        row_off.push(0u32);
        for &ni in nodes {
            total_rows += index.tokens(ConceptId(ni)).len();
            row_off.push(u32::try_from(total_rows).expect("shard rows fit u32"));
        }
        let heads = nodes.len() * head_len(d);
        let mut slab = match cache.tier {
            CacheTier::Exact => Slab::Exact(vec![0.0; heads + total_rows * d]),
            CacheTier::Compact => Slab::Compact {
                heads: vec![0.0; heads],
                rows: vec![0; total_rows * d],
            },
        };
        // Definition 4.1 gives every non-root node exactly β slots.
        let beta = match nodes.first() {
            Some(&ni) if self.config().variant.uses_struct() => index.context(ConceptId(ni)).len(),
            _ => 0,
        };
        let mut anc: Vec<u32> = Vec::with_capacity(nodes.len() * beta);
        let mut referenced = vec![false; nodes.len()];

        let mut trie = PrefixTrie::new(enc_plan, &self.embedding);
        // The first decoder step's input is the BOS embedding for every
        // node: projected once for the whole shard.
        let bos_proj = cache
            .plan
            .decoder
            .project_input(self.embedding.table().row(Vocab::BOS as usize));
        // `final_node[l]` = the trie node of local `l`'s whole
        // description (0, the zero state, when it has no tokens).
        let mut final_node: Vec<usize> = Vec::with_capacity(nodes.len());
        let mut enc_rows: Vec<f32> = Vec::new();
        let mut anc_rows = vec![0.0f32; beta * d];
        let mut gates = vec![0.0f32; 4 * d];
        let mut att = vec![0.0f32; cache.max_memory];
        let mut comp_in = vec![0.0f32; self.composite.in_dim()];
        let mut logits = vec![0.0f32; self.output.out_dim()];
        for (l, &ni) in nodes.iter().enumerate() {
            let id = ConceptId(ni);
            enc_rows.clear();
            let mut node = 0usize;
            for &word in index.tokens(id) {
                node = trie.step(node, word);
                enc_rows.extend_from_slice(trie.state(node).0);
            }
            final_node.push(node);
            if beta > 0 {
                let context = index.context(id);
                assert_eq!(context.len(), beta, "context slots per node");
                for (&a, row) in context.iter().zip(anc_rows.chunks_exact_mut(d)) {
                    debug_assert_eq!(
                        cache.node_shard[a.index()] as usize,
                        si,
                        "context entry outside its chapter shard"
                    );
                    let a = cache.node_local[a.index()];
                    anc.push(a);
                    referenced[a as usize] = true;
                    row.copy_from_slice(trie.state(final_node[a as usize]).0);
                }
            }
            let head = match &mut slab {
                Slab::Exact(slab) => {
                    let run = &mut slab[l * head_len(d) + row_off[l] as usize * d..];
                    let (head, rows) = run.split_at_mut(head_len(d));
                    rows[..enc_rows.len()].copy_from_slice(&enc_rows);
                    head
                }
                Slab::Compact { heads, rows } => {
                    let out = &mut rows[row_off[l] as usize * d..][..enc_rows.len()];
                    simd::narrow_bf16(out, &enc_rows);
                    &mut heads[l * head_len(d)..][..head_len(d)]
                }
            };
            let (h1, rest) = head.split_at_mut(d);
            let (c1, rest) = rest.split_at_mut(d);
            let (s_tilde, lse) = rest.split_at_mut(d);
            let (h0, c0) = trie.state(node);
            h1.copy_from_slice(h0);
            c1.copy_from_slice(c0);
            cache
                .plan
                .decoder
                .step_projected_into(bos_proj.as_slice(), h1, c1, &mut gates);
            self.composite_input(h1, &enc_rows, &anc_rows, &mut att, &mut comp_in, false);
            self.composite
                .apply_with_t_into(&comp_in, &cache.plan.composite_wt, s_tilde);
            self.output
                .apply_with_t_into(s_tilde, &cache.plan.output_wt, &mut logits);
            lse[0] = log_sum_exp_slice(&logits);
        }
        // A token-less ancestor is the zero row: nothing stored.
        let anc_rows = (0..nodes.len())
            .filter(|&a| referenced[a] && row_off[a] < row_off[a + 1])
            .count();
        ShardData {
            row_off,
            slab,
            anc,
            anc_rows,
            enc_steps: trie.steps_run(),
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
        let mut prepared = self.prepare_target(cache, target);
        self.log_prob_prepared(index, cache, concept, &mut prepared, count)
    }

    /// Projects a decode target's words through the cached decoder plan
    /// and sets up the scratch a decode writes — once, for any number of
    /// candidates scored against it. Callers must have checked
    /// [`ConceptCache::serves`].
    pub(crate) fn prepare_target<'t>(
        &self,
        cache: &ConceptCache,
        target: &'t [u32],
    ) -> PreparedTarget<'t> {
        let d = cache.dim;
        let mut x_proj = vec![0.0f32; target.len() * 4 * d];
        for (&w, out) in target.iter().zip(x_proj.chunks_exact_mut(4 * d)) {
            cache
                .plan
                .decoder
                .project_input_into(self.embedding.table().row(w as usize), out);
        }
        let widened = match cache.tier {
            CacheTier::Exact => 0,
            CacheTier::Compact => cache.max_memory * d,
        };
        PreparedTarget {
            ids: target,
            x_proj,
            h: vec![0.0; d],
            c: vec![0.0; d],
            gates: vec![0.0; 4 * d],
            comp_in: vec![0.0; self.composite.in_dim()],
            s_tilde: vec![0.0; d],
            logits: vec![0.0; self.output.out_dim()],
            att: vec![0.0; cache.max_memory],
            rows: vec![0.0; widened],
            anc: vec![0.0; cache.max_memory * d],
        }
    }

    /// `log p(q|c)` of a prepared target against `concept`'s frozen run
    /// — the one function that decodes a query against cached rows,
    /// behind every request whatever its deadline or fault plan, and
    /// allocation-free: every buffer it writes is `prepared`'s. Callers
    /// must have checked [`ConceptCache::serves`].
    ///
    /// Step 0 (the `⟨BOS⟩` step) is frozen: the decoder resumes from the
    /// run's post-BOS state, and a counted first word reads its logit
    /// off the frozen composite state ([`head_len`]). Steps whose mask
    /// entry is `false` contribute nothing to the masked sum and nothing
    /// downstream depends on their head outputs, so only the decoder
    /// recurrence advances through them; the terminal EOS step is always
    /// counted.
    ///
    /// # Panics
    /// Panics if `count.len()` differs from the target's length.
    pub(crate) fn log_prob_prepared(
        &self,
        index: &OntologyIndex,
        cache: &ConceptCache,
        concept: ConceptId,
        prepared: &mut PreparedTarget<'_>,
        count: &[bool],
    ) -> f32 {
        let PreparedTarget {
            ids: target,
            x_proj,
            h,
            c,
            gates,
            comp_in,
            s_tilde,
            logits,
            att,
            rows,
            anc,
        } = prepared;
        assert_eq!(count.len(), target.len(), "mask length mismatch");
        let d = cache.dim;
        let (shard, l) = cache.locate(self, index, concept.index());
        let head = shard.head(d, l);
        let enc_rows = shard.enc_rows(d, l, rows);
        let struct_mem = shard.struct_memory(d, l, anc);
        let relaxed = cache.fast_math;
        let counted = |t: usize| count.get(t).copied().unwrap_or(true);
        let word = |t: usize| target.get(t).copied().unwrap_or(Vocab::EOS) as usize;

        h.copy_from_slice(&head[..d]);
        c.copy_from_slice(&head[d..2 * d]);
        let mut lp = 0.0f32;
        if counted(0) {
            lp += self.step0_log_prob(head, word(0));
        }
        for (t, x) in (1..).zip(x_proj.chunks_exact(4 * d)) {
            cache.plan.decoder.step_projected_into(x, h, c, gates);
            if !counted(t) {
                continue;
            }
            self.composite_input(h, enc_rows, struct_mem, att, comp_in, relaxed);
            self.composite
                .apply_with_t_into(comp_in, &cache.plan.composite_wt, s_tilde);
            self.output
                .apply_with_t_into(s_tilde, &cache.plan.output_wt, logits);
            lp += if relaxed {
                log_softmax_at_slice_relaxed(logits, word(t))
            } else {
                log_softmax_at_slice(logits, word(t))
            };
        }
        lp
    }

    /// `log p(word | ⟨BOS⟩, c)` off a frozen head ([`head_len`]): the
    /// one output-layer row of `word` against `s̃₀`, minus `lse₀` — the
    /// bits of `log_softmax(logits₀)[word]`, because the row's logit is
    /// the reduction the full pass ran for it when `lse₀` was frozen.
    fn step0_log_prob(&self, head: &[f32], word: usize) -> f32 {
        let d = self.config().dim;
        self.output.apply_row(&head[2 * d..3 * d], word) - head[3 * d]
    }

    /// Builds one step's composite-layer input `[s_t ‖ textual ctx ‖
    /// structural ctx]` in `comp_in` from flat attention memories (`d`
    /// floats per row), with exactly the zero-padding rules of the
    /// uncached forward pass: a variant that *uses* a context but has an
    /// empty memory gets a zero block. `att` is weight scratch at least
    /// as long as either memory. `relaxed` selects the fast-math
    /// attention dots; exact serving and freezing pass `false`.
    fn composite_input(
        &self,
        s_t: &[f32],
        enc_rows: &[f32],
        struct_mem: &[f32],
        att: &mut [f32],
        comp_in: &mut [f32],
        relaxed: bool,
    ) {
        let d = s_t.len();
        let variant = self.config().variant;
        let (state, mut rest) = comp_in.split_at_mut(d);
        state.copy_from_slice(s_t);
        for (used, memory) in [
            (variant.uses_text(), enc_rows),
            (variant.uses_struct(), struct_mem),
        ] {
            if !used {
                continue;
            }
            let (ctx, tail) = std::mem::take(&mut rest).split_at_mut(d);
            rest = tail;
            if memory.is_empty() {
                ctx.fill(0.0);
            } else {
                let weights = &mut att[..memory.len() / d];
                self.attention
                    .attend_into(memory.chunks_exact(d), s_t, weights, ctx, relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ComAidConfig, Variant};
    use super::*;
    use ncl_ontology::{Ontology, OntologyBuilder};
    use ncl_text::tokenize;

    /// Two chapters with every shape a run can take: first-level
    /// concepts (their context names themselves), depth-1 nodes (depth
    /// < β: the chapter is duplicated), a depth-2 node (a full context),
    /// and a chapter whose own description has no tokens, so its
    /// children's structural memory is the zero row.
    fn tiny_world() -> (Ontology, Vocab) {
        let mut b = OntologyBuilder::new();
        let n18 = b.add_root_concept("N18", "chronic kidney disease");
        let n185 = b.add_child(n18, "N18.5", "chronic kidney disease stage 5");
        b.add_child(n185, "N18.51", "chronic kidney disease stage 5 on dialysis");
        b.add_child(n18, "N18.9", "chronic kidney disease unspecified");
        let r10 = b.add_root_concept("R10", "--");
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

    /// Every node of the world, the root slot included.
    fn all_nodes(o: &Ontology) -> Vec<ConceptId> {
        std::iter::once(Ontology::ROOT)
            .chain(o.all_concepts())
            .collect()
    }

    #[test]
    fn cached_score_bit_identical_for_all_variants() {
        let (o, v) = tiny_world();
        let idx = OntologyIndex::build(&o, &v, 2);
        for &variant in Variant::ALL {
            let m = model_for(variant, v.clone());
            let cache = m.freeze(&idx);
            assert!(cache.is_valid_for(&m));
            // A query, a target of one word, the empty target.
            for text in ["ckd stage 5", "dialysis", ""] {
                let target = m.encode_text(text);
                let masks = [
                    vec![true; target.len()],
                    vec![false; target.len()],
                    (0..target.len()).map(|i| i % 2 == 0).collect::<Vec<_>>(),
                ];
                for id in all_nodes(&o) {
                    for mask in &masks {
                        let plain = m.log_prob_ids_masked(&idx, id, &target, mask);
                        let cached = m.log_prob_ids_masked_cached(&idx, &cache, id, &target, mask);
                        assert_eq!(
                            plain.to_bits(),
                            cached.to_bits(),
                            "{variant:?} {:?} {text:?} mask {mask:?}",
                            o.concept(id).code
                        );
                    }
                }
            }
        }
    }

    /// The frozen first step, for every word of the vocabulary against
    /// every node: `b_s[w] + W_s[w]·s̃₀ − lse₀` has the bits of the
    /// uncached pass's `log_softmax(logits₀)[w]` — a `-0.0` output bias
    /// entry included, at every dispatch level.
    #[test]
    fn frozen_first_step_has_the_bits_of_the_uncached_softmax_row() {
        let (o, v) = tiny_world();
        let idx = OntologyIndex::build(&o, &v, 2);
        for &variant in Variant::ALL {
            let mut m = model_for(variant, v.clone());
            m.output.b.v[5] = -0.0;
            for level in simd::supported_levels() {
                let cache = simd::with_level(level, || {
                    let cache = m.freeze(&idx);
                    cache.warm(&m, &idx);
                    cache
                });
                for id in all_nodes(&o) {
                    let (shard, l) = cache.locate(&m, &idx, id.index());
                    for w in 0..m.vocab().len() {
                        let want = simd::with_level(simd::Level::Scalar, || {
                            m.run_example(&idx, id, &[w as u32]).step_log_probs[0]
                        });
                        let got = m.step0_log_prob(shard.head(6, l), w);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{variant:?} {} {:?} word {w}",
                            level.name(),
                            o.concept(id).code
                        );
                    }
                }
            }
        }
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
        // entry point falls back to the live parameters.
        let plain = m.log_prob_ids_masked(&idx, c, &target, &mask);
        let via_cache = m.log_prob_ids_masked_cached(&idx, &cache, c, &target, &mask);
        assert_eq!(plain.to_bits(), via_cache.to_bits());

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
        for (i, &c) in concepts.iter().enumerate() {
            let relaxed = m.log_prob_ids_masked_cached(&idx, &cache, c, &target, &mask);
            // Relaxed kernels perturb the score by rounding noise only.
            assert!(
                (relaxed - exact[i]).abs() < 1e-3 * exact[i].abs().max(1.0),
                "{:?}: exact {} relaxed {relaxed}",
                o.concept(c).code,
                exact[i]
            );
            // One prepared target serving every candidate agrees bitwise
            // with a fresh one per candidate (the scratch carries
            // nothing over), at a fixed dispatch level.
            let mut shared = m.prepare_target(&cache, &target);
            for &other in &concepts {
                m.log_prob_prepared(&idx, &cache, other, &mut shared, &mask);
            }
            let reused = m.log_prob_prepared(&idx, &cache, c, &mut shared, &mask);
            assert_eq!(relaxed.to_bits(), reused.to_bits());
        }

        cache.set_fast_math(false);
        for (i, &c) in concepts.iter().enumerate() {
            let back = m.log_prob_ids_masked_cached(&idx, &cache, c, &target, &mask);
            assert_eq!(back.to_bits(), exact[i].to_bits());
        }
    }
}
