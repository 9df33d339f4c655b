//! Frozen-model serving cache.
//!
//! At serving time the model parameters are fixed, so everything Phase II
//! recomputes per query *about the concepts* is loop-invariant: the
//! encoder states `h_1..h_n^c` of every candidate's canonical description
//! (the textual attention memory of Eq. 5), the decoder state after the
//! query-invariant `⟨BOS⟩` step, that step's composite state `s̃₀` with
//! the log-sum-exp of its logits (the first scored word), and the β
//! ancestor encodings forming the structural attention memory (Eq. 7).
//! A [`ConceptCache`] computes all of it once, chapter by chapter, when
//! it is built ([`ComAid::freeze_tiered`]), and online scoring then only
//! runs the decoder over the query.
//!
//! **Layout.** Four flat arrays, indexed by node id (DESIGN.md §9): one
//! row store of `d`-float rows — row 0 the zero start state, then one
//! row per distinct description prefix of each chapter, the encoder
//! state after that prefix; one *path* per node, a row id per
//! description token (its textual memory `h_1..h_n`); β slot row ids
//! per node, each context entry's final state, which is a row the
//! entry's own path already ends on (row 0 for a token-less one); and
//! one head per fine-grained concept. So a leaf that extends its
//! parent's description costs only its new words, and nothing is stored
//! twice. Only the fine-grained concepts of Definition 2.1 — the set
//! Phase I retrieves and Phase II ranks — hold a head;
//! [`ComAid::log_prob_ids_masked_cached`] sends any other node to the
//! uncached path. Scoring a candidate gathers its rows into request
//! scratch.
//!
//! The freeze itself shares work exactly. The encoder starts every
//! description from the zero state, so its state after a token prefix is
//! a function of that prefix alone, and ICD-style descriptions extend
//! their parent's: the freeze walks each chapter's descriptions through a
//! prefix trie and runs an encoder step only for a prefix the chapter
//! has not met (`CacheMemoryReport::encoder_share_ratio`). The chapter is
//! the freeze's scratch unit only: one trie serves every chapter in turn,
//! its maps emptied in between, and its `h` arena, which each chapter
//! extends, is the row store. Inside a step the input half `b + W·x` of
//! the gate pre-activations depends on the input alone
//! ([`LstmPlan::project_input`]), so the freeze projects each word id
//! once per chapter and scoring projects each query word once per
//! request instead of once per candidate. Both reuse the very values the
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
//!   cache can never silently serve: the public cached entry point
//!   checks [`ConceptCache::is_valid_for`] and falls back to the uncached
//!   path.

use super::{ComAid, ComAidPlan, OntologyIndex};
use crate::csr::Csr;
use ncl_nn::lstm::LstmPlan;
use ncl_nn::Embedding;
use ncl_ontology::ConceptId;
use ncl_tensor::ops::{log_softmax_at_slice, log_sum_exp_slice};
use ncl_tensor::{simd, Vector};
use ncl_text::Vocab;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Storage tier of a [`ConceptCache`] (`LinkerConfig::cache_tier`).
///
/// `Exact` is the default and preserves the cache's founding guarantee:
/// cached scores are **bit-identical** to the uncached forward pass.
/// `Compact` trades that guarantee for memory: the row store —
/// every encoder state either attention memory reads — is stored as
/// bf16-style `u16` mantissa trims ([`simd::narrow_bf16`]) and widened
/// into request scratch per candidate. Everything else (paths, slot
/// references, and the heads, computed from the exact states and kept
/// at f32) is shared with `Exact`. Compact scores are epsilon-bounded,
/// not bit-equal: opt-in, deterministic at every dispatch level, and
/// reported by [`ConceptCache::tier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheTier {
    /// Full-precision rows: bit-identical cached scoring.
    #[default]
    Exact,
    /// bf16 encoder rows: epsilon-bounded scoring at about three
    /// quarters of the resident bytes.
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
/// `capacity()` of every array the cache holds, so the total is what is
/// resident, not a payload estimate.
#[derive(Debug, Clone, Copy)]
pub struct CacheMemoryReport {
    /// Storage tier the cache was frozen with.
    pub tier: CacheTier,
    /// Ontology nodes the cache covers (including the root slot).
    pub concepts: usize,
    /// Encoder state rows — the zero row and one per distinct
    /// description prefix of a chapter, f32 in `Exact`, bf16 in
    /// `Compact` — and the per-node paths that index them (a `u32` per
    /// description token, an offset per node and a closing one).
    pub enc_state_bytes: usize,
    /// Structural attention memory: β `u32` references to ancestor rows
    /// per node, the root slot's filler included. The rows themselves
    /// are encoder rows, counted once, above.
    pub ancestor_bytes: usize,
    /// Frozen post-BOS decoder states (`dec_h1`/`dec_c1`, f32 in both
    /// tiers) of the fine-grained concepts.
    pub decoder_state_bytes: usize,
    /// Frozen step-0 composite state `s̃₀` and the log-sum-exp of its
    /// logits (`d + 1` floats per fine-grained concept, f32 in both
    /// tiers).
    pub step0_bytes: usize,
    /// What the cache holds besides its per-concept arrays: the model's
    /// transposed, gate-fused weights ([`ComAidPlan`]) and the node →
    /// head-slot map.
    pub plan_bytes: usize,
    /// Total ancestor slots across all nodes (β per non-root node).
    pub ancestor_slots: usize,
    /// Distinct encoder rows those slots reference — every sibling
    /// shares its ancestors' rows, in both tiers.
    pub ancestor_rows_stored: usize,
    /// Description tokens of all nodes: the encoder steps a per-concept
    /// pass would run.
    pub encoder_tokens: usize,
    /// Encoder steps the freeze actually ran — one per distinct
    /// description prefix within a chapter, each a stored row.
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

    /// Per-concept resident bytes, excluding the model-sized plans and
    /// the head-slot map (`plan_bytes`): the number that scales with `|C|`
    /// and the fig17 comparison metric.
    pub fn bytes_per_concept(&self) -> f64 {
        if self.concepts == 0 {
            return 0.0;
        }
        self.per_concept_bytes() as f64 / self.concepts as f64
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
    /// each encoder step served (1.0 = no two descriptions in a chapter
    /// share a prefix).
    pub fn encoder_share_ratio(&self) -> f64 {
        if self.encoder_steps_run == 0 {
            return 1.0;
        }
        self.encoder_tokens as f64 / self.encoder_steps_run as f64
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

/// `ConceptCache::node_head` of a node that holds no frozen head.
const NO_HEAD: u32 = u32::MAX;

/// Rows `ids` of a flat arena of `d`-wide rows, each written as f32 by
/// `widen`, one after another in `out`.
fn gather<'a, T>(
    d: usize,
    rows: &[T],
    ids: &[u32],
    out: &'a mut [f32],
    widen: impl Fn(&mut [f32], &[T]),
) -> &'a [f32] {
    let out = &mut out[..ids.len() * d];
    for (&id, row) in ids.iter().zip(out.chunks_exact_mut(d)) {
        widen(row, &rows[id as usize * d..][..d]);
    }
    out
}

/// The row store, in the tier's width. Heads are f32 in both tiers;
/// quantization narrows stored rows, never the inputs of frozen
/// computation.
#[derive(Debug, Clone)]
enum Rows {
    /// The prefix trie's `h` arena itself.
    F32(Vec<f32>),
    /// That arena as bf16 words ([`simd::narrow_bf16`]).
    Bf16(Vec<u16>),
}

impl Rows {
    /// The store of the freeze's `h` arena, with `capacity()` exactly
    /// its length (the memory report counts capacity): the arena itself
    /// in `Exact`, narrowed once in `Compact`.
    fn new(tier: CacheTier, mut h: Vec<f32>) -> Self {
        match tier {
            CacheTier::Exact => {
                h.shrink_to_fit();
                Self::F32(h)
            }
            CacheTier::Compact => {
                let mut q = vec![0u16; h.len()];
                simd::narrow_bf16(&mut q, &h);
                Self::Bf16(q)
            }
        }
    }

    /// Rows `ids` as f32 — copied in `Exact`, widened in `Compact` —
    /// one after another in `out`.
    fn gather<'a>(&self, d: usize, ids: &[u32], out: &'a mut [f32]) -> &'a [f32] {
        match self {
            Self::F32(rows) => gather(d, rows, ids, out, <[f32]>::copy_from_slice),
            Self::Bf16(rows) => gather(d, rows, ids, out, simd::widen_bf16),
        }
    }

    /// Rows stored.
    fn count(&self, d: usize) -> usize {
        match self {
            Self::F32(rows) => rows.len() / d,
            Self::Bf16(rows) => rows.len() / d,
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Self::F32(rows) => rows.capacity() * 4,
            Self::Bf16(rows) => rows.capacity() * 2,
        }
    }
}

/// The freeze's prefix trie, over one chapter at a time: the encoder
/// state after every distinct description prefix the chapter has met.
/// The encoder starts each description from the zero state, so that
/// state is a function of the prefix alone and every description
/// sharing the prefix reads it instead of recomputing it.
///
/// States and input projections live in flat arenas rather than a
/// `Vector` per node. The `h` arena is the cache's row store: row 0 is
/// the zero start state, each chapter appends its rows after the last
/// chapter's, and a trie node is its row id. [`PrefixTrie::reset`]
/// empties everything else for the next chapter, keeping its capacity:
/// the maps, the projections and the `c` arena, which holds only the
/// current chapter's rows (one ontology-wide `c` arena would double the
/// freeze's peak). Both arenas are sized once, from description token
/// counts — a chapter runs at most one encoder step per token — so
/// neither grows during the freeze.
struct PrefixTrie<'m> {
    plan: &'m LstmPlan,
    embedding: &'m Embedding,
    /// `(parent node, word id)` → node; node 0 is the empty prefix.
    edges: HashMap<(u32, u32), u32>,
    /// Row `n` (`d` floats) = the encoder's `h` after node `n`'s prefix.
    hs: Vec<f32>,
    /// The chapter's `c` rows: node `n`'s is row `n − base`, and row 0,
    /// the zero state, is the empty prefix's.
    cs: Vec<f32>,
    /// The chapter's nodes are `base + 1..`.
    base: u32,
    /// Word id → its slot in `projs` (`4d` floats each): the input
    /// projection `b + W·x`, made the first time the chapter steps on
    /// the word.
    word_slot: HashMap<u32, usize>,
    projs: Vec<f32>,
    gates: Vec<f32>,
}

impl<'m> PrefixTrie<'m> {
    /// A trie holding only the zero start state, with room for `tokens`
    /// encoder steps in all and `chapter_tokens` in any one chapter.
    /// [`PrefixTrie::reset`] readies it for a chapter.
    fn new(
        plan: &'m LstmPlan,
        embedding: &'m Embedding,
        tokens: usize,
        chapter_tokens: usize,
    ) -> Self {
        let d = plan.hidden();
        let mut hs = Vec::with_capacity((tokens + 1) * d);
        hs.resize(d, 0.0);
        Self {
            plan,
            embedding,
            edges: HashMap::new(),
            hs,
            cs: Vec::with_capacity((chapter_tokens + 1) * d),
            base: 0,
            word_slot: HashMap::new(),
            projs: Vec::new(),
            gates: vec![0.0; 4 * plan.hidden()],
        }
    }

    /// Starts a chapter: no prefix met but the empty one, whose `c` is
    /// the zero state.
    fn reset(&mut self) {
        let d = self.plan.hidden();
        self.edges.clear();
        self.word_slot.clear();
        self.projs.clear();
        self.base = u32::try_from(self.hs.len() / d - 1).expect("cache rows fit u32");
        self.cs.clear();
        self.cs.resize(d, 0.0);
    }

    /// The `c` row of node `n`: 0 for the empty prefix.
    fn c_row(&self, n: u32) -> usize {
        n.saturating_sub(self.base) as usize
    }

    /// The encoder's `(h, c)` after node `n`'s prefix.
    fn state(&self, n: u32) -> (&[f32], &[f32]) {
        let d = self.plan.hidden();
        (
            &self.hs[n as usize * d..][..d],
            &self.cs[self.c_row(n) * d..][..d],
        )
    }

    /// The node of `node`'s prefix extended by `word`, stepping the
    /// encoder only when that prefix is new.
    fn step(&mut self, node: u32, word: u32) -> u32 {
        let d = self.plan.hidden();
        let next = u32::try_from(self.hs.len() / d).expect("cache rows fit u32");
        let (parent_c, next_c) = (self.c_row(node) * d, self.c_row(next) * d);
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
                let parent_h = node as usize * d;
                self.hs.extend_from_within(parent_h..parent_h + d);
                self.cs.extend_from_within(parent_c..parent_c + d);
                self.plan.step_projected_into(
                    &self.projs[slot * 4 * d..][..4 * d],
                    &mut self.hs[next as usize * d..],
                    &mut self.cs[next_c..],
                    &mut self.gates,
                );
                *e.insert(next)
            }
        }
    }

    /// Walks `tokens` from the empty prefix, writing the node after each
    /// token to `path`.
    fn walk(&mut self, tokens: &[u32], path: &mut [u32]) {
        let mut node = 0;
        for (&word, at) in tokens.iter().zip(path) {
            node = self.step(node, word);
            *at = node;
        }
    }
}

/// The one-word decode target of every head: `⟨BOS⟩`.
const BOS: &[u32] = &[Vocab::BOS];

/// A decode target prepared for cached scoring — the query's word ids,
/// each word's decoder input projection, and every buffer a decode
/// writes — made once per request by [`ComAid::prepare_target`] and
/// reused by every candidate, so scoring a candidate allocates nothing.
/// Prepared for the one-word target `⟨BOS⟩`, it is also the scratch of
/// [`ComAid::head_into`]: that word's projection is the first decoder
/// step's input, the same for every node.
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
    /// Where one candidate's rows are gathered: `max_tokens` rows for
    /// its `h_1..h_n`, then β for its slot rows.
    memory: Vec<f32>,
}

/// Precomputed per-concept encoder state, frozen at a specific parameter
/// generation: one flat layout indexed by node id, aligned with the
/// [`OntologyIndex`] it was built from (entry `cid.index()` belongs to
/// concept `cid`).
///
/// [`ComAid::freeze_tiered`] freezes every chapter before it returns, so
/// the cache is plain immutable data: scoring threads share one cache,
/// and no request ever blocks on or pays for a freeze.
#[derive(Debug, Clone)]
pub struct ConceptCache {
    /// The [`ComAid::version`] this cache was frozen from.
    version: u64,
    dim: usize,
    tier: CacheTier,
    /// Row `r` = the encoder state after prefix-trie node `r`'s prefix;
    /// row 0 is the zero start state, and each chapter's rows follow
    /// the chapter frozen before it.
    rows: Rows,
    /// Row `i` = node `i`'s path: the row after each of its description
    /// tokens, i.e. its `h_1..h_n` as row ids.
    paths: Csr,
    /// Structural memory: `slots[i·β..(i + 1)·β]` = the row of each of
    /// node `i`'s context entries, slot-expanded as Definition 4.1
    /// lists them — that entry's last path id, or row 0 when it has no
    /// tokens (`LstmTape::final_h()` on an empty sequence). The root
    /// slot's are filler, never read.
    slots: Vec<u32>,
    /// Context slots per node: the index's β, or 0 for a variant
    /// without structural attention.
    beta: usize,
    /// `node_head[i]` = node `i`'s head in `heads`, or [`NO_HEAD`]: only
    /// the fine-grained concepts of Definition 2.1 — the candidates
    /// Phase I can return — hold a frozen head.
    node_head: Vec<u32>,
    /// The heads, `head_len(d)` floats each, in node order.
    heads: Vec<f32>,
    /// The longest description any node has: the longest textual
    /// memory, which sizes a request's scratch with `beta`.
    max_tokens: usize,
    /// Distinct non-zero rows `slots` references.
    ancestor_rows: usize,
    /// The model's transposed, gate-fused weights at the generation the
    /// cache was frozen from: the encoder's for the freeze, the
    /// decoder, composite and output layers' for every online step
    /// ([`LstmPlan::step_projected_into`], `Dense::apply_with_t_into`).
    plan: ComAidPlan,
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
    /// of the one its layout was built over (a cache shared across
    /// ontologies would otherwise be read out of bounds).
    pub(crate) fn serves(&self, model: &ComAid, index: &OntologyIndex) -> bool {
        self.is_valid_for(model) && self.len() == index.len()
    }

    /// Number of ontology nodes covered (including the root slot).
    pub fn len(&self) -> usize {
        self.node_head.len()
    }

    /// Whether the cache covers no concepts.
    pub fn is_empty(&self) -> bool {
        self.node_head.is_empty()
    }

    /// The storage tier this cache was frozen with.
    pub fn tier(&self) -> CacheTier {
        self.tier
    }

    /// Encoder state rows stored: the zero row and one per distinct
    /// description prefix of a chapter.
    pub fn row_count(&self) -> usize {
        self.rows.count(self.dim)
    }

    /// Node `i`'s context slots, as row ids.
    fn slots(&self, i: usize) -> &[u32] {
        &self.slots[i * self.beta..][..self.beta]
    }

    /// `concept`'s frozen head.
    ///
    /// # Panics
    /// Panics if `concept` holds no head: it is not one of the
    /// fine-grained concepts Phase I retrieves.
    fn head(&self, concept: ConceptId) -> &[f32] {
        match self.node_head[concept.index()] {
            NO_HEAD => panic!("{concept:?} holds no frozen head: it is not fine-grained"),
            slot => &self.heads[slot as usize * head_len(self.dim)..][..head_len(self.dim)],
        }
    }

    /// Resident-size breakdown: per-component bytes, the concept count,
    /// and the ancestor-memory dedup ratio.
    pub fn memory_report(&self) -> CacheMemoryReport {
        let d = self.dim;
        // A head is `dec_h1 | dec_c1` and then the step-0 state.
        let dec = self.heads.len() / head_len(d) * 2 * d * 4;
        CacheMemoryReport {
            tier: self.tier,
            concepts: self.len(),
            enc_state_bytes: self.rows.heap_bytes() + self.paths.heap_bytes(),
            ancestor_bytes: self.slots.capacity() * 4,
            decoder_state_bytes: dec,
            step0_bytes: self.heads.capacity() * 4 - dec,
            plan_bytes: (self.plan.memory_floats() + self.node_head.capacity()) * 4,
            // The root slot's β are filler.
            ancestor_slots: self.slots.len() - self.beta,
            ancestor_rows_stored: self.ancestor_rows,
            encoder_tokens: self.paths.len(),
            // Every row but the zero row is one encoder step.
            encoder_steps_run: self.row_count() - 1,
        }
    }

    /// Total cache footprint in `f32`-equivalents
    /// ([`CacheMemoryReport::total_bytes`] ÷ 4).
    pub fn memory_floats(&self) -> usize {
        self.memory_report().total_bytes() / 4
    }

    /// The frozen encoder states `h_1..h_n^c` of `concept` — its textual
    /// attention memory as scoring reads it (widened in the `Compact`
    /// tier; empty for a token-less node).
    ///
    /// # Panics
    /// Panics if `concept` is outside the ontology the cache was frozen
    /// over.
    pub fn encoder_states(&self, concept: ConceptId) -> Vec<Vector> {
        let path = self.paths.row(concept.index());
        let mut rows = vec![0.0f32; path.len() * self.dim];
        self.rows.gather(self.dim, path, &mut rows);
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
    /// generation: one loop over the ontology's chapters walks each
    /// chapter's descriptions through one prefix trie (one encoder
    /// step per distinct description prefix of the chapter, each kept
    /// as a row), writes each member's path and slots, and computes the
    /// heads of the fine-grained members. The structural memory reads
    /// the rows the paths name, because an ancestor's encoding *is*
    /// that ancestor's concept encoding.
    ///
    /// Chapter subtrees are self-contained (every context entry of a
    /// member is itself a member, and precedes it or is it), so a
    /// chapter never reads a row another chapter made, and its paths
    /// read as if each chapter had a trie of its own. A chapter with no
    /// shared prefix pays one hash probe per token over a plain
    /// per-concept pass and any other runs fewer encoder steps and
    /// stores fewer rows. Heads always read the *exact* trie states, in
    /// both tiers: Compact narrows the row store once, after the last
    /// chapter, so it only perturbs per-query reads, never the heads.
    pub fn freeze_tiered(&self, index: &OntologyIndex, tier: CacheTier) -> ConceptCache {
        let n = index.len();
        let d = self.config().dim;
        // Chapter resolution. A node's context holds its β *nearest*
        // ancestors, so the farthest entry is the chapter only for
        // shallow nodes; follow `last()` transitively (parents always
        // have smaller indices than children, so one ascending pass
        // terminates). A chapter is named by its first-level concept;
        // the root slot is chapter 0 on its own. On the way,
        // Definition 2.1's fine-grained set: a node's first context
        // entry is its parent (itself at the first level), so a real
        // concept no other node names there has no children.
        let mut chapter = vec![0u32; n];
        let mut has_child = vec![false; n];
        let mut max_tokens = 0;
        for i in 0..n {
            let id = ConceptId(i as u32);
            let context = index.context(id);
            chapter[i] = match context.last() {
                None => 0,
                Some(anc) if anc.index() == i => i as u32,
                // Proper ancestor: created before `i`, already resolved.
                Some(anc) => chapter[anc.index()],
            };
            if let Some(parent) = context.first().filter(|p| p.index() != i) {
                has_child[parent.index()] = true;
            }
            max_tokens = max_tokens.max(index.tokens(id).len());
        }
        let mut node_head = vec![NO_HEAD; n];
        let mut heads = 0;
        for i in (1..n).filter(|&i| !has_child[i]) {
            node_head[i] = heads;
            heads += 1;
        }
        // Each chapter's members, ascending: a stable sort by chapter.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| chapter[i as usize]);
        let chapters: Vec<&[u32]> = order
            .chunk_by(|&a, &b| chapter[a as usize] == chapter[b as usize])
            .collect();
        let chapter_tokens = chapters
            .iter()
            .map(|nodes| {
                nodes
                    .iter()
                    .map(|&i| index.tokens(ConceptId(i)).len())
                    .sum()
            })
            .max()
            .unwrap_or(0);
        let beta = if self.config().variant.uses_struct() {
            index.beta()
        } else {
            0
        };
        let mut cache = ConceptCache {
            version: self.version(),
            dim: d,
            tier,
            // The trie's `h` arena, once every chapter is in it.
            rows: Rows::F32(Vec::new()),
            paths: index.token_rows().map(|_| 0),
            slots: vec![0; n * beta],
            beta,
            node_head,
            heads: vec![0.0; heads as usize * head_len(d)],
            max_tokens,
            ancestor_rows: 0,
            plan: self.plan(),
        };
        let mut trie = PrefixTrie::new(
            &cache.plan.encoder,
            &self.embedding,
            cache.paths.len(),
            chapter_tokens,
        );
        let mut bos = self.prepare_target(&cache, BOS);
        for nodes in chapters {
            trie.reset();
            for &ni in nodes {
                let (id, i) = (ConceptId(ni), ni as usize);
                trie.walk(index.tokens(id), cache.paths.row_mut(i));
                let slots = &mut cache.slots[i * beta..][..beta];
                for (slot, a) in slots.iter_mut().zip(index.context(id)) {
                    debug_assert_eq!(
                        chapter[a.index()],
                        chapter[i],
                        "context outside its chapter"
                    );
                    *slot = cache.paths.row(a.index()).last().copied().unwrap_or(0);
                }
                let head = cache.node_head[i];
                if head != NO_HEAD {
                    let head = &mut cache.heads[head as usize * head_len(d)..][..head_len(d)];
                    let path = cache.paths.row(i);
                    self.head_into(&cache.plan, &trie, path, slots, &mut bos, head);
                }
            }
        }
        let rows = trie.hs;
        // Row 0, the zero row, is the start state, not an encoding.
        let mut referenced = vec![false; rows.len() / d];
        for &r in &cache.slots {
            referenced[r as usize] = true;
        }
        cache.ancestor_rows = referenced.iter().skip(1).filter(|&&r| r).count();
        cache.rows = Rows::new(tier, rows);
        cache
    }

    /// Writes into `head` ([`head_len`]) the head of a node whose
    /// description walked `path` through `trie` and whose context slots
    /// end on the trie nodes `slots`: the `⟨BOS⟩` decoder step from the
    /// description's exact final `(h, c)`, its composite state `s̃₀`
    /// against the exact rows, and `lse₀`. `s` is prepared for the
    /// target `⟨BOS⟩` ([`PreparedTarget`]) and `plan` is the cache's.
    /// [`ComAid::freeze_tiered`] calls it for every fine-grained node.
    fn head_into(
        &self,
        plan: &ComAidPlan,
        trie: &PrefixTrie<'_>,
        path: &[u32],
        slots: &[u32],
        s: &mut PreparedTarget<'_>,
        head: &mut [f32],
    ) {
        let d = self.config().dim;
        let PreparedTarget {
            x_proj: bos_proj,
            gates,
            comp_in,
            logits,
            att,
            memory,
            ..
        } = s;
        let (text, structure) = memory.split_at_mut(path.len() * d);
        let enc_rows = gather(d, &trie.hs, path, text, <[f32]>::copy_from_slice);
        let struct_mem = gather(d, &trie.hs, slots, structure, <[f32]>::copy_from_slice);
        let (h1, rest) = head.split_at_mut(d);
        let (c1, rest) = rest.split_at_mut(d);
        let (s_tilde, lse) = rest.split_at_mut(d);
        let (h0, c0) = trie.state(path.last().copied().unwrap_or(0));
        h1.copy_from_slice(h0);
        c1.copy_from_slice(c0);
        plan.decoder.step_projected_into(bos_proj, h1, c1, gates);
        self.composite_input(h1, enc_rows, struct_mem, att, comp_in);
        self.composite
            .apply_with_t_into(comp_in, &plan.composite_wt, s_tilde);
        self.output
            .apply_with_t_into(s_tilde, &plan.output_wt, logits);
        lse[0] = log_sum_exp_slice(logits);
    }

    /// Cached [`ComAid::log_prob_ids_masked`]: bit-identical score, but
    /// the concept-side encoder work comes from `cache`. A stale cache
    /// (parameters changed since [`ComAid::freeze`], or frozen over a
    /// different ontology) and a node that holds no frozen head (an
    /// internal concept or the root slot) go to the uncached path, so
    /// every node gets its bits.
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
        if !cache.serves(self, index) || cache.node_head[concept.index()] == NO_HEAD {
            return self.log_prob_ids_masked(index, concept, target, count);
        }
        let mut prepared = self.prepare_target(cache, target);
        self.log_prob_prepared(cache, concept, &mut prepared, count)
    }

    /// Projects a decode target's words through the cached decoder plan
    /// and sets up the scratch a decode writes — once, for any number of
    /// candidates scored against it. Callers must have checked
    /// [`ConceptCache::serves`] (a linker checks it once, at
    /// construction).
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
        PreparedTarget {
            ids: target,
            x_proj,
            h: vec![0.0; d],
            c: vec![0.0; d],
            gates: vec![0.0; 4 * d],
            comp_in: vec![0.0; self.composite.in_dim()],
            s_tilde: vec![0.0; d],
            logits: vec![0.0; self.output.out_dim()],
            att: vec![0.0; cache.max_tokens.max(cache.beta)],
            memory: vec![0.0; (cache.max_tokens + cache.beta) * d],
        }
    }

    /// `log p(q|c)` of a prepared target against `concept`'s frozen
    /// rows — the one function that decodes a query against cached
    /// rows, behind every request whatever its deadline or fault plan,
    /// and allocation-free: every buffer it writes is `prepared`'s.
    /// Callers must have checked [`ConceptCache::serves`].
    ///
    /// Step 0 (the `⟨BOS⟩` step) is frozen: the decoder resumes from the
    /// head's post-BOS state, and a counted first word reads its logit
    /// off the frozen composite state ([`head_len`]). Steps whose mask
    /// entry is `false` contribute nothing to the masked sum and nothing
    /// downstream depends on their head outputs, so only the decoder
    /// recurrence advances through them; the terminal EOS step is always
    /// counted.
    ///
    /// # Panics
    /// Panics if `count.len()` differs from the target's length, or if
    /// `concept` is not fine-grained (it holds no frozen head).
    pub(crate) fn log_prob_prepared(
        &self,
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
            memory,
        } = prepared;
        assert_eq!(count.len(), target.len(), "mask length mismatch");
        let d = cache.dim;
        let i = concept.index();
        let head = cache.head(concept);
        let (text, structure) = memory.split_at_mut(cache.max_tokens * d);
        let enc_rows = cache.rows.gather(d, cache.paths.row(i), text);
        let struct_mem = cache.rows.gather(d, cache.slots(i), structure);
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
            self.composite_input(h, enc_rows, struct_mem, att, comp_in);
            self.composite
                .apply_with_t_into(comp_in, &cache.plan.composite_wt, s_tilde);
            self.output
                .apply_with_t_into(s_tilde, &cache.plan.output_wt, logits);
            lp += log_softmax_at_slice(logits, word(t));
        }
        lp
    }

    /// `log p(word | ⟨BOS⟩, c)` off a head ([`head_len`]): the one
    /// output-layer row of `word` against `s̃₀`, minus `lse₀` — the
    /// bits of `log_softmax(logits₀)[word]`, because the row's logit is
    /// the reduction the full pass ran for it when `lse₀` was made.
    fn step0_log_prob(&self, head: &[f32], word: usize) -> f32 {
        let d = self.config().dim;
        self.output.apply_row(&head[2 * d..3 * d], word) - head[3 * d]
    }

    /// Builds one step's composite-layer input `[s_t ‖ textual ctx ‖
    /// structural ctx]` in `comp_in` from flat attention memories (`d`
    /// floats per row), with exactly the zero-padding rules of the
    /// uncached forward pass: a variant that *uses* a context but has an
    /// empty memory gets a zero block. `att` is weight scratch at least
    /// as long as either memory.
    fn composite_input(
        &self,
        s_t: &[f32],
        enc_rows: &[f32],
        struct_mem: &[f32],
        att: &mut [f32],
        comp_in: &mut [f32],
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
                    .attend_into(memory.chunks_exact(d), s_t, weights, ctx);
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

    /// Two chapters with every shape a node can take: first-level
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

    /// Every node scores its uncached bits through the cached entry
    /// point: a fine-grained concept off its frozen head, an internal
    /// concept or the root slot through the uncached path.
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

    /// The first step, for every word of the vocabulary against every
    /// fine-grained concept's frozen head: `b_s[w] + W_s[w]·s̃₀ − lse₀`
    /// has the bits of the uncached pass's `log_softmax(logits₀)[w]` — a
    /// `-0.0` output bias entry included, at every dispatch level.
    #[test]
    fn frozen_first_step_has_the_bits_of_the_uncached_softmax_row() {
        let (o, v) = tiny_world();
        let idx = OntologyIndex::build(&o, &v, 2);
        for &variant in Variant::ALL {
            let mut m = model_for(variant, v.clone());
            m.output.b.v[5] = -0.0;
            for level in simd::supported_levels() {
                let cache = simd::with_level(level, || m.freeze(&idx));
                let plan = m.plan();
                for id in o.fine_grained() {
                    let head = cache.head(id);
                    for w in 0..m.vocab().len() {
                        let want = simd::with_level(simd::Level::Scalar, || {
                            m.run_example(&plan, &idx, id, &[w as u32]).step_log_probs[0]
                        });
                        let got = m.step0_log_prob(head, w);
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

    /// Only Definition 2.1's fine-grained concepts hold a frozen head:
    /// exactly the set `serving/ontology_text.rs` hands Phase I as its
    /// `doc_map`, on the hand-made world, hospital-x and an
    /// ICD-10-CM-shaped ontology — numbered in node order, and the cache
    /// stores exactly that many heads.
    #[test]
    fn frozen_heads_are_exactly_the_phase_one_candidates() {
        use crate::serving::ontology_text::OntologyText;
        use ncl_datagen::ontology_gen::generate_icd10cm_at_least;
        use ncl_datagen::{Dataset, DatasetConfig, DatasetProfile};
        let worlds = [
            tiny_world().0,
            Dataset::generate(DatasetConfig::tiny(DatasetProfile::HospitalX)).ontology,
            generate_icd10cm_at_least(600, 17),
        ];
        for o in &worlds {
            let mut v = Vocab::new();
            for (_, c) in o.iter() {
                for t in tokenize(&c.canonical) {
                    v.add(&t);
                }
            }
            let idx = OntologyIndex::build(o, &v, 2);
            let m = model_for(Variant::Full, v);
            let cache = m.freeze(&idx);
            let with_head: Vec<ConceptId> = (0..idx.len())
                .filter(|&i| cache.node_head[i] != NO_HEAD)
                .map(|i| ConceptId(i as u32))
                .collect();
            let (_, doc_map) = OntologyText::read(o).phase_one(o);
            assert_eq!(with_head, doc_map);
            let slots = with_head.iter().map(|c| cache.node_head[c.index()]);
            assert!(slots.eq(0..doc_map.len() as u32));
            assert_eq!(cache.heads.len(), doc_map.len() * head_len(6));
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

    /// One prepared target serving every fine-grained candidate agrees
    /// bitwise with a fresh `log_prob_ids_masked_cached` per candidate:
    /// the scratch carries nothing over from the candidates scored
    /// before.
    #[test]
    fn prepared_target_reused_across_candidates_is_bitwise_fresh() {
        let (o, v) = tiny_world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let m = model_for(Variant::Full, v);
        let cache = m.freeze(&idx);
        let target = m.encode_text("chronic kidney disease stage 5");
        let mask = vec![true; target.len()];
        let concepts = o.fine_grained();
        for &c in &concepts {
            let fresh = m.log_prob_ids_masked_cached(&idx, &cache, c, &target, &mask);
            let mut shared = m.prepare_target(&cache, &target);
            for &other in &concepts {
                m.log_prob_prepared(&cache, other, &mut shared, &mask);
            }
            let reused = m.log_prob_prepared(&cache, c, &mut shared, &mask);
            assert_eq!(fresh.to_bits(), reused.to_bits(), "{}", o.concept(c).code);
        }
    }
}
