//! The COMposite AttentIonal encode-Decode model (COM-AID, §4).
//!
//! COM-AID computes `p(q|c)`: the probability of generating query `q`
//! from concept `c` (Eq. 1/3). A concept encoder LSTM turns the concept's
//! canonical description into hidden states `h_1^c … h_n^c`; the
//! *text-structure duet decoder* walks the query with a second LSTM
//! seeded by `s_0 = h_n^c`, attending both to the encoder states (textual
//! context, Eq. 5–6) and to the encoded representations of the concept's
//! ancestors (structural context, Eq. 7 over Definition 4.1), combines
//! everything through the composite layer (Eq. 8), and emits a
//! vocabulary softmax (Eq. 9). Training maximises the likelihood of
//! ⟨canonical, alias⟩ pairs (Eq. 10) by mini-batch SGD with full
//! back-propagation through every component, including the ancestor
//! encodings and the word embeddings.

use ncl_tensor::wire::{Reader, Wire, WireError};

mod cache;
mod decode;
pub(crate) mod index;
mod model;
mod persist;
mod trace;
mod train;

pub use cache::{CacheMemoryReport, CacheTier, ConceptCache};
pub use decode::Decoded;
pub use index::OntologyIndex;
pub use model::{ComAid, ComAidPlan};
pub use persist::{MappedCheckpoint, PersistError, FORMAT_VERSION, V2_SECTIONS};
pub use trace::{AttentionTrace, StepTrace};
pub use train::{TrainPair, TrainReport};

/// Architecture variants studied in §6.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Full COM-AID: both attentions.
    Full,
    /// COM-AID⁻ᶜ: structural attention removed — "an instance of the
    /// attentional neural network \[2\]" (Bahdanau et al.).
    NoStruct,
    /// COM-AID⁻ʷ: textual attention removed.
    NoText,
    /// COM-AID⁻ʷᶜ: both removed — "becomes a sequence-to-sequence
    /// network \[40\]" (Sutskever et al.).
    NoBoth,
}

impl Variant {
    /// Whether the textual context `tc_t` is computed.
    pub fn uses_text(self) -> bool {
        matches!(self, Self::Full | Self::NoStruct)
    }

    /// Whether the structural context `sc_t` is computed.
    pub fn uses_struct(self) -> bool {
        matches!(self, Self::Full | Self::NoText)
    }

    /// Paper name of the variant.
    pub fn paper_name(self) -> &'static str {
        match self {
            Self::Full => "COM-AID",
            Self::NoStruct => "COM-AID-c",
            Self::NoText => "COM-AID-w",
            Self::NoBoth => "COM-AID-wc",
        }
    }

    /// All four variants, full model first.
    pub const ALL: &'static [Variant] = &[Self::Full, Self::NoStruct, Self::NoText, Self::NoBoth];
}

/// COM-AID hyper-parameters (defaults follow Table 1's bold values, with
/// training-loop settings chosen for CPU-scale reproduction).
#[derive(Debug, Clone, Copy)]
pub struct ComAidConfig {
    /// Word/concept representation dimensionality `d` (Table 1 default
    /// 150; the paper assumes word and concept dimensions are equal,
    /// footnote 10).
    pub dim: usize,
    /// Structural-context depth `β` (Table 1 default 2).
    pub beta: usize,
    /// Architecture variant.
    pub variant: Variant,
    /// Training epochs over the labeled pairs.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Per-epoch multiplicative learning-rate decay.
    pub lr_decay: f32,
    /// Mini-batch size (§4.2 uses mini-batch SGD).
    pub batch_size: usize,
    /// Global gradient-norm clip.
    pub clip_norm: f32,
    /// RNG seed for initialisation and shuffling.
    pub seed: u64,
    /// Worker threads for data-parallel refinement training (capped by
    /// the machine's available parallelism). An execution knob, not part
    /// of the model identity: it is *not* persisted in checkpoints, and
    /// `epoch_losses` are identical at every setting for a given seed.
    pub train_threads: usize,
}

impl Default for ComAidConfig {
    fn default() -> Self {
        Self {
            dim: 150,
            beta: 2,
            variant: Variant::Full,
            epochs: 15,
            lr: 0.2,
            lr_decay: 0.95,
            batch_size: 16,
            clip_norm: 5.0,
            seed: 0xC0A1D,
            train_threads: 1,
        }
    }
}

impl ComAidConfig {
    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            dim: 12,
            beta: 2,
            epochs: 10,
            batch_size: 8,
            ..Self::default()
        }
    }
}

impl Wire for Variant {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Self::Full => 0,
            Self::NoStruct => 1,
            Self::NoText => 2,
            Self::NoBoth => 3,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(Self::Full),
            1 => Ok(Self::NoStruct),
            2 => Ok(Self::NoText),
            3 => Ok(Self::NoBoth),
            t => Err(WireError::Invalid(format!("bad Variant tag {t}"))),
        }
    }
}

/// `train_threads` is deliberately absent from the checkpoint format: two
/// models trained with different thread counts are the same model, and
/// adding the field would break every existing `NCLMODEL` container.
/// Decoding always yields `train_threads: 1`.
impl Wire for ComAidConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.dim.encode(out);
        self.beta.encode(out);
        self.variant.encode(out);
        self.epochs.encode(out);
        self.lr.encode(out);
        self.lr_decay.encode(out);
        self.batch_size.encode(out);
        self.clip_norm.encode(out);
        self.seed.encode(out);
        // The training output head's tag, always 0 (the full softmax):
        // kept so Full checkpoints keep their bytes and `FORMAT_VERSION`
        // its value.
        0u8.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let cfg = Self {
            dim: usize::decode(r)?,
            beta: usize::decode(r)?,
            variant: Variant::decode(r)?,
            epochs: usize::decode(r)?,
            lr: f32::decode(r)?,
            lr_decay: f32::decode(r)?,
            batch_size: usize::decode(r)?,
            clip_norm: f32::decode(r)?,
            seed: u64::decode(r)?,
            train_threads: 1,
        };
        match u8::decode(r)? {
            0 => {}
            t => return Err(WireError::Invalid(format!("bad output-head tag {t}"))),
        }
        if cfg.dim == 0 {
            return Err(WireError::Invalid("config: dim must be positive".into()));
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_attention_flags() {
        assert!(Variant::Full.uses_text() && Variant::Full.uses_struct());
        assert!(Variant::NoStruct.uses_text() && !Variant::NoStruct.uses_struct());
        assert!(!Variant::NoText.uses_text() && Variant::NoText.uses_struct());
        assert!(!Variant::NoBoth.uses_text() && !Variant::NoBoth.uses_struct());
    }

    #[test]
    fn paper_names() {
        assert_eq!(Variant::Full.paper_name(), "COM-AID");
        assert_eq!(Variant::NoBoth.paper_name(), "COM-AID-wc");
        assert_eq!(Variant::ALL.len(), 4);
    }

    #[test]
    fn default_config_matches_table1() {
        let c = ComAidConfig::default();
        assert_eq!(c.dim, 150);
        assert_eq!(c.beta, 2);
    }
}
