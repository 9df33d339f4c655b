//! Hardened model persistence.
//!
//! The paper's deployment (NCL inside GEMINI's DICE at NUH) trains
//! COM-AID offline and serves it online; that split requires saving the
//! trained parameters and — because a serving process restarts onto
//! whatever bytes are on disk — requires *distrusting* them on the way
//! back in. Checkpoints are a self-verifying binary container:
//!
//! ```text
//! ┌────────────┬─────────┬───────────┬───────────┬───────┬──────────┐
//! │ "NCLMODEL" │ version │ index len │ FNV-1a-64 │ index │ sections │
//! │  8 bytes   │  u32 LE │  u64 LE   │  u64 LE   │ bytes │  bytes   │
//! └────────────┴─────────┴───────────┴───────────┴───────┴──────────┘
//! ```
//!
//! The index is a checksummed [`SectionIndex`] (name, offset, length and
//! checksum of each section); the sections are the [`Wire`] encodings
//! of the model's components in [`V2_SECTIONS`] order, so a reader can
//! open a checkpoint and verify/fetch only what it touches
//! ([`MappedCheckpoint`]). Loading verifies, in order: magic, version,
//! declared index length against actual bytes, the index checksum, and
//! each section against its own checksum — so truncation, bit rot, and
//! wrong-format files all surface as typed [`PersistError`]s before any
//! payload decoding is attempted. Saving to a path is atomic: bytes go
//! to a same-directory temporary file which is fsynced and renamed over
//! the destination, so a crash mid-save can never leave a half-written
//! checkpoint under the final name.
//!
//! Loading also invalidates serving caches: a decoded model draws a
//! fresh parameter generation ([`ComAid::version`]), so any
//! [`ConceptCache`](super::ConceptCache) frozen before the round-trip
//! fails its validity check against the loaded model and must be rebuilt
//! with [`ComAid::freeze`]. The checkpoint deliberately does *not* carry
//! the cache — it is derived state, cheap to recompute relative to
//! distrusting it.

use super::ComAid;
use ncl_tensor::wire::{fnv1a64, Reader, SectionIndex, Wire, WireError};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic: identifies an NCL model checkpoint.
pub const MAGIC: &[u8; 8] = b"NCLMODEL";
/// The one checkpoint format this build writes and reads: the
/// offset-table container of the module docs. (Version 1, a single
/// checksummed payload, is no longer written or read.)
pub const FORMAT_VERSION: u32 = 2;
/// Header size: magic + version + index length + index checksum; the
/// encoded section index and then the section region follow it.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Section names of a checkpoint, in the order the model's [`Wire`]
/// encoding concatenates them.
pub const V2_SECTIONS: [&str; 7] = [
    "config",
    "vocab",
    "embedding",
    "encoder",
    "decoder",
    "composite",
    "output",
];

/// Errors from saving/loading a model.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The bytes are not an NCL checkpoint at all (bad magic).
    NotACheckpoint,
    /// The checkpoint declares a format version this build cannot read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
    /// The file is shorter than its header declares (truncation).
    Truncated {
        /// Bytes the header promised.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The payload checksum does not match (bit rot / partial overwrite).
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The payload passed the checksum but does not decode to a
    /// consistent model (format bug or a forged header).
    Codec(WireError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "model persistence I/O error: {e}"),
            Self::NotACheckpoint => {
                write!(
                    f,
                    "model persistence codec error: not an NCL checkpoint (bad magic)"
                )
            }
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "model persistence codec error: checkpoint format v{found} \
                 is not supported (this build reads v{supported})"
            ),
            Self::Truncated { expected, actual } => write!(
                f,
                "model persistence codec error: checkpoint truncated \
                 ({actual} payload bytes, header declares {expected})"
            ),
            Self::ChecksumMismatch { stored, computed } => write!(
                f,
                "model persistence codec error: checksum mismatch \
                 (stored {stored:#018x}, computed {computed:#018x})"
            ),
            Self::Codec(e) => write!(f, "model persistence codec error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<WireError> for PersistError {
    fn from(e: WireError) -> Self {
        Self::Codec(e)
    }
}

/// Frames component sections in the checkpoint container: header,
/// checksummed [`SectionIndex`], then the sections back to back.
fn frame(sections: &[(&'static str, Vec<u8>)]) -> Vec<u8> {
    let mut index = SectionIndex::new();
    for (name, bytes) in sections {
        index.append(name, bytes);
    }
    let mut index_bytes = Vec::new();
    index.encode(&mut index_bytes);
    let mut out = Vec::with_capacity(
        HEADER_LEN + index_bytes.len() + sections.iter().map(|(_, b)| b.len()).sum::<usize>(),
    );
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(index_bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&index_bytes).to_le_bytes());
    out.extend_from_slice(&index_bytes);
    for (_, bytes) in sections {
        out.extend_from_slice(bytes);
    }
    out
}

/// Verifies the fixed header — magic and version — and returns the
/// declared index length and index checksum. The length is bounded by
/// `body`, the bytes actually present behind the header, before anyone
/// allocates or slices by it.
fn index_extent(header: &[u8], body: u64) -> Result<(usize, u64), PersistError> {
    if &header[..8] != MAGIC {
        return Err(PersistError::NotACheckpoint);
    }
    let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let declared = u64::from_le_bytes(header[12..20].try_into().unwrap());
    let stored = u64::from_le_bytes(header[20..28].try_into().unwrap());
    let index_len = usize::try_from(declared)
        .ok()
        .filter(|&n| n as u64 <= body)
        .ok_or(PersistError::Truncated {
            expected: declared,
            actual: body,
        })?;
    Ok((index_len, stored))
}

/// Verifies the encoded [`SectionIndex`] against its checksum, decodes
/// it, and checks that the `region` bytes behind it hold every section
/// it describes. Per-section checksums are verified on access.
fn decode_index(
    index_bytes: &[u8],
    stored: u64,
    region: u64,
) -> Result<SectionIndex, PersistError> {
    let computed = fnv1a64(index_bytes);
    if computed != stored {
        return Err(PersistError::ChecksumMismatch { stored, computed });
    }
    let mut r = Reader::new(index_bytes);
    let index = SectionIndex::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(PersistError::Codec(WireError::Invalid(format!(
            "{} trailing bytes after section index",
            r.remaining()
        ))));
    }
    let needed = index.region_len()?;
    if region < needed {
        return Err(PersistError::Truncated {
            expected: needed,
            actual: region,
        });
    }
    Ok(index)
}

/// Verifies a container held in memory and returns its index and
/// section region ([`SectionIndex::slice`] reads a section out of it).
fn unframe(bytes: &[u8]) -> Result<(SectionIndex, &[u8]), PersistError> {
    if bytes.len() < HEADER_LEN {
        return Err(PersistError::NotACheckpoint);
    }
    let (header, rest) = bytes.split_at(HEADER_LEN);
    let (index_len, stored) = index_extent(header, rest.len() as u64)?;
    let (index_bytes, region) = rest.split_at(index_len);
    let index = decode_index(index_bytes, stored, region.len() as u64)?;
    Ok((index, region))
}

/// A checkpoint opened by its offset table only. [`open`] reads and
/// verifies the header and the [`SectionIndex`] — **not** the section
/// payloads — so opening a multi-hundred-megabyte checkpoint costs a few
/// kilobytes of I/O. Sections are fetched and checksum-verified
/// individually on demand; [`load_model`] fetches all of them.
///
/// A serving process opens the checkpoint by index and decodes the
/// model; building a linker then freezes the whole
/// [`ConceptCache`](super::ConceptCache) from it in one pass over the
/// chapters (DESIGN.md §9).
///
/// [`open`]: MappedCheckpoint::open
/// [`load_model`]: MappedCheckpoint::load_model
#[derive(Debug)]
pub struct MappedCheckpoint {
    file: std::fs::File,
    index: SectionIndex,
    sections_start: u64,
}

impl MappedCheckpoint {
    /// Opens a checkpoint, reading only the header and section index.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, PersistError> {
        let mut file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN as u64 {
            return Err(PersistError::NotACheckpoint);
        }
        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header)?;
        let body = file_len - HEADER_LEN as u64;
        let (index_len, stored) = index_extent(&header, body)?;
        let mut index_bytes = vec![0u8; index_len];
        file.read_exact(&mut index_bytes)?;
        let index = decode_index(&index_bytes, stored, body - index_len as u64)?;
        Ok(Self {
            file,
            index,
            sections_start: (HEADER_LEN + index_len) as u64,
        })
    }

    /// The checkpoint's offset table.
    pub fn index(&self) -> &SectionIndex {
        &self.index
    }

    /// Reads and checksum-verifies one section's payload.
    pub fn read_section(&mut self, name: &str) -> Result<Vec<u8>, PersistError> {
        let entry = self
            .index
            .find(name)
            .ok_or_else(|| {
                PersistError::Codec(WireError::Invalid(format!("missing section '{name}'")))
            })?
            .clone();
        self.file
            .seek(SeekFrom::Start(self.sections_start + entry.offset))?;
        // `open` verified the region fits the file, so this cannot
        // over-allocate past the checkpoint size.
        let mut buf = vec![0u8; entry.len as usize];
        self.file.read_exact(&mut buf)?;
        let computed = fnv1a64(&buf);
        if computed != entry.checksum {
            return Err(PersistError::ChecksumMismatch {
                stored: entry.checksum,
                computed,
            });
        }
        Ok(buf)
    }

    /// Fetches every section and decodes the model, with the same
    /// cross-component validation as [`ComAid::load`].
    pub fn load_model(&mut self) -> Result<ComAid, PersistError> {
        let mut payload = Vec::new();
        for name in V2_SECTIONS {
            payload.extend_from_slice(&self.read_section(name)?);
        }
        ComAid::decode_payload(&payload)
    }
}

impl ComAid {
    /// Serialises the full model (configuration, vocabulary and all
    /// parameters) into the verified checkpoint container: a
    /// checksummed [`SectionIndex`] up front, per-component sections
    /// behind it. [`MappedCheckpoint::open`] reads only the index.
    pub fn save<W: Write>(&self, mut writer: W) -> Result<(), PersistError> {
        writer.write_all(&frame(&self.sections()))?;
        writer.flush()?;
        Ok(())
    }

    /// Encodes each model component as its own byte section, in
    /// [`V2_SECTIONS`] order. Concatenating the payloads reproduces the
    /// model's [`Wire`] encoding exactly, which is what lets loading
    /// reuse the full cross-component validation of `ComAid::decode`.
    fn sections(&self) -> Vec<(&'static str, Vec<u8>)> {
        let mut out = Vec::with_capacity(V2_SECTIONS.len());
        let mut buf = Vec::new();
        self.config().encode(&mut buf);
        out.push(("config", std::mem::take(&mut buf)));
        Wire::encode(self.vocab(), &mut buf);
        out.push(("vocab", std::mem::take(&mut buf)));
        self.embedding.encode(&mut buf);
        out.push(("embedding", std::mem::take(&mut buf)));
        self.encoder.encode(&mut buf);
        out.push(("encoder", std::mem::take(&mut buf)));
        self.decoder.encode(&mut buf);
        out.push(("decoder", std::mem::take(&mut buf)));
        self.composite.encode(&mut buf);
        out.push(("composite", std::mem::take(&mut buf)));
        self.output.encode(&mut buf);
        out.push(("output", buf));
        out
    }

    /// [`ComAid::save_to_path`], under the name `benchmark/src/api.rs`
    /// calls.
    pub fn save_v2_to_path<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        self.save_to_path(path)
    }

    /// Saves atomically to a file path: the bytes are written to a
    /// temporary file in the same directory, fsynced, and renamed over
    /// `path`. Readers either see the old checkpoint or the complete new
    /// one — never a partial write.
    pub fn save_to_path<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        let path = path.as_ref();
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        let file_name = path
            .file_name()
            .ok_or_else(|| {
                PersistError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("checkpoint path {} has no file name", path.display()),
                ))
            })?
            .to_os_string();
        let mut tmp_name = file_name;
        tmp_name.push(format!(".tmp.{}", std::process::id()));
        let tmp = match dir {
            Some(d) => d.join(&tmp_name),
            None => std::path::PathBuf::from(&tmp_name),
        };

        let write_result = (|| -> Result<(), PersistError> {
            let mut file = std::fs::File::create(&tmp)?;
            self.save(&mut file)?;
            file.sync_all()?;
            Ok(())
        })();
        if let Err(e) = write_result {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
    }

    /// Loads a model from a reader, verifying the container first.
    pub fn load<R: Read>(mut reader: R) -> Result<Self, PersistError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Self::load_bytes(&bytes)
    }

    /// Loads a model from in-memory checkpoint bytes: verifies the
    /// index checksum, then each section against its own checksum, and
    /// decodes the concatenation. Any container version but
    /// [`FORMAT_VERSION`] is a typed
    /// [`PersistError::UnsupportedVersion`].
    pub fn load_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let (index, region) = unframe(bytes)?;
        let mut payload = Vec::new();
        for name in V2_SECTIONS {
            payload.extend_from_slice(index.slice(name, region)?);
        }
        Self::decode_payload(&payload)
    }

    /// Decodes the verified sections concatenated in [`V2_SECTIONS`]
    /// order — bytewise the model's [`Wire`] encoding.
    fn decode_payload(payload: &[u8]) -> Result<Self, PersistError> {
        let mut r = Reader::new(payload);
        let model = <ComAid as Wire>::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(PersistError::Codec(WireError::Invalid(format!(
                "{} trailing bytes after model payload",
                r.remaining()
            ))));
        }
        Ok(model)
    }

    /// Loads from a file path.
    pub fn load_from_path<P: AsRef<Path>>(path: P) -> Result<Self, PersistError> {
        let file = std::fs::File::open(path)?;
        Self::load(std::io::BufReader::new(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comaid::{ComAidConfig, OntologyIndex, TrainPair, Variant};
    use crate::error::NclError;
    use crate::reference::reference_log_prob;
    use ncl_ontology::OntologyBuilder;
    use ncl_text::{tokenize, Vocab};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::OnceLock;

    fn trained_model() -> (ncl_ontology::Ontology, ComAid) {
        let mut b = OntologyBuilder::new();
        let n18 = b.add_root_concept("N18", "chronic kidney disease");
        b.add_child(n18, "N18.5", "chronic kidney disease stage 5");
        let o = b.build().unwrap();
        let mut v = Vocab::new();
        for w in ["chronic", "kidney", "disease", "stage", "5", "ckd"] {
            v.add(w);
        }
        let config = ComAidConfig {
            dim: 8,
            epochs: 5,
            variant: Variant::Full,
            ..ComAidConfig::tiny()
        };
        let mut m = ComAid::new(v.clone(), config, None);
        let idx = OntologyIndex::build(&o, &v, 2);
        let pairs = vec![TrainPair {
            concept: o.by_code("N18.5").unwrap(),
            target: tokenize("ckd stage 5")
                .iter()
                .map(|t| v.get_or_unk(t))
                .collect(),
        }];
        m.fit(&idx, &pairs);
        (o, m)
    }

    fn checkpoint_bytes(model: &ComAid) -> Vec<u8> {
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        buf
    }

    /// Both loaders over the same bytes: the owned one, and
    /// `MappedCheckpoint::open` → `load_model` through a scratch file of
    /// its own (tests run concurrently).
    fn load_both(bytes: &[u8]) -> [Result<ComAid, PersistError>; 2] {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ncl_fuzz_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.nclm");
        std::fs::write(&path, bytes).unwrap();
        let mapped = MappedCheckpoint::open(&path).and_then(|mut m| m.load_model());
        let _ = std::fs::remove_dir_all(&dir);
        [ComAid::load_bytes(bytes), mapped]
    }

    /// The reference score bits of a fixed query against every concept.
    fn score_bits(o: &ncl_ontology::Ontology, model: &ComAid) -> Vec<u32> {
        let idx = OntologyIndex::build(o, model.vocab(), 2);
        let q = model.encode_text("ckd stage 5");
        o.all_concepts()
            .map(|c| reference_log_prob(model, &idx, c, &q, &[true, false, true]).to_bits())
            .collect()
    }

    /// What a loader may do with damaged bytes: refuse them with a typed
    /// error, or hand back a model that scores like `original` to the
    /// bit. (A panic or an out-of-bounds read fails the calling test.)
    fn typed_or_same(
        outcome: Result<ComAid, PersistError>,
        o: &ncl_ontology::Ontology,
        original: &ComAid,
    ) -> Result<(), NclError> {
        let loaded = outcome?;
        assert_eq!(score_bits(o, &loaded), score_bits(o, original));
        Ok(())
    }

    /// A strict prefix of a checkpoint is refused by both loaders, as
    /// one of the container-level errors.
    fn assert_truncation_detected(buf: &[u8], cut: usize) {
        for outcome in load_both(&buf[..cut]) {
            let err = outcome.expect_err("a truncated checkpoint loaded");
            assert!(
                matches!(
                    err,
                    PersistError::NotACheckpoint
                        | PersistError::Truncated { .. }
                        | PersistError::ChecksumMismatch { .. }
                        | PersistError::Codec(_)
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    /// `buf` with the bits of `mask` flipped at `pos`, through both
    /// loaders: each must refuse it. Returns the owned loader's error
    /// and the mapped loader's.
    fn flip_errors(buf: &[u8], pos: usize, mask: u8) -> [PersistError; 2] {
        let mut bad = buf.to_vec();
        bad[pos] ^= mask;
        load_both(&bad).map(|outcome| outcome.expect_err("a corrupted checkpoint loaded"))
    }

    /// `trained_model()`'s checkpoint as written before the LSTM gates
    /// were stacked (per-gate framing, format v2): it loads and saves back
    /// to the same bytes, and the model trained today writes them too.
    #[test]
    fn per_gate_checkpoint_loads_and_saves_to_the_same_bytes() {
        let old: &[u8] = include_bytes!("../../tests/golden/tiny_v2.nclm");
        let loaded = ComAid::load_bytes(old).unwrap();
        assert!(checkpoint_bytes(&loaded) == old, "re-saved bytes differ");
        let (_, model) = trained_model();
        assert!(checkpoint_bytes(&model) == old, "training moved a bit");
    }

    /// The tensors a parameter section of the checkpoint holds.
    fn section_values<'m>(m: &'m mut ComAid, section: &str) -> Vec<&'m mut [f32]> {
        let ComAid {
            embedding,
            encoder,
            decoder,
            composite,
            output,
            ..
        } = m;
        match section {
            "embedding" => vec![ncl_nn::Parameter::values_mut(embedding)],
            "encoder" | "decoder" => {
                let l = if section == "encoder" {
                    encoder
                } else {
                    decoder
                };
                vec![
                    l.w.v.as_mut_slice(),
                    l.u.v.as_mut_slice(),
                    l.b.v.as_mut_slice(),
                ]
            }
            _ => {
                let l = if section == "composite" {
                    composite
                } else {
                    output
                };
                vec![l.w.v.as_mut_slice(), l.b.v.as_mut_slice()]
            }
        }
    }

    #[test]
    fn round_trip_preserves_scores() {
        let (o, model) = trained_model();
        let buf = checkpoint_bytes(&model);
        assert_eq!(&buf[8..12], &FORMAT_VERSION.to_le_bytes());
        let loaded = ComAid::load(buf.as_slice()).unwrap();

        let idx = OntologyIndex::build(&o, model.vocab(), 2);
        let c = o.by_code("N18.5").unwrap();
        let q = model.encode_text("ckd stage 5");
        let a = model.log_prob_ids(&idx, c, &q);
        let b = loaded.log_prob_ids(&idx, c, &q);
        assert!((a - b).abs() < 1e-6, "scores diverged: {a} vs {b}");
        assert_eq!(loaded.vocab().len(), model.vocab().len());
        assert_eq!(loaded.config().dim, model.config().dim);
    }

    #[test]
    fn file_round_trip() {
        let (_, model) = trained_model();
        let dir = std::env::temp_dir().join("ncl_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.nclm");
        model.save_to_path(&path).unwrap();
        let loaded = ComAid::load_from_path(&path).unwrap();
        assert_eq!(loaded.config().beta, model.config().beta);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_file_reports_codec_error() {
        let err = ComAid::load("this is not a checkpoint".as_bytes()).unwrap_err();
        assert!(matches!(err, PersistError::NotACheckpoint));
        assert!(err.to_string().contains("codec"));
    }

    #[test]
    fn missing_file_reports_io_error() {
        let err = ComAid::load_from_path("/nonexistent/path/model.nclm").unwrap_err();
        assert!(err.to_string().contains("I/O"));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let (_, model) = trained_model();
        // 1 is the retired single-payload container: unsupported like
        // any other version this build does not write.
        for version in [1u32, 99] {
            let mut buf = checkpoint_bytes(&model);
            buf[8..12].copy_from_slice(&version.to_le_bytes());
            let err = ComAid::load_bytes(&buf).unwrap_err();
            assert!(
                matches!(
                    err,
                    PersistError::UnsupportedVersion { found, supported: FORMAT_VERSION }
                        if found == version
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn forged_checksum_still_fails_decode() {
        // Corrupt the payload *and* fix up the checksum: the container
        // verifies, so the typed decoder must catch the inconsistency.
        let (_, model) = trained_model();
        let mut sections = model.sections();
        // Sabotage the config's `dim` (first field of the first section,
        // u64 LE).
        sections[0].1[..8].copy_from_slice(&0u64.to_le_bytes());
        let framed = frame(&sections);
        let err = ComAid::load_bytes(&framed).unwrap_err();
        assert!(matches!(err, PersistError::Codec(_)), "{err:?}");
    }

    /// The config section ends in the byte that once tagged a sampled
    /// training head (tag 1, then its noise count). Training has one head
    /// now, so a checkpoint carrying tag 1 under valid checksums is
    /// refused as a codec error rather than loaded.
    #[test]
    fn retired_output_head_tag_is_a_codec_error() {
        let (_, model) = trained_model();
        let mut sections = model.sections();
        let config = &mut sections[0].1;
        assert_eq!(config.pop(), Some(0), "config ends in the head tag");
        config.push(1);
        6usize.encode(config);
        let err = ComAid::load_bytes(&frame(&sections)).unwrap_err();
        assert!(matches!(err, PersistError::Codec(_)), "{err:?}");
    }

    #[test]
    fn truncation_detected_at_every_sampled_length() {
        let (_, model) = trained_model();
        let buf = checkpoint_bytes(&model);
        for cut in [
            0,
            4,
            HEADER_LEN - 1,
            HEADER_LEN,
            HEADER_LEN + 3,
            buf.len() / 2,
            buf.len() - 1,
        ] {
            assert_truncation_detected(&buf, cut);
        }
    }

    #[test]
    fn index_corruption_is_a_checksum_mismatch() {
        let (_, model) = trained_model();
        let buf = checkpoint_bytes(&model);
        // First byte of the encoded index.
        let mut bad = buf.clone();
        bad[HEADER_LEN] ^= 0x08;
        let err = ComAid::load_bytes(&bad).unwrap_err();
        assert!(
            matches!(err, PersistError::ChecksumMismatch { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn section_corruption_is_caught_by_its_own_checksum() {
        let (_, model) = trained_model();
        let buf = checkpoint_bytes(&model);
        // Last byte of the file sits inside the final section.
        let [owned, mapped] = flip_errors(&buf, buf.len() - 1, 0x20);
        assert!(
            matches!(&owned, PersistError::Codec(WireError::Invalid(m)) if m.contains("checksum")),
            "{owned:?}"
        );
        assert!(
            matches!(mapped, PersistError::ChecksumMismatch { .. }),
            "{mapped:?}"
        );
    }

    #[test]
    fn mapped_open_reads_only_the_index() {
        let (_, model) = trained_model();
        let dir = std::env::temp_dir().join("ncl_mapped_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.nclm2");
        model.save_to_path(&path).unwrap();

        // Locate the "embedding" section on disk and corrupt one byte.
        let mapped = MappedCheckpoint::open(&path).unwrap();
        assert_eq!(mapped.index().entries.len(), V2_SECTIONS.len());
        let emb = mapped.index().find("embedding").unwrap().clone();
        let mut bytes = std::fs::read(&path).unwrap();
        let index_len = bytes.len() - HEADER_LEN - {
            let mapped_region = mapped.index().region_len().unwrap();
            mapped_region as usize
        };
        let pos = HEADER_LEN + index_len + emb.offset as usize + (emb.len as usize) / 2;
        bytes[pos] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        // Opening succeeds — the payload is never read at open time.
        let mut mapped = MappedCheckpoint::open(&path).unwrap();
        // Untouched sections verify and decode fine...
        assert!(mapped.read_section("config").is_ok());
        assert!(mapped.read_section("vocab").is_ok());
        // ...the corrupted one is caught by its own checksum.
        let err = mapped.read_section("embedding").unwrap_err();
        assert!(
            matches!(err, PersistError::ChecksumMismatch { .. }),
            "{err:?}"
        );
        let err = mapped.load_model().unwrap_err();
        assert!(
            matches!(err, PersistError::ChecksumMismatch { .. }),
            "{err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mapped_model_matches_direct_load() {
        let (o, model) = trained_model();
        let dir = std::env::temp_dir().join("ncl_mapped_load_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.nclm2");
        model.save_to_path(&path).unwrap();
        let loaded = MappedCheckpoint::open(&path).unwrap().load_model().unwrap();
        let idx = OntologyIndex::build(&o, model.vocab(), 2);
        let c = o.by_code("N18.5").unwrap();
        let q = model.encode_text("ckd stage 5");
        assert!((model.log_prob_ids(&idx, c, &q) - loaded.log_prob_ids(&idx, c, &q)).abs() < 1e-6);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mapped_open_rejects_v1_and_garbage() {
        let (_, model) = trained_model();
        let dir = std::env::temp_dir().join("ncl_mapped_reject_test");
        std::fs::create_dir_all(&dir).unwrap();
        let v1 = dir.join("model.nclm");
        let mut bytes = checkpoint_bytes(&model);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&v1, &bytes).unwrap();
        let err = MappedCheckpoint::open(&v1).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::UnsupportedVersion {
                    found: 1,
                    supported: FORMAT_VERSION
                }
            ),
            "{err:?}"
        );
        let junk = dir.join("junk.bin");
        std::fs::write(&junk, b"definitely not a checkpoint").unwrap();
        assert!(matches!(
            MappedCheckpoint::open(&junk).unwrap_err(),
            PersistError::NotACheckpoint
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_save_leaves_no_temp_file() {
        let (_, model) = trained_model();
        let dir = std::env::temp_dir().join("ncl_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.nclm");
        model.save_to_path(&path).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stale temp files: {leftovers:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn atomic_save_preserves_old_checkpoint_on_failure() {
        // Saving over an existing checkpoint through an unwritable temp
        // location must fail without damaging the original.
        let (_, model) = trained_model();
        let dir = std::env::temp_dir().join("ncl_atomic_keep_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.nclm");
        model.save_to_path(&path).unwrap();
        let original = std::fs::read(&path).unwrap();

        // A directory cannot be created as a file: File::create fails.
        let bad = dir.join("as_dir.nclm");
        let _ = std::fs::remove_dir_all(&bad);
        std::fs::create_dir_all(bad.join("x")).unwrap();
        assert!(model.save_to_path(bad.join("x")).is_err() || bad.join("x").is_dir());

        // The untouched original still loads.
        assert_eq!(std::fs::read(&path).unwrap(), original);
        assert!(ComAid::load_from_path(&path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Checkpoint fuzz: a container truncated at a drawn length,
        /// with a drawn bit flipped, or with two section-index entries
        /// swapped (index checksum re-made, so the container verifies)
        /// goes through both loaders, and every outcome is a typed
        /// error or the same model. Truncations and flips are always
        /// refused; sections are found by name, so a reordered index
        /// loads the model it always described. A NaN or an infinity
        /// saved into a drawn value of a drawn parameter section (every
        /// checksum valid) is refused as that section's `NonFinite`.
        #[test]
        fn damaged_checkpoints_fail_typed_or_load_the_same_model(
            cut in 0..1_000_000usize,
            flip in 0..8_000_000usize,
            a in 0..V2_SECTIONS.len(),
            b in 0..V2_SECTIONS.len(),
            section in 2..V2_SECTIONS.len(),
            at in 0..1_000_000usize,
            bad in 0..3usize,
        ) {
            static WORLD: OnceLock<(ncl_ontology::Ontology, ComAid, Vec<u8>)> = OnceLock::new();
            let (o, model, buf) = WORLD.get_or_init(|| {
                let (o, model) = trained_model();
                let buf = checkpoint_bytes(&model);
                (o, model, buf)
            });

            assert_truncation_detected(buf, cut % buf.len());

            let flip = flip % (buf.len() * 8);
            flip_errors(buf, flip / 8, 1 << (flip % 8));

            let (mut index, region) = unframe(buf).unwrap();
            index.entries.swap(a, b);
            let mut index_bytes = Vec::new();
            index.encode(&mut index_bytes);
            let mut swapped = buf[..HEADER_LEN].to_vec();
            swapped[20..28].copy_from_slice(&fnv1a64(&index_bytes).to_le_bytes());
            swapped.extend_from_slice(&index_bytes);
            swapped.extend_from_slice(region);
            for outcome in load_both(&swapped) {
                typed_or_same(outcome, o, model).expect("a reordered index names the same sections");
            }

            let section = V2_SECTIONS[section];
            let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][bad];
            let mut poisoned = model.clone();
            let mut values = section_values(&mut poisoned, section);
            let total: usize = values.iter().map(|t| t.len()).sum();
            let mut at = at % total;
            for t in &mut values {
                if at < t.len() {
                    t[at] = bad;
                    break;
                }
                at -= t.len();
            }
            for outcome in load_both(&checkpoint_bytes(&poisoned)) {
                let err = outcome.expect_err("a non-finite parameter loaded");
                prop_assert!(
                    matches!(err, PersistError::Codec(WireError::NonFinite { section: s }) if s == section),
                    "{section}: {err:?}"
                );
            }
        }
    }
}
