//! Golden snapshot of the taped training path.
//!
//! `training_identity.rs` compares dispatch levels with each other: a
//! change that reorders a float sum the same way at every level passes
//! it. This suite pins the path against a snapshot recorded **before**
//! the sequence-batched kernels existed
//! (`tests/golden/training.snap`, written at the parent of the PR that
//! introduced them): for that suite's 22-pair world, every
//! architecture variant trained with the full softmax (the `full` of each
//! line), the per-epoch losses, a digest
//! of the trained `Wire` bytes and eighteen uncached masked scores — as
//! bit patterns, so snapshot equality is bit equality.
//!
//! Regenerate (only legitimate when the *model* or the world changes,
//! never for a kernel or tape refactor) with
//! `NCL_REGEN_GOLDEN=1 cargo test -p ncl-core --test training_golden`.
//! Every `exp` and `tanh` behind these bits is the repo's own
//! (`ncl_tensor::libm`, pinned on every host by its committed table);
//! the one platform function left in them is `logf`, so only a libm
//! whose `logf` rounds differently may need its own recording — the
//! same caveat as `tests/staged_serving.rs`.

mod support;

use ncl_core::comaid::{ComAid, OntologyIndex, Variant};
use ncl_tensor::wire::Wire;
use std::path::PathBuf;
use support::{config, world};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hex(bits: impl IntoIterator<Item = u32>) -> String {
    let words: Vec<String> = bits.into_iter().map(|b| format!("{b:08x}")).collect();
    words.join(",")
}

/// One line per trained model: losses, parameter digest, scores.
fn render(variant: Variant) -> String {
    let (o, vocab, pairs) = world();
    let mut model = ComAid::new(vocab, config(variant), None);
    let index = OntologyIndex::build(&o, model.vocab(), 2);
    let report = model.fit(&index, &pairs);
    let mut bytes = Vec::new();
    model.encode(&mut bytes);

    let queries = [
        ("renal disease stage 5", vec![true, false, true, true]),
        ("acute abdominal syndrome", vec![false, true, true]),
        ("ckd", vec![true]),
    ];
    let mut scores = Vec::new();
    for (concept, _) in o.iter() {
        for (query, mask) in &queries {
            let target = model.encode_text(query);
            scores.push(model.log_prob_ids_masked(&index, concept, &target, mask));
        }
    }
    assert_eq!(scores.len(), 18);
    format!(
        "{variant:?} full | losses={} | wire={} bytes fnv1a={:016x} | scores={}",
        hex(report.epoch_losses.iter().map(|l| l.to_bits())),
        bytes.len(),
        fnv1a(&bytes),
        hex(scores.iter().map(|s| s.to_bits())),
    )
}

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("training.snap")
}

#[test]
fn training_reproduces_the_pre_sequence_kernel_snapshot() {
    let lines: Vec<String> = Variant::ALL.iter().map(|&v| render(v)).collect();
    let got = lines.join("\n") + "\n";

    let path = snapshot_path();
    if std::env::var("NCL_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with NCL_REGEN_GOLDEN=1 to record",
            path.display()
        )
    });
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "snapshot line {} diverged", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "snapshot line count changed"
    );
}
