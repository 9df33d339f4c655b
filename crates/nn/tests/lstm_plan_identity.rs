//! Step-level identity of the hoisted LSTM input projection:
//! `LstmPlan::project_input` followed by `LstmPlan::step_projected` —
//! and the in-place, allocation-free `_into` forms they wrap — must
//! reproduce `Lstm::step_infer` bit for bit at every SIMD dispatch
//! level, on the shapes the `LstmPlan` docs call out as hazards
//! (`in_dim == 0`, a `-0.0` bias entry), and a chain of projected steps
//! must reproduce the reference sequence pass `Lstm::forward_states`.
//!
//! Runs under `NCL_FORCE_SCALAR=1` too (CI's scalar-fallback leg), where
//! the scalar kernels are the *active* level rather than a pinned one.

use ncl_nn::lstm::zero_state;
use ncl_nn::Lstm;
use ncl_tensor::simd::{self, Level};
use ncl_tensor::{init, Vector};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_bits_eq(label: &str, got: &Vector, want: &Vector) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (k, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{label}[{k}]: {g} vs {w}");
    }
}

/// Layers straddling the SIMD widths, plus the two documented hazards.
fn layers() -> Vec<(&'static str, Lstm)> {
    let mut out = Vec::new();
    for (name, in_dim, hidden) in [
        ("sub-lane", 3usize, 1usize),
        ("one-ymm", 5, 9),
        ("multi-tile", 24, 40),
        ("no-input", 0, 7),
    ] {
        let mut rng = StdRng::seed_from_u64(1000 + (in_dim * 64 + hidden) as u64);
        out.push((name, Lstm::new(in_dim, hidden, &mut rng)));
    }
    // Negative-zero bias entries in every gate block: a projection that
    // added a zeroed partial, or started from `+0`, would rewrite them.
    let mut rng = StdRng::seed_from_u64(77);
    let mut neg_zero = Lstm::new(4, 6, &mut rng);
    for b in neg_zero.b.v.as_mut_slice().chunks_exact_mut(6) {
        b[0] = -0.0;
        b[5] = -0.0;
    }
    out.push(("neg-zero-bias", neg_zero));
    let mut both = Lstm::new(0, 5, &mut rng);
    both.b.v[2] = -0.0;
    both.b.v[3 * 5 + 4] = -0.0;
    out.push(("no-input+neg-zero-bias", both));
    out
}

#[test]
fn projected_step_bit_identical_to_step_infer_at_every_level() {
    for (name, lstm) in layers() {
        let plan = lstm.plan();
        let mut rng = StdRng::seed_from_u64(5);
        let x = init::uniform_vector(lstm.in_dim(), -1.0, 1.0, &mut rng);
        let states = [
            zero_state(lstm.hidden()),
            (
                init::uniform_vector(lstm.hidden(), -1.0, 1.0, &mut rng),
                init::uniform_vector(lstm.hidden(), -1.0, 1.0, &mut rng),
            ),
        ];
        for (h0, c0) in &states {
            let (h_ref, c_ref) = simd::with_level(Level::Scalar, || lstm.step_infer(&x, h0, c0));
            for level in simd::supported_levels() {
                let label = format!("{name} @ {}", level.name());
                let (proj, (h, c), (h_fused, c_fused)) = simd::with_level(level, || {
                    let proj = plan.project_input(x.as_slice());
                    let stepped =
                        plan.step_projected(proj.as_slice(), h0.as_slice(), c0.as_slice());
                    (proj, stepped, plan.step_infer(&x, h0, c0))
                });
                assert_eq!(proj.len(), 4 * lstm.hidden(), "{label}");
                assert_bits_eq(&format!("{label} h"), &h, &h_ref);
                assert_bits_eq(&format!("{label} c"), &c, &c_ref);
                assert_bits_eq(&format!("{label} fused h"), &h_fused, &h_ref);
                assert_bits_eq(&format!("{label} fused c"), &c_fused, &c_ref);
                // The slice forms the wrappers above run on, called the
                // way serving calls them: into dirty caller storage,
                // with the state stepped in place.
                let mut flat = vec![f32::NAN; 4 * lstm.hidden()];
                let mut gates = flat.clone();
                let (mut h, mut c) = (h0.clone(), c0.clone());
                simd::with_level(level, || {
                    plan.project_input_into(x.as_slice(), &mut flat);
                    plan.step_projected_into(&flat, h.as_mut_slice(), c.as_mut_slice(), &mut gates);
                });
                assert_bits_eq(
                    &format!("{label} into proj"),
                    &Vector::from_vec(flat),
                    &proj,
                );
                assert_bits_eq(&format!("{label} in-place h"), &h, &h_ref);
                assert_bits_eq(&format!("{label} in-place c"), &c, &c_ref);
            }
        }
    }
}

/// With no input block the projection is the bias itself — sign of zero
/// included.
#[test]
fn projection_without_input_is_the_bias_bitwise() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut lstm = Lstm::new(0, 4, &mut rng);
    lstm.b.v[4 + 1] = -0.0;
    let proj = lstm.plan().project_input(&[]);
    let want: Vec<f32> = lstm.b.v.iter().copied().collect();
    assert_bits_eq("bias", &proj, &Vector::from_vec(want));
    assert!(proj[4 + 1].is_sign_negative());
}

/// One projection shared by every step that consumes the same input
/// (what the freeze does per word id) against the reference sequence
/// pass, which projects afresh at each step.
#[test]
fn shared_projections_reproduce_forward_states() {
    let mut rng = StdRng::seed_from_u64(7);
    let lstm = Lstm::new(6, 11, &mut rng);
    let plan = lstm.plan();
    let words: Vec<Vector> = (0..3)
        .map(|_| init::uniform_vector(6, -1.0, 1.0, &mut rng))
        .collect();
    let seq = [0usize, 1, 0, 2, 2, 0];
    let xs: Vec<Vector> = seq.iter().map(|&w| words[w].clone()).collect();
    let (h0, c0) = zero_state(11);
    let (hs_ref, c_ref) = lstm.forward_states(&xs, &h0, &c0);

    let (empty_hs, empty_c) = lstm.forward_states(&[], &h0, &c0);
    assert!(empty_hs.is_empty());
    assert_bits_eq("empty final c", &empty_c, &c0);

    for level in simd::supported_levels() {
        simd::with_level(level, || {
            // One flat buffer of projections, one state stepped in place
            // through the whole sequence — the serving decoder's shape.
            let mut projs = vec![0.0f32; words.len() * 44];
            for (w, out) in words.iter().zip(projs.chunks_exact_mut(44)) {
                plan.project_input_into(w.as_slice(), out);
            }
            let (mut h, mut c) = (h0.clone(), c0.clone());
            let mut gates = vec![0.0f32; 44];
            for (t, &w) in seq.iter().enumerate() {
                plan.step_projected_into(
                    &projs[w * 44..(w + 1) * 44],
                    h.as_mut_slice(),
                    c.as_mut_slice(),
                    &mut gates,
                );
                assert_bits_eq(&format!("{} h_{t}", level.name()), &h, &hs_ref[t]);
            }
            assert_bits_eq(&format!("{} final c", level.name()), &c, &c_ref);
        });
    }
}

#[test]
#[should_panic(expected = "projection dimension")]
fn step_projected_rejects_a_raw_input() {
    let mut rng = StdRng::seed_from_u64(9);
    let lstm = Lstm::new(3, 5, &mut rng);
    let (h0, c0) = zero_state(5);
    let _ = lstm
        .plan()
        .step_projected(&[0.0; 3], h0.as_slice(), c0.as_slice());
}
