//! Identity suite for [`ncl_tensor::libm`], `to_bits` throughout, in
//! three tiers.
//!
//! **Tier 1 (default, seconds).** Every slice kernel at every supported
//! dispatch level against the scalar definition over a grid of every
//! exponent × 64 mantissa patterns × both signs, every branch constant
//! of the three algorithms ± 2 ulp (and, for the `expm1f` constants
//! `tanhf` reaches through `2|x|`, their pre-images), ±0, ±inf,
//! denormals, NaNs of both signs with payloads, and vectors of either
//! lane width (8, 16) that mix one special lane with ordinary ones (the
//! whole-vector fallback must return the ordinary lanes' bits). A committed 256-entry table of
//! `input bits → output bits` pins the definitions themselves, so they
//! hold on a host whose libm is a different algorithm. This tier runs
//! under `NCL_FORCE_SCALAR=1` too (CI's scalar-fallback leg), with
//! `Scalar` as the active level.
//!
//! **Tier 2 (`#[ignore]`, release, ~2 min).** Lane forms ≡ scalar
//! definition on **all 2³² inputs** for `expf`, `tanhf`, `sigmoid`, at
//! every supported vector level (`Avx2`, and `Avx512` where the CPU has
//! it).
//!
//! **Tier 3 (`#[ignore]`, conditional).** Scalar definition ≡ the
//! platform's `f32::exp` / `f32::tanh` on all 2³² inputs — asserted
//! where a 4,096-point probe already agrees (glibc 2.36, x86-64: it
//! does, and the count must be 0 — the proof that replacing the platform
//! calls moved no bit); elsewhere the platform's libm is another
//! algorithm and the tier says so and passes. (`expm1f` is private; its
//! half of this tier is the `#[ignore]`d unit test in `libm.rs`.)
//!
//! ```text
//! cargo test --release -p ncl-tensor -- --ignored
//! ```

use ncl_tensor::libm;
use ncl_tensor::simd::{self, Level};

/// Every branch constant of `expf`, `tanhf` and `expm1f` (sign-less bit
/// patterns), and for the `expm1f` ones the `|x|` whose double is the
/// constant — the value `tanhf` has to be given to land on it.
const BRANCH_CONSTANTS: &[u32] = &[
    // expf: abstop boundary (88.0), overflow, underflow, may-underflow.
    0x42b0_0000,
    0x42b1_7217,
    0x42cf_f1b4,
    0x42ce_8ecf,
    // tanhf: finite, tiny, big, one.
    0x7f7f_ffff,
    0x23ff_ffff,
    0x41af_ffff,
    0x3f7f_ffff,
    // expm1f: 27 ln 2, overflow pair, 0.5 ln 2, 1.5 ln 2, 2^-25.
    0x4195_b844,
    0x42b1_7218,
    0x42b1_7180,
    0x3eb1_7218,
    0x3f85_1592,
    0x3300_0000,
    // ... and their halves.
    0x4115_b844,
    0x4231_7218,
    0x4231_7180,
    0x3e31_7218,
    0x3f05_1592,
    0x3280_0000,
];

/// The only inputs, out of all 2³², on which un-fusing one of `expf`'s
/// five multiply-adds changes the `f32` result — both for
/// `r = fma(A, x, −kd)`; the other four are fused in the definition and
/// unobservable in its output (found by exhaustive search). They keep
/// that one rounding pinned in the tiers that run by default.
const FMA_WITNESSES: &[u32] = &[0x4202_422f, 0xc27c_65d9];

/// Bit patterns of the Tier-1 grid.
fn grid_bits() -> Vec<u32> {
    let mut bits = Vec::new();
    // Every exponent × 64 mantissas × both signs. The mantissas are the
    // edges of the field plus a fixed multiplicative walk over it.
    let mut mantissas = vec![
        0u32, 1, 2, 0x7f_ffff, 0x7f_fffe, 0x40_0000, 0x3f_ffff, 0x40_0001,
    ];
    let mut m = 0x12_3457u32;
    while mantissas.len() < 64 {
        m = m.wrapping_mul(0x9e37_79b1) & 0x7f_ffff;
        mantissas.push(m);
    }
    for sign in [0u32, 0x8000_0000] {
        for exp in 0..=255u32 {
            for &m in &mantissas {
                bits.push(sign | (exp << 23) | m);
            }
        }
        for &c in BRANCH_CONSTANTS {
            for d in -2i32..=2 {
                bits.push(sign | c.wrapping_add_signed(d));
            }
        }
    }
    bits.extend_from_slice(FMA_WITNESSES);
    // NaNs with payloads: quiet and signalling, both signs.
    for nan in [
        0x7fc0_0000u32,
        0x7fc0_0001,
        0x7fa5_5aa5,
        0x7f80_0001,
        0x7fff_ffff,
    ] {
        bits.push(nan);
        bits.push(nan | 0x8000_0000);
    }
    bits
}

fn floats(bits: &[u32]) -> Vec<f32> {
    bits.iter().map(|&b| f32::from_bits(b)).collect()
}

/// Compares `got` with `want(input)` lane by lane.
fn assert_map_eq(label: &str, level: Level, input: &[f32], got: &[f32], want: impl Fn(f32) -> f32) {
    assert_eq!(input.len(), got.len(), "{label} @ {level:?}: length");
    for (i, (&x, &g)) in input.iter().zip(got).enumerate() {
        let w = want(x);
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label} @ {level:?} [{i}]: input {:#010x}, got {:#010x}, want {:#010x}",
            x.to_bits(),
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// What every exp-sum is defined as: the scalar add chain, or the
/// canonical quiet NaN `0x7fc0_0000` once a term is NaN — whatever
/// payload the chain carried, which is the compiler's choice of add
/// operand order, not the program's. The NaN rows of the grid and of
/// the special lanes are pinned to that value.
fn chain_sum(x: &[f32], m: f32) -> f32 {
    let mut sum = 0.0f32;
    for &v in x {
        sum += libm::expf(v - m);
    }
    if sum.is_nan() {
        f32::from_bits(0x7fc0_0000)
    } else {
        sum
    }
}

/// Runs all four slice kernels over `input` at every supported level
/// and compares each with the scalar definition.
fn check_all_kernels(label: &str, input: &[f32], shifts: &[f32]) {
    for level in simd::supported_levels() {
        simd::with_level(level, || {
            let mut v = input.to_vec();
            libm::sigmoid_inplace(&mut v);
            assert_map_eq(&format!("{label} sigmoid"), level, input, &v, libm::sigmoid);

            let mut v = input.to_vec();
            libm::tanh_inplace(&mut v);
            assert_map_eq(&format!("{label} tanh"), level, input, &v, libm::tanhf);

            for &m in shifts {
                let mut v = input.to_vec();
                let sum = libm::exp_shifted_inplace(&mut v, m);
                assert_map_eq(&format!("{label} exp m={m}"), level, input, &v, |x| {
                    libm::expf(x - m)
                });
                let want = chain_sum(input, m);
                assert_eq!(
                    sum.to_bits(),
                    want.to_bits(),
                    "{label} exp_shifted_inplace sum m={m} @ {level:?}"
                );
                assert_eq!(
                    libm::sum_exp_shifted(input, m).to_bits(),
                    want.to_bits(),
                    "{label} sum_exp_shifted m={m} @ {level:?}"
                );
            }
        });
    }
}

#[test]
fn slice_kernels_match_scalar_definition_on_the_grid() {
    let input = floats(&grid_bits());
    check_all_kernels("grid", &input, &[0.0, 1.5, -87.25]);
    // The same grid one element later, so every input also meets
    // different neighbours and a different lane.
    check_all_kernels("grid+1", &input[1..], &[0.0]);
}

#[test]
fn one_special_lane_leaves_the_others_their_bits() {
    // One register of either lane form: eight lanes, and sixteen.
    let ordinary = [
        0.25f32, -1.75, 3.5, -0.003, 12.0, -9.5, 0.8, -0.1, 0.6, -2.25, 7.0, -0.04, 1.5, -5.5, 0.3,
        -0.9,
    ];
    let specials = floats(&[
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x7fc0_0000, // +NaN
        0xffc0_0000, // -NaN
        0x7fa5_5aa5, // signalling NaN with a payload
        0xffa5_5aa5,
        0x42b2_0000, // 89: expf overflows
        0xc2b2_0000, // -89: expf's special arm, finite result
        0xc2d0_0000, // -104: expf underflows
        0x7f7f_ffff, // f32::MAX
        0xff7f_ffff,
    ]);
    for width in [8, 16] {
        let ordinary = &ordinary[..width];
        for &s in &specials {
            for lane in 0..width {
                let mut input = ordinary.to_vec();
                input[lane] = s;
                check_all_kernels(
                    &format!("special {:#010x} in lane {lane} of {width}", s.to_bits()),
                    &input,
                    &[0.0, 2.0],
                );
                // ... and in the padded tail behind one full register.
                let mut tailed = ordinary.to_vec();
                tailed.extend_from_slice(&input[..lane + 1]);
                check_all_kernels("special in tail", &tailed, &[0.0]);
            }
        }
    }
}

#[test]
fn exp_sum_is_the_ascending_scalar_chain() {
    // Terms spanning 30 orders of magnitude: any pairwise or per-lane
    // partial sum rounds differently from the ascending chain.
    for n in [5usize, 8, 9, 31, 188, 1017] {
        let x: Vec<f32> = (0..n)
            .map(|i| ((i * 7919 % 1013) as f32 * 0.07).sin() * 35.0)
            .collect();
        let m = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let want = chain_sum(&x, m);
        for level in simd::supported_levels() {
            simd::with_level(level, || {
                assert_eq!(
                    libm::sum_exp_shifted(&x, m).to_bits(),
                    want.to_bits(),
                    "n={n} @ {level:?}"
                );
                let mut v = x.clone();
                assert_eq!(
                    libm::exp_shifted_inplace(&mut v, m).to_bits(),
                    want.to_bits(),
                    "in place, n={n} @ {level:?}"
                );
            });
        }
    }
}

#[test]
fn committed_table_pins_the_definitions() {
    for &[x, exp, tanh, sigmoid] in TABLE.iter() {
        let v = f32::from_bits(x);
        assert_eq!(libm::expf(v).to_bits(), exp, "expf({x:#010x})");
        assert_eq!(libm::tanhf(v).to_bits(), tanh, "tanhf({x:#010x})");
        assert_eq!(libm::sigmoid(v).to_bits(), sigmoid, "sigmoid({x:#010x})");
    }
}

#[test]
fn committed_table_holds_every_branch_constant_and_witness() {
    let has = |x: u32| TABLE.iter().any(|row| row[0] == x);
    for &c in BRANCH_CONSTANTS {
        assert!(has(c) && has(c | 0x8000_0000), "{c:#010x} of either sign");
    }
    for &w in FMA_WITNESSES {
        assert!(has(w), "{w:#010x}");
    }
}

// ---------------------------------------------------------------------------
// Exhaustive tiers.
// ---------------------------------------------------------------------------

/// Calls `check(first_bits, count)` over all 2³² bit patterns in
/// blocks, on a few threads, and returns the total it reports.
fn over_all_inputs(check: impl Fn(u32, usize) -> u64 + Sync) -> u64 {
    const BLOCK: usize = 1 << 14;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let next = std::sync::atomic::AtomicU32::new(0);
    let blocks = (1u64 << 32) / BLOCK as u64;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut bad = 0u64;
                    loop {
                        let b = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if u64::from(b) >= blocks {
                            return bad;
                        }
                        bad += check(b * BLOCK as u32, BLOCK);
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("exhaustive worker panicked"))
            .sum()
    })
}

/// Bit-level mismatches between `got` and `want`.
fn count_mismatches(got: &[f32], want: &[f32]) -> u64 {
    got.iter()
        .zip(want)
        .filter(|&(g, w)| g.to_bits() != w.to_bits())
        .count() as u64
}

#[test]
#[ignore = "exhaustive: all 2^32 inputs, run in release"]
fn exhaustive_lanes_match_scalar_definition() {
    let levels: Vec<Level> = simd::supported_levels()
        .into_iter()
        .filter(|&l| l != Level::Scalar)
        .collect();
    type Kernel = (fn(f32) -> f32, fn(&mut [f32]));
    let kernels: [Kernel; 3] = [
        (
            |x| libm::expf(x - 0.0),
            |v| {
                libm::exp_shifted_inplace(v, 0.0);
            },
        ),
        (libm::tanhf, libm::tanh_inplace),
        (libm::sigmoid, libm::sigmoid_inplace),
    ];
    let bad = over_all_inputs(|first, count| {
        let input: Vec<f32> = (0..count as u32)
            .map(|i| f32::from_bits(first + i))
            .collect();
        let mut bad = 0;
        let mut got = input.clone();
        for (scalar, kernel) in kernels {
            let want: Vec<f32> = input.iter().map(|&x| scalar(x)).collect();
            for &level in &levels {
                got.copy_from_slice(&input);
                simd::with_level(level, || kernel(&mut got));
                bad += count_mismatches(&got, &want);
            }
        }
        bad
    });
    println!("lanes vs scalar definition, all 2^32 inputs × expf/tanhf/sigmoid at {levels:?}: {bad} mismatches");
    assert_eq!(bad, 0);
}

/// The C library's version string where there is a glibc to ask.
fn libc_version() -> String {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn gnu_get_libc_version() -> *const std::ffi::c_char;
        }
        // SAFETY: glibc returns a pointer to a static NUL-terminated
        // string.
        let v = unsafe { std::ffi::CStr::from_ptr(gnu_get_libc_version()) };
        format!("glibc {}", v.to_string_lossy())
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    "not glibc".to_string()
}

#[test]
#[ignore = "exhaustive: all 2^32 inputs, run in release"]
fn exhaustive_scalar_definition_matches_platform() {
    #[cfg(target_arch = "x86_64")]
    let fma = std::arch::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let fma = false;
    let host = format!("{}, fma={fma}", libc_version());

    // 4,096 probe points: if the platform already disagrees here it runs
    // a different algorithm, and there is nothing to assert.
    let probe_agrees = (0..4096u32).all(|i| {
        let x = std::hint::black_box((i as f32 - 2048.0) / 64.0);
        libm::expf(x).to_bits() == x.exp().to_bits()
            && libm::tanhf(x).to_bits() == x.tanh().to_bits()
    });
    if !probe_agrees {
        println!("{host}: the platform's libm is another algorithm; the definitions are pinned by the committed table instead");
        return;
    }
    let bad = over_all_inputs(|first, count| {
        let mut bad = 0;
        for i in 0..count as u32 {
            let x = std::hint::black_box(f32::from_bits(first + i));
            bad += u64::from(libm::expf(x).to_bits() != x.exp().to_bits());
            bad += u64::from(libm::tanhf(x).to_bits() != x.tanh().to_bits());
        }
        bad
    });
    println!("{host}: scalar definition vs platform expf/tanhf, all 2^32 inputs: {bad} mismatches");
    assert_eq!(bad, 0);
}

/// `[input, expf, tanhf, sigmoid]` bits: ±0, ±inf, NaNs, denormals, every
/// branch constant of either sign, the FMA witnesses, and a fixed walk
/// over the exponents where the three functions are not trivial
/// (2⁻³⁰ … 2⁷, both signs) — printed from the definitions on a host where
/// Tier 3 asserts and passes (glibc 2.36, x86-64, FMA), so these are that
/// platform's bits.
#[rustfmt::skip]
const TABLE: [[u32; 4]; 256] = [
    [0x00000000, 0x3f800000, 0x00000000, 0x3f000000],
    [0x80000000, 0x3f800000, 0x80000000, 0x3f000000],
    [0x7f800000, 0x7f800000, 0x3f800000, 0x3f800000],
    [0xff800000, 0x00000000, 0xbf800000, 0x00000000],
    [0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000],
    [0xffc00000, 0xffc00000, 0xffc00000, 0xffc00000],
    [0x7fa55aa5, 0x7fe55aa5, 0x7fe55aa5, 0x7fe55aa5],
    [0xffa55aa5, 0xffe55aa5, 0xffe55aa5, 0xffe55aa5],
    [0x00000001, 0x3f800000, 0x00000001, 0x3f000000],
    [0x80000001, 0x3f800000, 0x80000001, 0x3f000000],
    [0x007fffff, 0x3f800000, 0x007fffff, 0x3f000000],
    [0x807fffff, 0x3f800000, 0x807fffff, 0x3f000000],
    [0x42b00000, 0x7ef882b7, 0x3f800000, 0x3f800000],
    [0xc2b00000, 0x0041edc4, 0xbf800000, 0x0041edc4],
    [0x42b17217, 0x7f7fff84, 0x3f800000, 0x3f800000],
    [0xc2b17217, 0x0020000f, 0xbf800000, 0x0020000f],
    [0x42cff1b4, 0x7f800000, 0x3f800000, 0x3f800000],
    [0xc2cff1b4, 0x00000001, 0xbf800000, 0x00000001],
    [0x42ce8ecf, 0x7f800000, 0x3f800000, 0x3f800000],
    [0xc2ce8ecf, 0x00000001, 0xbf800000, 0x00000001],
    [0x7f7fffff, 0x7f800000, 0x3f800000, 0x3f800000],
    [0xff7fffff, 0x00000000, 0xbf800000, 0x00000000],
    [0x23ffffff, 0x3f800000, 0x23ffffff, 0x3f000000],
    [0xa3ffffff, 0x3f800000, 0xa3ffffff, 0x3f000000],
    [0x41afffff, 0x4f55ad53, 0x3f800000, 0x3f800000],
    [0xc1afffff, 0x2f995a59, 0xbf800000, 0x2f995a59],
    [0x3f7fffff, 0x402df854, 0x3f42f7d5, 0x3f3b26a8],
    [0xbf7fffff, 0x3ebc5ab2, 0xbf42f7d5, 0x3e89b2b1],
    [0x4195b844, 0x4cfffff9, 0x3f800000, 0x3f800000],
    [0xc195b844, 0x32000004, 0xbf800000, 0x32000004],
    [0x42b17218, 0x7f800000, 0x3f800000, 0x3f800000],
    [0xc2b17218, 0x001fffff, 0xbf800000, 0x001fffff],
    [0x42b17180, 0x7f7fb40f, 0x3f800000, 0x3f800000],
    [0xc2b17180, 0x00200981, 0xbf800000, 0x00200981],
    [0x3eb17218, 0x3fb504f3, 0x3eaaaaab, 0x3f15f619],
    [0xbeb17218, 0x3f3504f3, 0xbeaaaaab, 0x3ed413cc],
    [0x3f851592, 0x403504f3, 0x3f471c72, 0x3f3d21be],
    [0xbf851592, 0x3eb504f3, 0xbf471c72, 0x3e85bc83],
    [0x33000000, 0x3f800000, 0x33000000, 0x3f000000],
    [0xb3000000, 0x3f800000, 0xb3000000, 0x3f000000],
    [0x4115b844, 0x463504f1, 0x3f800000, 0x3f7ffa58],
    [0xc115b844, 0x38b504f6, 0xbf800000, 0x38b500f6],
    [0x42317218, 0x5f800001, 0x3f800000, 0x3f800000],
    [0xc2317218, 0x1f7ffffe, 0xbf800000, 0x1f7ffffe],
    [0x42317180, 0x5f7fda05, 0x3f800000, 0x3f800000],
    [0xc2317180, 0x1f801300, 0xbf800000, 0x1f801300],
    [0x3e317218, 0x3f9837f0, 0x3e2fb0cd, 0x3f0b100c],
    [0xbe317218, 0x3f5744fd, 0xbe2fb0cd, 0x3ee9dfe8],
    [0x3f051592, 0x3fd744fd, 0x3ef486f8, 0x3f208a9e],
    [0xbf051592, 0x3f1837f0, 0xbef486f8, 0x3ebeeac4],
    [0x32800000, 0x3f800000, 0x32800000, 0x3f000000],
    [0xb2800000, 0x3f800000, 0xb2800000, 0x3f000000],
    [0x4202422f, 0x56fc9f1c, 0x3f800000, 0x3f800000],
    [0xc27c65d9, 0x11fa2993, 0xbf800000, 0x11fa2993],
    [0x30f8593f, 0x3f800000, 0x30f8593f, 0x3f000000],
    [0xb16d7b8f, 0x3f800000, 0xb16d7b8f, 0x3f000000],
    [0x31d204df, 0x3f800000, 0x31d204df, 0x3f000000],
    [0xb26bc52f, 0x3f800000, 0xb26bc52f, 0x3f000000],
    [0x32cf8c7f, 0x3f800000, 0x32cf8c7f, 0x3f000000],
    [0xb3312acf, 0x3f7fffff, 0xb3312ad0, 0x3effffff],
    [0x33b3701f, 0x3f800001, 0x33b3701f, 0x3f000000],
    [0xb4382c6f, 0x3f7ffffd, 0xb4382c6f, 0x3effffff],
    [0x34b02fbf, 0x3f800003, 0x34b02fbf, 0x3f000002],
    [0xb56b4a0f, 0x3f7ffff1, 0xb56b4a0f, 0x3efffff9],
    [0x35e84b5f, 0x3f80000f, 0x35e84b5f, 0x3f000007],
    [0xb62503af, 0x3f7fffd7, 0xb62503ae, 0x3effffeb],
    [0x36ee42ff, 0x3f80003c, 0x36ee42ff, 0x3f00001e],
    [0xb72fd94f, 0x3f7fff50, 0xb72fd94f, 0x3effffa8],
    [0x37c4969f, 0x3f8000c5, 0x37c4969f, 0x3f000062],
    [0xb8464aef, 0x3f7ffce7, 0xb8464aef, 0x3efffe73],
    [0x38ddc63f, 0x3f800377, 0x38ddc63f, 0x3f0001bc],
    [0xb912d88f, 0x3f7ff6d3, 0xb912d88e, 0x3efffb69],
    [0x399c51df, 0x3f8009c5, 0x399c51df, 0x3f0004e2],
    [0xba30022f, 0x3f7fd403, 0xba30022e, 0x3effe9ff],
    [0x3ad2b97f, 0x3f8034b9, 0x3ad2b972, 0x3f001a57],
    [0xbb2847cf, 0x3f7f57ef, 0xbb2847b6, 0x3effabdb],
    [0x3bc37d1f, 0x3f80c413, 0x3bc37c86, 0x3f0061be],
    [0xbc76296f, 0x3f7c2eb6, 0xbc7624b1, 0x3efe13af],
    [0x3ca11cbf, 0x3f828ad4, 0x3ca1176e, 0x3f014237],
    [0xbd04270f, 0x3f77df4e, 0xbd041b53, 0x3efbdedf],
    [0x3d8e185f, 0x3f893240, 0x3d8dde1d, 0x3f04704e],
    [0xbe2cc0af, 0x3f584222, 0xbe2b21d8, 0x3eea74fd],
    [0x3e9cefff, 0x3fade972, 0x3e983352, 0x3f13770c],
    [0xbf3a764f, 0x3ef723f6, 0xbf1f3fb4, 0x3ea6aee2],
    [0x3fd0239f, 0x40a2afa8, 0x3f6cedb8, 0x3f55ec0a],
    [0xc067c7ef, 0x3cdb0ec8, 0xbf7fa258, 0x3cd55a44],
    [0x409a333f, 0x42f79f32, 0x3f7ff773, 0x3f7df2ec],
    [0xc15f358f, 0x356a8562, 0xbf800000, 0x356a8555],
    [0x41dd9edf, 0x537a19cd, 0x3f800000, 0x3f800000],
    [0xc23b3f2f, 0x1db0ade2, 0xbf800000, 0x1db0ade2],
    [0x42ece67f, 0x7f800000, 0x3f800000, 0x3f800000],
    [0xc30664cf, 0x00000000, 0xbf800000, 0x00000000],
    [0x308a8a1f, 0x3f800000, 0x308a8a1f, 0x3f000000],
    [0xb13b266f, 0x3f800000, 0xb13b266f, 0x3f000000],
    [0x31e909bf, 0x3f800000, 0x31e909bf, 0x3f000000],
    [0xb244040f, 0x3f800000, 0xb244040f, 0x3f000000],
    [0x32aae55f, 0x3f800000, 0x32aae55f, 0x3f000000],
    [0xb37b7daf, 0x3f7fffff, 0xb37b7daf, 0x3effffff],
    [0x33e29cff, 0x3f800001, 0x33e29cff, 0x3f000001],
    [0xb42c134f, 0x3f7ffffd, 0xb42c134f, 0x3effffff],
    [0x3492b09f, 0x3f800002, 0x3492b09f, 0x3f000001],
    [0xb51044ef, 0x3f7ffff7, 0xb51044ef, 0x3efffffb],
    [0x35ada03f, 0x3f80000b, 0x35ada03f, 0x3f000006],
    [0xb652928f, 0x3f7fffcb, 0xb6529290, 0x3effffe5],
    [0x3695ebdf, 0x3f800025, 0x3695ebdf, 0x3f000013],
    [0xb70d7c2f, 0x3f7fff73, 0xb70d7c2f, 0x3effffb9],
    [0x379e137f, 0x3f80009e, 0x379e137f, 0x3f00004f],
    [0xb84b81cf, 0x3f7ffcd2, 0xb84b81cf, 0x3efffe69],
    [0x3888971f, 0x3f800222, 0x3888971f, 0x3f000111],
    [0xb907236f, 0x3f7ff78e, 0xb907236f, 0x3efffbc7],
    [0x3987f6bf, 0x3f800880, 0x3987f6bf, 0x3f000440],
    [0xba2ae10f, 0x3f7fd54b, 0xba2ae10d, 0x3effeaa3],
    [0x3abeb25f, 0x3f802fb5, 0x3abeb256, 0x3f0017d6],
    [0xbb113aaf, 0x3f7f6eee, 0xbb113aa0, 0x3effb762],
    [0x3bbf49ff, 0x3f80bfd9, 0x3bbf4970, 0x3f005fa5],
    [0xbc04b04f, 0x3f7def63, 0xbc04af91, 0x3efef69f],
    [0x3c8c3d9f, 0x3f8235cb, 0x3c8c3a1e, 0x3f011879],
    [0xbd3fc1ef, 0x3f744a97, 0xbd3f9e1a, 0x3efa0238],
    [0x3d980d3f, 0x3f89dd6b, 0x3d97c5e1, 0x3f04bfdb],
    [0xbe6cef8f, 0x3f4b1e9d, 0xbe68cbca, 0x3ee283b4],
    [0x3ec538df, 0x3fbc25ee, 0x3ebc0387, 0x3f185a37],
    [0xbf26b92f, 0x3f05799a, 0xbf1290a7, 0x3eaf7705],
    [0x3fe6407f, 0x40c15d6b, 0x3f725a05, 0x3f5ba66b],
    [0xc0779ecf, 0x3cab07f6, 0xbf7fc6e5, 0x3ca7888a],
    [0x40bda41f, 0x43bb6135, 0x3f7fff11, 0x3f7f5197],
    [0xc15a206f, 0x35a11ad9, 0xbf800000, 0x35a11acc],
    [0x41fde3bf, 0x565ca84c, 0x3f800000, 0x3f800000],
    [0xc238be0f, 0x1e2538b7, 0xbf800000, 0x1e2538b7],
    [0x42c97f5f, 0x7f800000, 0x3f800000, 0x3f800000],
    [0xc36df7af, 0x00000000, 0xbf800000, 0x00000000],
    [0x30b2f6ff, 0x3f800000, 0x30b2f6ff, 0x3f000000],
    [0xb1444d4f, 0x3f800000, 0xb1444d4f, 0x3f000000],
    [0x31bcca9f, 0x3f800000, 0x31bcca9f, 0x3f000000],
    [0xb2763eef, 0x3f800000, 0xb2763eef, 0x3f000000],
    [0x32d97a3f, 0x3f800000, 0x32d97a3f, 0x3f000000],
    [0xb32e4c8f, 0x3f7fffff, 0xb32e4c90, 0x3effffff],
    [0x33eb85df, 0x3f800001, 0x33eb85df, 0x3f000001],
    [0xb406f62f, 0x3f7ffffe, 0xb406f62f, 0x3effffff],
    [0x34c56d7f, 0x3f800003, 0x34c56d7f, 0x3f000002],
    [0xb50abbcf, 0x3f7ffff7, 0xb50abbcf, 0x3efffffb],
    [0x35a9b11f, 0x3f80000b, 0x35a9b11f, 0x3f000005],
    [0xb6341d6f, 0x3f7fffd3, 0xb6341d6f, 0x3effffe9],
    [0x36cad0bf, 0x3f800033, 0x36cad0bf, 0x3f000019],
    [0xb76d9b0f, 0x3f7fff12, 0xb76d9b0f, 0x3effff89],
    [0x37cb4c5f, 0x3f8000cb, 0x37cb4c5f, 0x3f000066],
    [0xb811b4af, 0x3f7ffdb9, 0xb811b4af, 0x3efffedd],
    [0x38bda3ff, 0x3f8002f7, 0x38bda3ff, 0x3f00017b],
    [0xb96aea4f, 0x3f7ff152, 0xb96aea4e, 0x3efff8a9],
    [0x39a4579f, 0x3f800a46, 0x39a4579f, 0x3f000523],
    [0xba33bbef, 0x3f7fd315, 0xba33bbed, 0x3effe989],
    [0x3af1e73f, 0x3f803c88, 0x3af1e72d, 0x3f001e3d],
    [0xbb16a98f, 0x3f7f6983, 0xbb16a97e, 0x3effb4ab],
    [0x3b88d2df, 0x3f80891c, 0x3b88d2ab, 0x3f004469],
    [0xbc2e332f, 0x3f7d4ae4, 0xbc2e3181, 0x3efea39a],
    [0x3cbb9a7f, 0x3f82f713, 0x3cbb921a, 0x3f017731],
    [0xbd04d8cf, 0x3f77d48d, 0xbd04cce3, 0x3efbd952],
    [0x3dccbe1f, 0x3f8d753a, 0x3dcc1033, 0x3f066494],
    [0xbe151a6f, 0x3f5d4f9b, 0xbe140ef1, 0x3eed651b],
    [0x3eeebdbf, 0x3fcc0a88, 0x3eded245, 0x3f1d503d],
    [0xbf49780f, 0x3ee911c7, 0xbf281d75, 0x3ea02962],
    [0x3fc4195f, 0x409414c4, 0x3f69283f, 0x3f528267],
    [0xc07c71af, 0x3c9e9d3a, 0xbf7fcee1, 0x3c9b99f5],
    [0x40df50ff, 0x44862e8b, 0x3f7fffe3, 0x3f7fc301],
    [0xc178874f, 0x3440bf5d, 0xbf800000, 0x3440bf5a],
    [0x41c2e49f, 0x510dabe1, 0x3f800000, 0x3f800000],
    [0xc27838ef, 0x12b1a020, 0xbf800000, 0x12b1a020],
    [0x42e1543f, 0x7f800000, 0x3f800000, 0x3f800000],
    [0xc326068f, 0x00000000, 0xbf800000, 0x00000000],
    [0x309d1fdf, 0x3f800000, 0x309d1fdf, 0x3f000000],
    [0xb11c702f, 0x3f800000, 0xb11c702f, 0x3f000000],
    [0x31c8c77f, 0x3f800000, 0x31c8c77f, 0x3f000000],
    [0xb265f5cf, 0x3f800000, 0xb265f5cf, 0x3f000000],
    [0x32a6cb1f, 0x3f800000, 0x32a6cb1f, 0x3f000000],
    [0xb37d176f, 0x3f7fffff, 0xb37d176f, 0x3effffff],
    [0x33e9aabf, 0x3f800001, 0x33e9aabf, 0x3f000001],
    [0xb44c550f, 0x3f7ffffd, 0xb44c550e, 0x3effffff],
    [0x34b3e65f, 0x3f800003, 0x34b3e65f, 0x3f000002],
    [0xb52e2eaf, 0x3f7ffff5, 0xb52e2eaf, 0x3efffffb],
    [0x3597fdff, 0x3f800009, 0x3597fdff, 0x3f000005],
    [0xb66d244f, 0x3f7fffc5, 0xb66d244f, 0x3effffe3],
    [0x3698719f, 0x3f800026, 0x3698719f, 0x3f000013],
    [0xb743b5ef, 0x3f7fff3c, 0xb743b5ef, 0x3effff9e],
    [0x37a7c13f, 0x3f8000a8, 0x37a7c13f, 0x3f000054],
    [0xb85c638f, 0x3f7ffc8e, 0xb85c638f, 0x3efffe47],
    [0x38a86cdf, 0x3f8002a2, 0x38a86cdf, 0x3f000151],
    [0xb951ad2f, 0x3f7ff2e6, 0xb951ad2f, 0x3efff973],
    [0x39ecf47f, 0x3f800ed0, 0x39ecf47e, 0x3f000767],
    [0xba2e12cf, 0x3f7fd47f, 0xba2e12cd, 0x3effea3d],
    [0x3ab7d81f, 0x3f802dfe, 0x3ab7d817, 0x3f0016fb],
    [0xbb6c146f, 0x3f7f1458, 0xbb6c142c, 0x3eff89f6],
    [0x3bbb97bf, 0x3f80bc21, 0x3bbb9739, 0x3f005dcc],
    [0xbc76320f, 0x3f7c2e94, 0xbc762d51, 0x3efe139e],
    [0x3c9ab35f, 0x3f8270af, 0x3c9aaea9, 0x3f013564],
    [0xbd26ebaf, 0x3f75c6f5, 0xbd26d40b, 0x3efac8d2],
    [0x3de7aaff, 0x3f8f5478, 0x3de6af53, 0x3f073b5f],
    [0xbe48c14f, 0x3f526cb4, 0xbe4638d6, 0x3ee6fc55],
    [0x3ea4fe9f, 0x3fb0ab9a, 0x3e9f82c6, 0x3f14729b],
    [0xbf1632ef, 0x3f0e5ff0, 0xbf070c1e, 0x3eb6fbb1],
    [0x3fc52e3f, 0x4095566f, 0x3f6985f0, 0x3f52d319],
    [0xc039c08f, 0x3d60d700, 0xbf7e763e, 0x3d5523da],
    [0x40aab9df, 0x434f8315, 0x3f7ffcf5, 0x3f7ec5b2],
    [0xc14dea2f, 0x362ccd9a, 0xbf800000, 0x362ccd7c],
    [0x41a8217f, 0x4e9fcebc, 0x3f800000, 0x3f800000],
    [0xc25d2fcf, 0x1795791f, 0xbf800000, 0x1795791f],
    [0x42ffe51f, 0x7f800000, 0x3f800000, 0x3f800000],
    [0xc362116f, 0x00000000, 0xbf800000, 0x00000000],
    [0x30e484bf, 0x3f800000, 0x30e484bf, 0x3f000000],
    [0xb1470f0f, 0x3f800000, 0xb1470f0f, 0x3f000000],
    [0x31f8805f, 0x3f800000, 0x31f8805f, 0x3f000000],
    [0xb266a8af, 0x3f800000, 0xb266a8af, 0x3f000000],
    [0x32ce57ff, 0x3f800000, 0x32ce57ff, 0x3f000000],
    [0xb30b5e4f, 0x3f7fffff, 0xb30b5e50, 0x3effffff],
    [0x33e88b9f, 0x3f800001, 0x33e88b9f, 0x3f000001],
    [0xb46fafef, 0x3f7ffffc, 0xb46fafef, 0x3efffffe],
    [0x34b99b3f, 0x3f800003, 0x34b99b3f, 0x3f000002],
    [0xb53e1d8f, 0x3f7ffff4, 0xb53e1d8f, 0x3efffffa],
    [0x35a406df, 0x3f80000a, 0x35a406df, 0x3f000005],
    [0xb611272f, 0x3f7fffdc, 0xb611272e, 0x3effffee],
    [0x36fa4e7f, 0x3f80003f, 0x36fa4e7f, 0x3f00001f],
    [0xb7734ccf, 0x3f7fff0d, 0xb7734ccf, 0x3effff87],
    [0x37fef21f, 0x3f8000ff, 0x37fef21f, 0x3f000080],
    [0xb85f0e6f, 0x3f7ffc84, 0xb85f0e6f, 0x3efffe42],
    [0x38e471bf, 0x3f800392, 0x38e471be, 0x3f0001c9],
    [0xb93eec0f, 0x3f7ff412, 0xb93eec0f, 0x3efffa09],
    [0x39cd4d5f, 0x3f800cd5, 0x39cd4d5e, 0x3f00066a],
    [0xba6d65af, 0x3f7fc4ad, 0xba6d65ab, 0x3effe254],
    [0x3acc04ff, 0x3f80330b, 0x3acc04f5, 0x3f001981],
    [0xbb34fb4f, 0x3f7f4b45, 0xbb34fb31, 0x3effa583],
    [0x3be3189f, 0x3f80e3e3, 0x3be317b1, 0x3f00718c],
    [0xbc502cef, 0x3f7cc491, 0xbc502a11, 0x3efe5fa8],
    [0x3c85083f, 0x3f821879, 0x3c850541, 0x3f010a0f],
    [0xbd697a8f, 0x3f71d0d1, 0xbd6939e8, 0x3ef8b4ae],
    [0x3d9453df, 0x3f899d4c, 0x3d94119e, 0x3f04a21a],
    [0xbe1b642f, 0x3f5bf4c4, 0xbe1a359f, 0x3eec9cff],
    [0x3ee37b7f, 0x3fc79a71, 0x3ed59bb7, 0x3f1bfa01],
    [0xbf7069cf, 0x3ec82dbb, 0xbf3c1cd8, 0x3e8fe99e],
    [0x3fb4ff1f, 0x408399c1, 0x3f636ac7, 0x3f4ded45],
    [0xc0630b6f, 0x3cebe253, 0xbf7f936a, 0x3ce54834],
    [0x40bb5ebf, 0x43ae8ae4, 0x3f7ffeed, 0x3f7f44cd],
    [0xc15dc90f, 0x35802c7f, 0xbf800000, 0x35802c77],
    [0x41991a5f, 0x4d43609b, 0x3f800000, 0x3f800000],
    [0xc23b22af, 0x1db5aa67, 0xbf800000, 0x1db5aa67],
    [0x42e0b1ff, 0x7f800000, 0x3f800000, 0x3f800000],
    [0xc345984f, 0x00000000, 0xbf800000, 0x00000000],
    [0x3094a59f, 0x3f800000, 0x3094a59f, 0x3f000000],
    [0xb137a9ef, 0x3f800000, 0xb137a9ef, 0x3f000000],
    [0x31a7753f, 0x3f800000, 0x31a7753f, 0x3f000000],
    [0xb23bd78f, 0x3f800000, 0xb23bd78f, 0x3f000000],
    [0x32fba0df, 0x3f800000, 0x32fba0df, 0x3f000000],
    [0xb36ca12f, 0x3f7fffff, 0xb36ca12f, 0x3effffff],
    [0x33e3a87f, 0x3f800001, 0x33e3a87f, 0x3f000001],
    [0xb45486cf, 0x3f7ffffd, 0xb45486ce, 0x3effffff],
    [0x34a20c1f, 0x3f800003, 0x34a20c1f, 0x3f000001],
    [0xb56e086f, 0x3f7ffff1, 0xb56e086f, 0x3efffff9],
    [0x35e94bbf, 0x3f80000f, 0x35e94bbe, 0x3f000007],
    [0xb623a60f, 0x3f7fffd7, 0xb623a60f, 0x3effffeb],
];
