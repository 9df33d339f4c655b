#![warn(missing_docs)]

//! # ncl-bench
//!
//! The experiment harness regenerating **every table and figure** of the
//! evaluation of *Fine-grained Concept Linking using Neural Networks in
//! Healthcare* (Dai et al., SIGMOD 2018). One binary per figure:
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `fig5_params` | Figure 5(a)(b): vary `k` (Cov/Acc) and `β` (Acc) |
//! | `fig6_architecture` | Figure 6(a)–(d): COM-AID vs −c/−w/−wc, Acc+MRR over `d` |
//! | `fig7_overall` | Figure 7(a)(b): NCL vs pkduck(θ), NC, LR⁺, WMD(d), Doc2Vec(d) |
//! | `fig8_pretraining` | Figure 8(a)(b): pre-training on/off over `d` |
//! | `fig10_feedback` | Figure 10: PCA drift of representations under feedback |
//! | `fig11_online_time` | Figure 11(a)–(d): OR/CR/ED/RT time vs `k` and `\|q\|` |
//! | `fig12_training_time` | Figure 12(a)(b): pre-train / refine time vs data size |
//! | `fig13_robustness` | Figure 13(a)(b): concept-% and unlabeled-% sweeps |
//! | `fig14_fault_tolerance` | Figure 14 (extension): degradation ladder under injected faults |
//! | `fig16_kernels` | Figure 16 (extension): SIMD kernel microbenchmarks — gemm_nt, fused LSTM step, log-sum-exp, attention vs forced-scalar |
//! | `fig18_open_loop` | Figure 18 (extension): open-loop serving — admission control, load shedding, bounded p99 |
//! | `run_all` | every binary in sequence |
//!
//! `fig12_training_time` additionally drops a flat `BENCH_fig12.json`
//! at the working directory root; `bench_gate` compares such a record
//! against `ci/bench_baseline_fig12.json` and fails CI on a >20%
//! regression. `fig11_online_time`, `fig16_kernels`,
//! `fig17_scale_serving`, `fig18_open_loop` and `fig20_document_linking`
//! do the same with their `BENCH_fig*.json` vs
//! `ci/bench_baseline_fig*.json` counterparts.
//!
//! Each binary prints paper-style tables and writes a JSON record under
//! `results/` for `EXPERIMENTS.md`. Because the substrate is a synthetic
//! laptop-scale workload (see `DESIGN.md`), the harness compares *shapes*
//! (orderings, crossovers, monotonicity), not absolute values. Table 1's
//! parameter grid is in [`config`], with the dimension sweep scaled down
//! from {50,100,150,200} to keep CPU training tractable.

pub mod config;
pub mod eval;
pub mod results;
pub mod table;
pub mod workload;

pub use config::Scale;
pub use eval::Metrics;
