//! Runs every figure reproduction in sequence (pass `--quick` for the
//! smoke-test scale). Equivalent to invoking each `fig*` binary.

use std::process::Command;

fn main() {
    // Checked here too, so a mistyped flag stops the run before the
    // first figure instead of failing each one in turn.
    ncl_bench::config::quick_from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bins = [
        "fig5_params",
        "fig6_architecture",
        "fig7_overall",
        "fig8_pretraining",
        "fig10_feedback",
        "fig11_online_time",
        "fig12_training_time",
        "fig13_robustness",
        "fig14_fault_tolerance",
        "fig16_kernels",
        "fig17_scale_serving",
        "fig18_open_loop",
        "fig20_document_linking",
    ];
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .expect("cannot locate binary directory");
    let mut failures = Vec::new();
    for bin in bins {
        println!("\n################ {bin} ################");
        let status = Command::new(exe_dir.join(bin))
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        if !status.success() {
            failures.push(bin);
        }
    }
    if failures.is_empty() {
        println!("\nAll figure reproductions completed.");
    } else {
        eprintln!("\nFAILED: {failures:?}");
        std::process::exit(1);
    }
}
