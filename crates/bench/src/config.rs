//! Experiment scales and the Table 1 parameter grid.

/// The parameter grid of Table 1 (defaults bolded in the paper).
pub mod table1 {
    /// Candidate-set cardinality sweep.
    pub const K_VALUES: &[usize] = &[10, 20, 30, 40, 50];
    /// Default `k`.
    pub const K_DEFAULT: usize = 20;
    /// Concept-path-length sweep.
    pub const BETA_VALUES: &[usize] = &[1, 2, 3, 4];
    /// Default `β`.
    pub const BETA_DEFAULT: usize = 2;
    /// The paper's dimensionality sweep (server-scale).
    pub const D_VALUES_PAPER: &[usize] = &[50, 100, 150, 200];
    /// The paper's default `d`.
    pub const D_DEFAULT_PAPER: usize = 150;
}

/// Workload scale: how large the synthetic datasets and sweeps are.
///
/// The paper trains d=150 models over ~180k labeled snippets on a
/// 4-socket server; this harness reproduces the experiment *shapes* at
/// laptop scale. `Scale::default_scale()` targets minutes per figure;
/// `Scale::quick()` targets seconds (used by `run_all --quick` and CI).
#[derive(Debug, Clone)]
pub struct Scale {
    /// Ontology categories per dataset (≈ 4 leaves each).
    pub categories: usize,
    /// Aliases per concept.
    pub aliases_per_concept: usize,
    /// Unlabeled snippets per dataset.
    pub unlabeled: usize,
    /// Queries per evaluation group (paper: 484).
    pub group_size: usize,
    /// Purposive queries per group (paper: 84).
    pub purposive: usize,
    /// Number of groups averaged (paper: 10).
    pub groups: usize,
    /// The `d` sweep standing in for Table 1's {50,100,150,200}.
    pub dims: Vec<usize>,
    /// The default `d` standing in for the paper's 150.
    pub dim_default: usize,
    /// COM-AID training epochs.
    pub epochs: usize,
    /// CBOW pre-training epochs.
    pub cbow_epochs: usize,
    /// Base seed.
    pub seed: u64,
}

impl Scale {
    /// The standard experiment scale (minutes per figure).
    pub fn default_scale() -> Self {
        Self {
            categories: 40,
            aliases_per_concept: 4,
            unlabeled: 1200,
            group_size: 120,
            purposive: 24,
            groups: 3,
            dims: vec![16, 32, 48, 64],
            dim_default: 48,
            epochs: 36,
            cbow_epochs: 8,
            seed: 0xB5EED,
        }
    }

    /// A fast smoke-test scale (seconds per figure).
    pub fn quick() -> Self {
        Self {
            categories: 14,
            aliases_per_concept: 4,
            unlabeled: 300,
            group_size: 60,
            purposive: 12,
            groups: 2,
            dims: vec![16, 32],
            dim_default: 32,
            epochs: 24,
            cbow_epochs: 6,
            seed: 0xB5EED,
        }
    }

    /// The scale the process arguments ask for ([`quick_from_args`]).
    pub fn from_args() -> Self {
        if quick_from_args() {
            Self::quick()
        } else {
            Self::default_scale()
        }
    }
}

/// Parses a figure binary's arguments (program name already skipped):
/// nothing, or `--quick`. Anything else is an error carrying the usage
/// line — a mistyped `--quik` must not fall through to the minutes-long
/// full profile and overwrite the tracked records with it.
pub fn parse_quick(args: impl IntoIterator<Item = String>) -> Result<bool, String> {
    let mut quick = false;
    for arg in args {
        if arg != "--quick" {
            return Err(format!(
                "unknown argument `{arg}`\nusage: <figure binary> [--quick]"
            ));
        }
        quick = true;
    }
    Ok(quick)
}

/// Whether the process was started with `--quick` — the one flag every
/// figure binary takes. Prints the usage line and exits with status 2 on
/// any other argument.
pub fn quick_from_args() -> bool {
    parse_quick(std::env::args().skip(1)).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_grid_matches_paper() {
        assert_eq!(table1::K_VALUES, &[10, 20, 30, 40, 50]);
        assert_eq!(table1::BETA_VALUES, &[1, 2, 3, 4]);
        assert_eq!(table1::D_VALUES_PAPER, &[50, 100, 150, 200]);
        assert!(table1::K_VALUES.contains(&table1::K_DEFAULT));
        assert!(table1::BETA_VALUES.contains(&table1::BETA_DEFAULT));
    }

    #[test]
    fn quick_flag_parses_and_anything_else_is_a_usage_error() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_quick(args(&[])), Ok(false));
        assert_eq!(parse_quick(args(&["--quick"])), Ok(true));
        for bad in [&["--quik"][..], &["--quick", "extra"], &["-q"]] {
            let err = parse_quick(args(bad)).expect_err("unknown flag accepted");
            assert!(err.contains(bad[bad.len() - 1]) && err.contains("[--quick]"));
        }
    }

    #[test]
    fn quick_is_smaller_than_default() {
        let d = Scale::default_scale();
        let q = Scale::quick();
        assert!(q.categories < d.categories);
        assert!(q.group_size < d.group_size);
        assert!(q.epochs <= d.epochs);
    }

    #[test]
    fn purposive_fits_group() {
        for s in [Scale::default_scale(), Scale::quick()] {
            assert!(s.purposive <= s.group_size);
            assert!(s.dims.contains(&s.dim_default));
        }
    }
}
