//! Expected outcomes, written by hand from the paper.

use repro_core::fig7::Fig7Summary;

/// Table I: the benchmarks the Intel HLS flow fails to synthesize on the
/// Stratix 10 MX2100, with the paper's "Reason to Fail". Every other
/// benchmark synthesizes, and the Vortex flow runs all 28.
pub const TABLE_I_HLS_FAILURES: [(&str, &str); 6] = [
    ("Lbm", "Not enough BRAM"),
    ("Backprop", "Not enough BRAM"),
    ("B+tree", "Not enough BRAM"),
    ("Dwd2d", "Not enough BRAM"),
    ("LUD", "Not enough BRAM"),
    ("Hybridsort", "Atomics"),
];

/// The paper's Table I HLS outcome for `bench` on the MX2100: `None` for ✓,
/// `Some(reason)` for ✗.
pub fn table_i_hls(bench: &str) -> Option<&'static str> {
    TABLE_I_HLS_FAILURES
        .iter()
        .find(|(name, _)| *name == bench)
        .map(|&(_, reason)| reason)
}

/// Whether an HLS outcome matches Table I. `failure` is the synthesis
/// failure text, `None` when synthesis succeeded. An expected ✗ is a
/// success.
pub fn hls_matches_table_i(bench: &str, failure: Option<&str>) -> bool {
    match (table_i_hls(bench), failure) {
        (None, None) => true,
        (Some(want), Some(got)) => got.contains(want),
        _ => false,
    }
}

/// §III-C: degradation, in percent, of four Fig. 7 configurations against
/// each kernel's best one.
pub const PAPER_FIG7_DEGRADATION: [(&str, f64); 4] = [
    ("vecadd@8w8t", 27.0),
    ("transpose@4w4t", 44.0),
    ("vecadd@8w4t", 11.0),
    ("transpose@8w4t", 17.0),
];

/// The paper's Fig. 7 optima as (warps, threads): vecadd and transpose.
pub const PAPER_FIG7_OPTIMA: [(u32, u32); 2] = [(4, 4), (8, 8)];

/// Our four §III-C numbers, in [`PAPER_FIG7_DEGRADATION`] order.
pub fn fig7_degradation(s: &Fig7Summary) -> [f64; 4] {
    [
        s.vecadd_8w8t_pct,
        s.transpose_4w4t_pct,
        s.vecadd_8w4t_pct,
        s.transpose_8w4t_pct,
    ]
}

/// Mean absolute gap, in percentage points, between our §III-C numbers and
/// the paper's.
pub fn fig7_err_pts(s: &Fig7Summary) -> f64 {
    let ours = fig7_degradation(s);
    ours.iter()
        .zip(PAPER_FIG7_DEGRADATION)
        .map(|(o, (_, paper))| (o - paper).abs())
        .sum::<f64>()
        / ours.len() as f64
}

/// How many of the two kernels have their best cell where the paper's is.
pub fn fig7_optima_matched(s: &Fig7Summary) -> u32 {
    [s.vecadd_best, s.transpose_best]
        .iter()
        .zip(PAPER_FIG7_OPTIMA)
        .filter(|(ours, paper)| **ours == *paper)
        .count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_outcomes_match_table_i() {
        let names: Vec<&str> = ocl_suite::all_benchmarks().iter().map(|b| b.name).collect();
        assert_eq!(names.len(), 28, "Table I has 28 benchmarks");
        for (name, _) in TABLE_I_HLS_FAILURES {
            assert!(names.contains(&name), "{name} is not a suite benchmark");
        }
        let passing = names.iter().filter(|n| table_i_hls(n).is_none()).count();
        assert_eq!(passing, 22, "Table I: HLS synthesizes 22 of 28");
        let bram = TABLE_I_HLS_FAILURES
            .iter()
            .filter(|(_, r)| *r == "Not enough BRAM")
            .count();
        assert_eq!(bram, 5);
        assert_eq!(table_i_hls("Hybridsort"), Some("Atomics"));
    }

    #[test]
    fn an_expected_failure_is_a_success() {
        assert!(hls_matches_table_i(
            "Lbm",
            Some("synthesis failed: Not enough BRAM")
        ));
        assert!(!hls_matches_table_i("Lbm", None));
        assert!(!hls_matches_table_i("Lbm", Some("Atomics")));
        assert!(hls_matches_table_i("Vecadd", None));
        assert!(!hls_matches_table_i("Vecadd", Some("Not enough BRAM")));
    }

    #[test]
    fn err_pts_is_zero_on_the_paper_numbers() {
        let s = Fig7Summary {
            vecadd_best: (4, 4),
            transpose_best: (8, 8),
            vecadd_8w8t_pct: 27.0,
            transpose_4w4t_pct: 44.0,
            vecadd_8w4t_pct: 11.0,
            transpose_8w4t_pct: 17.0,
        };
        assert_eq!(fig7_err_pts(&s), 0.0);
        assert_eq!(fig7_optima_matched(&s), 2);
        let off = Fig7Summary {
            vecadd_8w8t_pct: 31.0,
            transpose_best: (16, 16),
            ..s
        };
        assert_eq!(fig7_err_pts(&off), 1.0);
        assert_eq!(fig7_optima_matched(&off), 1);
    }
}
