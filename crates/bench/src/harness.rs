//! Command-line plumbing shared by the experiment binaries.

use std::path::PathBuf;

use widen_data::Scale;
use widen_obs::json::{self, JsonValue};

/// Experiment scale: `smoke` finishes in seconds (CI-sized graphs), `table`
/// is the committed scale whose outputs EXPERIMENTS.md records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunScale {
    /// Hundreds of nodes, 2 seeds.
    Smoke,
    /// Tens of thousands of nodes, 5 seeds (§4.4: "averaged over 5
    /// executions").
    Table,
}

impl RunScale {
    /// The matching dataset generation scale.
    pub fn data_scale(self) -> Scale {
        match self {
            RunScale::Smoke => Scale::Smoke,
            RunScale::Table => Scale::Table,
        }
    }

    /// Default number of repeated seeded runs.
    pub fn default_seeds(self) -> usize {
        match self {
            RunScale::Smoke => 2,
            RunScale::Table => 5,
        }
    }
}

/// Parsed harness options.
#[derive(Clone, Debug)]
pub struct HarnessOpts {
    /// Run scale.
    pub scale: RunScale,
    /// Seeds to aggregate over.
    pub seeds: Vec<u64>,
    /// Output directory for JSON dumps.
    pub out_dir: PathBuf,
}

impl HarnessOpts {
    /// Writes a JSON value to `<out_dir>/<name>.json`, creating the
    /// directory if needed.
    ///
    /// # Panics
    /// Panics on IO errors — harnesses should fail loudly.
    pub fn write_json(&self, name: &str, value: &JsonValue) {
        std::fs::create_dir_all(&self.out_dir).expect("create results dir");
        let path = self.out_dir.join(format!("{name}.json"));
        std::fs::write(&path, json::pretty(value)).expect("write results");
        println!("\n[results written to {}]", path.display());
    }
}

/// Parses `--scale smoke|table`, `--seeds N`, `--out DIR` from argv.
///
/// # Panics
/// Panics with a usage message on malformed arguments.
pub fn parse_args() -> HarnessOpts {
    parse_args_from(std::env::args().skip(1).collect())
}

/// Testable argument parser.
pub fn parse_args_from(args: Vec<String>) -> HarnessOpts {
    let mut scale = RunScale::Smoke;
    let mut seeds: Option<usize> = None;
    let mut out_dir = PathBuf::from("results");
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().expect("--scale needs a value");
                scale = match v.as_str() {
                    "smoke" => RunScale::Smoke,
                    "table" => RunScale::Table,
                    other => panic!("unknown scale `{other}` (use smoke|table)"),
                };
            }
            "--seeds" => {
                let v = it.next().expect("--seeds needs a value");
                seeds = match v.parse() {
                    Ok(n) if n > 0 => Some(n),
                    _ => panic!("bad seed count `{v}` (use --seeds N with N >= 1)"),
                };
            }
            "--out" => {
                out_dir = PathBuf::from(it.next().expect("--out needs a value"));
            }
            other => panic!("unknown argument `{other}` (use --scale/--seeds/--out)"),
        }
    }
    let n_seeds = seeds.unwrap_or_else(|| scale.default_seeds());
    HarnessOpts {
        scale,
        seeds: (0..n_seeds as u64).map(|s| 1000 + s).collect(),
        out_dir,
    }
}

/// Renders a mean as the paper's 4-decimal convention with optional
/// significance underscores (`_x_` for p < 0.05, `__x__` for p < 0.01,
/// mirroring the single/double underline of Tables 2–3).
pub fn render_score(mean: f64, p_value: Option<f64>) -> String {
    let base = format!("{mean:.4}");
    match p_value {
        Some(p) if p < 0.01 => format!("__{base}__"),
        Some(p) if p < 0.05 => format!("_{base}_"),
        _ => base,
    }
}

/// The per-seed scores of the baseline with the highest mean in column
/// `col` of `scores[method][col]` — WIDEN's paired t-test comparator.
/// The WIDEN row (`widen_idx`) and empty cells are skipped, so `None`
/// means no baseline ran in that column. Means are ordered by
/// [`f64::total_cmp`], so a NaN mean cannot panic; a tie goes to the later
/// method.
pub fn best_baseline(scores: &[Vec<Vec<f64>>], col: usize, widen_idx: usize) -> Option<Vec<f64>> {
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    scores
        .iter()
        .enumerate()
        .filter(|(m, row)| *m != widen_idx && !row[col].is_empty())
        .max_by(|(_, a), (_, b)| mean(&a[col]).total_cmp(&mean(&b[col])))
        .map(|(_, row)| row[col].clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> HarnessOpts {
        parse_args_from(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn defaults_are_smoke_scale() {
        let o = opts(&[]);
        assert_eq!(o.scale, RunScale::Smoke);
        assert_eq!(o.seeds.len(), 2);
        assert_eq!(o.out_dir, PathBuf::from("results"));
    }

    #[test]
    fn parses_table_scale_and_seed_count() {
        let o = opts(&["--scale", "table", "--seeds", "3", "--out", "/tmp/r"]);
        assert_eq!(o.scale, RunScale::Table);
        assert_eq!(o.seeds, vec![1000, 1001, 1002]);
        assert_eq!(o.out_dir, PathBuf::from("/tmp/r"));
    }

    #[test]
    #[should_panic(expected = "unknown scale")]
    fn rejects_bad_scale() {
        let _ = opts(&["--scale", "galactic"]);
    }

    #[test]
    #[should_panic(expected = "bad seed count")]
    fn rejects_zero_seeds() {
        let _ = opts(&["--seeds", "0"]);
    }

    #[test]
    fn score_rendering_marks_significance() {
        assert_eq!(render_score(0.9269, None), "0.9269");
        assert_eq!(render_score(0.9269, Some(0.2)), "0.9269");
        assert_eq!(render_score(0.9269, Some(0.03)), "_0.9269_");
        assert_eq!(render_score(0.9269, Some(0.005)), "__0.9269__");
    }

    #[test]
    fn best_baseline_skips_widen_and_empty_cells() {
        // Rows are methods (WIDEN last), columns are datasets.
        let scores = vec![
            vec![vec![0.5, 0.7], vec![], vec![f64::NAN]],
            vec![vec![0.8, 0.8], vec![], vec![0.4]],
            vec![vec![0.9, 0.9], vec![0.6], vec![0.9]],
        ];
        // WIDEN's higher mean never makes it its own comparator.
        assert_eq!(best_baseline(&scores, 0, 2), Some(vec![0.8, 0.8]));
        // A column where only WIDEN ran has no comparator.
        assert_eq!(best_baseline(&scores, 1, 2), None);
        // A NaN mean is ordered, not a panic.
        assert!(best_baseline(&scores, 2, 2).is_some());
    }
}
