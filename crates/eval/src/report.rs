//! Markdown / CSV / JSON rendering of experiment results.
//!
//! Each exhibit module's `write` drops three files under `results/`
//! (`<name>.md`, `<name>.csv`, `<name>.json`) through [`write_results`] and
//! returns the markdown, which the exhibit's binary prints. The figures and
//! the flows exhibit go through [`write_pivoted`], which pivots their rows
//! the way the paper plots them: one row per (series, α), one column per ε.

use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A generic experiment point for pivoting: series × α × ε × stratum → value.
#[derive(Debug, Clone)]
pub struct Point {
    /// Series label (mechanism name).
    pub series: String,
    /// α (0 when not applicable).
    pub alpha: f64,
    /// ε.
    pub epsilon: f64,
    /// Stratum label.
    pub stratum: String,
    /// The plotted value (L1 ratio or Spearman ρ).
    pub value: f64,
}

impl Point {
    /// The point of `series` at (α, ε) in `stratum`.
    pub fn new(series: &str, alpha: f64, epsilon: f64, stratum: &str, value: f64) -> Self {
        Self {
            series: series.to_string(),
            alpha,
            epsilon,
            stratum: stratum.to_string(),
            value,
        }
    }
}

/// Pivot points into one markdown table per stratum: rows are
/// (series, α), columns are the ε grid.
pub fn pivot_markdown(title: &str, value_name: &str, points: &[Point]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}\n");

    // Collect strata in first-appearance order, with "overall" first.
    let mut strata: Vec<String> = Vec::new();
    for p in points {
        if !strata.contains(&p.stratum) {
            strata.push(p.stratum.clone());
        }
    }
    strata.sort_by_key(|s| (s != "overall", s.clone()));

    for stratum in &strata {
        let sub: Vec<&Point> = points.iter().filter(|p| &p.stratum == stratum).collect();
        if sub.is_empty() {
            continue;
        }
        let _ = writeln!(out, "## {stratum}\n");
        // Epsilon columns in ascending order.
        let mut epsilons: Vec<f64> = sub.iter().map(|p| p.epsilon).collect();
        epsilons.sort_by(|a, b| a.partial_cmp(b).unwrap());
        epsilons.dedup();
        let mut header = format!("| series ({value_name}) | alpha |");
        let mut rule = "|---|---|".to_string();
        for e in &epsilons {
            let _ = write!(header, " eps={e} |");
            rule.push_str("---|");
        }
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{rule}");

        // Row keys: (series, alpha) in appearance order.
        let mut keys: Vec<(String, String)> = Vec::new();
        let mut values: BTreeMap<(String, String, String), f64> = BTreeMap::new();
        for p in &sub {
            let a = format!("{:.2}", p.alpha);
            let key = (p.series.clone(), a.clone());
            if !keys.contains(&key) {
                keys.push(key.clone());
            }
            values.insert((p.series.clone(), a, format!("{}", p.epsilon)), p.value);
        }
        for (series, alpha) in keys {
            let mut row = format!("| {series} | {alpha} |");
            for e in &epsilons {
                match values.get(&(series.clone(), alpha.clone(), format!("{e}"))) {
                    Some(v) => {
                        let _ = write!(row, " {v:.3} |");
                    }
                    None => row.push_str(" – |"),
                }
            }
            let _ = writeln!(out, "{row}");
        }
        out.push('\n');
    }
    out
}

/// Render points as CSV.
pub fn to_csv(value_name: &str, points: &[Point]) -> String {
    let mut out = format!("series,alpha,epsilon,stratum,{value_name}\n");
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            p.series.replace(',', ";"),
            p.alpha,
            p.epsilon,
            p.stratum,
            p.value
        );
    }
    out
}

/// Default output directory (`results/` under the workspace root, or the
/// `EREE_RESULTS_DIR` environment variable).
pub fn results_dir() -> PathBuf {
    std::env::var("EREE_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Write `<name>.md`, `<name>.csv`, and `<name>.json` under `dir`, and
/// return the markdown for printing.
pub fn write_results<T: Serialize + ?Sized>(
    dir: &Path,
    name: &str,
    markdown: &str,
    csv: &str,
    raw: &T,
) -> std::io::Result<String> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("{name}.md")), markdown)?;
    fs::write(dir.join(format!("{name}.csv")), csv)?;
    let json = serde_json::to_string_pretty(raw).expect("results serialize");
    fs::write(dir.join(format!("{name}.json")), json)?;
    Ok(markdown.to_string())
}

/// Write a plotted exhibit's `rows` as `name` under `dir`, and return the
/// markdown: each row becomes one [`Point`] through `point`, pivoted under
/// `title` with values headed `value_name` in the markdown and `column`
/// in the CSV; the JSON holds the rows themselves.
pub fn write_pivoted<R: Serialize>(
    dir: &Path,
    name: &str,
    title: &str,
    (value_name, column): (&str, &str),
    rows: &[R],
    point: impl Fn(&R) -> Point,
) -> std::io::Result<String> {
    let points: Vec<Point> = rows.iter().map(point).collect();
    let markdown = pivot_markdown(title, value_name, &points);
    write_results(dir, name, &markdown, &to_csv(column, &points), rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<Point> {
        vec![
            Point {
                series: "Log-Laplace".into(),
                alpha: 0.1,
                epsilon: 1.0,
                stratum: "overall".into(),
                value: 2.5,
            },
            Point {
                series: "Log-Laplace".into(),
                alpha: 0.1,
                epsilon: 2.0,
                stratum: "overall".into(),
                value: 1.5,
            },
            Point {
                series: "Smooth Laplace".into(),
                alpha: 0.1,
                epsilon: 1.0,
                stratum: "0 <= pop < 100".into(),
                value: 3.0,
            },
        ]
    }

    #[test]
    fn markdown_pivot_structure() {
        let md = pivot_markdown("Figure X", "L1 ratio", &sample_points());
        assert!(md.contains("# Figure X"));
        assert!(md.contains("## overall"));
        assert!(md.contains("eps=1 |"));
        assert!(md.contains("eps=2 |"));
        assert!(md.contains("| Log-Laplace | 0.10 | 2.500 | 1.500 |"));
        // Overall section comes before strata.
        let overall_pos = md.find("## overall").unwrap();
        let stratum_pos = md.find("## 0 <= pop < 100").unwrap();
        assert!(overall_pos < stratum_pos);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = to_csv("value", &sample_points());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "series,alpha,epsilon,stratum,value");
    }

    #[test]
    fn pivot_handles_missing_grid_points_and_many_series() {
        // Series with different valid epsilon sets (the real figures have
        // gaps): missing cells render as dashes, not zeros.
        let points = vec![
            Point {
                series: "Smooth Gamma".into(),
                alpha: 0.2,
                epsilon: 4.0,
                stratum: "overall".into(),
                value: 2.0,
            },
            Point {
                series: "Smooth Laplace".into(),
                alpha: 0.2,
                epsilon: 2.0,
                stratum: "overall".into(),
                value: 1.0,
            },
            Point {
                series: "Truncated Laplace (theta=2)".into(),
                alpha: 0.0,
                epsilon: 2.0,
                stratum: "overall".into(),
                value: 46.0,
            },
        ];
        let md = pivot_markdown("T", "r", &points);
        assert!(md.contains("| Smooth Gamma | 0.20 | – | 2.000 |"));
        assert!(md.contains("| Smooth Laplace | 0.20 | 1.000 | – |"));
        assert!(md.contains("Truncated Laplace (theta=2) | 0.00 | 46.000 | – |"));
    }

    #[test]
    fn csv_escapes_commas_in_series_labels() {
        let points = vec![Point {
            series: "weird, label".into(),
            alpha: 0.1,
            epsilon: 1.0,
            stratum: "overall".into(),
            value: 1.5,
        }];
        let csv = to_csv("v", &points);
        assert!(csv.contains("weird; label"), "{csv}");
        // Still exactly 5 fields.
        let row = csv.lines().nth(1).unwrap();
        assert_eq!(row.split(',').count(), 5);
    }

    #[test]
    fn results_dir_respects_env_override() {
        std::env::set_var("EREE_RESULTS_DIR", "/tmp/eree_custom_results");
        assert_eq!(
            results_dir(),
            std::path::PathBuf::from("/tmp/eree_custom_results")
        );
        std::env::remove_var("EREE_RESULTS_DIR");
        assert_eq!(results_dir(), std::path::PathBuf::from("results"));
    }

    #[test]
    fn write_results_creates_files() {
        let dir = std::env::temp_dir().join(format!("eree_report_test_{}", std::process::id()));
        let points = sample_points();
        let md = pivot_markdown("T", "v", &points);
        let csv = to_csv("v", &points);
        #[derive(Serialize)]
        struct Raw {
            n: usize,
        }
        write_results(&dir, "test", &md, &csv, &Raw { n: 3 }).unwrap();
        assert!(dir.join("test.md").exists());
        assert!(dir.join("test.csv").exists());
        assert!(dir.join("test.json").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
