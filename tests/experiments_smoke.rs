//! Smoke tests for the full experiment harness: run every figure/table at
//! small scale with a couple of trials and check structural properties of
//! the regenerated series.

use eval::experiments::{
    figure1, figure2, figure3, figure4, figure5, flows, table1, table2, write_all,
};
use eval::runner::{EvalScale, ExperimentContext, TrialSpec};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn ctx_and_trials() -> (ExperimentContext, TrialSpec) {
    (
        ExperimentContext::with_seed(EvalScale::Small, 3),
        TrialSpec {
            trials: 2,
            base_seed: 0xABCD,
        },
    )
}

#[test]
fn all_figures_regenerate() {
    let (ctx, trials) = ctx_and_trials();

    let f1 = figure1::run(&ctx, &trials);
    assert!(f1.len() > 50, "figure 1 rows: {}", f1.len());
    assert!(f1
        .iter()
        .all(|r| r.l1_ratio.is_finite() && r.l1_ratio > 0.0));

    let f2 = figure2::run(&ctx, &trials);
    assert!(f2.len() > 50);
    assert!(f2.iter().all(|r| (-1.0..=1.0).contains(&r.spearman)));

    let f3 = figure3::run(&ctx, &trials);
    assert!(f3.len() > 50);

    let f4 = figure4::run(&ctx, &trials);
    assert!(f4.len() > 50);

    let f5 = figure5::run(&ctx, &trials);
    assert!(f5.len() > 50);

    // Structural cross-figure check: figures 1 and 2 cover the same
    // mechanism grid points (same plottability filter).
    let f1_points: std::collections::BTreeSet<String> = f1
        .iter()
        .filter(|r| r.stratum == "overall" && !r.series.starts_with("Truncated"))
        .map(|r| format!("{}|{}|{}", r.series, r.alpha, r.epsilon))
        .collect();
    let f2_points: std::collections::BTreeSet<String> = f2
        .iter()
        .filter(|r| r.stratum == "overall" && !r.series.starts_with("Truncated"))
        .map(|r| format!("{}|{}|{}", r.series, r.alpha, r.epsilon))
        .collect();
    assert_eq!(f1_points, f2_points);
}

#[test]
fn tables_regenerate_and_match_paper() {
    let t1 = table1::run();
    assert_eq!(t1.len(), 5);
    assert!(table1::matches_paper());
    for (claim, ok) in table1::verify() {
        assert!(ok, "verification failed: {claim}");
    }

    let t2 = table2::run();
    assert_eq!(t2.len(), 6);
    for row in &t2 {
        assert!(row.epsilon_min > 0.0);
    }
}

#[test]
fn figure1_strata_show_size_gradient() {
    // Finding 4: performance improves with population size. At small scale
    // the gradient is noisy; require only that the largest stratum is not
    // the worst one for the best mechanism at the baseline point.
    let (ctx, trials) = ctx_and_trials();
    let rows = figure1::run(&ctx, &trials);
    let pick = |stratum: &str| {
        rows.iter()
            .find(|r| {
                r.series == "Smooth Laplace"
                    && r.alpha == 0.1
                    && r.epsilon == 2.0
                    && r.stratum == stratum
            })
            .map(|r| r.l1_ratio)
    };
    let small = pick("0 <= pop < 100");
    let large = pick("pop >= 100k");
    if let (Some(small), Some(large)) = (small, large) {
        assert!(
            large < small * 3.0,
            "largest stratum ratio {large} should not dwarf smallest {small}"
        );
    }
}

#[test]
fn deterministic_experiment_replay() {
    // The same context + trial spec must reproduce identical series.
    let (ctx, trials) = ctx_and_trials();
    let a = figure1::run(&ctx, &trials);
    let b = figure1::run(&ctx, &trials);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.series, y.series);
        assert_eq!(x.l1_ratio, y.l1_ratio);
    }
}

/// Every file directly under `dir`, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read(&path).unwrap())
        })
        .collect()
}

#[test]
fn write_all_writes_what_each_exhibit_writes() {
    // `run_all` writes through `write_all` and each exhibit binary through
    // its module's `write`: both must leave the same bytes.
    let (ctx, trials) = ctx_and_trials();
    let dir = |which: &str| -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eree_exhibits_{which}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    };
    let (all, each) = (dir("all"), dir("each"));

    write_all(&ctx, &trials, &all).unwrap();
    figure1::write(&ctx, &trials, &each).unwrap();
    figure2::write(&ctx, &trials, &each).unwrap();
    figure3::write(&ctx, &trials, &each).unwrap();
    figure4::write(&ctx, &trials, &each).unwrap();
    figure5::write(&ctx, &trials, &each).unwrap();
    flows::write(&ctx, &trials, &each).unwrap();
    let table1_md = table1::write(&each).unwrap();
    table2::write(&each).unwrap();

    let (written, by_exhibit) = (files(&all), files(&each));
    assert_eq!(written.len(), 24, "{:?}", written.keys());
    assert!(
        written.keys().eq(by_exhibit.keys()),
        "{:?}",
        by_exhibit.keys()
    );
    for (name, bytes) in &written {
        assert!(
            *bytes == by_exhibit[name],
            "{name} differs between the writes"
        );
    }
    assert!(table1_md.contains("## Numeric spot-verification"));
    assert_eq!(written["table1.md"], table1_md.as_bytes());
    for csv in ["table1.csv", "table2.csv"] {
        assert!(!written[csv].is_empty(), "{csv} is empty");
    }
    for name in ["flows.md", "flows.csv", "flows.json"] {
        assert!(written.contains_key(name), "missing {name}");
    }
    fs::remove_dir_all(&all).unwrap();
    fs::remove_dir_all(&each).unwrap();
}
