//! `EREE_SCALE` names one of three scales; an exhibit binary refuses any
//! other value before it builds anything.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn an_unknown_scale_stops_the_binary_before_it_builds_a_universe() {
    let results = std::env::temp_dir().join(format!("eree-scale-{}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_figure1"))
        .env("EREE_SCALE", "Small")
        .env("EREE_RESULTS_DIR", &results)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stderr.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    // A binary that took `Small` for another scale says so first, then
    // spends minutes building that universe: stop it there.
    let building = first.contains("building context");
    if building {
        let _ = child.kill();
    }
    let status = child.wait().unwrap();
    let _ = std::fs::remove_dir_all(&results);
    assert!(!building, "EREE_SCALE=Small built a universe: {first}");
    assert_eq!(status.code(), Some(2), "stderr: {first}");
    assert!(
        first.contains("\"Small\"") && first.contains("small, default or paper"),
        "the refusal must name the value and the accepted ones: {first}"
    );
}
