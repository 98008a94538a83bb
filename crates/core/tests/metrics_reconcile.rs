//! Property tests: the metrics layer's accounting reconciles exactly
//! with the ledgers it mirrors.
//!
//! For any interleaving of season creates, admitted releases, denied
//! releases (over-budget or α-mismatched), audited closes (refunds), and
//! full agency reopens:
//!
//! * per family, `accepted_total` counts every admitted release since
//!   the agency was created, and `denied_total` counts exactly the
//!   refusals since the last open; the per-reason denial counts sum to
//!   `denied_total`;
//! * after every reopen, every budget gauge is **bit-identical** to the
//!   meta-ledger replay value, and every family's `accepted_total` /
//!   `epsilon_spent` / `delta_spent` is bit-identical to a tally over
//!   the durably persisted releases in replay order;
//! * denials live for the process: a reopen counts them from zero.

use eree_core::agency::AgencyStore;
use eree_core::metrics::{FamilySnapshot, MetricsSnapshot};
use eree_core::{MechanismKind, PrivacyParams, ReleaseRequest, RequestKind, StoreError};
use lodes::{Generator, GeneratorConfig};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tabulate::{workload1, workload3};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(prefix: &str) -> PathBuf {
    let id = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "eree-metrics-prop-{prefix}-{}-{id}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn marginal(seed: u64, alpha: f64, epsilon: f64) -> ReleaseRequest {
    ReleaseRequest::marginal(workload1())
        .mechanism(MechanismKind::LogLaplace)
        .budget(PrivacyParams::pure(alpha, epsilon))
        .seed(seed)
}

/// A shapes release at the (α, ε, δ) point the engine's own tests use;
/// admitted whenever the season has the headroom, refused otherwise.
fn shapes(seed: u64) -> ReleaseRequest {
    ReleaseRequest::shapes(workload3())
        .mechanism(MechanismKind::SmoothLaplace)
        .budget(PrivacyParams::approximate(0.1, 16.0, 0.05))
        .seed(seed)
}

fn family<'a>(snapshot: &'a MetricsSnapshot, label: &str) -> &'a FamilySnapshot {
    snapshot
        .families
        .iter()
        .find(|f| f.family == label)
        .expect("snapshot carries every family")
}

/// Per-family `(accepted, Σε, Σδ)` tallied from the durably persisted
/// releases, in the same order `AgencyStore::open` replays them
/// (reservation order, then release order) — the reference a reopened
/// agency's snapshot must match bit-for-bit.
fn replay_tally(agency: &AgencyStore) -> [(u64, f64, f64); 3] {
    let mut tallies = [(0u64, 0.0f64, 0.0f64); 3];
    let names: Vec<String> = agency
        .meta_ledger()
        .reservations()
        .iter()
        .map(|r| r.name.clone())
        .collect();
    for name in names {
        let Ok(season) = agency.open_season(&name) else {
            // An unmaterialized reservation holds budget but no releases.
            continue;
        };
        for release in season.releases() {
            let slot = match release.request.kind {
                RequestKind::Marginal => 0,
                RequestKind::Shapes => 1,
                RequestKind::Flows => 2,
            };
            tallies[slot].0 += 1;
            tallies[slot].1 += release.cost.epsilon;
            tallies[slot].2 += release.cost.delta;
        }
    }
    tallies
}

/// The values a reopened agency rebuilds from its ledgers, checked bit for
/// bit: the budget gauges against the meta-ledger replay, and each
/// family's accepted total and ε/δ spend against the persisted releases.
fn check_replay_derived(
    agency: &AgencyStore,
    cap: PrivacyParams,
    accepted: &[u64; 3],
) -> Result<(), TestCaseError> {
    let snapshot = agency.metrics_snapshot();
    let meta = agency.meta_ledger();
    prop_assert_eq!(snapshot.epsilon_cap.to_bits(), cap.epsilon.to_bits());
    prop_assert_eq!(
        snapshot.epsilon_reserved.to_bits(),
        meta.reserved_epsilon().to_bits()
    );
    prop_assert_eq!(
        snapshot.epsilon_remaining.to_bits(),
        meta.remaining_epsilon().to_bits()
    );
    prop_assert_eq!(
        snapshot.epsilon_refunded.to_bits(),
        meta.refunded_epsilon().to_bits()
    );
    let tallies = replay_tally(agency);
    for (slot, label) in ["marginal", "shapes", "flows"].iter().enumerate() {
        let fam = family(&snapshot, label);
        prop_assert_eq!(fam.accepted_total, accepted[slot]);
        prop_assert_eq!(fam.accepted_total, tallies[slot].0);
        prop_assert_eq!(fam.epsilon_spent.to_bits(), tallies[slot].1.to_bits());
        prop_assert_eq!(fam.delta_spent.to_bits(), tallies[slot].2.to_bits());
    }
    // The roll-up gauge is the family sum, in family order.
    let rollup: f64 = ["marginal", "shapes", "flows"]
        .iter()
        .fold(0.0, |acc, label| {
            acc + family(&snapshot, label).epsilon_spent
        });
    prop_assert_eq!(snapshot.epsilon_spent.to_bits(), rollup.to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline reconciliation property of the metrics layer. Ops
    /// pack into `raw_ops` as (kind = v % 6, fraction = v / 6 scaled).
    #[test]
    fn metrics_snapshot_reconciles_with_meta_ledger_replay(
        cap_eps in 40.0f64..80.0,
        raw_ops in prop::collection::vec(0u32..6000, 2..9),
        data_seed in 0u64..20,
    ) {
        let ops: Vec<(u8, f64)> = raw_ops
            .iter()
            .map(|&v| ((v % 6) as u8, 0.05 + 0.85 * ((v / 6) as f64 / 1000.0)))
            .collect();
        let dir = tmp_dir("reconcile");
        let dataset = Generator::new(GeneratorConfig::test_small(data_seed)).generate();
        let cap = PrivacyParams::approximate(0.1, cap_eps, 0.5);
        let mut agency = AgencyStore::create(&dir, cap).unwrap();
        // Each open season's full release plan so far: resuming a season
        // re-verifies the persisted prefix, so every run passes the whole
        // plan (exactly as the service worker does) and a refused request
        // is popped back off.
        let mut plans: Vec<(String, Vec<ReleaseRequest>)> = Vec::new();
        let mut seed = 0u64;
        // Test-side ground truth, per family: admissions since the agency
        // was created, and refusals since it was last opened.
        let mut accepted = [0u64; 3];
        let mut denied = [0u64; 3];

        for (i, &(kind, frac)) in ops.iter().enumerate() {
            match kind {
                // Create a season taking `frac` of the cap's ε.
                0 => {
                    let name = format!("s{i}");
                    let budget = PrivacyParams::approximate(0.1, frac * cap_eps, 0.05);
                    match agency.create_season(&name, budget) {
                        Ok(_) => plans.push((name, Vec::new())),
                        Err(StoreError::AgencyBudget { .. }) => {}
                        Err(e) => panic!("unexpected store error: {e}"),
                    }
                }
                // An admitted marginal: ε sized inside the remainder.
                1 if !plans.is_empty() => {
                    let slot = i % plans.len();
                    let name = plans[slot].0.clone();
                    let eps = {
                        let season = agency.open_season(&name).unwrap();
                        (frac * season.ledger().remaining_epsilon()).max(0.01)
                    };
                    seed += 1;
                    plans[slot].1.push(marginal(seed, 0.1, eps));
                    match agency.run_season(&name, &dataset, &plans[slot].1) {
                        Ok(_) => accepted[0] += 1,
                        Err(StoreError::Refused { .. }) => {
                            denied[0] += 1;
                            plans[slot].1.pop();
                        }
                        Err(e) => panic!("unexpected store error: {e}"),
                    }
                }
                // A denied marginal: over the season's whole remainder.
                2 if !plans.is_empty() => {
                    let slot = i % plans.len();
                    let name = plans[slot].0.clone();
                    let eps = {
                        let season = agency.open_season(&name).unwrap();
                        season.ledger().remaining_epsilon() * 2.0 + 1.0
                    };
                    seed += 1;
                    plans[slot].1.push(marginal(seed, 0.1, eps));
                    let result = agency.run_season(&name, &dataset, &plans[slot].1);
                    prop_assert!(matches!(result, Err(StoreError::Refused { .. })));
                    denied[0] += 1;
                    plans[slot].1.pop();
                }
                // A denied marginal via α-mismatch against the season.
                3 if !plans.is_empty() => {
                    let slot = i % plans.len();
                    let name = plans[slot].0.clone();
                    seed += 1;
                    plans[slot].1.push(marginal(seed, 0.2, 0.01));
                    let result = agency.run_season(&name, &dataset, &plans[slot].1);
                    prop_assert!(matches!(result, Err(StoreError::Refused { .. })));
                    denied[0] += 1;
                    plans[slot].1.pop();
                }
                // A shapes submission: admitted iff the season still has
                // the (ε = 16, δ = 0.05) headroom.
                4 if !plans.is_empty() => {
                    let slot = i % plans.len();
                    let name = plans[slot].0.clone();
                    seed += 1;
                    plans[slot].1.push(shapes(seed));
                    match agency.run_season(&name, &dataset, &plans[slot].1) {
                        Ok(_) => accepted[1] += 1,
                        Err(StoreError::Refused { .. }) => {
                            denied[1] += 1;
                            plans[slot].1.pop();
                        }
                        Err(e) => panic!("unexpected store error: {e}"),
                    }
                }
                // An audited close: refund the remainder to the cap.
                5 if !plans.is_empty() => {
                    let (name, _) = plans.remove(i % plans.len());
                    agency.close_season(&name).unwrap();
                }
                // No season yet (or op out of range): reopen instead.
                _ => {
                    drop(agency);
                    agency = AgencyStore::open(&dir).unwrap();
                    denied = [0; 3];
                    check_replay_derived(&agency, cap, &accepted)?;
                }
            }
            // Admissions and denials are integers and reconcile exactly,
            // live, after every single operation.
            let snapshot = agency.metrics_snapshot();
            for (slot, label) in ["marginal", "shapes", "flows"].iter().enumerate() {
                let fam = family(&snapshot, label);
                prop_assert_eq!(fam.accepted_total, accepted[slot]);
                prop_assert_eq!(fam.denied_total, denied[slot]);
                let by_reason: u64 = fam.denied_by_reason.iter().map(|r| r.denied).sum();
                prop_assert_eq!(by_reason, fam.denied_total);
            }
        }

        // Reopen from disk: the ledger-derived values are rebuilt bit for
        // bit, and the denials count from zero again.
        drop(agency);
        let agency = AgencyStore::open(&dir).unwrap();
        check_replay_derived(&agency, cap, &accepted)?;
        let snapshot = agency.metrics_snapshot();
        for label in ["marginal", "shapes", "flows"] {
            let fam = family(&snapshot, label);
            prop_assert_eq!(fam.denied_total, 0);
            prop_assert!(fam.denied_by_reason.is_empty());
        }

        // And the snapshot round-trips through its own JSON bit-exactly.
        let json = serde_json::to_string(&snapshot).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, snapshot);
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// Counters the ledgers do not carry live for the process: a reopened
/// agency counts them from zero under a later creation stamp, and never
/// reports a queued release the last process counted.
#[test]
fn reopened_agency_counts_volatile_metrics_from_zero() {
    let dir = tmp_dir("volatile");
    let mut agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 4.0)).unwrap();
    agency.metrics().service.releases_enqueued.inc();
    agency
        .create_season("s", PrivacyParams::pure(0.1, 1.0))
        .unwrap();
    let before = agency.metrics_snapshot();
    assert_eq!(before.service.queue_depth, 1);
    drop(agency);
    let agency = AgencyStore::open(&dir).unwrap();
    let after = agency.metrics_snapshot();
    assert_eq!(after.service.queue_depth, 0, "no phantom queued release");
    assert_eq!(after.service.releases_enqueued, 0);
    assert!(
        after.created > before.created,
        "a reopen restarts the count"
    );
    let names: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().all(|name| !name.contains("metrics")),
        "no counter file in the agency directory: {names:?}"
    );
    fs::remove_dir_all(&dir).unwrap();
}
