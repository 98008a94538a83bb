//! Failure injection: every construction path must reject invalid inputs
//! loudly and precisely — never degrade to a weaker guarantee silently.

use eree::prelude::*;
use eree_core::mechanisms::{LogLaplaceMechanism, SmoothGammaMechanism, SmoothLaplaceMechanism};
use noise::{GammaPoly, Laplace, LogLaplace};

// ---- noise layer -----------------------------------------------------

#[test]
fn distributions_reject_degenerate_scales() {
    assert!(Laplace::new(0.0).is_err());
    assert!(Laplace::new(f64::NEG_INFINITY).is_err());
    assert!(GammaPoly::new(-1.0).is_err());
    assert!(GammaPoly::new(f64::NAN).is_err());
    assert!(LogLaplace::new(0.0, 1.0).is_err());
    assert!(LogLaplace::new(10.0, f64::INFINITY).is_err());
}

#[test]
#[should_panic(expected = "quantile requires p in (0,1)")]
fn laplace_quantile_rejects_boundary() {
    Laplace::new(1.0).unwrap().quantile(1.0);
}

#[test]
#[should_panic(expected = "quantile requires p in (0,1)")]
fn gamma_poly_quantile_rejects_boundary() {
    GammaPoly::standard().quantile(0.0);
}

// ---- mechanism layer --------------------------------------------------

#[test]
fn mechanisms_reject_invalid_privacy_parameters() {
    // Smooth Gamma: alpha + 1 >= e^{eps/5}.
    assert!(SmoothGammaMechanism::new(0.3, 1.0).is_none());
    // Smooth Laplace: alpha + 1 > e^{eps/(2 ln(1/delta))}.
    assert!(SmoothLaplaceMechanism::new(0.2, 0.5, 5e-4).is_none());
    // delta outside (0,1) panics.
    let r = std::panic::catch_unwind(|| SmoothLaplaceMechanism::new(0.1, 1.0, 0.0));
    assert!(r.is_err());
    let r = std::panic::catch_unwind(|| SmoothLaplaceMechanism::new(0.1, 1.0, 1.0));
    assert!(r.is_err());
    // Log-Laplace: nonpositive alpha/epsilon panic.
    let r = std::panic::catch_unwind(|| LogLaplaceMechanism::new(-0.1, 1.0));
    assert!(r.is_err());
    let r = std::panic::catch_unwind(|| LogLaplaceMechanism::new(0.1, 0.0));
    assert!(r.is_err());
    // Bias correction demands a finite expectation (lambda < 1).
    let r = std::panic::catch_unwind(|| LogLaplaceMechanism::new(0.2, 0.25).with_bias_correction());
    assert!(r.is_err(), "lambda >= 1 must refuse bias correction");
}

// ---- release layer ----------------------------------------------------

#[test]
fn release_surfaces_structured_errors() {
    let d = Generator::new(GeneratorConfig::test_small(4040)).generate();
    // Per-cell budget after the weak split is too small for Smooth Gamma;
    // the engine rejects before charging anything.
    let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.2, 2.0));
    let err = engine
        .execute(
            &d,
            &ReleaseRequest::marginal(workload3())
                .mechanism(MechanismKind::SmoothGamma)
                .budget(PrivacyParams::pure(0.2, 2.0))
                .seed(1),
        )
        .unwrap_err();
    match err {
        EngineError::InvalidParameters {
            per_cell_epsilon, ..
        } => {
            assert!((per_cell_epsilon - 0.25).abs() < 1e-12, "2.0 / 8 cells");
        }
        other => panic!("expected InvalidParameters, got {other:?}"),
    }
    assert!((engine.ledger().remaining_epsilon() - 2.0).abs() < 1e-12);
}

#[test]
fn ledger_never_goes_negative_under_racing_charges() {
    use eree_core::accountant::ReleaseCost;
    use eree_core::neighbors::NeighborKind;
    let mut ledger = Ledger::new(PrivacyParams::pure(0.1, 1.0));
    let params = PrivacyParams::pure(0.1, 0.4);
    let cost = ReleaseCost::for_marginal(&workload1(), &params, NeighborKind::Strong);
    assert!(ledger.charge("a", &params, &cost).is_ok());
    assert!(ledger.charge("b", &params, &cost).is_ok());
    assert!(ledger.charge("c", &params, &cost).is_err());
    assert!(ledger.remaining_epsilon() >= 0.0);
    assert_eq!(ledger.entries().len(), 2, "failed charge must not record");
}

// ---- tabulation layer ---------------------------------------------------

#[test]
fn overlapping_areas_are_rejected_with_witness() {
    use lodes::PlaceId;
    use tabulate::{area_comparison, AreaSelection};
    let d = Generator::new(GeneratorConfig::test_small(4041)).generate();
    let areas = vec![
        AreaSelection::new("east", [PlaceId(0), PlaceId(1)]),
        AreaSelection::new("west", [PlaceId(1), PlaceId(2)]),
    ];
    let err = area_comparison(&d, &areas).unwrap_err();
    assert_eq!(err.place, PlaceId(1));
}

#[test]
fn shape_release_rejects_without_partition() {
    use eree_core::ShapeError;
    let d = Generator::new(GeneratorConfig::test_small(4042)).generate();
    let truth = compute_marginal(&d, &workload1());
    // The unified error wraps the shape failure.
    let mut engine = ReleaseEngine::new(PrivacyParams::approximate(0.1, 8.0, 0.05));
    let err = engine
        .execute_precomputed(
            &truth,
            &ReleaseRequest::shapes(workload1())
                .mechanism(MechanismKind::SmoothLaplace)
                .budget(PrivacyParams::approximate(0.1, 8.0, 0.05))
                .seed(1),
        )
        .unwrap_err();
    assert_eq!(err, EngineError::Shape(ShapeError::NoWorkerAttributes));
}

// ---- SDL layer -----------------------------------------------------------

#[test]
fn sdl_parameter_validation() {
    use sdl::{DistortionParams, FuzzDistribution, SmallCellModel};
    for (s, t) in [(0.0, 0.1), (0.1, 0.1), (0.2, 0.1), (0.5, 1.5)] {
        let r = std::panic::catch_unwind(|| DistortionParams::new(s, t, FuzzDistribution::Ramp));
        assert!(r.is_err(), "(s={s}, t={t}) must be rejected");
    }
    let r = std::panic::catch_unwind(|| SmallCellModel::new(2.5, 0.0));
    assert!(r.is_err());
    let r = std::panic::catch_unwind(|| SmallCellModel::new(2.5, 1.5));
    assert!(r.is_err());
}

// ---- graph-DP layer --------------------------------------------------------

#[test]
fn graphdp_parameter_validation() {
    use graphdp::{EdgeLaplace, TruncatedLaplace};
    assert!(std::panic::catch_unwind(|| EdgeLaplace::new(-1.0)).is_err());
    assert!(std::panic::catch_unwind(|| TruncatedLaplace::new(0, 1.0)).is_err());
    assert!(std::panic::catch_unwind(|| TruncatedLaplace::new(10, f64::NAN)).is_err());
    let m = EdgeLaplace::new(1.0);
    assert!(std::panic::catch_unwind(|| m.size_disclosure_band(0.0)).is_err());
    assert!(std::panic::catch_unwind(|| m.size_disclosure_band(1.0)).is_err());
}

// ---- panel layer ------------------------------------------------------------

#[test]
fn panel_parameter_validation() {
    use lodes::{DatasetPanel, PanelConfig};
    let base = GeneratorConfig::test_small(1);
    for cfg in [
        PanelConfig {
            quarters: 0,
            ..PanelConfig::default()
        },
        PanelConfig {
            growth_sigma: 1.5,
            ..PanelConfig::default()
        },
        PanelConfig {
            death_rate: 1.0,
            ..PanelConfig::default()
        },
    ] {
        let base = base.clone();
        let r = std::panic::catch_unwind(move || DatasetPanel::generate(&base, &cfg));
        assert!(r.is_err(), "config {cfg:?} must be rejected");
    }
}
