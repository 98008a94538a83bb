//! Area comparisons and workforce-shape release — two further products
//! built on the same private-release machinery.
//!
//! 1. **Area comparison** (OnTheMap, Sec 3.2): rank user-defined areas
//!    (sets of places) by job count. Disjoint areas partition
//!    establishments, so one ε covers the whole comparison (Thm 7.4).
//! 2. **Shape release**: publish the sex × education composition of each
//!    place × industry × ownership cell under weak (α,ε)-ER-EE privacy —
//!    the quantity Definition 4.3 protects, released at a controlled
//!    privacy cost instead of leaked exactly (as SDL does).
//!
//! Run: `cargo run --release --example area_shape_release`

use eree::prelude::*;
use eree_core::{CellQuery, CountMechanism, SmoothLaplaceMechanism};
use lodes::PlaceId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tabulate::{area_comparison, AreaSelection};

fn main() {
    let dataset = Generator::new(GeneratorConfig::test_small(909)).generate();

    // ---- 1. Private area comparison -----------------------------------
    // Partition the first 12 places into three ad-hoc "regions".
    let areas = vec![
        AreaSelection::new("North corridor", (0..4).map(PlaceId)),
        AreaSelection::new("Metro core", (4..8).map(PlaceId)),
        AreaSelection::new("South valley", (8..12).map(PlaceId)),
    ];
    let stats = area_comparison(&dataset, &areas).expect("areas are disjoint");

    let mech = SmoothLaplaceMechanism::new(0.1, 2.0, 0.05).expect("valid parameters");
    let mut rng = StdRng::seed_from_u64(5);
    println!("Area comparison at (alpha=0.1, eps=2, delta=.05) — one eps for the whole set:\n");
    println!(
        "{:<16} {:>10} {:>12} {:>12}",
        "area", "true jobs", "released", "E|noise|"
    );
    for (name, cell) in &stats {
        let q = CellQuery::from_stats(cell);
        let released = mech.release(&q, &mut rng);
        println!(
            "{:<16} {:>10} {:>12.1} {:>12.1}",
            name,
            cell.count,
            released,
            mech.expected_l1(&q).unwrap()
        );
    }

    // ---- 2. Shape release ----------------------------------------------
    let truth = compute_marginal(&dataset, &workload3());
    let mut engine = ReleaseEngine::new(PrivacyParams::approximate(0.1, 16.0, 0.05));
    let artifact = engine
        .execute(
            &ReleaseRequest::shapes(workload3())
                .mechanism(MechanismKind::SmoothLaplace)
                .budget(PrivacyParams::approximate(0.1, 16.0, 0.05))
                .seed(7),
            TruthSource::Marginal(&truth),
        )
        .expect("valid parameters");
    let shapes = artifact.shapes().expect("shapes payload");

    // Show the largest cell's released education mix for female workers.
    let biggest = shapes
        .iter()
        .max_by(|a, b| a.total.partial_cmp(&b.total).unwrap())
        .expect("nonempty");
    println!(
        "\nShape release (weak privacy, total eps=16 over the sex x education domain):\n\
         largest place x industry x ownership cell — released total {:.0} workers",
        biggest.total
    );
    let labels = ["<HS", "HS", "some college", "BA+"];
    println!("{:<14} {:>8} {:>8}", "education", "male", "female");
    for (i, label) in labels.iter().enumerate() {
        println!(
            "{:<14} {:>7.1}% {:>7.1}%",
            label,
            biggest.fractions[i] * 100.0,
            biggest.fractions[4 + i] * 100.0
        );
    }
    println!(
        "\nEvery number above carries the weak (alpha, eps)-ER-EE guarantee; the SDL \
         release\nof the same table reveals these shares exactly for single-establishment \
         cells\n(see the sdl_attacks example)."
    );
}
