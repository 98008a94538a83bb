//! Resource allocation under noisy counts — the FEMA scenario of Sec 3.2.
//!
//! FEMA's per-capita indicator (about $3.50 per person at the time of the
//! paper) converts count errors into misallocated disaster-assistance
//! dollars: if the threshold were applied to *job* counts, every job of
//! error in a released tabulation carries a net social cost of ~$3.50.
//! This example prices the L1 error of each release method in those terms
//! and shows how the cost falls with the privacy-loss budget.
//!
//! Run: `cargo run --release --example fema_allocation`

use eree::prelude::*;

const COST_PER_JOB: f64 = 3.50;

fn main() {
    let dataset = Generator::new(GeneratorConfig::test_small(99)).generate();
    let spec = workload1();
    let truth = compute_marginal(&dataset, &spec);
    println!(
        "Pricing count errors at ${COST_PER_JOB:.2}/job over {} place x industry x ownership cells\n",
        truth.num_cells()
    );

    // The SDL baseline's social cost.
    let sdl = SdlPublisher::new(&dataset, SdlConfig::default()).publish(&dataset, &spec);
    println!("{:<28} {:>14}", "method", "misallocation");
    println!(
        "{:<28} {:>13.0}$",
        "SDL (input noise infusion)",
        sdl.l1_error() * COST_PER_JOB
    );

    // Formally private releases across the epsilon grid, every one
    // budget-checked by the engine (each grid point is an independent
    // guarantee statement, so each gets its own single-release ledger).
    for &epsilon in &[0.5, 1.0, 2.0, 4.0] {
        for mechanism in [MechanismKind::SmoothGamma, MechanismKind::SmoothLaplace] {
            let budget = match mechanism {
                MechanismKind::SmoothLaplace => PrivacyParams::approximate(0.1, epsilon, 0.05),
                _ => PrivacyParams::pure(0.1, epsilon),
            };
            let label = format!("{} (eps={epsilon})", mechanism.label());
            let mut engine = ReleaseEngine::new(budget);
            let request = ReleaseRequest::marginal(spec.clone())
                .mechanism(mechanism)
                .budget(budget)
                .seed(7);
            match engine.execute(&request, TruthSource::Marginal(&truth)) {
                Ok(artifact) => println!(
                    "{:<28} {:>13.0}$",
                    label,
                    artifact.l1_error_against(&truth).unwrap() * COST_PER_JOB
                ),
                Err(_) => println!("{label:<28} {:>14}", "(invalid params)"),
            }
        }
    }

    println!(
        "\nPositive errors raise the hypothetical damage threshold; negative errors \
         lower it.\nEither direction misallocates relative to the program's intent, \
         which is why the\npaper measures utility in L1."
    );
}
