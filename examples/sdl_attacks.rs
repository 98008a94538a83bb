//! The Section 5.2 inference attacks: why input noise infusion is not
//! formally private, and how ER-EE-private releases resist the same
//! attacks.
//!
//! Run: `cargo run --release --example sdl_attacks`

use eree::prelude::*;
use sdl::attack::{
    establishment_of_singleton, shape_attack, singleton_cells, size_attack_with_known_cell,
    worker_cells_for,
};
use tabulate::compute_marginal;

fn main() {
    let dataset = Generator::new(GeneratorConfig::test_small(21)).generate();
    // Exact published ratios (no rounding) per the paper's analysis.
    let sdl_cfg = SdlConfig {
        round_output: false,
        ..SdlConfig::default()
    };
    let publisher = SdlPublisher::new(&dataset, sdl_cfg);

    // Precondition of the attacks: a workplace-attribute combination that
    // exactly one establishment matches.
    let w1_truth = compute_marginal(&dataset, &workload1());
    let singles = singleton_cells(&w1_truth);
    let (victim_key, victim_stats) = singles
        .iter()
        .map(|&k| (k, w1_truth.cell(k).unwrap()))
        .filter(|(_, s)| s.count >= 20)
        .max_by_key(|(_, s)| s.count)
        .expect("sparse tabulations always contain singleton cells");
    let victim = establishment_of_singleton(&dataset, &w1_truth, victim_key)
        .expect("singleton establishment");
    println!(
        "victim: establishment {:?} — the only one matching its (place, naics, ownership) \
         cell; true size {}",
        victim, victim_stats.count
    );

    // ---- Attack 1: size disclosure with one known cell -------------------
    let release = publisher.publish(&dataset, &workload1());
    let published_total = release.published[&victim_key];
    // The attacker (say, the establishment's own payroll clerk) knows the
    // true total; any single known cell suffices.
    let result = size_attack_with_known_cell(
        &dataset,
        victim,
        victim_stats.count as u32,
        published_total,
        published_total,
    );
    println!(
        "\n[SDL size attack]   recovered factor f_w = {:.6}, recovered size = {:.2} \
         (true {})",
        result.recovered_factor, result.recovered_size, result.true_size
    );
    assert!((result.recovered_size - result.true_size as f64).abs() < 1e-6);

    // ---- Attack 2: shape disclosure --------------------------------------
    let w3_release = publisher.publish(&dataset, &workload3());
    let wp_values: Vec<u32> = w1_truth.schema().decode(victim_key);
    let cells = worker_cells_for(&w3_release, &wp_values, sdl_cfg.small_cell.limit);
    if cells.len() >= 2 {
        let shape = shape_attack(victim, &cells);
        println!(
            "[SDL shape attack]  recovered workforce shape over {} cells; max share error \
             {:.2e} (exact disclosure)",
            shape.recovered_shape.len(),
            shape.max_share_error
        );
        assert!(shape.max_share_error < 1e-9);
    } else {
        println!("[SDL shape attack]  victim too small for multi-cell shape demo");
    }

    // ---- The same attacks against a formally private release -------------
    let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 2.0));
    let private = engine
        .execute(
            &ReleaseRequest::marginal(workload1())
                .mechanism(MechanismKind::SmoothGamma)
                .budget(PrivacyParams::pure(0.1, 2.0))
                .seed(3),
            TruthSource::Marginal(&w1_truth),
        )
        .unwrap();
    let private_total = private.cells().expect("marginal payload")[&victim_key];
    // The "recovered factor" is now meaningless: the noise is additive with
    // heavy tails and *fresh per release* — dividing by a known cell no
    // longer cancels anything, and repeating the attack across releases
    // (sequential composition) is exactly what the epsilon budget accounts.
    let bogus_factor = private_total / victim_stats.count as f64;
    println!(
        "\n[ER-EE release]     published {:.2} for the same cell; naive 'factor' {:.4} \
         carries no establishment secret",
        private_total, bogus_factor
    );
    println!(
        "[ER-EE guarantee]   any size in [{}, {}] is indistinguishable up to e^2 odds \
         (alpha = 0.1, eps = 2)",
        victim_stats.count,
        (victim_stats.count as f64 * 1.1).ceil() as u64
    );
}
