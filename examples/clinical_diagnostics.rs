//! Clinical scenario: multiplexed in-vitro diagnostics on a defective chip.
//!
//! A DTMB(2,6) diagnostics biochip (252 primary + 91 spare cells, paper
//! Figure 12) comes off the line with manufacturing defects. We reconfigure
//! it around its fault map, and then run the full four-assay clinical panel —
//! glucose and lactate on two patient samples — through droplet transport,
//! mixing, Trinder-reaction kinetics, and noisy photometric detection.
//!
//! ```text
//! cargo run --release -p dmfb_examples --example clinical_diagnostics [faults] [seed]
//! ```

use dmfb_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut args = std::env::args().skip(1);
    let faults: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(12);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2005);

    let chip = ivd_dtmb26_chip();
    println!(
        "chip: {} primaries ({} assay cells) + {} spares",
        chip.array.primary_count(),
        chip.assay_cells.len(),
        chip.array.spare_count()
    );

    // Manufacturing defects.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut defects = ExactCount::new(faults).inject(chip.array.region(), &mut rng);
    defects.close_shorts();
    let on_assay = chip
        .assay_cells
        .iter()
        .filter(|c| defects.is_faulty(*c))
        .count();
    println!(
        "defects: {} faulty cell(s), {} of them on assay cells",
        defects.fault_count(),
        on_assay
    );

    // Local reconfiguration (used-cells policy).
    let policy = used_cells_policy(&chip);
    let plan = match attempt_reconfiguration(&chip.array, &defects, &policy) {
        Ok(plan) => {
            println!(
                "reconfiguration: OK, {} assay cell(s) replaced by spares",
                plan.len()
            );
            plan
        }
        Err(failure) => {
            println!("reconfiguration failed — chip discarded: {failure}");
            return;
        }
    };

    // Run the clinical panel on the repaired chip.
    let exec = Executor::new(chip, defects, Some(plan));
    match exec.run(&MultiplexedIvd::standard_panel(), &mut rng) {
        Ok(outcomes) => {
            println!("\nassay       sample    true mM  measured mM  error");
            for o in &outcomes {
                println!(
                    "{:<10}  {:<8}  {:>7.3}  {:>11.3}  {:>5.1}%",
                    o.request.analyte.to_string(),
                    o.request.sample_port,
                    o.true_concentration_mm,
                    o.measured_concentration_mm,
                    100.0 * o.relative_error()
                );
            }
            let makespan = outcomes
                .iter()
                .map(|o| o.completion_time_s)
                .fold(0.0f64, f64::max);
            println!("\npanel complete in {makespan:.1} s of chip time");
        }
        Err(e) => println!("protocol failed: {e}"),
    }
}
