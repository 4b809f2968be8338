//! Quickstart: design a defect-tolerant biochip, estimate its yield, and
//! inspect one reconfiguration.
//!
//! ```text
//! cargo run --release -p dmfb_examples --example quickstart
//! ```

use dmfb_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A DTMB(2,6) biochip with 100 primary cells: every primary cell is
    //    adjacent to two interstitial spares.
    let chip = Biochip::dtmb(DtmbKind::Dtmb26A, 100);
    println!(
        "array: {} primaries + {} spares (redundancy ratio {:.3})",
        chip.array().primary_count(),
        chip.array().spare_count(),
        chip.array().redundancy_ratio()
    );

    // 2. Manufacturing yield at 95% per-cell survival, 10 000 Monte-Carlo
    //    trials, with and without local reconfiguration.
    let report = chip.yield_report(0.95, 10_000, 42);
    println!("survival p = {:.2}", report.survival_p);
    println!("  raw yield (no reconfiguration): {:.4}", report.raw_yield);
    println!(
        "  with local reconfiguration:     {}",
        report.reconfigured_yield
    );
    println!(
        "  effective yield (area-scaled):  {:.4}",
        report.effective_yield
    );

    // 3. One chip instance end to end: inject defects, then reconfigure
    //    from the fault map.
    let mut rng = StdRng::seed_from_u64(7);
    let mut defects = Bernoulli::from_survival(0.95).inject(chip.array().region(), &mut rng);
    defects.close_shorts();
    println!("one chip: {} fault(s)", defects.fault_count());
    match attempt_reconfiguration(chip.array(), &defects, chip.policy()) {
        Ok(plan) => {
            println!("  ships! {} replacement(s):", plan.len());
            for (faulty, spare) in plan.iter() {
                println!("    {faulty} -> spare {spare}");
            }
        }
        Err(failure) => println!("  discarded: {failure}"),
    }
}
