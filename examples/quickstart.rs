//! Quickstart: design a defect-tolerant biochip, estimate its yield, and
//! inspect one reconfiguration.
//!
//! ```text
//! cargo run --release -p dmfb_examples --example quickstart
//! ```

use dmfb_core::prelude::*;

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

    // 3. One chip instance end to end: inject defects, test with droplet
    //    traces, reconfigure from what the test found.
    let outcome = chip.simulate_one(0.95, 7);
    println!(
        "one chip: {} true fault(s), {} detected with {} test droplet(s) / {} moves",
        outcome.true_defects.fault_count(),
        outcome.detected.fault_count(),
        outcome.test_droplets,
        outcome.test_moves,
    );
    match &outcome.plan {
        Ok(plan) => {
            println!("  ships! {} replacement(s):", plan.len());
            for (faulty, spare) in plan.iter() {
                println!("    {faulty} -> spare {spare}");
            }
        }
        Err(failure) => println!("  discarded: {failure}"),
    }
}
