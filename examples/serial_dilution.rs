//! On-chip serial dilution: bringing an out-of-range sample back into the
//! assay's linear range with merge-mix-split ladders.
//!
//! ```text
//! cargo run --release -p dmfb_examples --example serial_dilution [raw_mM]
//! ```

use dmfb_core::bioassay::dilution::{diluted_concentration, DilutionPlan};
use dmfb_core::bioassay::droplet::{Droplet, DropletId, Mixture};
use dmfb_core::bioassay::kinetics::{
    absorbance_545nm, CalibrationCurve, DROPLET_PATH_CM, QUINONEIMINE_EPSILON,
};
use dmfb_core::prelude::*;

fn main() {
    let raw: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(45.0);

    let analyte = Analyte::Glucose;
    let standards = analyte.calibration_standards_mm();
    let max_standard = *standards.last().expect("standards exist");
    println!("sample: {raw:.1} mM glucose; calibration range tops out at {max_standard:.1} mM");

    let plan = if raw > max_standard {
        DilutionPlan::for_target(2.0 * raw / max_standard)
    } else {
        DilutionPlan::for_target(1.0)
    };
    println!(
        "plan: {} merge-mix-split stage(s) -> 1:{:.0} dilution, {} buffer droplet(s)",
        plan.stages,
        plan.achieved_dilution(),
        plan.buffer_droplets()
    );

    // Execute the ladder on an actual droplet.
    let sample = Droplet::new(
        DropletId(0),
        HexCoord::new(0, 0),
        50.0,
        Mixture::single("glucose", raw),
    );
    let mut next = 0u32;
    let (diluted, waste) = plan.execute(sample, &Mixture::new(), || {
        next += 1;
        DropletId(next)
    });
    println!(
        "diluted droplet: {:.2} mM in {:.0} nL ({} waste droplet(s))",
        diluted.contents.concentration("glucose"),
        diluted.volume_nl,
        waste.len()
    );

    // Measure the diluted droplet and undo the dilution.
    let kinetics = analyte.kinetics();
    let curve = CalibrationCurve::build(&kinetics, &standards, 60.0);
    let state = kinetics.integrate(diluted_concentration(raw, &plan), 60.0, 0.05);
    let absorbance = absorbance_545nm(state.quinoneimine_mm, DROPLET_PATH_CM, QUINONEIMINE_EPSILON);
    let measured = curve.concentration(absorbance) * plan.achieved_dilution();
    println!(
        "measured: A545 = {absorbance:.3} -> {measured:.1} mM after un-diluting \
         ({:.1}% error)",
        100.0 * (measured - raw).abs() / raw
    );
}
