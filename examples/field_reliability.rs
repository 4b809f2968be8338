//! Service-life reliability: how long does a deployed biochip keep
//! working when cells wear out in the field?
//!
//! A DTMB(2,6) diagnostics chip ships after manufacturing test and
//! reconfiguration. In service, electrodes fail with an MTBF; at every
//! maintenance window the chip re-tests itself and re-runs local
//! reconfiguration over *all* accumulated faults. The chip retires when
//! the assay cells can no longer be covered. This example estimates the
//! survival curve over service hours — redundancy bought at fab time keeps
//! paying during the product's life.
//!
//! ```text
//! cargo run --release -p dmfb_examples --example field_reliability [mtbf_hours] [chips]
//! ```

use dmfb_core::defects::operational::MtbfModel;
use dmfb_core::prelude::*;
use dmfb_examples::{bar, pct};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut args = std::env::args().skip(1);
    let mtbf: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2_000.0);
    let chips: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(400);

    let chip = ivd_dtmb26_chip();
    let evaluator = TrialEvaluator::new(&chip.array, &used_cells_policy(&chip));
    let mut scratch = evaluator.scratch();
    let model = MtbfModel::new(mtbf, 1.0);
    println!(
        "chip: {} primaries + {} spares; per-cell MTBF {mtbf} h; fleet of {chips}\n",
        chip.array.primary_count(),
        chip.array.spare_count()
    );

    println!("service hours   fleet alive   (re-reconfigured at each window)");
    let horizons = [50.0, 100.0, 200.0, 400.0, 800.0, 1_600.0];
    for (hi, &horizon) in horizons.iter().enumerate() {
        let mut alive = 0u64;
        for c in 0..chips {
            let mut rng = StdRng::seed_from_u64(0x11FE + c * 7919 + hi as u64);
            let cells: Vec<HexCoord> = model
                .sample_failures(chip.array.region(), horizon, &mut rng)
                .into_iter()
                .map(|f| f.cell)
                .collect();
            let defects = DefectMap::from_cells(cells);
            if evaluator.reconfigure(&defects, &mut scratch).is_ok() {
                alive += 1;
            }
        }
        let frac = alive as f64 / chips as f64;
        println!("{horizon:>12.0}   {}   {}", pct(frac), bar(frac, 30));
    }
    println!(
        "\nexpected failures at the longest horizon: {:.1} cells of {}",
        model.expected_failures(chip.array.region(), *horizons.last().expect("non-empty")),
        chip.array.total_cells()
    );
    println!(
        "Reading: the interstitial spares that rescued manufacturing yield \
         also extend field life — the fleet survives until the accumulated \
         fault population overwhelms local coverage."
    );
}
