//! Regenerates **Figure 9**: Monte-Carlo yield of DTMB(2,6), DTMB(3,6) and
//! DTMB(4,4) over the survival probability, for several array sizes,
//! 10 000 trials per point.

use dmfb_bench::{TextTable, FIG7_9_ARRAY_SIZES, FIG7_9_SURVIVAL_GRID, FIGURE_SEED, PAPER_TRIALS};
use dmfb_core::prelude::*;

const DESIGNS: [DtmbKind; 3] = [DtmbKind::Dtmb26A, DtmbKind::Dtmb36, DtmbKind::Dtmb44];

fn main() {
    println!("Figure 9: Monte-Carlo yield of DTMB(2,6), DTMB(3,6), DTMB(4,4)");
    println!("({PAPER_TRIALS} trials per point)\n");
    for &n in &FIG7_9_ARRAY_SIZES {
        println!("n = {n} primary cells");
        let mut header = vec!["p".into(), "p^n".into()];
        header.extend(DESIGNS.iter().map(|k| k.to_string()));
        let mut table = TextTable::new(header);

        let estimators: Vec<SchemeYield> = DESIGNS
            .iter()
            .map(|k| SchemeYield::new(k.with_primary_count(n), ReconfigPolicy::AllPrimaries))
            .collect();
        for (i, &p) in FIG7_9_SURVIVAL_GRID.iter().enumerate() {
            let mut row = vec![
                format!("{p:.2}"),
                format!("{:.4}", no_redundancy_yield(p, n)),
            ];
            for (d, est) in estimators.iter().enumerate() {
                let seed = FIGURE_SEED
                    .wrapping_add(i as u64)
                    .wrapping_mul(31)
                    .wrapping_add(d as u64);
                row.push(format!(
                    "{:.4}",
                    est.estimate_survival(p, PAPER_TRIALS, seed).point()
                ));
            }
            table.row(row);
        }
        print!("{}", table.render());
        println!();
    }
    println!(
        "Shape check vs paper: at every (n, p), yield orders \
         DTMB(4,4) >= DTMB(3,6) >= DTMB(2,6) >> p^n, and all curves rise \
         towards 1 as p -> 1."
    );
}
