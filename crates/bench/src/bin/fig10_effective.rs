//! Regenerates **Figure 10**: effective yield `EY = Y/(1+RR)` for all four
//! redundancy levels at `n = 100`, including the crossover points that
//! drive the paper's design guidance (high redundancy for low `p`, low
//! redundancy for high `p`).

use dmfb_bench::{TextTable, FIG10_SURVIVAL_GRID, FIGURE_SEED, PAPER_TRIALS};
use dmfb_core::prelude::*;

const N: usize = 100;

fn main() {
    println!("Figure 10: Effective yield for different redundancy levels (n = {N})\n");
    let estimators: Vec<(DtmbKind, SchemeYield)> = DtmbKind::TABLE1
        .iter()
        .map(|&k| {
            (
                k,
                SchemeYield::new(k.with_primary_count(N), ReconfigPolicy::AllPrimaries),
            )
        })
        .collect();

    let mut header = vec!["p".into()];
    header.extend(estimators.iter().map(|(k, _)| k.to_string()));
    let mut table = TextTable::new(header);

    let mut curves: Vec<YieldCurve> = Vec::new();
    let mut all_points: Vec<Vec<YieldPoint>> = vec![Vec::new(); estimators.len()];
    for (i, &p) in FIG10_SURVIVAL_GRID.iter().enumerate() {
        let mut row = vec![format!("{p:.2}")];
        for (d, (kind, est)) in estimators.iter().enumerate() {
            let seed = FIGURE_SEED
                .wrapping_add(i as u64)
                .wrapping_mul(37)
                .wrapping_add(d as u64);
            let y = est.estimate_survival(p, PAPER_TRIALS, seed);
            let array = kind.with_primary_count(N);
            let n = array.primary_count() as f64;
            let total = array.total_cells() as f64;
            let ey = y.point() * n / total;
            row.push(format!("{ey:.4}"));
            all_points[d].push(YieldPoint {
                x: p,
                y: ey,
                ci95: y.wilson95(),
                trials: y.trials(),
            });
        }
        table.row(row);
    }
    for ((kind, _), points) in estimators.iter().zip(all_points) {
        curves.push(YieldCurve::new(kind.to_string(), points));
    }
    print!("{}", table.render());

    println!("\nCrossover points (where the better design switches):");
    for i in 0..curves.len() {
        for j in i + 1..curves.len() {
            let xs = curves[i].crossover_with(&curves[j]);
            if xs.is_empty() {
                continue;
            }
            let formatted: Vec<String> = xs.iter().map(|x| format!("{x:.3}")).collect();
            println!(
                "  {} vs {}: p = {}",
                curves[i].label,
                curves[j].label,
                formatted.join(", ")
            );
        }
    }
    println!(
        "\nShape check vs paper: DTMB(4,4) has the best EY at small p; \
         DTMB(1,6)/DTMB(2,6) win at high p; the curves cross in between."
    );
}
