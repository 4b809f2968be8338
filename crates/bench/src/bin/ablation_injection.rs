//! Ablation study: the paper's i.i.d. failure assumption versus clustered
//! spot defects at matched expected failure counts.
//!
//! The paper scopes its independence assumption to "random and small spot
//! defects". This study measures what happens when that assumption breaks:
//! clusters concentrate failures, exhausting all spares in a
//! neighbourhood at once.

use dmfb_bench::{TextTable, FIGURE_SEED};
use dmfb_core::prelude::*;

fn main() {
    println!("Ablation: i.i.d. vs clustered spot defects, DTMB(2,6), n = 120\n");
    let array = DtmbKind::Dtmb26A.with_primary_count(120);
    let total_cells = array.total_cells() as f64;
    let est = SchemeYield::new(array.clone(), ReconfigPolicy::AllPrimaries);
    let ev = est.evaluator();

    let mut table = TextTable::new(vec![
        "E[failures]".into(),
        "i.i.d. yield".into(),
        "clustered yield (r=1)".into(),
        "clustered yield (r=2)".into(),
    ]);
    for (i, &mean_clusters) in [0.5f64, 1.0, 2.0, 3.0, 4.0].iter().enumerate() {
        let seed = FIGURE_SEED.wrapping_add(7_000 + i as u64);
        let tight = ClusteredSpot::new(mean_clusters, 1, 0.6);
        let expected = tight.expected_failures();
        // Match the i.i.d. model to the tight cluster's expectation.
        let q = expected / total_cells;
        let iid = est.estimate_survival(1.0 - q, 10_000, seed).point();
        let y_tight = est
            .estimate_sampled(
                10_000,
                seed ^ 0x1,
                || (),
                |rng, _, faults| {
                    faults.extend(ev.fault_ids(&tight.inject(array.region(), rng)));
                },
            )
            .point();
        // A wider, shallower cluster with the same expectation.
        let peak2 = expected / (mean_clusters * footprint_weight(2));
        let wide = ClusteredSpot::new(mean_clusters, 2, peak2.min(1.0));
        let y_wide = est
            .estimate_sampled(
                10_000,
                seed ^ 0x2,
                || (),
                |rng, _, faults| {
                    faults.extend(ev.fault_ids(&wide.inject(array.region(), rng)));
                },
            )
            .point();
        table.row(vec![
            format!("{expected:.1}"),
            format!("{iid:.4}"),
            format!("{y_tight:.4}"),
            format!("{y_wide:.4}"),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nReading: at equal expected failure counts, clustering reduces \
         yield — neighbouring faults contend for the same spares — so the \
         paper's independence assumption is the optimistic end of the range."
    );
}

/// Sum of the linear decay over a cluster footprint of the given radius
/// (matches `ClusteredSpot::expected_failures` with peak 1.0).
fn footprint_weight(radius: u32) -> f64 {
    let mut w = 0.0;
    for k in 0..=radius {
        let ring = if k == 0 { 1.0 } else { 6.0 * f64::from(k) };
        w += ring * (1.0 - f64::from(k) / (f64::from(radius) + 1.0));
    }
    w
}
