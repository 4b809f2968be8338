//! Extension study: hexagonal vs square electrodes for interstitial
//! redundancy.
//!
//! The paper motivates hexagonal electrodes qualitatively ("close-packed
//! design ... expected to increase the effectiveness of droplet
//! transportation"). This study quantifies the redundancy side of that
//! choice: the area cost of a given spare-coverage guarantee on each
//! lattice, and Monte-Carlo yield at matched guarantees.

use dmfb_bench::TextTable;
use dmfb_core::prelude::*;
use dmfb_core::reconfig::square_dtmb::SquarePattern;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    println!("Hex vs square electrodes: area cost of interstitial coverage\n");
    let mut table = TextTable::new(vec![
        "guarantee".into(),
        "hexagonal design (RR)".into(),
        "square design (RR)".into(),
        "hex area saving".into(),
    ]);
    let rows: [(&str, DtmbKind, SquarePattern); 3] = [
        (
            "s = 1 spare/primary",
            DtmbKind::Dtmb16,
            SquarePattern::PerfectCode,
        ),
        (
            "s = 2 spares/primary",
            DtmbKind::Dtmb26A,
            SquarePattern::Stripes,
        ),
        (
            "s = 4 spares/primary",
            DtmbKind::Dtmb44,
            SquarePattern::Checkerboard,
        ),
    ];
    for (label, hex, square) in rows {
        let hex_rr = hex.redundancy_ratio_limit();
        let sq_rr = square.redundancy_ratio_limit();
        table.row(vec![
            label.into(),
            format!("{hex} ({hex_rr:.4})"),
            format!("{square} ({sq_rr:.4})"),
            format!("{:.0}%", 100.0 * (1.0 - (1.0 + hex_rr) / (1.0 + sq_rr))),
        ]);
    }
    print!("{}", table.render());

    println!("\nThe naive square port of DTMB(2,6)'s sublattice (both coordinates even):");
    let region = dmfb_core::grid::SquareRegion::rect(12, 12);
    let (min, max) = SquarePattern::Quarter.audit(&region);
    println!(
        "  interior spare-degree range ({min}, {max}) — odd/odd cells have NO adjacent \
         spare, so a single fault there is fatal. Microfluidic locality \
         admits no fix without raising RR."
    );

    // Monte-Carlo at matched s = 1 guarantee: exact-m fault yield.
    println!("\nYield with m random faults at the s = 1 guarantee (2000 trials):");
    let hex_chip = Biochip::dtmb(DtmbKind::Dtmb16, 80);
    let sq_region = dmfb_core::grid::SquareRegion::rect(10, 10);
    let sq_cells: Vec<_> = sq_region.iter().collect();
    let sq_eval = TrialEvaluator::for_scheme(&sq_region, &SquarePattern::PerfectCode);
    let mut sq_scratch = sq_eval.scratch();
    let mut table = TextTable::new(vec![
        "m".into(),
        format!("hex DTMB(1,6), n={}", hex_chip.array().primary_count()),
        "square perfect-code, n=80".into(),
    ]);
    for m in [1usize, 2, 4, 8, 12] {
        let hex_y = hex_chip.exact_fault_yield(m, 2_000, 5 + m as u64).point();
        // Square MC: sample m faulty cells uniformly, check matching.
        let mut successes = 0u32;
        let trials = 2_000u32;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(97 + t as u64 * 131 + m as u64);
            let mut cells = sq_cells.clone();
            cells.shuffle(&mut rng);
            if sq_eval.evaluate_faulty_cells(&cells[..m], &mut sq_scratch) {
                successes += 1;
            }
        }
        table.row(vec![
            m.to_string(),
            format!("{hex_y:.4}"),
            format!("{:.4}", f64::from(successes) / f64::from(trials)),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nReading: at equal coverage guarantees the hexagonal lattice needs \
         ~10-33% less array area, which is the quantitative case for the \
         paper's hexagonal-electrode biochips."
    );
}
