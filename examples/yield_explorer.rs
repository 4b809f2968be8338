//! Design-space exploration: which redundancy level should a biochip use
//! for a given manufacturing process?
//!
//! Sweeps the cell survival probability and reports, per process corner,
//! the design with the best *effective* yield — reproducing the paper's
//! Figure 10 guidance ("higher redundancy for small p, lower redundancy
//! for high p") as an actionable tool.
//!
//! ```text
//! cargo run --release -p dmfb_examples --example yield_explorer [primaries] [trials]
//! ```

use dmfb_core::prelude::*;
use dmfb_examples::bar;

fn main() {
    let mut args = std::env::args().skip(1);
    let primaries: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(100);
    let trials: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(3_000);

    println!("effective-yield explorer: n = {primaries} primaries, {trials} trials/point\n");

    let designs: Vec<(DtmbKind, SchemeYield)> = DtmbKind::TABLE1
        .iter()
        .map(|&k| {
            (
                k,
                SchemeYield::new(
                    k.with_primary_count(primaries),
                    ReconfigPolicy::AllPrimaries,
                ),
            )
        })
        .collect();

    println!("p      best design   EY      profile (EY per design, Table-1 order)");
    for step in 0..=10 {
        let p = 0.80 + 0.02 * step as f64;
        let mut best: Option<(DtmbKind, f64)> = None;
        let mut cells = Vec::new();
        for (i, (kind, est)) in designs.iter().enumerate() {
            let y = est
                .estimate_survival(p, trials, 0xEE + (step * 7 + i) as u64)
                .point();
            let array = kind.with_primary_count(primaries);
            let ey = y * array.primary_count() as f64 / array.total_cells() as f64;
            cells.push(format!("{ey:.3}"));
            if best.is_none_or(|(_, b)| ey > b) {
                best = Some((*kind, ey));
            }
        }
        let (kind, ey) = best.expect("non-empty designs");
        println!(
            "{p:.2}   {:<12}  {ey:.3}   {}   [{}]",
            kind.to_string(),
            bar(ey, 20),
            cells.join(", ")
        );
    }
    println!(
        "\nReading: at low survival probabilities the EY winner is the highly \
         redundant DTMB(4,4); as the process matures the lean designs take over \
         (paper Figure 10)."
    );
}
