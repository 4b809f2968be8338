//! Production-line triage: test every fabricated chip, reconfigure the
//! repairable ones, and report the shipped yield and test cost per design.
//!
//! This stitches the whole pipeline together the way a fab would use it:
//! droplet-trace testing produces the fault map (not oracle knowledge!),
//! local reconfiguration decides ship/discard, and the line statistics
//! show the yield uplift each DTMB design buys at the observed process
//! corner.
//!
//! ```text
//! cargo run --release -p dmfb_examples --example chip_triage [survival_p] [batch]
//! ```

use dmfb_core::prelude::*;
use dmfb_examples::pct;

fn main() {
    let mut args = std::env::args().skip(1);
    let p: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.95);
    let batch: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(300);

    println!("triage line: p = {p}, batch = {batch} chips per design\n");
    println!("design       shipped   repaired  avg test droplets  avg test moves");

    let mut candidates: Vec<Option<DtmbKind>> = vec![None];
    candidates.extend(DtmbKind::TABLE1.into_iter().map(Some));

    for kind in candidates {
        let chip = match kind {
            Some(k) => Biochip::dtmb(k, 108),
            None => Biochip::without_redundancy(108),
        };
        let mut shipped = 0u64;
        let mut repaired = 0u64;
        let mut droplets = 0u64;
        let mut moves = 0u64;
        for i in 0..batch {
            let outcome = chip.simulate_one(p, 0xC0FFEE + i);
            droplets += outcome.test_droplets as u64;
            moves += outcome.test_moves as u64;
            if outcome.ships() {
                shipped += 1;
                if !outcome.detected.is_fault_free() {
                    repaired += 1;
                }
            }
        }
        println!(
            "{:<11}  {}   {}   {:>17.1}  {:>14.1}",
            kind.map_or("none".to_string(), |k| k.to_string()),
            pct(shipped as f64 / batch as f64),
            pct(repaired as f64 / batch as f64),
            droplets as f64 / batch as f64,
            moves as f64 / batch as f64,
        );
    }
    println!(
        "\nReading: every repaired chip is one that a redundancy-free design \
         would have discarded; the test cost (droplets, actuations) is the \
         price of locating the faults first."
    );
}
