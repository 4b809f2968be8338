//! Production-line triage: reconfigure every fabricated chip that can be
//! repaired, and report the shipped and repaired yield per design.
//!
//! This stitches the whole pipeline together the way a fab would use it:
//! each chip's injected fault map feeds local reconfiguration, which
//! decides ship/discard, and the line statistics show the yield uplift
//! each DTMB design buys at the observed process corner.
//!
//! ```text
//! cargo run --release -p dmfb_examples --example chip_triage [survival_p] [batch]
//! ```

use dmfb_core::prelude::*;
use dmfb_examples::pct;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut args = std::env::args().skip(1);
    let p: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.95);
    let batch: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(300);

    println!("triage line: p = {p}, batch = {batch} chips per design\n");
    println!("design       shipped   repaired");

    let mut candidates: Vec<Option<DtmbKind>> = vec![None];
    candidates.extend(DtmbKind::TABLE1.into_iter().map(Some));

    let model = Bernoulli::from_survival(p);
    for kind in candidates {
        let chip = match kind {
            Some(k) => Biochip::dtmb(k, 108),
            None => Biochip::without_redundancy(108),
        };
        let mut shipped = 0u64;
        let mut repaired = 0u64;
        for i in 0..batch {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE + i);
            let mut defects = model.inject(chip.array().region(), &mut rng);
            defects.close_shorts();
            if let Ok(plan) = attempt_reconfiguration(chip.array(), &defects, chip.policy()) {
                shipped += 1;
                if !plan.is_empty() {
                    repaired += 1;
                }
            }
        }
        println!(
            "{:<11}  {}   {}",
            kind.map_or("none".to_string(), |k| k.to_string()),
            pct(shipped as f64 / batch as f64),
            pct(repaired as f64 / batch as f64),
        );
    }
    println!(
        "\nReading: every repaired chip is one that a redundancy-free design \
         would have discarded."
    );
}
