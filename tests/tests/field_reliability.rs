//! Field-reliability integration: MTBF-driven operational faults on the
//! IVD chip, judged by reconfiguration against the Figure 13 yield.

use dmfb_core::defects::operational::MtbfModel;
use dmfb_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Expected-failure arithmetic ties the MTBF model to the yield stack: a
/// service horizon with E[failures] = m should see in-service survival close
/// to the Figure 13 yield at that m.
#[test]
fn service_horizon_matches_exact_fault_yield() {
    let chip = ivd_dtmb26_chip();
    let policy = used_cells_policy(&chip);
    let biochip = Biochip::from_array(chip.array.clone()).with_policy(policy.clone());
    let model = MtbfModel::new(1_000.0, 1.0);
    // Find the horizon with ~10 expected failures on 343 cells.
    let region = chip.array.region();
    let mut horizon = 10.0;
    while model.expected_failures(region, horizon) < 10.0 {
        horizon += 5.0;
    }
    let m = model.expected_failures(region, horizon).round() as usize;
    // MC: sample failure sets from the MTBF model and test
    // reconfigurability directly.
    let mut rng = StdRng::seed_from_u64(0x11CE);
    let trials = 800;
    let mut ok = 0u32;
    for _ in 0..trials {
        let cells: Vec<HexCoord> = model
            .sample_failures(region, horizon, &mut rng)
            .into_iter()
            .map(|f| f.cell)
            .collect();
        let defects = DefectMap::from_cells(cells);
        if attempt_reconfiguration(&chip.array, &defects, &policy).is_ok() {
            ok += 1;
        }
    }
    let mtbf_yield = f64::from(ok) / f64::from(trials);
    let fig13_yield = biochip.exact_fault_yield(m, 4_000, 0xF16).point();
    // Poisson-distributed counts vs fixed m: close but not identical.
    assert!(
        (mtbf_yield - fig13_yield).abs() < 0.08,
        "mtbf {mtbf_yield} vs fig13@{m} {fig13_yield}"
    );
}
