//! End-to-end pipeline tests across crates: injection → reconfiguration
//! → assay execution.

use dmfb_core::prelude::*;
use dmfb_integration_tests::TEST_SEEDS;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A reconfigured case-study chip still runs its clinical panel, and the
/// measured concentrations stay clinically usable.
#[test]
fn reconfigured_chip_completes_clinical_panel() {
    let chip = ivd_dtmb26_chip();
    let mut rng = StdRng::seed_from_u64(TEST_SEEDS[3]);
    let mut defects = ExactCount::new(15).inject(chip.array.region(), &mut rng);
    defects.close_shorts();
    let policy = used_cells_policy(&chip);
    let Ok(plan) = attempt_reconfiguration(&chip.array, &defects, &policy) else {
        // Unlucky seed: the chip is genuinely dead. The yield tests cover
        // rates; this test only cares about the success path.
        return;
    };
    let exec = Executor::new(chip, defects, Some(plan));
    let outcomes = exec
        .run(&MultiplexedIvd::standard_panel(), &mut rng)
        .expect("panel must run on a reconfigured chip");
    assert_eq!(outcomes.len(), 4);
    for o in &outcomes {
        assert!(
            o.relative_error() < 0.30,
            "{} measured {} vs true {}",
            o.request.analyte,
            o.measured_concentration_mm,
            o.true_concentration_mm
        );
    }
}

/// Clustered defects (violating the paper's independence assumption) hurt
/// yield more than i.i.d. defects with the same expected count.
#[test]
fn clustered_defects_are_worse_than_iid() {
    let array = DtmbKind::Dtmb26A.with_primary_count(120);
    let total_cells = array.total_cells() as f64;
    let est = SchemeYield::new(array.clone(), ReconfigPolicy::AllPrimaries);
    let clustered = ClusteredDefects::new(2.0, 1, 1, 0.6);
    let expected_failures = clustered.expected_failures_in(array.region());
    let q = expected_failures / total_cells;
    let iid = est.estimate_survival(1.0 - q, 4_000, TEST_SEEDS[0]).point();
    let ev = est.evaluator();
    let spot = est
        .estimate_sampled(
            4_000,
            TEST_SEEDS[0],
            || (),
            |rng, _, faults| {
                faults.extend(ev.fault_ids(&clustered.inject_in(array.region(), rng)));
            },
        )
        .point();
    assert!(
        spot < iid + 0.02,
        "clustered {spot} should not beat iid {iid}"
    );
}
