//! End-to-end pipeline tests across crates: injection → droplet-trace
//! testing → reconfiguration → assay execution.

use dmfb_core::prelude::*;
use dmfb_integration_tests::TEST_SEEDS;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The triage pipeline is sound for every design: detected faults are true
/// faults, and a shipped chip's plan replaces every detected in-scope
/// faulty primary with a distinct adjacent fault-free spare.
#[test]
fn triage_pipeline_sound_for_all_designs() {
    for kind in DtmbKind::ALL {
        let chip = Biochip::dtmb(kind, 80);
        for (i, &seed) in TEST_SEEDS.iter().enumerate() {
            let outcome = chip.simulate_one(0.93, seed + i as u64);
            for c in outcome.detected.faulty_cells() {
                assert!(outcome.true_defects.is_faulty(c), "{kind}: ghost fault {c}");
            }
            if let Ok(plan) = &outcome.plan {
                let mut used = std::collections::BTreeSet::new();
                for (faulty, spare) in plan.iter() {
                    assert!(faulty.is_adjacent(spare), "{kind}");
                    assert!(chip.array().is_spare(spare), "{kind}");
                    assert!(!outcome.detected.is_faulty(spare), "{kind}");
                    assert!(used.insert(spare), "{kind}: spare reused");
                }
            }
        }
    }
}

/// Diagnosed-fault reconfiguration agrees with oracle-fault
/// reconfiguration whenever testing found everything (connected arrays,
/// catastrophic faults only).
#[test]
fn testing_matches_oracle_for_catastrophic_faults() {
    let array = DtmbKind::Dtmb36.with_primary_count(60);
    let mut rng = StdRng::seed_from_u64(TEST_SEEDS[2]);
    for m in [1usize, 3, 6] {
        let defects = ExactCount::new(m).inject(array.region(), &mut rng);
        let diagnosis = diagnose(array.region(), &defects, MeasurementModel::default());
        if diagnosis.unreachable.is_empty() {
            assert_eq!(
                diagnosis.detected.fault_count(),
                defects.fault_count(),
                "all catastrophic faults found"
            );
            let via_test =
                attempt_reconfiguration(&array, &diagnosis.detected, &ReconfigPolicy::AllPrimaries)
                    .is_ok();
            let via_oracle =
                attempt_reconfiguration(&array, &defects, &ReconfigPolicy::AllPrimaries).is_ok();
            assert_eq!(via_test, via_oracle);
        }
    }
}

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

/// The same seeds produce the same pipeline outcomes (full determinism
/// across the crate stack).
#[test]
fn pipeline_is_deterministic() {
    let chip = Biochip::dtmb(DtmbKind::Dtmb26B, 70);
    let a = chip.simulate_one(0.9, 999);
    let b = chip.simulate_one(0.9, 999);
    assert_eq!(a.true_defects, b.true_defects);
    assert_eq!(a.detected, b.detected);
    assert_eq!(a.test_droplets, b.test_droplets);
    assert_eq!(a.ships(), b.ships());
}

/// Clustered defects (violating the paper's independence assumption) hurt
/// yield more than i.i.d. defects with the same expected count — the
/// ablation DESIGN.md promises.
#[test]
fn clustered_defects_are_worse_than_iid() {
    let array = DtmbKind::Dtmb26A.with_primary_count(120);
    let total_cells = array.total_cells() as f64;
    let est = SchemeYield::new(array.clone(), ReconfigPolicy::AllPrimaries);
    let clustered = ClusteredSpot::new(2.0, 1, 0.6);
    let expected_failures = clustered.expected_failures();
    let q = expected_failures / total_cells;
    let iid = est.estimate_survival(1.0 - q, 4_000, TEST_SEEDS[0]).point();
    let spot = est
        .estimate_with_defects(4_000, TEST_SEEDS[0], |rng| {
            clustered.inject(array.region(), rng)
        })
        .point();
    assert!(
        spot < iid + 0.02,
        "clustered {spot} should not beat iid {iid}"
    );
}
