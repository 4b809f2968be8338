//! NA-0090-style happy-path / hostile / replay triads for every built-in
//! campaign.
//!
//! Pattern (qsl-protocol remote fault-injection plan): the happy path
//! rehearses the scenario and must emit expected (`ok`) markers only; the
//! live run injects the scripted damage and must flag hostile markers;
//! the replay test asserts byte-identical marker streams and verdict
//! tables across reruns and across `--threads 1` vs `0`.

use dmfb_bioassay::layout::ivd_dtmb26_chip;
use dmfb_yield::campaign::{named_campaign, CampaignRunner, NAMED_CAMPAIGNS};
use dmfb_yield::operational::AssayPanel;

const SEED: u64 = 0x2005_0090;
const TRIALS: u32 = 24;

fn runner(threads: usize) -> CampaignRunner {
    CampaignRunner::ivd(AssayPanel::StandardIvd).with_threads(threads)
}

fn happy_path(name: &str) {
    let scenario = named_campaign(name).expect("built-in");
    let runner = runner(1);
    let dry = runner.rehearse(&scenario, SEED);
    assert_eq!(dry.hostile_count(), 0, "{name}: rehearsal must not damage");
    assert!(dry.final_map().is_fault_free());
    let markers = dry.markers();
    assert_eq!(markers.lines().count(), scenario.steps().len());
    for (idx, line) in markers.lines().enumerate() {
        assert!(
            line.starts_with(&format!("marker step={idx} k={}", SEED + idx as u64)),
            "{name}: marker {idx} must carry k = seed + idx: {line}"
        );
        assert!(line.contains(" injected=0 "), "{name}: {line}");
        assert!(
            line.ends_with(" ok"),
            "{name}: happy path must be ok-only: {line}"
        );
    }
}

fn hostile_markers(name: &str) {
    let scenario = named_campaign(name).expect("built-in");
    let chip = ivd_dtmb26_chip();
    let live = scenario.execute(chip.array.region(), SEED);
    assert!(
        live.hostile_count() > 0,
        "{name}: live run must damage the chip"
    );
    assert!(live.markers().lines().any(|l| l.ends_with(" hostile")));
    // Cumulative fault counts in the markers are non-decreasing and match
    // the per-step maps.
    let mut last = 0usize;
    for rec in &live.steps {
        assert!(rec.map.fault_count() >= last);
        assert_eq!(rec.hostile(), rec.injected > 0);
        last = rec.map.fault_count();
    }
    // The happy path and the live run agree on keys and labels, differing
    // only in damage — that is what makes the marker streams comparable.
    let dry = scenario.rehearse(chip.array.region(), SEED);
    for (a, b) in dry.steps.iter().zip(live.steps.iter()) {
        assert_eq!(a.k, b.k);
        assert_eq!(a.action.label(), b.action.label());
    }
}

fn determinism_replay(name: &str) {
    let scenario = named_campaign(name).expect("built-in");
    let first = runner(1).run(&scenario, 0.99, TRIALS, SEED);
    let rerun = runner(1).run(&scenario, 0.99, TRIALS, SEED);
    assert_eq!(
        first.markers(),
        rerun.markers(),
        "{name}: rerun must replay markers byte-identically"
    );
    assert_eq!(first.table(), rerun.table(), "{name}: rerun verdicts");
    let parallel = runner(0).run(&scenario, 0.99, TRIALS, SEED);
    assert_eq!(
        first.markers(),
        parallel.markers(),
        "{name}: threads 1 vs 0 markers"
    );
    assert_eq!(
        first.table(),
        parallel.table(),
        "{name}: threads 1 vs 0 verdicts"
    );
    // A different seed must not replay the same damage.
    let other = named_campaign(name)
        .unwrap()
        .execute(ivd_dtmb26_chip().array.region(), SEED + 1);
    assert_ne!(first.markers(), other.markers(), "{name}: seed matters");
}

macro_rules! triad {
    ($happy:ident, $hostile:ident, $replay:ident, $name:literal) => {
        #[test]
        fn $happy() {
            happy_path($name);
        }

        #[test]
        fn $hostile() {
            hostile_markers($name);
        }

        #[test]
        fn $replay() {
            determinism_replay($name);
        }
    };
}

triad!(
    edge_column_wipeout_happy_path_has_ok_markers_only,
    edge_column_wipeout_emits_hostile_markers,
    edge_column_wipeout_determinism_replay,
    "edge-column-wipeout"
);

triad!(
    reservoir_cluster_happy_path_has_ok_markers_only,
    reservoir_cluster_emits_hostile_markers,
    reservoir_cluster_determinism_replay,
    "reservoir-cluster"
);

triad!(
    wear_trajectory_happy_path_has_ok_markers_only,
    wear_trajectory_emits_hostile_markers,
    wear_trajectory_determinism_replay,
    "wear-trajectory"
);

triad!(
    parametric_drift_happy_path_has_ok_markers_only,
    parametric_drift_emits_hostile_markers,
    parametric_drift_determinism_replay,
    "parametric-drift"
);

#[test]
fn every_built_in_campaign_is_covered_by_a_triad() {
    // If a future PR adds a campaign, this fails until its triad exists.
    let covered = [
        "edge-column-wipeout",
        "reservoir-cluster",
        "wear-trajectory",
        "parametric-drift",
    ];
    let names: Vec<&str> = NAMED_CAMPAIGNS.iter().map(|c| c.name).collect();
    assert_eq!(names, covered);
}
