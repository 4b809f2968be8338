//! Property tests for clustered defects on the dense cluster walk and the
//! block engine. The reference is the B-tree cluster sampler the walk
//! replaced, kept here verbatim, with the per-trial matcher
//! (`TrialEvaluator::evaluate_defects`) deciding each of its defect maps.
//! The block engine must give every seed the reference verdict — lane by
//! lane inside one 64-lane group, and in total at every block width and
//! thread count — on every hex design (including a policy that leaves
//! region cells outside the evaluator), every square pattern on holed
//! regions at negative coordinates, and spare-row arrays with zero to
//! three spare rows.

use dmfb_defects::clustered::{ClusterWalk, ClusteredDefects};
use dmfb_defects::{CatastrophicDefect, DefectCause, DefectMap};
use dmfb_grid::{Lattice, Region, SquareCoord, SquareRegion, Topology};
use dmfb_reconfig::dtmb::DtmbKind;
use dmfb_reconfig::shifted::{ModuleBand, SpareRowArray};
use dmfb_reconfig::{ReconfigPolicy, SquarePattern, TrialEvaluator};
use dmfb_sim::{MonteCarlo, SeedSequence};
use dmfb_yield::SchemeYield;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The B-tree cluster sampler, verbatim but for `self` becoming `model`.
fn btree_inject_in<T: Topology>(
    model: &ClusteredDefects,
    topo: &T,
    rng: &mut impl Rng,
) -> DefectMap<T::Coord> {
    let mut map = DefectMap::new();
    let cells: Vec<T::Coord> = topo.cells_iter().collect();
    if cells.is_empty() {
        return map;
    }
    let clusters = model.sample_cluster_count(rng);
    // Generation-stamped visited set, reused across clusters.
    let mut visited: BTreeMap<T::Coord, u32> = BTreeMap::new();
    let mut queue: VecDeque<(T::Coord, u32)> = VecDeque::new();
    for cluster in 1..=clusters {
        let seed = cells[rng.gen_range(0..cells.len())];
        queue.clear();
        queue.push_back((seed, 0));
        visited.insert(seed, cluster);
        while let Some((cell, depth)) = queue.pop_front() {
            let prob = model.probability_at(depth);
            if prob > 0.0 && rng.gen_bool(prob) {
                map.mark(
                    cell,
                    DefectCause::Catastrophic(CatastrophicDefect::OpenConnection),
                );
            }
            if depth == model.spread_radius() {
                continue;
            }
            for next in topo.neighbors_of(cell) {
                if visited.get(&next) != Some(&cluster) {
                    visited.insert(next, cluster);
                    queue.push_back((next, depth + 1));
                }
            }
        }
    }
    map
}

/// The B-tree expected-failure sum, verbatim but for `self` becoming
/// `model`.
fn btree_expected_failures_in<T: Topology>(model: &ClusteredDefects, topo: &T) -> f64 {
    let cells: Vec<T::Coord> = topo.cells_iter().collect();
    if cells.is_empty() {
        return 0.0;
    }
    // Per seed: expected failures of one cluster from that seed.
    let mut per_seed_total = 0.0;
    let mut visited: BTreeSet<T::Coord> = BTreeSet::new();
    let mut queue: VecDeque<(T::Coord, u32)> = VecDeque::new();
    for &seed in &cells {
        visited.clear();
        queue.clear();
        queue.push_back((seed, 0));
        visited.insert(seed);
        while let Some((cell, depth)) = queue.pop_front() {
            per_seed_total += model.probability_at(depth);
            if depth == model.spread_radius() {
                continue;
            }
            for next in topo.neighbors_of(cell) {
                if visited.insert(next) {
                    queue.push_back((next, depth + 1));
                }
            }
        }
    }
    model.mean_clusters() * per_seed_total / cells.len() as f64
}

/// The `inject_in` wrapper draws the reference's defect maps from the
/// reference's draws, and the expected-failure sum is the same float.
fn check_sampler<T: Topology>(model: &ClusteredDefects, topo: &T, master: u64) {
    for i in 0..12 {
        let seed = SeedSequence::nth_seed(master, i);
        let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let map = model.inject_in(topo, &mut a);
        prop_assert_eq!(map, btree_inject_in(model, topo, &mut b), "seed {seed}");
        prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "streams left out of step");
    }
    prop_assert_eq!(
        model.expected_failures_in(topo).to_bits(),
        btree_expected_failures_in(model, topo).to_bits()
    );
}

/// The block engine against the reference, trial by trial: per-lane
/// verdicts inside one 64-lane group (read off prefix counts), totals at
/// every block width and thread count, and the production entry point.
fn check_block<C, T>(eval: &TrialEvaluator<C>, topo: &T, model: &ClusteredDefects, master: u64)
where
    C: Lattice,
    T: Topology<Coord = C>,
{
    check_sampler(model, topo, master);
    let trials = 130u32;
    let mut scratch = eval.scratch();
    let verdicts: Vec<bool> = (0..u64::from(trials))
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(SeedSequence::nth_seed(master, i));
            eval.evaluate_defects(&btree_inject_in(model, topo, &mut rng), &mut scratch)
        })
        .collect();
    let walk = ClusterWalk::with_ids(topo, eval.cells());
    let mut block = eval.block_scratch();
    let mut cluster = walk.scratch();
    let group: Vec<u64> = (0..64).map(|i| SeedSequence::nth_seed(master, i)).collect();
    let mut previous = 0i64;
    for (lane, &expected) in verdicts.iter().take(group.len()).enumerate() {
        let count = eval.sampled_block(&group[..=lane], &mut block, |rng, faults| {
            model.sample_on(&walk, rng, &mut cluster, faults);
        });
        prop_assert_eq!(
            i64::from(count) - previous,
            i64::from(expected),
            "lane {lane}"
        );
        previous = i64::from(count);
    }
    let successes = verdicts.iter().filter(|&&v| v).count() as u64;
    for width in [1usize, 7, 64, 65, 200] {
        for threads in [1usize, 3] {
            let est = MonteCarlo::new(trials, master).run_blocks_with(
                threads,
                width,
                || (eval.block_scratch(), walk.scratch()),
                |seeds, (block, cluster)| {
                    eval.sampled_block(seeds, block, |rng, faults| {
                        model.sample_on(&walk, rng, cluster, faults);
                    })
                },
            );
            prop_assert_eq!(
                est.successes(),
                successes,
                "width {width}, threads {threads}"
            );
        }
    }
    for threads in [1usize, 3] {
        let engine = SchemeYield::from_evaluator("cluster", eval.clone()).with_threads(threads);
        let est = engine.estimate_sampled(
            trials,
            master,
            || walk.scratch(),
            |rng, cluster, faults| model.sample_on(&walk, rng, cluster, faults),
        );
        prop_assert_eq!(
            est.successes(),
            successes,
            "estimate_sampled, threads {threads}"
        );
    }
}

/// Cluster parameters with the edges drawn often: no clusters, radius 0,
/// peak 0 and 1, dispersion above 1.
fn arb_model() -> impl Strategy<Value = ClusteredDefects> {
    (
        prop::sample::select(vec![0.0, 0.4, 1.5, 3.0]),
        1u32..=4,
        0u32..=3,
        prop::sample::select(vec![0.0, 0.35, 0.8, 1.0]),
    )
        .prop_map(|(mean, dispersion, radius, peak)| {
            ClusteredDefects::new(mean, dispersion, radius, peak)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every hex design, under all primaries or a used-cell policy whose
    /// unused primaries (and the spares bordering only them) stay outside
    /// the evaluator while clusters still spread over them.
    #[test]
    fn hex_designs_match_the_btree_reference(
        kind in prop::sample::select(DtmbKind::ALL.to_vec()),
        primaries in 4usize..70,
        used_every in 1usize..4,
        model in arb_model(),
        master in 0u64..u64::MAX,
    ) {
        let array = kind.with_primary_count(primaries);
        let policy = if used_every == 1 {
            ReconfigPolicy::AllPrimaries
        } else {
            ReconfigPolicy::UsedCells(array.region().iter().step_by(used_every).collect())
        };
        let eval = TrialEvaluator::new(&array, &policy);
        check_block(&eval, array.region(), &model, master);
    }

    /// Every square pattern on a region read from a random mask (holes
    /// where it reads 0), translated to negative coordinates.
    #[test]
    fn holed_square_regions_match_the_btree_reference(
        pattern in prop::sample::select(SquarePattern::ALL.to_vec()),
        width in 1i32..=16,
        mask in prop::collection::vec(0u8..4, 0..=200),
        dx in -40i32..=0,
        dy in -40i32..=0,
        model in arb_model(),
        master in 0u64..u64::MAX,
    ) {
        let region: SquareRegion = mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m != 0)
            .map(|(i, _)| SquareCoord::new(dx + i as i32 % width, dy + i as i32 / width))
            .collect();
        let eval = TrialEvaluator::for_scheme(&region, &pattern);
        check_block(&eval, &region, &model, master);
    }

    /// Spare-row arrays of one to three module bands with zero to three
    /// spare rows: clusters spread into the spare rows, whose faults are
    /// drawn but ignored.
    #[test]
    fn spare_rows_match_the_btree_reference(
        width in 1u32..=12,
        bands in prop::collection::vec(1u32..=6, 1..=3),
        spare_rows in 0u32..=3,
        model in arb_model(),
        master in 0u64..u64::MAX,
    ) {
        let bands = bands
            .iter()
            .enumerate()
            .map(|(i, &rows)| ModuleBand { name: format!("M{i}"), rows })
            .collect();
        let array = SpareRowArray::new(width, bands, spare_rows);
        let eval = TrialEvaluator::for_scheme(&array.region(), &array);
        check_block(&eval, &array.region(), &model, master);
    }
}

/// The serve mix's clustered request shape and the case-study chip at
/// the CLI's default cluster parameters, plus the empty region.
#[test]
fn case_study_chips_match_the_btree_reference() {
    let model = ClusteredDefects::new(1.0, 1, 2, 0.8);
    for (kind, primaries) in [(DtmbKind::Dtmb44, 200), (DtmbKind::Dtmb26A, 600)] {
        let array = kind.with_primary_count(primaries);
        let eval = TrialEvaluator::new(&array, &ReconfigPolicy::AllPrimaries);
        check_block(&eval, array.region(), &model, 0xC1_u64 + primaries as u64);
    }
    let empty: Region = std::iter::empty().collect();
    check_sampler(&model, &empty, 3);
}
