//! Property tests for the tiered bit-parallel trial engine: on random
//! structures, survival probabilities and seed sets, every block method
//! must be **byte-identical** to its scalar counterpart — not just equal
//! in aggregate, but verdict-for-verdict per seed — and invariant under
//! how the seed slice is chunked into word groups. This is the contract
//! that lets the block engine be the only production trial engine, with
//! the scalar evaluator kept as its oracle, checked adversarially.

use dmfb_grid::SquareRegion;
use dmfb_reconfig::dtmb::DtmbKind;
use dmfb_reconfig::shifted::{ModuleBand, SpareRowArray};
use dmfb_reconfig::{ReconfigPolicy, SchemeStructure, SquarePattern, TrialEvaluator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn seeds(base: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| base.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i))
        .collect()
}

/// Runs the byte-identity check for one concrete evaluator: per-seed
/// scalar verdicts equal per-seed block verdicts (width-1 calls), the
/// whole-slice block count equals the scalar sum, and chunking the slice
/// any way leaves the total unchanged.
fn check_survival<C: Copy + Ord>(eval: &TrialEvaluator<C>, p: f64, s: &[u64], chunk: usize) {
    let mut block = eval.block_scratch();
    let mut scratch = eval.scratch();
    let mut scalar_total = 0u32;
    for &seed in s {
        let mut rng = StdRng::seed_from_u64(seed);
        let scalar = eval.survival_trial(p, &mut rng, &mut scratch);
        let lane = eval.survival_block(p, &[seed], &mut block);
        prop_assert_eq!(lane, u32::from(scalar), "verdict differs for seed {seed}");
        scalar_total += u32::from(scalar);
    }
    prop_assert_eq!(eval.survival_block(p, s, &mut block), scalar_total);
    let split: u32 = s
        .chunks(chunk.max(1))
        .map(|c| eval.survival_block(p, c, &mut block))
        .sum();
    prop_assert_eq!(split, scalar_total, "chunk width {chunk} changed the total");
    let stats = block.stats();
    prop_assert_eq!(stats.classified + stats.matched, stats.lanes);
    prop_assert_eq!(
        stats.classified,
        stats.no_fault + stats.hall + stats.dead_spare + stats.private_spare
    );
}

/// A random structure built to hit every corner the block tiers reason
/// about: multi-cell units, resources shared by many units or bordering
/// just one, memberless (indestructible) resources, units with no
/// candidate at all, repeated edges and — when `shared_cells` — member
/// cells shared between units and resources.
fn random_structure(seed: u64) -> SchemeStructure<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let units = rng.gen_range(1..=24usize);
    let resources = rng.gen_range(1..=16usize);
    let shared_cells = rng.gen_range(0..3u32) == 0;
    let mut fresh = 0u32;
    let mut cells = |rng: &mut StdRng, count: usize| -> Vec<u32> {
        (0..count)
            .map(|_| {
                if shared_cells && fresh > 0 && rng.gen_range(0..4u32) == 0 {
                    rng.gen_range(0..fresh)
                } else {
                    fresh += 1;
                    fresh - 1
                }
            })
            .collect()
    };
    let resource_members: Vec<Vec<u32>> = (0..resources)
        .map(|_| {
            let size = if rng.gen_range(0..5u32) == 0 {
                0
            } else {
                rng.gen_range(1..=2usize)
            };
            cells(&mut rng, size)
        })
        .collect();
    let unit_members: Vec<(Vec<u32>, Vec<usize>)> = (0..units)
        .map(|_| {
            let size = rng.gen_range(1..=3usize);
            let members = cells(&mut rng, size);
            let edges = (0..rng.gen_range(0..=4usize))
                .map(|_| rng.gen_range(0..resources))
                .collect();
            (members, edges)
        })
        .collect();
    let mut s = SchemeStructure::new((0..fresh).collect());
    for members in resource_members {
        s.add_resource(members);
    }
    for (members, edges) in unit_members {
        let unit = s.add_unit(members);
        for r in edges {
            s.connect(unit, r);
        }
    }
    s
}

/// Grid and exact-fault block trials against their scalar counterparts,
/// seed by seed.
fn check_grid_and_exact<C: Copy + Ord>(eval: &TrialEvaluator<C>, ps: &[f64], s: &[u64]) {
    let mut block = eval.block_scratch();
    let mut scratch = eval.scratch();
    let mut out = vec![false; ps.len()];
    let faults = s[0] as usize % (eval.cell_count() + 1);
    for &seed in s {
        let mut counts = vec![0u64; ps.len()];
        eval.survival_grid_block(ps, &[seed], &mut block, &mut counts);
        let mut rng = StdRng::seed_from_u64(seed);
        eval.survival_trial_grid(ps, &mut rng, &mut scratch, &mut out);
        let expected: Vec<u64> = out.iter().map(|&o| u64::from(o)).collect();
        prop_assert_eq!(counts, expected, "grid verdicts differ for seed {seed}");
        let mut rng = StdRng::seed_from_u64(seed);
        let scalar = eval.exact_fault_trial(faults, &mut rng, &mut scratch);
        prop_assert_eq!(
            eval.exact_fault_block(faults, &[seed], &mut block),
            u32::from(scalar),
            "{faults}-fault verdict differs for seed {seed}"
        );
    }
}

/// A random ascending survival grid of 1–40 points: draws biased toward
/// the high-survival end where lanes turn tolerable, with the `0.0` and
/// `1.0` endpoints and repeated points mixed in.
fn random_grid(seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.gen_range(1..=40usize);
    let mut ps: Vec<f64> = Vec::with_capacity(len);
    while ps.len() < len {
        let p = match rng.gen_range(0..8u32) {
            0 => 0.0,
            1 => 1.0,
            2 if !ps.is_empty() => ps[rng.gen_range(0..ps.len())],
            3 => rng.gen_range(0.0..=1.0),
            _ => rng.gen_range(0.85..=1.0),
        };
        ps.push(p);
    }
    ps.sort_by(f64::total_cmp);
    ps
}

/// Grid-mode block trials against the scalar grid at widths on both
/// sides of one 64-lane word: each seed's one-lane call equals its scalar
/// verdicts, and a call over the first 1, 63, 64, 65 or 200 seeds equals
/// their per-point sum.
fn check_grid_widths<C: Copy + Ord>(eval: &TrialEvaluator<C>, ps: &[f64], base: u64) {
    let mut block = eval.block_scratch();
    let mut scratch = eval.scratch();
    let mut out = vec![false; ps.len()];
    let s = seeds(base, 200);
    let mut prefix = vec![vec![0u64; ps.len()]];
    for &seed in &s {
        let mut rng = StdRng::seed_from_u64(seed);
        eval.survival_trial_grid(ps, &mut rng, &mut scratch, &mut out);
        let verdicts: Vec<u64> = out.iter().map(|&o| u64::from(o)).collect();
        let mut lane = vec![0u64; ps.len()];
        eval.survival_grid_block(ps, &[seed], &mut block, &mut lane);
        prop_assert_eq!(&lane, &verdicts, "grid {:?} seed {}", ps, seed);
        let sum = prefix[prefix.len() - 1].iter().zip(&verdicts);
        prefix.push(sum.map(|(a, b)| a + b).collect());
    }
    for &width in &[1usize, 63, 64, 65, 200] {
        let mut counts = vec![0u64; ps.len()];
        eval.survival_grid_block(ps, &s[..width], &mut block, &mut counts);
        prop_assert_eq!(&counts, &prefix[width], "grid {:?} width {}", ps, width);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Block survival trials are byte-identical to scalar trials on any
    /// structure — hex DTMB, square interstitial or spare rows, chosen
    /// by `kind` — at any survival probability, seed set and chunking.
    #[test]
    fn survival_block_is_byte_identical(
        kind in 0usize..7,
        p in 0.0f64..=1.0,
        dim_a in 3u32..12,
        dim_b in 1u32..8,
        base in 0u64..u64::MAX,
        n in 1usize..100,
        chunk in 1usize..130,
    ) {
        let s = seeds(base, n);
        if kind < 5 {
            let hex = [
                DtmbKind::Dtmb16,
                DtmbKind::Dtmb26A,
                DtmbKind::Dtmb26B,
                DtmbKind::Dtmb36,
                DtmbKind::Dtmb44,
            ][kind];
            let primaries = 8 + (dim_a as usize) * (dim_b as usize);
            let array = hex.with_primary_count(primaries);
            let eval = TrialEvaluator::new(&array, &ReconfigPolicy::AllPrimaries);
            check_survival(&eval, p, &s, chunk);
        } else if kind == 5 {
            let pattern = SquarePattern::ALL[(dim_a as usize) % SquarePattern::ALL.len()];
            let region = SquareRegion::rect(dim_a, 3 + dim_b);
            let eval = TrialEvaluator::for_scheme(&region, &pattern);
            check_survival(&eval, p, &s, chunk);
        } else {
            let array = SpareRowArray::new(
                dim_a,
                vec![ModuleBand { name: "M".into(), rows: dim_b }],
                dim_b / 2,
            );
            let eval = TrialEvaluator::for_scheme(&array.region(), &array);
            check_survival(&eval, p, &s, chunk);
        }
    }

    /// Grid-mode block trials reproduce the scalar grid per point, and
    /// stay monotone along the ascending grid (the common-random-numbers
    /// invariant the per-lane bisection relies on).
    #[test]
    fn grid_block_is_byte_identical(
        primaries in 8usize..70,
        base in 0u64..u64::MAX,
        n in 1usize..90,
    ) {
        let array = DtmbKind::Dtmb26A.with_primary_count(primaries);
        let eval = TrialEvaluator::new(&array, &ReconfigPolicy::AllPrimaries);
        let ps = [0.0, 0.55, 0.85, 0.95, 0.99, 1.0];
        let s = seeds(base, n);
        let mut block = eval.block_scratch();
        let mut counts = vec![0u64; ps.len()];
        eval.survival_grid_block(&ps, &s, &mut block, &mut counts);
        let mut scratch = eval.scratch();
        let mut expected = vec![0u64; ps.len()];
        let mut out = [false; 6];
        for &seed in &s {
            let mut rng = StdRng::seed_from_u64(seed);
            eval.survival_trial_grid(&ps, &mut rng, &mut scratch, &mut out);
            prop_assert!(out.windows(2).all(|w| w[1] || !w[0]), "non-monotone: {out:?}");
            for (e, &o) in expected.iter_mut().zip(&out) {
                *e += u64::from(o);
            }
        }
        prop_assert_eq!(counts, expected);
    }

    /// Exact-fault-count block trials replay the scalar partial
    /// Fisher–Yates stream lane for lane.
    #[test]
    fn exact_fault_block_is_byte_identical(
        primaries in 8usize..60,
        fault_frac in 0.0f64..=1.0,
        base in 0u64..u64::MAX,
        n in 1usize..90,
    ) {
        let array = DtmbKind::Dtmb44.with_primary_count(primaries);
        let eval = TrialEvaluator::new(&array, &ReconfigPolicy::AllPrimaries);
        let faults = ((eval.cell_count() as f64) * fault_frac) as usize;
        let s = seeds(base, n);
        let mut block = eval.block_scratch();
        let mut scratch = eval.scratch();
        let mut expected = 0u32;
        for &seed in &s {
            let mut rng = StdRng::seed_from_u64(seed);
            expected += u32::from(eval.exact_fault_trial(faults, &mut rng, &mut scratch));
        }
        prop_assert_eq!(eval.exact_fault_block(faults, &s, &mut block), expected);
        // Per-lane agreement, not just in aggregate.
        for &seed in s.iter().take(8) {
            let mut rng = StdRng::seed_from_u64(seed);
            let scalar = eval.exact_fault_trial(faults, &mut rng, &mut scratch);
            prop_assert_eq!(
                eval.exact_fault_block(faults, &[seed], &mut block),
                u32::from(scalar)
            );
        }
    }

    /// Adversarial structures: every block method agrees with the scalar
    /// trial verdict for verdict, at low survival (where most lanes fail
    /// and the matcher's early exit decides) and across all of `[0, 1]`.
    #[test]
    fn adversarial_structures_are_byte_identical(
        structure_seed in 0u64..u64::MAX,
        p_low in 0.0f64..=0.6,
        p_any in 0.0f64..=1.0,
        base in 0u64..u64::MAX,
        n in 1usize..100,
        chunk in 1usize..130,
    ) {
        let eval = TrialEvaluator::from_structure(random_structure(structure_seed));
        let s = seeds(base, n);
        check_survival(&eval, p_low, &s, chunk);
        check_survival(&eval, p_any, &s, chunk);
        let mut ps = [p_low, p_any, 0.9, 0.97];
        ps.sort_by(f64::total_cmp);
        check_grid_and_exact(&eval, &ps, &s[..n.min(24)]);
    }

    /// A shared scratch carries no state between calls: interleaving
    /// unrelated block work does not perturb later verdicts.
    #[test]
    fn block_scratch_reuse_is_stateless(
        primaries in 8usize..60,
        p in 0.5f64..=1.0,
        base in 0u64..u64::MAX,
    ) {
        let array = DtmbKind::Dtmb26B.with_primary_count(primaries);
        let eval = TrialEvaluator::new(&array, &ReconfigPolicy::AllPrimaries);
        let mut block = eval.block_scratch();
        let s = seeds(base, 70);
        let first = eval.survival_block(p, &s, &mut block);
        let _ = eval.exact_fault_block(1.min(eval.cell_count()), &seeds(!base, 40), &mut block);
        let mut counts = [0u64; 2];
        eval.survival_grid_block(&[0.5, 0.9], &seeds(base ^ 0xA5, 30), &mut block, &mut counts);
        prop_assert_eq!(eval.survival_block(p, &s, &mut block), first);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Grid-mode block trials on random ascending grids (repeated points
    /// and both endpoints included) reproduce the scalar grid seed by
    /// seed, on hex, square, spare-row and adversarial structures chosen
    /// by `kind`, at every width around one word.
    #[test]
    fn random_grids_match_scalar_seed_by_seed(
        kind in 0usize..4,
        grid_seed in 0u64..u64::MAX,
        dim_a in 3u32..10,
        dim_b in 1u32..6,
        base in 0u64..u64::MAX,
    ) {
        let ps = random_grid(grid_seed);
        match kind {
            0 => {
                let hex = [
                    DtmbKind::Dtmb16,
                    DtmbKind::Dtmb26A,
                    DtmbKind::Dtmb26B,
                    DtmbKind::Dtmb36,
                    DtmbKind::Dtmb44,
                ][(grid_seed % 5) as usize];
                let array = hex.with_primary_count(8 + (dim_a * dim_b) as usize);
                let eval = TrialEvaluator::new(&array, &ReconfigPolicy::AllPrimaries);
                check_grid_widths(&eval, &ps, base);
            }
            1 => {
                let pattern = SquarePattern::ALL[(dim_a as usize) % SquarePattern::ALL.len()];
                let region = SquareRegion::rect(dim_a, 3 + dim_b);
                let eval = TrialEvaluator::for_scheme(&region, &pattern);
                check_grid_widths(&eval, &ps, base);
            }
            2 => {
                let array = SpareRowArray::new(
                    dim_a,
                    vec![ModuleBand { name: "M".into(), rows: dim_b }],
                    dim_b % 4,
                );
                let eval = TrialEvaluator::for_scheme(&array.region(), &array);
                check_grid_widths(&eval, &ps, base);
            }
            _ => {
                let eval = TrialEvaluator::from_structure(random_structure(base));
                check_grid_widths(&eval, &ps, base);
            }
        }
    }
}

/// Grid-mode edge cases against the scalar grid, at widths on both sides
/// of one 64-lane word: one-point grids at both ends of `[0, 1]`, a
/// repeated point, the two extremes together, the fine rare-event grid
/// and a 1 001-point grid over all of `[0, 1]` (ten bisection rounds). A
/// one-point grid must be exactly `survival_block`, tier counters
/// included.
fn check_edge_grids<C: Copy + Ord>(name: &str, eval: &TrialEvaluator<C>) {
    let rare: Vec<f64> = (0..11).map(|i| 0.99 + 0.001 * f64::from(i)).collect();
    let fine: Vec<f64> = (0..=1000).map(|i| f64::from(i) / 1000.0).collect();
    let grids: [&[f64]; 6] = [&[0.0], &[1.0], &[0.9, 0.9], &[0.0, 1.0], &rare, &fine];
    for &width in &[1usize, 63, 64, 65, 200] {
        let s = seeds(0x6E1D + width as u64, width);
        for ps in grids {
            let case = format!("{name} width={width} grid={ps:?}");
            let mut block = eval.block_scratch();
            let mut counts = vec![0u64; ps.len()];
            eval.survival_grid_block(ps, &s, &mut block, &mut counts);
            let mut scratch = eval.scratch();
            let mut expected = vec![0u64; ps.len()];
            let mut out = vec![false; ps.len()];
            for &seed in &s {
                let mut rng = StdRng::seed_from_u64(seed);
                eval.survival_trial_grid(ps, &mut rng, &mut scratch, &mut out);
                for (e, &o) in expected.iter_mut().zip(&out) {
                    *e += u64::from(o);
                }
            }
            assert_eq!(counts, expected, "{case}");
            if let [p] = ps {
                let mut single = eval.block_scratch();
                let tolerable = eval.survival_block(*p, &s, &mut single);
                assert_eq!(counts, [u64::from(tolerable)], "{case}");
                assert_eq!(block.stats(), single.stats(), "{case}");
            }
        }
    }
}

#[test]
fn grid_block_edge_grids_match_scalar_and_survival_block() {
    let hex = DtmbKind::Dtmb26A.with_primary_count(60);
    check_edge_grids(
        "hex",
        &TrialEvaluator::new(&hex, &ReconfigPolicy::AllPrimaries),
    );
    let square = SquareRegion::rect(9, 7);
    check_edge_grids(
        "square",
        &TrialEvaluator::for_scheme(&square, &SquarePattern::ALL[1]),
    );
}
