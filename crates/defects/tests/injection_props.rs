//! Property-based tests for defect injection.

use dmfb_defects::injection::{Bernoulli, ExactCount, InjectionModel};
use dmfb_defects::{ClusteredDefects, DefectCause, DefectMap};
use dmfb_grid::{HexCoord, Region};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_region() -> impl Strategy<Value = Region> {
    (2u32..10, 2u32..10).prop_map(|(w, h)| Region::parallelogram(w, h))
}

proptest! {
    /// Injected faults always land inside the region, for every model.
    #[test]
    fn faults_stay_in_region(region in arb_region(), seed in 0u64..500, q in 0.0f64..=1.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let maps = [
            Bernoulli::new(q).inject(&region, &mut rng),
            ExactCount::new(region.len() / 3).inject(&region, &mut rng),
            ClusteredDefects::new(1.5, 1, 2, 0.7).inject(&region, &mut rng),
        ];
        for map in maps {
            for c in map.faulty_cells() {
                prop_assert!(region.contains(c));
            }
        }
    }

    /// ExactCount injects exactly m distinct faults for any m <= |region|.
    #[test]
    fn exact_count_is_exact(region in arb_region(), seed in 0u64..500, frac in 0.0f64..=1.0) {
        let m = (region.len() as f64 * frac) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let map = ExactCount::new(m).inject(&region, &mut rng);
        prop_assert_eq!(map.fault_count(), m);
    }

    /// Injection is deterministic in the RNG seed.
    #[test]
    fn injection_deterministic(region in arb_region(), seed in 0u64..500) {
        let a = Bernoulli::new(0.3).inject(&region, &mut StdRng::seed_from_u64(seed));
        let b = Bernoulli::new(0.3).inject(&region, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(a, b);
    }

    /// Short closure: after close_shorts, every electrode short's partner
    /// is also faulty, and closing again is a no-op.
    #[test]
    fn short_closure_idempotent(region in arb_region(), seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut map = Bernoulli::new(0.4).inject(&region, &mut rng);
        map.close_shorts();
        for (c, cause) in map.iter() {
            if let DefectCause::Catastrophic(
                dmfb_defects::CatastrophicDefect::ElectrodeShort(d),
            ) = cause
            {
                prop_assert!(map.is_faulty(c.step(*d)), "unclosed short at {c}");
            }
        }
        let mut again = map.clone();
        prop_assert_eq!(again.close_shorts(), 0);
    }

    /// Map merge is commutative on the fault set (causes may differ).
    #[test]
    fn merge_union_of_cells(
        a_cells in prop::collection::vec((0i32..8, 0i32..8), 0..12),
        b_cells in prop::collection::vec((0i32..8, 0i32..8), 0..12),
    ) {
        let a = DefectMap::from_cells(a_cells.iter().map(|&(q, r)| HexCoord::new(q, r)));
        let b = DefectMap::from_cells(b_cells.iter().map(|&(q, r)| HexCoord::new(q, r)));
        let ab = a.merged(&b);
        let ba = b.merged(&a);
        let cells_ab: Vec<HexCoord> = ab.faulty_cells().collect();
        let cells_ba: Vec<HexCoord> = ba.faulty_cells().collect();
        prop_assert_eq!(cells_ab, cells_ba);
        for c in a.faulty_cells().chain(b.faulty_cells()) {
            prop_assert!(ab.is_faulty(c));
        }
    }
}
