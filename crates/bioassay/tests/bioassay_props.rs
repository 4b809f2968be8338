//! Property-based tests for routing, scheduling and kinetics.

use dmfb_bioassay::feasibility::{FeasibilityChecker, Infeasibility, TimingBudget};
use dmfb_bioassay::kinetics::{absorbance_545nm, TrinderKinetics};
use dmfb_bioassay::layout::ivd_dtmb26_chip;
use dmfb_bioassay::router::Router;
use dmfb_bioassay::schedule::ExecError;
use dmfb_bioassay::{Analyte, ChipDescription, MultiplexedIvd};
use dmfb_defects::{CatastrophicDefect, DefectCause, DefectMap, ParametricDefect};
use dmfb_grid::{HexCoord, Region};
use dmfb_reconfig::{attempt_reconfiguration, ReconfigPlan, ReconfigPolicy};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::OnceLock;

fn arb_region() -> impl Strategy<Value = Region> {
    (3u32..9, 3u32..9).prop_map(|(w, h)| Region::parallelogram(w, h))
}

/// The breadth-first router over `BTreeMap`/`BTreeSet` that `Router`
/// replaced with a dense grid, kept verbatim as the reference the shipped
/// router must agree with path for path.
struct ReferenceRouter {
    region: Region,
    blocked: BTreeSet<HexCoord>,
}

impl ReferenceRouter {
    fn new(region: &Region, defects: &DefectMap) -> Self {
        let blocked = defects
            .iter()
            .filter(|(_, cause)| matches!(cause, DefectCause::Catastrophic(_)))
            .map(|(c, _)| c)
            .collect();
        ReferenceRouter {
            region: region.clone(),
            blocked,
        }
    }

    fn is_routable(&self, cell: HexCoord) -> bool {
        self.region.contains(cell) && !self.blocked.contains(&cell)
    }

    fn route(
        &self,
        from: HexCoord,
        to: HexCoord,
        other_droplets: &[HexCoord],
    ) -> Option<Vec<HexCoord>> {
        if !self.is_routable(from) || !self.is_routable(to) {
            return None;
        }
        let forbidden: BTreeSet<HexCoord> = other_droplets
            .iter()
            .flat_map(|&d| std::iter::once(d).chain(d.neighbors()))
            .filter(|c| *c != to && *c != from)
            .collect();
        if from == to {
            return Some(vec![from]);
        }
        let mut prev: BTreeMap<HexCoord, HexCoord> = BTreeMap::new();
        let mut queue = VecDeque::new();
        prev.insert(from, from);
        queue.push_back(from);
        while let Some(c) = queue.pop_front() {
            for n in c.neighbors() {
                if !self.is_routable(n) || forbidden.contains(&n) || prev.contains_key(&n) {
                    continue;
                }
                prev.insert(n, c);
                if n == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while cur != from {
                        cur = prev[&cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(n);
            }
        }
        None
    }
}

/// A fault cause by kind: two catastrophic causes (which block droplets)
/// and two parametric ones (which do not).
fn cause(kind: u8) -> DefectCause {
    match kind % 4 {
        0 => DefectCause::Catastrophic(CatastrophicDefect::DielectricBreakdown),
        1 => DefectCause::Catastrophic(CatastrophicDefect::OpenConnection),
        2 => DefectCause::Parametric(ParametricDefect::PlateGap, 0.4),
        _ => DefectCause::Parametric(ParametricDefect::InsulatorThickness, 0.2),
    }
}

/// A parallelogram (`shape` even) or hexagon region.
fn shaped_region(shape: u8, (w, h): (u32, u32), (q, r, radius): (i32, i32, u32)) -> Region {
    if shape.is_multiple_of(2) {
        Region::parallelogram(w, h)
    } else {
        Region::hexagon(HexCoord::new(q, r), radius)
    }
}

/// Cell `pick` of `cells`, or the raw coordinate (usually off the region)
/// when `raw_flag` is zero.
fn pick_cell(cells: &[HexCoord], pick: usize, raw_flag: u8, raw: (i32, i32)) -> HexCoord {
    if raw_flag == 0 || cells.is_empty() {
        HexCoord::new(raw.0, raw.1)
    } else {
        cells[pick % cells.len()]
    }
}

/// The IVD chip every feasibility property checks, built once.
fn ivd_chip() -> &'static ChipDescription {
    static CHIP: OnceLock<ChipDescription> = OnceLock::new();
    CHIP.get_or_init(ivd_dtmb26_chip)
}

/// The first transport, in request order, that `reference` cannot route
/// once every resource is remapped through `plan`.
fn first_unroutable(
    chip: &ChipDescription,
    batch: &MultiplexedIvd,
    plan: Option<&ReconfigPlan>,
    reference: &ReferenceRouter,
) -> Option<(HexCoord, HexCoord)> {
    let remap = |c: HexCoord| plan.map_or(c, |p| p.remap(c));
    batch.requests.iter().find_map(|req| {
        let sample = remap(chip.dispenser(&req.sample_port).unwrap().cell);
        let reagent = remap(chip.dispenser(&req.reagent_port).unwrap().cell);
        let rendezvous = remap(chip.mixer(&req.mixer).unwrap().rendezvous());
        let detector = remap(chip.detectors[req.detector].cell);
        [
            (sample, rendezvous),
            (reagent, rendezvous),
            (rendezvous, detector),
        ]
        .into_iter()
        .find(|&(from, to)| reference.route(from, to, &[]).is_none())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dense-grid router returns exactly the reference's path (or its
    /// `None`) on parallelogram and hexagon regions with catastrophic and
    /// parametric faults, parked droplets, coinciding endpoints and
    /// blocked or off-region endpoints.
    #[test]
    fn route_matches_reference(
        (shape, dims, hex) in (0u8..2, (1u32..9, 1u32..9), (-2i32..4, -2i32..4, 0u32..5)),
        faults in prop::collection::vec((0usize..1000, 0u8..4), 0..14),
        parked in prop::collection::vec((0usize..1000, 0u8..6, (-3i32..11, -3i32..11)), 0..3),
        (from_pick, from_flag, from_raw) in (0usize..1000, 0u8..6, (-3i32..11, -3i32..11)),
        (to_pick, to_flag, to_raw) in (0usize..1000, 0u8..6, (-3i32..11, -3i32..11)),
        same in 0u8..5,
    ) {
        let region = shaped_region(shape, dims, hex);
        let cells: Vec<HexCoord> = region.iter().collect();
        let mut defects = DefectMap::new();
        for &(pick, kind) in &faults {
            if !cells.is_empty() {
                defects.mark(cells[pick % cells.len()], cause(kind));
            }
        }
        let parked: Vec<HexCoord> = parked
            .iter()
            .map(|&(pick, flag, raw)| pick_cell(&cells, pick, flag, raw))
            .collect();
        let from = pick_cell(&cells, from_pick, from_flag, from_raw);
        let to = if same == 0 { from } else { pick_cell(&cells, to_pick, to_flag, to_raw) };

        let router = Router::new(&region, &defects);
        let reference = ReferenceRouter::new(&region, &defects);
        prop_assert_eq!(router.route(from, to, &parked), reference.route(from, to, &parked));
        prop_assert_eq!(router.route(from, to, &[]), reference.route(from, to, &[]));
    }
}

proptest! {
    /// On random IVD fault states, with and without a reconfiguration
    /// plan and on both panels, the feasibility verdict agrees with the
    /// reference router: every scheduled operation's move count is the sum
    /// of the reference route lengths between its recorded cells, and an
    /// unroutable verdict names the first transport, in request order, the
    /// reference cannot route.
    #[test]
    fn feasibility_matches_reference_routes(
        (full_panel, plan_mode) in (0u8..2, 0u8..3),
        faults in prop::collection::vec((0usize..10_000, 0u8..4), 0..8),
        resource_fault in 0usize..24,
        walls in prop::collection::vec((0u8..3, 0usize..10_000), 0..5),
    ) {
        let chip = ivd_chip();
        let batch = if full_panel == 0 {
            MultiplexedIvd::standard_panel()
        } else {
            MultiplexedIvd::full_metabolic_panel()
        };
        let cells: Vec<HexCoord> = chip.array.region().iter().collect();
        let resources: Vec<HexCoord> = chip
            .dispensers
            .iter()
            .map(|d| d.cell)
            .chain(chip.mixers.iter().map(|m| m.rendezvous()))
            .chain(chip.detectors.iter().map(|d| d.cell))
            .collect();
        let mut defects = DefectMap::new();
        for &(pick, kind) in &faults {
            defects.mark(cells[pick % cells.len()], cause(kind));
        }
        if let Some(&cell) = resources.get(resource_fault) {
            defects.mark(cell, cause(0));
        }
        let reconfigure = |defects: &DefectMap| {
            attempt_reconfiguration(
                &chip.array,
                defects,
                &ReconfigPolicy::UsedCells(chip.assay_cells.iter().collect()),
            )
            .ok()
        };
        // Plan mode 2 keeps the plan found before the wall below went up,
        // so that a remapped resource can end up sealed in.
        let early_plan = if plan_mode == 2 { reconfigure(&defects) } else { None };
        let remap = |c: HexCoord| early_plan.as_ref().map_or(c, |p| p.remap(c));
        // Seal cells in behind catastrophic faults: a random cell (mode 0),
        // or more often a (remapped) resource cell, so that transports are
        // severed, several per request at times.
        let walled: Vec<HexCoord> = walls
            .iter()
            .map(|&(mode, pick)| {
                if mode == 0 {
                    cells[pick % cells.len()]
                } else {
                    remap(resources[pick % resources.len()])
                }
            })
            .collect();
        for n in walled.into_iter().flat_map(HexCoord::neighbors) {
            if chip.array.region().contains(n) {
                defects.mark(n, cause(0));
            }
        }
        let plan = match plan_mode {
            1 => reconfigure(&defects),
            2 => early_plan,
            _ => None,
        };

        let checker = FeasibilityChecker::new(chip.clone(), batch.clone(), TimingBudget { max_makespan_s: f64::INFINITY });
        let reference = ReferenceRouter::new(chip.array.region(), &defects);
        let moves = |from, to| reference.route(from, to, &[]).map(|p| p.len() - 1);
        match checker.check(&defects, plan.as_ref()) {
            Ok(schedule) => {
                prop_assert_eq!(schedule.ops.len(), batch.requests.len());
                for op in &schedule.ops {
                    let expected = moves(op.sample_cell, op.rendezvous).unwrap()
                        + moves(op.reagent_cell, op.rendezvous).unwrap()
                        + moves(op.rendezvous, op.detector_cell).unwrap();
                    prop_assert_eq!(op.transport_moves, expected);
                }
            }
            Err(Infeasibility::Exec(ExecError::Unroutable { from, to })) => {
                prop_assert_eq!(
                    first_unroutable(chip, &batch, plan.as_ref(), &reference),
                    Some((from, to))
                );
            }
            Err(_) => {}
        }
    }

    /// Routes, when they exist, are valid droplet paths: in-region,
    /// fault-free, adjacent steps, correct endpoints — and optimal on a
    /// fault-free chip.
    #[test]
    fn routes_are_valid(
        region in arb_region(),
        faults in prop::collection::vec((0i32..9, 0i32..9), 0..8),
    ) {
        let defects = DefectMap::from_cells(
            faults.iter().map(|&(q, r)| HexCoord::new(q, r)).filter(|c| region.contains(*c)),
        );
        let router = Router::new(&region, &defects);
        let cells: Vec<HexCoord> = region.iter().collect();
        let from = cells[0];
        let to = cells[cells.len() - 1];
        if let Some(path) = router.route(from, to, &[]) {
            prop_assert_eq!(*path.first().unwrap(), from);
            prop_assert_eq!(*path.last().unwrap(), to);
            for w in path.windows(2) {
                prop_assert!(w[0].is_adjacent(w[1]));
            }
            for c in &path {
                prop_assert!(region.contains(*c));
                prop_assert!(!defects.is_faulty(*c));
            }
            if defects.is_fault_free() {
                prop_assert_eq!(path.len() as u32, from.distance(to) + 1, "BFS must be shortest");
            }
        }
    }

    /// Routes around parked droplets keep fluidic spacing.
    #[test]
    fn routes_keep_spacing(region in arb_region(), park_q in 0i32..9, park_r in 0i32..9) {
        let parked = HexCoord::new(park_q, park_r);
        prop_assume!(region.contains(parked));
        let router = Router::new(&region, &DefectMap::new());
        let cells: Vec<HexCoord> = region.iter().collect();
        let from = cells[0];
        let to = cells[cells.len() - 1];
        prop_assume!(from != parked && to != parked);
        if let Some(path) = router.route(from, to, &[parked]) {
            for c in &path {
                prop_assert!(*c != parked && !c.is_adjacent(parked), "cell {c} violates spacing");
            }
        }
    }

    /// Kinetics: the coloured product is non-negative, bounded by the
    /// consumed analyte, and monotone in the initial concentration.
    #[test]
    fn kinetics_sane(conc in 0.0f64..20.0, duration in 1.0f64..120.0) {
        for analyte in Analyte::ALL {
            let k = analyte.kinetics();
            let s = k.integrate(conc, duration, 0.05);
            prop_assert!(s.quinoneimine_mm >= 0.0);
            prop_assert!(s.analyte_mm >= 0.0);
            let consumed = conc - s.analyte_mm;
            prop_assert!(s.quinoneimine_mm + s.peroxide_mm <= consumed + 1e-6);
            // Monotonicity in concentration.
            let more = k.integrate(conc + 1.0, duration, 0.05);
            prop_assert!(more.quinoneimine_mm >= s.quinoneimine_mm - 1e-9);
        }
    }

    /// Absorbance is linear and non-negative.
    #[test]
    fn absorbance_linear(c in 0.0f64..10.0, scale in 1.0f64..5.0) {
        let a1 = absorbance_545nm(c, 0.03, 26.0);
        let a2 = absorbance_545nm(c * scale, 0.03, 26.0);
        prop_assert!(a1 >= 0.0);
        prop_assert!((a2 - a1 * scale).abs() < 1e-9);
    }

    /// Longer reaction windows never bleach the product (monotone in time).
    #[test]
    fn product_monotone_in_time(conc in 0.5f64..10.0) {
        let k = TrinderKinetics::new(0.08, 6.0, 0.3, 1.0);
        let short = k.integrate(conc, 10.0, 0.05).quinoneimine_mm;
        let long = k.integrate(conc, 60.0, 0.05).quinoneimine_mm;
        prop_assert!(long >= short - 1e-9);
    }
}
