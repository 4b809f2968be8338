//! The dense compilers against the `BTreeSet`/`BTreeMap` builders they
//! replaced, kept verbatim below as the reference: the dense-slot array
//! builder (same regions, same roles in the same order), and the one
//! cell-level compiler behind `TrialEvaluator::new` and every
//! `RedundancyScheme::compile` (hex and square patterns, spare rows),
//! against the old `Vec`-per-list structure and its sort-and-search cell
//! numbering — the same evaluator, field for field.

use dmfb_grid::{CellMap, HexCoord, Region, SquareCoord, SquareRegion, Topology};
use dmfb_reconfig::dtmb::DtmbKind;
use dmfb_reconfig::shifted::{ModuleBand, SpareRowArray};
use dmfb_reconfig::{
    CellRole, DefectTolerantArray, ReconfigPolicy, RedundancyScheme, SchemeStructure,
    SquarePattern, TrialEvaluator,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Debug;

/// `SchemeStructure` as it was: a `Vec` of coordinates per unit and
/// resource, and a `Vec` of resource indices per unit.
struct ReferenceStructure<C> {
    units: Vec<Vec<C>>,
    resources: Vec<Vec<C>>,
    adjacency: Vec<Vec<u32>>,
}

impl<C: Copy + Ord> ReferenceStructure<C> {
    fn new() -> Self {
        ReferenceStructure {
            units: Vec::new(),
            resources: Vec::new(),
            adjacency: Vec::new(),
        }
    }

    fn add_unit<I: IntoIterator<Item = C>>(&mut self, cells: I) -> usize {
        self.units.push(cells.into_iter().collect());
        self.adjacency.push(Vec::new());
        self.units.len() - 1
    }

    fn add_resource<I: IntoIterator<Item = C>>(&mut self, cells: I) -> usize {
        self.resources.push(cells.into_iter().collect());
        self.resources.len() - 1
    }

    fn connect(&mut self, unit: usize, resource: usize) {
        assert!(unit < self.units.len(), "unit index out of range");
        assert!(
            resource < self.resources.len(),
            "resource index out of range"
        );
        self.adjacency[unit].push(resource as u32);
    }
}

/// `RedundancyScheme::compile`'s default as it was: topology neighbour
/// walks and a `BTreeMap` spare index.
fn reference_compile<T: Topology>(
    topo: &T,
    scheme: &impl RedundancyScheme<T>,
) -> ReferenceStructure<T::Coord> {
    let mut s = ReferenceStructure::new();
    let mut resource_index: BTreeMap<T::Coord, usize> = BTreeMap::new();
    for c in topo.cells_iter() {
        if scheme.is_spare_cell(topo, c) {
            continue;
        }
        let unit = s.add_unit([c]);
        for n in topo.neighbors_of(c) {
            if !scheme.is_spare_cell(topo, n) {
                continue;
            }
            let resource = match resource_index.get(&n) {
                Some(&r) => r,
                None => {
                    let r = s.add_resource([n]);
                    resource_index.insert(n, r);
                    r
                }
            };
            s.connect(unit, resource);
        }
    }
    s
}

/// `SpareRowArray::compile` as it was: module rows over coordinates.
fn reference_spare_rows(array: &SpareRowArray) -> ReferenceStructure<SquareCoord> {
    let mut s = ReferenceStructure::new();
    let width = i32::try_from(array.width()).expect("width fits in i32");
    let spares: Vec<usize> = (0..array.spare_rows())
        .map(|_| s.add_resource(std::iter::empty()))
        .collect();
    for row in 0..array.module_rows() {
        let y = i32::try_from(row).expect("row fits in i32");
        let unit = s.add_unit((0..width).map(|x| SquareCoord::new(x, y)));
        for &r in &spares {
            s.connect(unit, r);
        }
    }
    s
}

/// `TrialEvaluator::from_structure`'s numbering as it was: sort and
/// dedup every member cell, then binary-search each member's id.
fn reference_from_structure<C: Copy + Ord>(structure: &ReferenceStructure<C>) -> TrialEvaluator<C> {
    let mut cells: Vec<C> = structure
        .units
        .iter()
        .flatten()
        .copied()
        .chain(structure.resources.iter().flatten().copied())
        .collect();
    cells.sort_unstable();
    cells.dedup();
    let cell_index = |c: &C| -> u32 { cells.binary_search(c).expect("cell was collected") as u32 };
    let mut s = SchemeStructure::new(cells.clone());
    for members in &structure.resources {
        s.add_resource(members.iter().map(cell_index));
    }
    for (members, adjacent) in structure.units.iter().zip(&structure.adjacency) {
        let unit = s.add_unit(members.iter().map(cell_index));
        for &r in adjacent {
            s.connect(unit, r as usize);
        }
    }
    TrialEvaluator::from_structure(s)
}

fn assert_same<C: Debug>(dense: &TrialEvaluator<C>, reference: &TrialEvaluator<C>) {
    assert_eq!(format!("{dense:?}"), format!("{reference:?}"));
}

/// A scheme compiled by `for_scheme` against the reference compiler.
fn assert_same_compile<T: Topology>(topo: &T, scheme: &impl RedundancyScheme<T>) {
    assert_same(
        &TrialEvaluator::for_scheme(topo, scheme),
        &reference_from_structure(&reference_compile(topo, scheme)),
    );
}

/// A spare-row array compiled by `for_scheme` against the reference.
fn assert_same_spare_rows(width: u32, bands: &[u32], spare_rows: u32) {
    let bands = bands
        .iter()
        .enumerate()
        .map(|(i, &rows)| ModuleBand {
            name: format!("Module {i}"),
            rows,
        })
        .collect();
    let array = SpareRowArray::new(width, bands, spare_rows);
    assert_same(
        &TrialEvaluator::for_scheme(&array.region(), &array),
        &reference_from_structure(&reference_spare_rows(&array)),
    );
}

/// The B-tree array: a `Region` and a `CellMap` of roles.
struct ReferenceArray {
    region: Region,
    roles: CellMap<CellRole>,
}

impl ReferenceArray {
    fn is_spare(&self, cell: HexCoord) -> bool {
        matches!(self.roles.get(cell), Some(CellRole::Spare))
    }

    fn is_primary(&self, cell: HexCoord) -> bool {
        matches!(self.roles.get(cell), Some(CellRole::Primary))
    }

    fn primaries(&self) -> impl Iterator<Item = HexCoord> + '_ {
        self.roles.cells_where(|r| *r == CellRole::Primary)
    }

    fn spares(&self) -> impl Iterator<Item = HexCoord> + '_ {
        self.roles.cells_where(|r| *r == CellRole::Spare)
    }

    fn spare_count(&self) -> usize {
        self.spares().count()
    }

    fn adjacent_spares(&self, cell: HexCoord) -> impl Iterator<Item = HexCoord> + '_ {
        self.region.neighbors_in(cell).filter(|n| self.is_spare(*n))
    }

    fn adjacent_primaries(&self, cell: HexCoord) -> impl Iterator<Item = HexCoord> + '_ {
        self.region
            .neighbors_in(cell)
            .filter(|n| self.is_primary(*n))
    }
}

fn instantiate(kind: DtmbKind, region: &Region) -> ReferenceArray {
    let roles = CellMap::from_region_with(region, |c| {
        if kind.is_spare_site(c) {
            CellRole::Spare
        } else {
            CellRole::Primary
        }
    });
    ReferenceArray {
        region: region.clone(),
        roles,
    }
}

fn with_primary_count(kind: DtmbKind, primaries: usize) -> ReferenceArray {
    assert!(primaries > 0, "need at least one primary cell");
    let selected = select_primary_sites(kind, primaries);
    let mut region: Region = selected.iter().copied().collect();
    for &c in &selected {
        for n in c.neighbors() {
            if kind.is_spare_site(n) {
                region.insert(n);
            }
        }
    }
    instantiate(kind, &region)
}

fn with_exact_counts(kind: DtmbKind, primaries: usize, spares: usize) -> ReferenceArray {
    let natural = with_primary_count(kind, primaries);
    let have = natural.spare_count();
    assert!(
        (spares as f64) >= 0.5 * have as f64 && (spares as f64) <= 1.5 * have as f64 + 1.0,
        "{kind} cannot supply {spares} spares for {primaries} primaries \
         (natural count is {have})"
    );
    let mut region = natural.region.clone();
    if have > spares {
        // Trim the spares that protect the fewest primaries first.
        let mut candidates: Vec<(usize, HexCoord)> = natural
            .spares()
            .map(|s| (natural.adjacent_primaries(s).count(), s))
            .collect();
        candidates.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        for (_, s) in candidates.into_iter().take(have - spares) {
            region.remove(s);
        }
    } else if have < spares {
        // Grow pattern-consistent spare sites adjacent to the region.
        let mut needed = spares - have;
        let mut frontier: Vec<HexCoord> = Vec::new();
        for c in natural.region.iter() {
            for n in c.neighbors() {
                if !natural.region.contains(n) && kind.is_spare_site(n) {
                    frontier.push(n);
                }
            }
        }
        frontier.sort();
        frontier.dedup();
        for s in frontier {
            if needed == 0 {
                break;
            }
            if region.insert(s) {
                needed -= 1;
            }
        }
        assert!(needed == 0, "{kind}: could not grow enough spare sites");
    }
    instantiate(kind, &region)
}

fn select_primary_sites(kind: DtmbKind, count: usize) -> Vec<HexCoord> {
    let mut side = 2u32;
    loop {
        let window = Region::parallelogram(side, side);
        let primaries: Vec<HexCoord> = window.iter().filter(|c| !kind.is_spare_site(*c)).collect();
        if primaries.len() >= count {
            return primaries.into_iter().take(count).collect();
        }
        side += 1;
    }
}

/// `TrialEvaluator::new` as it was: the reference structure with a
/// `BTreeMap` spare index over the policy's primaries.
fn reference_evaluator(array: &ReferenceArray, policy: &ReconfigPolicy) -> TrialEvaluator {
    let mut s = ReferenceStructure::new();
    let mut res_index = BTreeMap::new();
    for c in array.primaries().filter(|c| policy.requires(*c)) {
        let unit = s.add_unit([c]);
        for spare in array.adjacent_spares(c) {
            let resource = match res_index.get(&spare) {
                Some(&r) => r,
                None => {
                    let r = s.add_resource([spare]);
                    res_index.insert(spare, r);
                    r
                }
            };
            s.connect(unit, resource);
        }
    }
    reference_from_structure(&s)
}

/// Asserts the dense array has the reference's region and roles, and
/// answers every role and adjacency query alike, in the same order.
fn assert_same_array(array: &DefectTolerantArray, reference: &ReferenceArray) {
    assert_eq!(array.region(), &reference.region);
    assert!(array.primaries().eq(reference.primaries()));
    assert!(array.spares().eq(reference.spares()));
    assert_eq!(array.primary_count(), reference.primaries().count());
    assert_eq!(array.spare_count(), reference.spare_count());
    let (lo, hi) = reference.region.bounds().expect("arrays are non-empty");
    for q in lo.q - 1..=hi.q + 1 {
        for r in lo.r - 1..=hi.r + 1 {
            let c = HexCoord::new(q, r);
            assert_eq!(array.role(c).ok(), reference.roles.get(c).copied(), "{c}");
            assert!(
                array.adjacent_spares(c).eq(reference.adjacent_spares(c)),
                "{c}"
            );
            assert!(
                array
                    .adjacent_primaries(c)
                    .eq(reference.adjacent_primaries(c)),
                "{c}"
            );
        }
    }
}

fn assert_same_evaluator(
    array: &DefectTolerantArray,
    reference: &ReferenceArray,
    policy: &ReconfigPolicy,
) {
    assert_same(
        &TrialEvaluator::new(array, policy),
        &reference_evaluator(reference, policy),
    );
}

fn arb_kind() -> impl Strategy<Value = DtmbKind> {
    prop::sample::select(DtmbKind::ALL.to_vec())
}

fn arb_pattern() -> impl Strategy<Value = SquarePattern> {
    prop::sample::select(SquarePattern::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random primary counts, all-primary and random used-cell policies.
    #[test]
    fn dense_builder_matches_the_btree_builder(
        kind in arb_kind(),
        n in 1usize..=600,
        scoped in 0u8..2,
        scope_picks in prop::collection::vec(0usize..100_000, 0..80),
    ) {
        let array = kind.with_primary_count(n);
        let reference = with_primary_count(kind, n);
        assert_same_array(&array, &reference);
        assert_same_evaluator(&array, &reference, &ReconfigPolicy::AllPrimaries);
        if scoped == 1 {
            let cells: Vec<HexCoord> = reference.region.iter().collect();
            // Off-array cells in the scope must be as harmless as before.
            let policy = ReconfigPolicy::UsedCells(
                scope_picks
                    .iter()
                    .map(|&i| cells.get(i % (cells.len() + 3)).copied().unwrap_or(HexCoord::new(-9, 4)))
                    .collect(),
            );
            assert_same_evaluator(&array, &reference, &policy);
        }
    }

    /// Every square pattern on random rectangles.
    #[test]
    fn square_patterns_match_the_btree_compiler(
        pattern in arb_pattern(),
        width in 1u32..=40,
        height in 1u32..=40,
    ) {
        assert_same_compile(&SquareRegion::rect(width, height), &pattern);
    }

    /// Non-rectangular square regions: a random mask over a `width`-wide
    /// block (holes where it reads 0), translated to negative coordinates.
    #[test]
    fn holed_square_regions_match_the_btree_compiler(
        pattern in arb_pattern(),
        width in 1i32..=24,
        mask in prop::collection::vec(0u8..4, 0..=600),
        dx in -80i32..=0,
        dy in -80i32..=0,
    ) {
        let region: SquareRegion = mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m != 0)
            .map(|(i, _)| SquareCoord::new(dx + i as i32 % width, dy + i as i32 / width))
            .collect();
        assert_same_compile(&region, &pattern);
    }

    /// Spare-row arrays of one to three module bands, with and without
    /// spare rows.
    #[test]
    fn spare_rows_match_the_btree_compiler(
        width in 1u32..=40,
        bands in prop::collection::vec(1u32..=12, 1..=3),
        spare_rows in 0u32..=6,
    ) {
        assert_same_spare_rows(width, &bands, spare_rows);
    }
}

#[test]
fn square_and_spare_row_edge_shapes_match_the_btree_compiler() {
    for pattern in SquarePattern::ALL {
        assert_same_compile(&SquareRegion::default(), &pattern);
        assert_same_compile(&SquareRegion::rect(1, 1), &pattern);
        assert_same_compile(&SquareRegion::rect(37, 23), &pattern);
        assert_same_compile(&SquareRegion::rect(120, 90), &pattern);
    }
    assert_same_spare_rows(8, &[2, 2, 2], 1);
    assert_same_spare_rows(300, &[290], 10);
    assert_same_spare_rows(300, &[290], 0);
    assert_same_spare_rows(1, &[1], 0);
    assert_same_spare_rows(17, &[1], 3);
}

#[test]
fn dense_builder_matches_at_2400_primaries() {
    for kind in DtmbKind::ALL {
        let array = kind.with_primary_count(2400);
        let reference = with_primary_count(kind, 2400);
        assert_same_array(&array, &reference);
        assert_same_evaluator(&array, &reference, &ReconfigPolicy::AllPrimaries);
    }
}

#[test]
fn exact_counts_match_the_btree_builder() {
    for kind in DtmbKind::ALL {
        let natural = with_primary_count(kind, 252).spare_count();
        // Trim and keep; only DTMB(4,4)'s adjacent spare rows leave
        // pattern sites to grow into.
        let grow = if kind == DtmbKind::Dtmb44 {
            natural + 5
        } else {
            natural
        };
        for spares in [natural * 3 / 4, natural, grow] {
            let array = kind.with_exact_counts(252, spares);
            let reference = with_exact_counts(kind, 252, spares);
            assert_same_array(&array, &reference);
            assert_same_evaluator(&array, &reference, &ReconfigPolicy::AllPrimaries);
        }
    }
    let array = DtmbKind::Dtmb26A.with_exact_counts(252, 91);
    assert_same_array(&array, &with_exact_counts(DtmbKind::Dtmb26A, 252, 91));
}

#[test]
fn instantiate_matches_on_translated_and_negative_regions() {
    for kind in DtmbKind::ALL {
        for region in [
            Region::hexagon(HexCoord::ORIGIN, 6),
            Region::rectangle(9, 7),
            Region::parallelogram(8, 5).translated(HexCoord::new(-13, 4)),
        ] {
            let array = kind.instantiate(&region);
            let reference = instantiate(kind, &region);
            assert_same_array(&array, &reference);
            assert_same_evaluator(&array, &reference, &ReconfigPolicy::AllPrimaries);
            // The scheme's own compile: the same compiler without a policy.
            assert_same_compile(&region, &kind);
        }
    }
}
