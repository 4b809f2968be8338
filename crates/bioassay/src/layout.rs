//! Concrete chip layouts for the multiplexed in-vitro diagnostics case
//! study (paper Section 7, Figures 11 and 12).

use crate::chip::{ChipDescription, Detector, Dispenser, Mixer};
use crate::droplet::Mixture;
use dmfb_grid::{HexCoord, Region};
use dmfb_reconfig::dtmb::DtmbKind;
use dmfb_reconfig::{DefectTolerantArray, ReconfigPolicy};

/// Number of cells used by the bioassays on the fabricated chip.
pub const ASSAY_CELLS: usize = 108;
/// Primary cells of the DTMB(2,6) redesign (Figure 12(a)).
pub const DTMB26_PRIMARIES: usize = 252;
/// Spare cells of the DTMB(2,6) redesign (Figure 12(a)).
pub const DTMB26_SPARES: usize = 91;

fn standard_ports(cells: [HexCoord; 4]) -> Vec<Dispenser> {
    let [s1, s2, r1, r2] = cells;
    vec![
        Dispenser {
            label: "SAMPLE1".into(),
            cell: s1,
            contents: Mixture::new(),
            droplet_volume_nl: 50.0,
        },
        Dispenser {
            label: "SAMPLE2".into(),
            cell: s2,
            contents: Mixture::new(),
            droplet_volume_nl: 50.0,
        },
        Dispenser {
            label: "REAGENT1".into(),
            cell: r1,
            contents: Mixture::single("glucose_oxidase", 2.0),
            droplet_volume_nl: 50.0,
        },
        Dispenser {
            label: "REAGENT2".into(),
            cell: r2,
            contents: Mixture::single("lactate_oxidase", 2.0),
            droplet_volume_nl: 50.0,
        },
    ]
}

/// The first fabricated multiplexed-diagnostics biochip: 108 cells, *no*
/// spares ("only cells used for the bioassays were fabricated; no spare
/// cells were included in the array"). Its yield at p = 0.99 is only
/// `0.99¹⁰⁸ ≈ 0.3378`.
///
/// The physical chip uses square electrodes; we lay the same 108-cell
/// topology out on the hexagonal lattice (a 12 × 9 offset rectangle) so the
/// rest of the toolchain applies uniformly. Adjacency is a superset of the
/// square chip's, which only makes routing easier, never changes the yield
/// analysis (yield depends on cell count alone for a chip without spares).
#[must_use]
pub fn fabricated_ivd_chip() -> ChipDescription {
    let region = Region::rectangle(12, 9);
    debug_assert_eq!(region.len(), ASSAY_CELLS);
    let array = DefectTolerantArray::without_redundancy(region.clone());
    ChipDescription {
        array,
        dispensers: standard_ports([
            HexCoord::new(0, 0),
            HexCoord::new(11, 0),
            HexCoord::new(-4, 8),
            HexCoord::new(7, 8),
        ]),
        mixers: vec![
            Mixer {
                name: "mixer1".into(),
                cells: vec![
                    HexCoord::new(-1, 4),
                    HexCoord::new(0, 4),
                    HexCoord::new(-1, 5),
                ],
                mix_time_s_x1000: 60_000,
            },
            Mixer {
                name: "mixer2".into(),
                cells: vec![
                    HexCoord::new(3, 4),
                    HexCoord::new(4, 4),
                    HexCoord::new(3, 5),
                ],
                mix_time_s_x1000: 60_000,
            },
        ],
        detectors: vec![
            Detector {
                cell: HexCoord::new(1, 2),
                integration_ms: 500,
            },
            Detector {
                cell: HexCoord::new(5, 6),
                integration_ms: 500,
            },
        ],
        assay_cells: region,
    }
}

/// The defect-tolerant redesign of Figure 12(a): the fabricated chip's
/// topology mapped onto a DTMB(2,6) array with 252 primary and 91 spare
/// cells, of which 108 primaries are used by the assays.
#[must_use]
pub fn ivd_dtmb26_chip() -> ChipDescription {
    let array = DtmbKind::Dtmb26A.with_exact_counts(DTMB26_PRIMARIES, DTMB26_SPARES);
    // The 108 assay cells: the first 108 primaries in deterministic order
    // (mirroring the original chip's working area mapped into the array).
    let assay_cells: Region = array.primaries().take(ASSAY_CELLS).collect();
    ChipDescription {
        array,
        dispensers: standard_ports([
            HexCoord::new(0, 1),
            HexCoord::new(0, 17),
            HexCoord::new(7, 1),
            HexCoord::new(7, 13),
        ]),
        mixers: vec![
            Mixer {
                name: "mixer1".into(),
                cells: vec![
                    HexCoord::new(3, 3),
                    HexCoord::new(3, 4),
                    HexCoord::new(4, 3),
                ],
                mix_time_s_x1000: 60_000,
            },
            Mixer {
                name: "mixer2".into(),
                cells: vec![
                    HexCoord::new(5, 7),
                    HexCoord::new(5, 8),
                    HexCoord::new(6, 7),
                ],
                mix_time_s_x1000: 60_000,
            },
        ],
        detectors: vec![
            Detector {
                cell: HexCoord::new(1, 9),
                integration_ms: 500,
            },
            Detector {
                cell: HexCoord::new(5, 13),
                integration_ms: 500,
            },
        ],
        assay_cells,
    }
}

/// The reconfiguration policy matching the case study: only the assay
/// cells must be functional; faults on unused primaries are harmless.
#[must_use]
pub fn used_cells_policy(chip: &ChipDescription) -> ReconfigPolicy {
    ReconfigPolicy::UsedCells(chip.assay_cells.iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabricated_chip_matches_paper() {
        let chip = fabricated_ivd_chip();
        assert_eq!(chip.array.primary_count(), ASSAY_CELLS);
        assert_eq!(chip.array.spare_count(), 0);
        assert_eq!(chip.assay_cells.len(), ASSAY_CELLS);
        chip.validate().expect("consistent layout");
        assert!(chip.array.region().is_connected());
    }

    #[test]
    fn dtmb26_chip_matches_figure12() {
        let chip = ivd_dtmb26_chip();
        assert_eq!(chip.array.primary_count(), DTMB26_PRIMARIES);
        assert_eq!(chip.array.spare_count(), DTMB26_SPARES);
        assert_eq!(chip.array.total_cells(), 343);
        assert_eq!(chip.assay_cells.len(), ASSAY_CELLS);
        chip.validate().expect("consistent layout");
        // Every assay cell is protected by at least one adjacent spare.
        for c in chip.assay_cells.iter() {
            assert!(
                chip.array.adjacent_spares(c).count() >= 1,
                "assay cell {c} has no adjacent spare"
            );
        }
    }

    #[test]
    fn dtmb26_assay_cells_have_two_spares_each() {
        // The DTMB(2,6) guarantee for the used cells (the pattern closes
        // spares around every primary).
        let chip = ivd_dtmb26_chip();
        for c in chip.assay_cells.iter() {
            assert_eq!(
                chip.array.adjacent_spares(c).count(),
                2,
                "assay cell {c} should see exactly 2 spares"
            );
        }
    }

    #[test]
    fn policy_covers_exactly_assay_cells() {
        let chip = ivd_dtmb26_chip();
        let policy = used_cells_policy(&chip);
        for c in chip.assay_cells.iter() {
            assert!(policy.requires(c));
        }
        let unused = chip
            .array
            .primaries()
            .find(|c| !chip.assay_cells.contains(*c))
            .expect("some primaries are unused");
        assert!(!policy.requires(unused));
    }

    #[test]
    fn resources_sit_on_assay_cells() {
        let chip = ivd_dtmb26_chip();
        for m in &chip.mixers {
            for c in &m.cells {
                assert!(chip.assay_cells.contains(*c), "mixer cell {c} unused");
            }
        }
        for d in &chip.detectors {
            assert!(chip.assay_cells.contains(d.cell));
        }
        for p in &chip.dispensers {
            assert!(
                chip.assay_cells.contains(p.cell),
                "port {} off-area",
                p.label
            );
        }
    }
}
