//! The boundary spare-row baseline and its "shifted replacement" cascade
//! (paper Figure 2).
//!
//! This is the redundancy scheme that works for processor arrays and FPGAs
//! but is defeated by *microfluidic locality*: a droplet can only move to
//! physically adjacent cells, so a spare in a boundary row can replace a
//! distant faulty cell only through a chain of replacements — each faulty
//! cell replaced by an adjacent fault-free cell, which is in turn replaced
//! by one of its neighbours, and so on until the spare row is reached. Any
//! module between the fault and the spare row gets reconfigured even if it
//! is fault-free. This module implements the scheme on a square-electrode
//! array to quantify exactly that cost.

use dmfb_grid::{SquareCoord, SquareRegion};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A microfluidic module occupying a horizontal band of rows (as in
/// Figure 2's Modules 1–3).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ModuleBand {
    /// Human-readable module name (e.g. "Module 3" or "mixer").
    pub name: String,
    /// Number of array rows the module occupies.
    pub rows: u32,
}

/// A square array of `width` columns whose rows are assigned to modules,
/// with `spare_rows` unassigned rows at the bottom (adjacent to the last
/// module).
///
/// Row 0 is the *top*; the spare rows sit below the last module, matching
/// the Figure 2 layout where shifting propagates toward the spare row.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct SpareRowArray {
    width: u32,
    bands: Vec<ModuleBand>,
    spare_rows: u32,
}

/// The outcome of a successful shifted replacement.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ShiftPlan {
    /// For every original row index, the row it now occupies.
    pub row_remap: Vec<u32>,
    /// Names of the modules whose cells moved (including fault-free ones
    /// dragged along by the cascade — the cost the paper criticises).
    pub modules_reconfigured: Vec<String>,
    /// Total number of cells whose physical position changed.
    pub cells_remapped: usize,
}

/// Why shifted replacement failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShiftFailure {
    /// Distinct faulty rows that needed bypassing.
    pub faulty_rows: Vec<u32>,
    /// Spare rows available.
    pub spare_rows: u32,
}

impl fmt::Display for ShiftFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shifted replacement failed: {} faulty row(s) (rows {}) but only {} spare row(s)",
            self.faulty_rows.len(),
            crate::format_cell_list(&self.faulty_rows),
            self.spare_rows
        )
    }
}

impl std::error::Error for ShiftFailure {}

impl SpareRowArray {
    /// Creates an array of `width` columns from top-to-bottom module bands
    /// plus `spare_rows` spare rows at the bottom.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or no module rows exist.
    #[must_use]
    pub fn new(width: u32, bands: Vec<ModuleBand>, spare_rows: u32) -> Self {
        assert!(width > 0, "array must have at least one column");
        assert!(
            bands.iter().map(|b| b.rows).sum::<u32>() > 0,
            "array must have at least one module row"
        );
        SpareRowArray {
            width,
            bands,
            spare_rows,
        }
    }

    /// The Figure 2 example: three modules of two rows each over one spare
    /// row, eight columns wide.
    #[must_use]
    pub fn figure2_example() -> Self {
        SpareRowArray::new(
            8,
            vec![
                ModuleBand {
                    name: "Module 3".into(),
                    rows: 2,
                },
                ModuleBand {
                    name: "Module 2".into(),
                    rows: 2,
                },
                ModuleBand {
                    name: "Module 1".into(),
                    rows: 2,
                },
            ],
            1,
        )
    }

    /// Number of columns.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of module (non-spare) rows.
    #[must_use]
    pub fn module_rows(&self) -> u32 {
        self.bands.iter().map(|b| b.rows).sum()
    }

    /// Total rows including spares.
    #[must_use]
    pub fn total_rows(&self) -> u32 {
        self.module_rows() + self.spare_rows
    }

    /// Number of spare rows at the bottom of the array.
    #[must_use]
    pub fn spare_rows(&self) -> u32 {
        self.spare_rows
    }

    /// The array's footprint as a square-lattice region (module rows plus
    /// spare rows) — the [`dmfb_grid::Topology`] this scheme is compiled
    /// over.
    #[must_use]
    pub fn region(&self) -> SquareRegion {
        SquareRegion::rect(self.width, self.total_rows())
    }

    /// Performs shifted replacement around the given faulty cells.
    ///
    /// Every row containing a fault is vacated; rows below it (towards the
    /// spare rows) shift down to absorb the displacement. Succeeds iff the
    /// number of distinct faulty module rows does not exceed the number of
    /// spare rows.
    ///
    /// # Errors
    ///
    /// [`ShiftFailure`] when there are more faulty rows than spare rows.
    pub fn shifted_replacement(&self, faults: &[SquareCoord]) -> Result<ShiftPlan, ShiftFailure> {
        let module_rows = self.module_rows();
        let faulty_rows: BTreeSet<u32> = faults
            .iter()
            .filter(|c| {
                c.x >= 0 && (c.x as u32) < self.width && c.y >= 0 && (c.y as u32) < module_rows
            })
            .map(|c| c.y as u32)
            .collect();
        if faulty_rows.len() as u32 > self.spare_rows {
            return Err(ShiftFailure {
                faulty_rows: faulty_rows.into_iter().collect(),
                spare_rows: self.spare_rows,
            });
        }
        // Assign each non-faulty module row to the next free physical row,
        // skipping faulty rows; displaced rows spill into the spare rows.
        let mut row_remap = Vec::with_capacity(module_rows as usize);
        let mut next_free = 0u32;
        for row in 0..module_rows {
            if faulty_rows.contains(&row) {
                // The faulty row's cells are relocated like the rest of its
                // band; it simply no longer maps to itself.
                while faulty_rows.contains(&next_free) {
                    next_free += 1;
                }
                row_remap.push(next_free);
                next_free += 1;
            } else {
                while faulty_rows.contains(&next_free) {
                    next_free += 1;
                }
                row_remap.push(next_free);
                next_free += 1;
            }
        }
        let mut modules_reconfigured: Vec<String> = Vec::new();
        let mut cells_remapped = 0usize;
        for (i, band) in self.bands.iter().enumerate() {
            let start: u32 = self.bands[..i].iter().map(|b| b.rows).sum();
            let moved = (start..start + band.rows).any(|r| row_remap[r as usize] != r);
            if moved {
                modules_reconfigured.push(band.name.clone());
                cells_remapped += (band.rows * self.width) as usize;
            }
        }
        Ok(ShiftPlan {
            row_remap,
            modules_reconfigured,
            cells_remapped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_fault_in_module1_moves_only_module1() {
        // Module 1 is the band adjacent to the spare row (rows 4-5).
        let array = SpareRowArray::figure2_example();
        let plan = array
            .shifted_replacement(&[SquareCoord::new(3, 4)])
            .unwrap();
        assert_eq!(plan.modules_reconfigured, vec!["Module 1".to_string()]);
        assert_eq!(plan.cells_remapped, 16); // 2 rows x 8 columns

        // Rows 0..=3 unchanged; rows 4,5 shifted down by one.
        assert_eq!(&plan.row_remap[..4], &[0, 1, 2, 3]);
        assert_eq!(&plan.row_remap[4..], &[5, 6]);
    }

    #[test]
    fn figure2_fault_in_module3_drags_fault_free_modules() {
        // Module 3 is farthest from the spare row (rows 0-1); bypassing its
        // faulty row reconfigures Modules 2 and 1 even though fault-free —
        // exactly the paper's criticism.
        let array = SpareRowArray::figure2_example();
        let plan = array
            .shifted_replacement(&[SquareCoord::new(0, 1)])
            .unwrap();
        assert!(plan.modules_reconfigured.contains(&"Module 3".to_string()));
        assert!(plan.modules_reconfigured.contains(&"Module 2".to_string()));
        assert!(plan.modules_reconfigured.contains(&"Module 1".to_string()));
        assert_eq!(plan.cells_remapped, 48);
    }

    #[test]
    fn two_faulty_rows_exceed_single_spare_row() {
        let array = SpareRowArray::figure2_example();
        let err = array
            .shifted_replacement(&[SquareCoord::new(0, 0), SquareCoord::new(0, 3)])
            .unwrap_err();
        assert_eq!(err.faulty_rows, vec![0, 3]);
        assert_eq!(err.spare_rows, 1);
        assert!(err.to_string().contains("spare row"));
    }

    #[test]
    fn same_row_faults_count_once() {
        let array = SpareRowArray::figure2_example();
        let plan = array
            .shifted_replacement(&[SquareCoord::new(0, 2), SquareCoord::new(7, 2)])
            .unwrap();
        // Row 2 is in Module 2; Modules 2 and 1 reconfigure.
        assert_eq!(
            plan.modules_reconfigured,
            vec!["Module 2".to_string(), "Module 1".to_string()]
        );
    }

    #[test]
    fn fault_free_is_identity() {
        let array = SpareRowArray::figure2_example();
        let plan = array.shifted_replacement(&[]).unwrap();
        assert!(plan.modules_reconfigured.is_empty());
        assert_eq!(plan.cells_remapped, 0);
        assert_eq!(plan.row_remap, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn faults_outside_module_rows_ignored() {
        let array = SpareRowArray::figure2_example();
        // Spare row fault (y=6) and out-of-array fault are harmless.
        let plan = array
            .shifted_replacement(&[SquareCoord::new(0, 6), SquareCoord::new(-3, 2)])
            .unwrap();
        assert!(plan.modules_reconfigured.is_empty());
    }

    #[test]
    fn more_spare_rows_tolerate_more_faulty_rows() {
        let array = SpareRowArray::new(
            4,
            vec![ModuleBand {
                name: "M".into(),
                rows: 5,
            }],
            2,
        );
        assert!(array
            .shifted_replacement(&[SquareCoord::new(0, 0), SquareCoord::new(0, 2)])
            .is_ok());
        assert!(array
            .shifted_replacement(&[
                SquareCoord::new(0, 0),
                SquareCoord::new(0, 2),
                SquareCoord::new(0, 4)
            ])
            .is_err());
        assert_eq!(array.total_rows(), 7);
        assert_eq!(array.width(), 4);
    }
}
