//! Chip-level functional resources: dispensers, mixers, detectors.

use crate::droplet::Mixture;
use dmfb_grid::{HexCoord, Region};
use dmfb_reconfig::DefectTolerantArray;
use serde::{Deserialize, Serialize};

/// A droplet source at the array edge holding a sample or reagent.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Dispenser {
    /// Port label, e.g. `"SAMPLE1"` or `"REAGENT2"`.
    pub label: String,
    /// The cell where dispensed droplets appear.
    pub cell: HexCoord,
    /// What the port dispenses.
    pub contents: Mixture,
    /// Volume of one dispensed droplet, nL.
    pub droplet_volume_nl: f64,
}

/// A mixer: a small group of cells a merged droplet is shuttled around to
/// mix its contents.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Mixer {
    /// Mixer name.
    pub name: String,
    /// The cells the mixing loop uses (first cell is the rendezvous point).
    pub cells: Vec<HexCoord>,
    /// Mixing duration in seconds.
    pub mix_time_s_x1000: u32,
}

impl Mixer {
    /// The rendezvous cell where droplets merge.
    ///
    /// # Panics
    ///
    /// Panics if the mixer has no cells.
    #[must_use]
    pub fn rendezvous(&self) -> HexCoord {
        *self.cells.first().expect("mixer has at least one cell")
    }

    /// Mixing duration in seconds.
    #[must_use]
    pub fn mix_time_s(&self) -> f64 {
        f64::from(self.mix_time_s_x1000) / 1000.0
    }
}

/// An optical detection site (transparent electrode over a photodiode).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Detector {
    /// The transparent electrode cell.
    pub cell: HexCoord,
    /// Measurement integration time in milliseconds.
    pub integration_ms: u32,
}

/// A complete biochip description: the (defect-tolerant) array plus the
/// functional resources the protocol uses, and the set of primary cells the
/// bioassays rely on (the paper's "cells used in assays").
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct ChipDescription {
    /// The electrode array with its primary/spare roles.
    pub array: DefectTolerantArray,
    /// Sample/reagent ports.
    pub dispensers: Vec<Dispenser>,
    /// Mixing sites.
    pub mixers: Vec<Mixer>,
    /// Optical detection sites.
    pub detectors: Vec<Detector>,
    /// The primary cells the assays actually use; faults outside this set
    /// are harmless under the used-cells reconfiguration policy.
    pub assay_cells: Region,
}

impl ChipDescription {
    /// Looks up a dispenser by label.
    #[must_use]
    pub fn dispenser(&self, label: &str) -> Option<&Dispenser> {
        self.dispensers.iter().find(|d| d.label == label)
    }

    /// Looks up a mixer by name.
    #[must_use]
    pub fn mixer(&self, name: &str) -> Option<&Mixer> {
        self.mixers.iter().find(|m| m.name == name)
    }

    /// Validates internal consistency: all referenced cells exist in the
    /// array, resources sit on primary cells, and assay cells are primary.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        let region = self.array.region();
        for d in &self.dispensers {
            if !region.contains(d.cell) {
                return Err(format!(
                    "dispenser {} cell {} outside array",
                    d.label, d.cell
                ));
            }
        }
        for m in &self.mixers {
            if m.cells.is_empty() {
                return Err(format!("mixer {} has no cells", m.name));
            }
            for &c in &m.cells {
                if !self.array.is_primary(c) {
                    return Err(format!("mixer {} cell {c} is not a primary cell", m.name));
                }
            }
        }
        for det in &self.detectors {
            if !self.array.is_primary(det.cell) {
                return Err(format!("detector cell {} is not a primary cell", det.cell));
            }
        }
        for c in self.assay_cells.iter() {
            if !self.array.is_primary(c) {
                return Err(format!("assay cell {c} is not a primary cell"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmfb_grid::Region;

    fn tiny_chip() -> ChipDescription {
        let region = Region::parallelogram(4, 4);
        let array = DefectTolerantArray::without_redundancy(region.clone());
        ChipDescription {
            array,
            dispensers: vec![Dispenser {
                label: "SAMPLE1".into(),
                cell: HexCoord::new(0, 0),
                contents: Mixture::single("glucose", 5.0),
                droplet_volume_nl: 50.0,
            }],
            mixers: vec![Mixer {
                name: "mix0".into(),
                cells: vec![HexCoord::new(1, 1), HexCoord::new(2, 1)],
                mix_time_s_x1000: 2_000,
            }],
            detectors: vec![Detector {
                cell: HexCoord::new(3, 3),
                integration_ms: 500,
            }],
            assay_cells: region,
        }
    }

    #[test]
    fn lookups() {
        let chip = tiny_chip();
        assert!(chip.dispenser("SAMPLE1").is_some());
        assert!(chip.dispenser("nope").is_none());
        assert_eq!(
            chip.mixer("mix0").unwrap().rendezvous(),
            HexCoord::new(1, 1)
        );
        assert!((chip.mixer("mix0").unwrap().mix_time_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validation_accepts_consistent_chip() {
        assert!(tiny_chip().validate().is_ok());
    }

    #[test]
    fn validation_catches_out_of_array_resources() {
        let mut chip = tiny_chip();
        chip.detectors[0].cell = HexCoord::new(99, 99);
        let err = chip.validate().unwrap_err();
        assert!(err.contains("detector"));

        let mut chip = tiny_chip();
        chip.dispensers[0].cell = HexCoord::new(99, 99);
        assert!(chip.validate().unwrap_err().contains("dispenser"));

        let mut chip = tiny_chip();
        chip.mixers[0].cells.clear();
        assert!(chip.validate().unwrap_err().contains("no cells"));
    }
}
