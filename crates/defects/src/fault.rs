//! Fault taxonomy for digital microfluidic biochips (paper Section 4).

use dmfb_grid::HexDir;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The catastrophic manufacturing defects listed in the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum CatastrophicDefect {
    /// Dielectric breakdown: a short between droplet and electrode; the
    /// droplet undergoes electrolysis and can no longer be transported.
    DielectricBreakdown,
    /// Short between this electrode and the adjacent electrode in the given
    /// direction; the pair effectively forms one long electrode, on which a
    /// droplet cannot overlap the next electrode and so cannot be actuated.
    ElectrodeShort(HexDir),
    /// Open in the metal connection between the electrode and its control
    /// source: the electrode can never be activated.
    OpenConnection,
}

impl fmt::Display for CatastrophicDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatastrophicDefect::DielectricBreakdown => write!(f, "dielectric breakdown"),
            CatastrophicDefect::ElectrodeShort(d) => {
                write!(f, "electrode short towards {d:?}")
            }
            CatastrophicDefect::OpenConnection => write!(f, "open control connection"),
        }
    }
}

/// Geometry parameters whose deviation causes parametric faults.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ParametricDefect {
    /// Deviation in insulator (Parylene C, nominally ~800 nm) thickness.
    InsulatorThickness,
    /// Deviation in electrode length/pitch.
    ElectrodeLength,
    /// Deviation in the gap between the two parallel glass plates.
    PlateGap,
}

impl fmt::Display for ParametricDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParametricDefect::InsulatorThickness => write!(f, "insulator thickness deviation"),
            ParametricDefect::ElectrodeLength => write!(f, "electrode length deviation"),
            ParametricDefect::PlateGap => write!(f, "plate gap deviation"),
        }
    }
}

/// The concrete cause recorded for a faulty cell in a [`DefectMap`].
///
/// [`DefectMap`]: crate::DefectMap
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum DefectCause {
    /// A catastrophic manufacturing defect.
    Catastrophic(CatastrophicDefect),
    /// A parametric defect with the observed relative deviation (e.g.
    /// `0.12` = 12% off nominal). Whether it is a *fault* depends on the
    /// tolerance; only out-of-tolerance deviations appear in defect maps.
    Parametric(ParametricDefect, f64),
}

impl fmt::Display for DefectCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefectCause::Catastrophic(d) => write!(f, "{d}"),
            DefectCause::Parametric(d, dev) => write!(f, "{d} ({:+.1}%)", 100.0 * dev),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            CatastrophicDefect::DielectricBreakdown.to_string(),
            "dielectric breakdown"
        );
        let c = DefectCause::Parametric(ParametricDefect::InsulatorThickness, -0.15);
        assert!(c.to_string().contains("-15.0%"));
        assert!(CatastrophicDefect::ElectrodeShort(HexDir::East)
            .to_string()
            .contains("East"));
        assert!(!ParametricDefect::ElectrodeLength.to_string().is_empty());
    }
}
