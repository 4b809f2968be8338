//! The adjacency-list reference for square-lattice interstitial patterns.

use crate::local::Model;
use dmfb_grid::{SquareCoord, SquareRegion};
use dmfb_reconfig::SquarePattern;

/// Whether `faulty` is tolerable by local reconfiguration on `pattern`
/// over `region`: every faulty primary must be matched to a distinct
/// adjacent fault-free spare (4-adjacency). A cell listed twice counts as
/// two faulty primaries.
#[must_use]
pub fn is_reconfigurable(
    pattern: SquarePattern,
    region: &SquareRegion,
    faulty: &[SquareCoord],
) -> bool {
    let primaries = faulty
        .iter()
        .copied()
        .filter(|c| region.contains(*c) && !pattern.is_spare_site(*c))
        .collect();
    Model::new(primaries, |c: SquareCoord| {
        c.neighbors4()
            .filter(|n| region.contains(*n) && pattern.is_spare_site(*n) && !faulty.contains(n))
    })
    .is_tolerable()
}
