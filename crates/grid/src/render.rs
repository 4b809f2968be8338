//! ASCII rendering of biochip arrays.
//!
//! `dmfb render` prints array layouts (spare patterns, defect maps,
//! reconfiguration plans) as text. Hexagonal arrays are drawn with one
//! text row per lattice row `r` and a half-cell indentation per row, which
//! preserves the six-neighbour adjacency visually.

use crate::{HexCoord, Region, Topology};

/// Renders a hexagonal region, one glyph per cell, using `glyph` to choose
/// the character for each coordinate.
///
/// Rows are lattice rows of constant `r`; each row is indented by one extra
/// column per `r` step so that neighbours touch visually. Cells outside the
/// region print as spaces.
///
/// # Example
///
/// ```
/// use dmfb_grid::{Region, render};
///
/// let region = Region::parallelogram(3, 2);
/// let art = render::hex(&region, |_| '*');
/// assert_eq!(art.lines().count(), 2);
/// ```
pub fn hex(region: &Region, mut glyph: impl FnMut(HexCoord) -> char) -> String {
    let Some((lo, hi)) = region.bounds() else {
        return String::new();
    };
    let mut out = String::new();
    for r in lo.r..=hi.r {
        let mut line = String::new();
        line.extend(std::iter::repeat_n(' ', (r - lo.r) as usize));
        for q in lo.q..=hi.q {
            let c = HexCoord::new(q, r);
            line.push(if region.contains(c) { glyph(c) } else { ' ' });
            line.push(' ');
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_renders_rows() {
        let region = Region::parallelogram(3, 2);
        let art = hex(&region, |_| 'o');
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].trim(), "o o o");
        // second row indented one half-step
        assert!(lines[1].starts_with(' '));
    }

    #[test]
    fn hex_glyph_sees_coordinates() {
        let region = Region::parallelogram(2, 1);
        let art = hex(&region, |c| if c.q == 0 { 'a' } else { 'b' });
        assert!(art.contains('a') && art.contains('b'));
    }

    #[test]
    fn empty_regions_render_empty() {
        assert_eq!(hex(&Region::default(), |_| 'o'), "");
    }
}
