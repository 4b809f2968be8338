//! ASCII rendering of biochip arrays.
//!
//! The figure-generator binaries print array layouts (spare patterns,
//! defect maps, reconfiguration plans) as text. Hexagonal arrays are drawn
//! with one text row per lattice row `r` and a half-cell indentation per
//! row, which preserves the six-neighbour adjacency visually.

use crate::{HexCoord, Lattice, Region, SquareCoord, SquareRegion, Topology};

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
pub fn hex(region: &Region, glyph: impl FnMut(HexCoord) -> char) -> String {
    rows(region, true, glyph)
}

/// Renders a square region, one glyph per cell, row by row.
pub fn square(region: &SquareRegion, glyph: impl FnMut(SquareCoord) -> char) -> String {
    rows(region, false, glyph)
}

/// One text row per minor-axis value (`r` or `y`) of the bounding box,
/// one glyph per major-axis value, spaces off the topology; `shear`
/// indents each row one half-cell past the one above.
fn rows<T: Topology>(topo: &T, shear: bool, mut glyph: impl FnMut(T::Coord) -> char) -> String {
    let Some((lo, hi)) = topo.bounds() else {
        return String::new();
    };
    let ((x0, y0), (x1, y1)) = (lo.axes(), hi.axes());
    let mut out = String::new();
    for y in y0..=y1 {
        let mut line = String::new();
        if shear {
            line.extend(std::iter::repeat_n(' ', (y - y0) as usize));
        }
        for x in x0..=x1 {
            let c = T::Coord::from_axes(x, y);
            line.push(if topo.contains_cell(c) { glyph(c) } else { ' ' });
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
        assert_eq!(hex(&Region::new(), |_| 'o'), "");
        assert_eq!(square(&SquareRegion::new(), |_| 'o'), "");
    }

    #[test]
    fn square_renders_grid() {
        let region = SquareRegion::rect(3, 2);
        let art = square(&region, |_| '#');
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "# # #");
    }
}
