//! Boundary-handling modes (Table I / Figure 2 of the paper).
//!
//! When a local operator's window hangs over the image border, the image is
//! "virtually expanded" and the value of the expanded image is returned. The
//! paper implements this by *adjusting the index* of the accessed pixel to
//! one that resides within the image (rather than physically padding the
//! allocation); this module provides exactly those index maps, which both
//! the CPU reference operators and the generated device code share.

use crate::image::Image;
use crate::pixel::Pixel;

/// Out-of-bounds access policy for an image accessor.
///
/// The variants and their semantics follow Table I of the paper:
///
/// | Mode | Returned pixel value for out of bounds |
/// |---|---|
/// | `Undefined` | not specified, undefined |
/// | `Repeat` | pixel value of image repeated at the border |
/// | `Clamp` | last valid pixel within image |
/// | `Mirror` | pixel value of image mirrored at the border |
/// | `Constant(c)` | constant value, user defined |
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum BoundaryMode {
    /// No handling: the generated kernel reads whatever lies at the
    /// computed address. The paper notes such code *crashes* on some
    /// hardware (Tesla C2050); the simulator reports the out-of-bounds read
    /// count so that harnesses can reproduce that "crash" entry.
    Undefined,
    /// Periodic tiling of the image.
    Repeat,
    /// Clamp to the last valid pixel.
    Clamp,
    /// Reflect at the border, *including* the border pixel (Figure 2d: the
    /// row `A B C D` extends to the left as `... C B A | A B C D`).
    Mirror,
    /// Return a user-supplied constant.
    Constant(f32),
}

impl BoundaryMode {
    /// Short name used in generated code, table headers and snapshots.
    pub fn name(&self) -> &'static str {
        match self {
            BoundaryMode::Undefined => "Undefined",
            BoundaryMode::Repeat => "Repeat",
            BoundaryMode::Clamp => "Clamp",
            BoundaryMode::Mirror => "Mirror",
            BoundaryMode::Constant(_) => "Constant",
        }
    }

    /// All five modes, with `Constant(0.0)` standing in for the constant
    /// variant — the order matches the columns of Tables II–VII.
    pub fn all() -> [BoundaryMode; 5] {
        [
            BoundaryMode::Undefined,
            BoundaryMode::Clamp,
            BoundaryMode::Repeat,
            BoundaryMode::Mirror,
            BoundaryMode::Constant(0.0),
        ]
    }
}

/// Map a possibly out-of-range coordinate `i` into `[0, n)` by clamping.
#[inline]
pub fn clamp_index(i: i32, n: u32) -> i32 {
    i.clamp(0, n as i32 - 1)
}

/// Map a possibly out-of-range coordinate `i` into `[0, n)` by periodic
/// repetition (true mathematical modulo, correct for negative `i`).
#[inline]
pub fn repeat_index(i: i32, n: u32) -> i32 {
    let n = n as i32;
    i.rem_euclid(n)
}

/// Map a possibly out-of-range coordinate `i` into `[0, n)` by mirroring at
/// the border *including* the border pixel: `-1 -> 0`, `-2 -> 1`,
/// `n -> n-1`, `n+1 -> n-2`, … (period `2n`).
#[inline]
pub fn mirror_index(i: i32, n: u32) -> i32 {
    let n = n as i32;
    let period = 2 * n;
    let m = i.rem_euclid(period);
    if m < n {
        m
    } else {
        period - 1 - m
    }
}

/// Statistics recorded by a [`BoundaryView`] for the *Undefined* mode, so
/// that harnesses can report the paper's "crash" cells faithfully.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OobStats {
    /// Number of reads that fell outside the image rectangle.
    pub oob_reads: u64,
}

/// A read-only view of an [`Image`] with a boundary policy attached —
/// the semantic core of the paper's `BoundaryCondition` + `Accessor` pair.
///
/// ```
/// use hipacc_image::{BoundaryMode, BoundaryView, Image};
///
/// let img = Image::from_fn(4, 1, |x, _| x as f32); // 0 1 2 3
/// let v = BoundaryView::new(&img, BoundaryMode::Mirror);
/// assert_eq!(v.get(-1, 0), 0.0); // A
/// assert_eq!(v.get(-2, 0), 1.0); // B
/// assert_eq!(v.get(4, 0), 3.0);  // D
/// assert_eq!(v.get(5, 0), 2.0);  // C
/// ```
pub struct BoundaryView<'a, T: Pixel> {
    image: &'a Image<T>,
    mode: BoundaryMode,
    oob_reads: std::cell::Cell<u64>,
}

impl<'a, T: Pixel> BoundaryView<'a, T> {
    /// Attach a boundary policy to an image.
    pub fn new(image: &'a Image<T>, mode: BoundaryMode) -> Self {
        Self {
            image,
            mode,
            oob_reads: std::cell::Cell::new(0),
        }
    }

    /// The attached mode.
    pub fn mode(&self) -> BoundaryMode {
        self.mode
    }

    /// The underlying image.
    pub fn image(&self) -> &Image<T> {
        self.image
    }

    /// Read `(x, y)` under the boundary policy.
    #[inline]
    pub fn get(&self, x: i32, y: i32) -> T {
        let w = self.image.width();
        let h = self.image.height();
        if self.image.bounds().contains(x, y) {
            return self.image.get(x, y);
        }
        match self.mode {
            BoundaryMode::Undefined => {
                self.oob_reads.set(self.oob_reads.get() + 1);
                self.image.get_unchecked_semantics(x, y)
            }
            BoundaryMode::Clamp => self.image.get(clamp_index(x, w), clamp_index(y, h)),
            BoundaryMode::Repeat => self.image.get(repeat_index(x, w), repeat_index(y, h)),
            BoundaryMode::Mirror => self.image.get(mirror_index(x, w), mirror_index(y, h)),
            BoundaryMode::Constant(c) => T::from_f32(c),
        }
    }

    /// Out-of-bounds statistics accumulated so far.
    pub fn stats(&self) -> OobStats {
        OobStats {
            oob_reads: self.oob_reads.get(),
        }
    }
}

/// Render the virtually-extended image as in Figure 2 of the paper: a
/// `view_w × view_h` window centered on the `src` image, with pixels shown
/// through the given boundary mode. Out-of-bounds pixels under `Undefined`
/// are rendered as `?`. Pixels are formatted via `fmt`.
///
/// This exists so tests and docs can reproduce Figure 2 exactly.
pub fn render_extended<T: Pixel>(
    src: &Image<T>,
    mode: BoundaryMode,
    margin: u32,
    fmt: impl Fn(T) -> char,
) -> Vec<String> {
    let m = margin as i32;
    let view = BoundaryView::new(src, mode);
    let mut rows = Vec::new();
    for y in -m..src.height() as i32 + m {
        let mut row = String::new();
        for x in -m..src.width() as i32 + m {
            let inside = src.bounds().contains(x, y);
            let ch = if !inside && mode == BoundaryMode::Undefined {
                '?'
            } else {
                fmt(view.get(x, y))
            };
            if !row.is_empty() {
                row.push(' ');
            }
            row.push(ch);
        }
        rows.push(row);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_index_examples() {
        assert_eq!(clamp_index(-5, 10), 0);
        assert_eq!(clamp_index(0, 10), 0);
        assert_eq!(clamp_index(9, 10), 9);
        assert_eq!(clamp_index(10, 10), 9);
        assert_eq!(clamp_index(99, 10), 9);
    }

    #[test]
    fn repeat_index_examples() {
        assert_eq!(repeat_index(-1, 4), 3);
        assert_eq!(repeat_index(-4, 4), 0);
        assert_eq!(repeat_index(-5, 4), 3);
        assert_eq!(repeat_index(4, 4), 0);
        assert_eq!(repeat_index(7, 4), 3);
        assert_eq!(repeat_index(8, 4), 0);
    }

    #[test]
    fn mirror_index_examples() {
        // Figure 2d semantics: border pixel included in the reflection.
        assert_eq!(mirror_index(-1, 4), 0);
        assert_eq!(mirror_index(-2, 4), 1);
        assert_eq!(mirror_index(-3, 4), 2);
        assert_eq!(mirror_index(-4, 4), 3);
        assert_eq!(mirror_index(4, 4), 3);
        assert_eq!(mirror_index(5, 4), 2);
        assert_eq!(mirror_index(6, 4), 1);
        assert_eq!(mirror_index(7, 4), 0);
        // Period 2n.
        assert_eq!(mirror_index(8, 4), 0);
        assert_eq!(mirror_index(-5, 4), 3);
    }

    #[test]
    fn in_bounds_indices_are_fixed_points() {
        for n in [1u32, 2, 3, 7, 16] {
            for i in 0..n as i32 {
                assert_eq!(clamp_index(i, n), i);
                assert_eq!(repeat_index(i, n), i);
                assert_eq!(mirror_index(i, n), i);
            }
        }
    }

    #[test]
    fn constant_mode_returns_constant() {
        let img = Image::from_fn(4, 4, |x, y| (x + 4 * y) as f32);
        let v = BoundaryView::new(&img, BoundaryMode::Constant(9.5));
        assert_eq!(v.get(-1, 0), 9.5);
        assert_eq!(v.get(0, -1), 9.5);
        assert_eq!(v.get(4, 4), 9.5);
        // In-bounds reads are unaffected.
        assert_eq!(v.get(1, 1), 5.0);
    }

    #[test]
    fn undefined_mode_counts_oob_reads() {
        let img = Image::from_fn(4, 4, |x, y| (x + 4 * y) as f32);
        let v = BoundaryView::new(&img, BoundaryMode::Undefined);
        assert_eq!(v.stats().oob_reads, 0);
        let _ = v.get(-1, -1);
        let _ = v.get(10, 10);
        let _ = v.get(2, 2); // in bounds, not counted
        assert_eq!(v.stats().oob_reads, 2);
    }

    /// Reproduces the letter grid of Figure 2 of the paper for a 4×4 image
    /// labelled A..P with margin 3 (the paper shows 10×10 views of a 4×4
    /// core).
    fn letters() -> Image<f32> {
        Image::from_fn(4, 4, |x, y| (x + 4 * y) as f32)
    }

    fn letter(v: f32) -> char {
        (b'A' + v as u8) as char
    }

    #[test]
    fn figure2_clamp() {
        let rows = render_extended(&letters(), BoundaryMode::Clamp, 3, letter);
        assert_eq!(rows[0], "A A A A B C D D D D");
        assert_eq!(rows[3], "A A A A B C D D D D");
        assert_eq!(rows[4], "E E E E F G H H H H");
        assert_eq!(rows[9], "M M M M N O P P P P");
    }

    #[test]
    fn figure2_repeat() {
        let rows = render_extended(&letters(), BoundaryMode::Repeat, 3, letter);
        // Row above the image top repeats row 1 (F G H | E F G H | E F G).
        assert_eq!(rows[0], "F G H E F G H E F G");
        assert_eq!(rows[3], "B C D A B C D A B C");
        assert_eq!(rows[4], "F G H E F G H E F G");
    }

    #[test]
    fn figure2_mirror() {
        let rows = render_extended(&letters(), BoundaryMode::Mirror, 3, letter);
        // Figure 2d row 3 (y = 0 of the image): C B A | A B C D | D C B.
        assert_eq!(rows[3], "C B A A B C D D C B");
        assert_eq!(rows[0], "K J I I J K L L K J"); // y = -3 mirrors row 2
        assert_eq!(rows[4], "G F E E F G H H G F");
    }

    #[test]
    fn figure2_constant() {
        // Constant 'Q' = 16.0 in the letter encoding.
        let rows = render_extended(&letters(), BoundaryMode::Constant(16.0), 3, letter);
        assert_eq!(rows[0], "Q Q Q Q Q Q Q Q Q Q");
        assert_eq!(rows[3], "Q Q Q A B C D Q Q Q");
        assert_eq!(rows[9], "Q Q Q Q Q Q Q Q Q Q");
    }

    #[test]
    fn figure2_undefined_shows_question_marks() {
        let rows = render_extended(&letters(), BoundaryMode::Undefined, 3, letter);
        assert_eq!(rows[0], "? ? ? ? ? ? ? ? ? ?");
        assert_eq!(rows[3], "? ? ? A B C D ? ? ?");
    }

    #[test]
    fn mode_names_match_table_headers() {
        assert_eq!(BoundaryMode::Undefined.name(), "Undefined");
        assert_eq!(BoundaryMode::Constant(3.0).name(), "Constant");
        let names: Vec<_> = BoundaryMode::all().iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec!["Undefined", "Clamp", "Repeat", "Mirror", "Constant"]
        );
    }
}
