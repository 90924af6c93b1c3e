//! Independent reference operators.
//!
//! Written for the benchmark with direct loops, `f64` accumulation and
//! its own border index maps. Nothing here calls the DSL, the compiler,
//! the simulator or `hipacc_image::reference`: the code under test must
//! agree with a computation it shares no logic with.

use hipacc_image::{BoundaryMode, Image};

/// Largest per-pixel deviation from the reference that still verifies.
pub const TOLERANCE: f32 = 1e-4;

/// One operator of a workload, as the reference understands it.
#[derive(Clone, Debug)]
pub enum RefOp {
    /// Dense `w × h` convolution, coefficients row-major.
    Convolve { w: u32, h: u32, coeffs: Vec<f64> },
    /// `sqrt(gx² + gy²)` of the two 3×3 Sobel derivatives.
    SobelMagnitude,
    /// Median of the 3×3 window.
    Median3,
    /// Bilateral filter over `[-2σd, 2σd]²` (Listing 1 of the paper).
    Bilateral { sigma_d: u32, sigma_r: f64 },
    /// Point operator `d · d² / (d² + t²)`.
    Attenuate { threshold: f64 },
    /// Point operator `(v − level) / window + 0.5`.
    WindowLevel { window: f64, level: f64 },
}

impl RefOp {
    /// Normalized `size × size` Gaussian.
    pub fn gaussian(size: u32, sigma: f64) -> Self {
        let half = (size / 2) as i32;
        let mut coeffs = Vec::new();
        for dy in -half..=half {
            for dx in -half..=half {
                coeffs.push((-f64::from(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp());
            }
        }
        let sum: f64 = coeffs.iter().sum();
        coeffs.iter_mut().for_each(|c| *c /= sum);
        RefOp::Convolve {
            w: size,
            h: size,
            coeffs,
        }
    }

    /// `w × h` mean filter.
    pub fn box_filter(w: u32, h: u32) -> Self {
        RefOp::Convolve {
            w,
            h,
            coeffs: vec![1.0 / f64::from(w * h); (w * h) as usize],
        }
    }

    /// Horizontal Sobel derivative.
    pub fn sobel_x() -> Self {
        RefOp::Convolve {
            w: 3,
            h: 3,
            coeffs: SOBEL_X.to_vec(),
        }
    }

    /// 4-connected Laplacian.
    pub fn laplace() -> Self {
        RefOp::Convolve {
            w: 3,
            h: 3,
            coeffs: vec![0.0, 1.0, 0.0, 1.0, -4.0, 1.0, 0.0, 1.0, 0.0],
        }
    }

    /// Window reads per output pixel (1 for a point operator).
    pub fn taps(&self) -> u64 {
        match self {
            RefOp::Convolve { w, h, .. } => u64::from(w * h),
            RefOp::SobelMagnitude | RefOp::Median3 => 9,
            RefOp::Bilateral { sigma_d, .. } => u64::from((4 * sigma_d + 1).pow(2)),
            RefOp::Attenuate { .. } | RefOp::WindowLevel { .. } => 1,
        }
    }

    /// Apply the operator to `img` under `mode`.
    pub fn apply(&self, img: &Image<f32>, mode: BoundaryMode) -> Image<f32> {
        let at = |x: i32, y: i32| f64::from(fetch(img, x, y, mode));
        let each = |f: &dyn Fn(i32, i32) -> f64| {
            Image::from_fn(img.width(), img.height(), |x, y| f(x, y) as f32)
        };
        match self {
            RefOp::Convolve { w, h, coeffs } => each(&|x, y| window_sum(&at, x, y, *w, *h, coeffs)),
            RefOp::SobelMagnitude => each(&|x, y| {
                let gx = window_sum(&at, x, y, 3, 3, &SOBEL_X);
                let gy = window_sum(&at, x, y, 3, 3, &SOBEL_Y);
                (gx * gx + gy * gy).sqrt()
            }),
            RefOp::Median3 => each(&|x, y| {
                let mut v = [0.0f64; 9];
                for (i, slot) in v.iter_mut().enumerate() {
                    *slot = at(x + i as i32 % 3 - 1, y + i as i32 / 3 - 1);
                }
                v.sort_by(f64::total_cmp);
                v[4]
            }),
            RefOp::Bilateral { sigma_d, sigma_r } => {
                let half = 2 * *sigma_d as i32;
                let c_d = 1.0 / (2.0 * f64::from(sigma_d * sigma_d));
                let c_r = 1.0 / (2.0 * sigma_r * sigma_r);
                each(&|x, y| {
                    let center = at(x, y);
                    let (mut d, mut p) = (0.0, 0.0);
                    for dy in -half..=half {
                        for dx in -half..=half {
                            let v = at(x + dx, y + dy);
                            let s = (-c_r * (v - center) * (v - center)).exp();
                            let c = (-c_d * f64::from(dx * dx + dy * dy)).exp();
                            d += s * c;
                            p += s * c * v;
                        }
                    }
                    p / d
                })
            }
            RefOp::Attenuate { threshold } => each(&|x, y| {
                let d = at(x, y);
                d * (d * d / (d * d + threshold * threshold))
            }),
            RefOp::WindowLevel { window, level } => each(&|x, y| (at(x, y) - level) / window + 0.5),
        }
    }
}

const SOBEL_X: [f64; 9] = [-1.0, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0];
const SOBEL_Y: [f64; 9] = [-1.0, -2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0];

fn window_sum(at: &dyn Fn(i32, i32) -> f64, x: i32, y: i32, w: u32, h: u32, coeffs: &[f64]) -> f64 {
    let (hw, hh) = ((w / 2) as i32, (h / 2) as i32);
    let mut acc = 0.0;
    for dy in -hh..=hh {
        for dx in -hw..=hw {
            let c = coeffs[((dy + hh) * w as i32 + dx + hw) as usize];
            acc += c * at(x + dx, y + dy);
        }
    }
    acc
}

/// The pixel of the virtually extended image (Table I of the paper).
fn fetch(img: &Image<f32>, x: i32, y: i32, mode: BoundaryMode) -> f32 {
    let (w, h) = (img.width() as i32, img.height() as i32);
    if (0..w).contains(&x) && (0..h).contains(&y) {
        return img.get(x, y);
    }
    let map = |i: i32, n: i32| match mode {
        BoundaryMode::Clamp => i.max(0).min(n - 1),
        BoundaryMode::Repeat => ((i % n) + n) % n,
        BoundaryMode::Mirror => {
            // ... C B A | A B C D | D C B ...: period 2n, border pixel included.
            let m = ((i % (2 * n)) + 2 * n) % (2 * n);
            if m < n {
                m
            } else {
                2 * n - 1 - m
            }
        }
        BoundaryMode::Constant(_) | BoundaryMode::Undefined => i,
    };
    match mode {
        BoundaryMode::Constant(c) => c,
        BoundaryMode::Undefined => panic!("the benchmark never reads out of bounds undefined"),
        _ => img.get(map(x, w), map(y, h)),
    }
}

/// Apply a chain of operators in order (every stage under `mode`).
pub fn apply_chain(ops: &[RefOp], img: &Image<f32>, mode: BoundaryMode) -> Image<f32> {
    ops.iter().fold(img.clone(), |acc, op| op.apply(&acc, mode))
}

/// The first pixel of `got` that is not finite or deviates from `want` by
/// more than [`TOLERANCE`], as a message; `None` when the image verifies.
pub fn mismatch(got: &Image<f32>, want: &Image<f32>) -> Option<String> {
    if (got.width(), got.height()) != (want.width(), want.height()) {
        return Some(format!(
            "geometry {}x{} != reference {}x{}",
            got.width(),
            got.height(),
            want.width(),
            want.height()
        ));
    }
    for y in 0..got.height() as i32 {
        for x in 0..got.width() as i32 {
            let (g, w) = (got.get(x, y), want.get(x, y));
            if !g.is_finite() || (g - w).abs() > TOLERANCE {
                return Some(format!("pixel ({x},{y}): got {g}, reference {w}"));
            }
        }
    }
    None
}

/// Whether two images hold the same bits, padding included.
pub fn bit_identical(a: &Image<f32>, b: &Image<f32>) -> bool {
    a.raw().len() == b.raw().len()
        && a.raw()
            .iter()
            .zip(b.raw())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Image<f32> {
        Image::from_fn(9, 7, |x, y| (x * 3 + y * 5) as f32 * 0.01)
    }

    #[test]
    fn checker_flags_one_corrupted_pixel() {
        let want = RefOp::gaussian(5, 1.1).apply(&ramp(), BoundaryMode::Clamp);
        let mut got = want.clone();
        assert!(mismatch(&got, &want).is_none());
        assert!(bit_identical(&got, &want));
        got.set(4, 3, want.get(4, 3) + 2.0 * TOLERANCE);
        let msg = mismatch(&got, &want).expect("one corrupted pixel must be flagged");
        assert!(msg.contains("(4,3)"), "{msg}");
        assert!(!bit_identical(&got, &want));
        got.set(4, 3, f32::NAN);
        assert!(mismatch(&got, &want).is_some(), "NaN must never verify");
    }

    #[test]
    fn border_maps_follow_table_one() {
        let img = Image::from_fn(4, 1, |x, _| x as f32); // A B C D = 0 1 2 3
        let row = |mode| -> Vec<f32> { (-3..7).map(|x| fetch(&img, x, 0, mode)).collect() };
        assert_eq!(
            row(BoundaryMode::Clamp),
            [0., 0., 0., 0., 1., 2., 3., 3., 3., 3.]
        );
        assert_eq!(
            row(BoundaryMode::Repeat),
            [1., 2., 3., 0., 1., 2., 3., 0., 1., 2.]
        );
        assert_eq!(
            row(BoundaryMode::Mirror),
            [2., 1., 0., 0., 1., 2., 3., 3., 2., 1.]
        );
        assert_eq!(
            row(BoundaryMode::Constant(9.0)),
            [9., 9., 9., 0., 1., 2., 3., 9., 9., 9.]
        );
    }

    #[test]
    fn known_answers() {
        let flat = Image::from_fn(8, 8, |_, _| 0.5f32);
        for op in [RefOp::gaussian(5, 1.1), RefOp::box_filter(7, 7)] {
            let out = op.apply(&flat, BoundaryMode::Mirror);
            assert!((out.get(0, 0) - 0.5).abs() < 1e-6);
        }
        assert_eq!(
            RefOp::laplace().apply(&flat, BoundaryMode::Clamp).get(3, 3),
            0.0
        );
        // A plane has g = 8 * slope per axis: 0.03 in x, 0.05 in y.
        let out = RefOp::SobelMagnitude.apply(&ramp(), BoundaryMode::Clamp);
        assert!((out.get(4, 3) - 0.24f32.hypot(0.40)).abs() < 1e-6);
        let mut spike = flat.clone();
        spike.set(3, 3, 9.0);
        assert_eq!(
            RefOp::Median3.apply(&spike, BoundaryMode::Clamp).get(3, 3),
            0.5
        );
        assert_eq!(
            RefOp::Bilateral {
                sigma_d: 3,
                sigma_r: 5.0
            }
            .taps(),
            169
        );
    }
}
