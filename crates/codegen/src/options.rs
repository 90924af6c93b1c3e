//! The compile specification.

use hipacc_hwmodel::{Backend, DeviceModel};
use hipacc_image::BoundaryMode;
use hipacc_ir::ty::Const;
use std::collections::{BTreeSet, HashMap};

/// Boundary condition attached to one accessor — the compiled form of the
/// paper's `BoundaryCondition` object: a mode plus the operator window it
/// was declared for.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct BoundarySpec {
    /// The handling mode.
    pub mode: BoundaryMode,
    /// Declared window width (odd). The compiler takes the max of this
    /// and the inferred access window.
    pub width: u32,
    /// Declared window height (odd).
    pub height: u32,
}

impl BoundarySpec {
    /// A spec with the given mode and window.
    pub fn new(mode: BoundaryMode, width: u32, height: u32) -> Self {
        assert!(
            width % 2 == 1 && height % 2 == 1,
            "boundary windows must be odd"
        );
        Self {
            mode,
            width,
            height,
        }
    }

    /// Half-window in x.
    pub fn half_x(&self) -> u32 {
        self.width / 2
    }

    /// Half-window in y.
    pub fn half_y(&self) -> u32 {
        self.height / 2
    }
}

/// Which memory path input reads take — the `Manual` / `+Tex` / `+2DTex` /
/// `+Smem` axes of Tables II–IX. `Auto` consults the optimization
/// database.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MemVariant {
    /// Let the optimization database decide.
    Auto,
    /// Plain global-memory loads.
    Global,
    /// Texture path with software boundary handling (CUDA linear texture /
    /// OpenCL image object).
    Texture,
    /// 2-D texture with *hardware* boundary handling (only Clamp/Repeat —
    /// and Constant on OpenCL — exist in hardware; the driver rejects
    /// other modes, which is why those table cells read "n/a").
    TextureHwBoundary,
    /// Scratchpad staging (shared/local memory tiles).
    Scratchpad,
}

/// Full specification for one compilation.
#[derive(Clone, Debug)]
pub struct CompileSpec {
    /// Target device model.
    pub device: DeviceModel,
    /// CUDA or OpenCL.
    pub backend: Backend,
    /// Image width (also the iteration-space width; ROIs smaller than the
    /// image are expressed through `is_*` scalars at launch).
    pub width: u32,
    /// Image height.
    pub height: u32,
    /// Row stride in elements (padded).
    pub stride: u32,
    /// Per-accessor boundary conditions. Accessors without an entry get
    /// `Undefined` handling, as in the framework.
    pub boundaries: HashMap<String, BoundarySpec>,
    /// Scalar parameter bindings known at compile time (enables window
    /// inference through `2*sigma_d`-style loop bounds, constant
    /// propagation and unrolling).
    pub param_bindings: HashMap<String, Const>,
    /// Memory-path override.
    pub variant: MemVariant,
    /// Store masks in constant memory (`false` forces the "no Mask" rows
    /// of the tables: coefficients are recomputed or read from global
    /// memory).
    pub use_const_masks: bool,
    /// Apply constant propagation with `param_bindings` before lowering.
    pub constant_propagation: bool,
    /// Fully unroll convolution loops up to this trip count (0 disables).
    pub unroll_limit: u32,
    /// Override the launch configuration instead of running Algorithm 2
    /// (the tables pin 128×1; exploration sweeps it).
    pub force_config: Option<(u32, u32)>,
    /// Iteration space: `(offset_x, offset_y, width, height)` within the
    /// image. `None` covers the whole image — the common case of Listing 2
    /// ("the region of interest contains the whole image").
    pub roi: Option<(u32, u32, u32, u32)>,
    /// Vectorization width (Section VIII outlook): each work-item computes
    /// this many horizontally adjacent pixels, letting AMD's VLIW lanes
    /// fill. 1 = scalar (the paper's evaluated configuration).
    pub vectorize: u32,
    /// Emit naive boundary handling: every read of every thread checks all
    /// four sides and no region specialization is generated — how a
    /// straightforward hand-written kernel (or RapidMind's generic
    /// handling) behaves. Used by the "Manual" baseline rows.
    pub generic_boundary: bool,
    /// Analysis-driven optimization level for the device IR: `0` lowers
    /// only (the pre-optimizer pipeline, bit-for-bit), `1` (default) runs
    /// the uniformity/value-range pass pipeline (`ir::opt`). Individual
    /// passes can be vetoed with [`Self::disabled_passes`].
    pub opt_level: u8,
    /// Optimizer passes to skip, by their `ir::opt::PASSES` name (empty
    /// by default). Names that match no pass are ignored.
    pub disabled_passes: BTreeSet<String>,
}

impl CompileSpec {
    /// A specification with the defaults the generated code uses: auto
    /// memory variant, constant-memory masks, no unrolling, heuristic
    /// configuration.
    pub fn new(device: DeviceModel, backend: Backend, width: u32, height: u32) -> Self {
        let stride = hipacc_image::image::padded_stride(width, 4);
        Self {
            device,
            backend,
            width,
            height,
            stride,
            boundaries: HashMap::new(),
            param_bindings: HashMap::new(),
            variant: MemVariant::Auto,
            use_const_masks: true,
            constant_propagation: true,
            unroll_limit: 0,
            force_config: None,
            vectorize: 1,
            roi: None,
            generic_boundary: false,
            opt_level: 1,
            disabled_passes: BTreeSet::new(),
        }
    }

    /// Attach a boundary condition to an accessor.
    pub fn with_boundary(mut self, accessor: &str, spec: BoundarySpec) -> Self {
        self.boundaries.insert(accessor.to_string(), spec);
        self
    }

    /// Bind a scalar parameter to a compile-time constant.
    pub fn with_param(mut self, name: &str, value: Const) -> Self {
        self.param_bindings.insert(name.to_string(), value);
        self
    }

    /// Set the memory variant.
    pub fn with_variant(mut self, v: MemVariant) -> Self {
        self.variant = v;
        self
    }

    /// Pin the launch configuration.
    pub fn with_config(mut self, bx: u32, by: u32) -> Self {
        self.force_config = Some((bx, by));
        self
    }

    /// Set the vectorization width (pixels per work-item).
    pub fn with_vectorize(mut self, v: u32) -> Self {
        assert!((1..=16).contains(&v), "vector width out of range");
        self.vectorize = v;
        self
    }

    /// Restrict the iteration space to a sub-rectangle of the image.
    pub fn with_roi(mut self, x: u32, y: u32, w: u32, h: u32) -> Self {
        assert!(
            x + w <= self.width && y + h <= self.height,
            "ROI outside image"
        );
        self.roi = Some((x, y, w, h));
        self
    }

    /// The effective iteration space `(x, y, w, h)`.
    pub fn iteration_space(&self) -> (u32, u32, u32, u32) {
        self.roi.unwrap_or((0, 0, self.width, self.height))
    }

    /// The boundary mode of an accessor (`Undefined` when unspecified).
    pub fn boundary_mode(&self, accessor: &str) -> BoundaryMode {
        self.boundaries
            .get(accessor)
            .map(|b| b.mode)
            .unwrap_or(BoundaryMode::Undefined)
    }

    /// Whether any accessor requests real (non-Undefined) handling.
    pub fn needs_boundary_handling(&self) -> bool {
        self.boundaries
            .values()
            .any(|b| b.mode != BoundaryMode::Undefined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_hwmodel::device::tesla_c2050;

    #[test]
    fn default_spec_has_padded_stride() {
        let s = CompileSpec::new(tesla_c2050(), Backend::Cuda, 100, 50);
        assert_eq!(s.stride, 128); // 100 floats pad to 512 bytes
        assert!(!s.needs_boundary_handling());
    }

    #[test]
    fn boundary_spec_halves() {
        let b = BoundarySpec::new(BoundaryMode::Clamp, 13, 13);
        assert_eq!(b.half_x(), 6);
        assert_eq!(b.half_y(), 6);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_boundary_window_rejected() {
        let _ = BoundarySpec::new(BoundaryMode::Clamp, 4, 3);
    }

    #[test]
    fn builder_methods_chain() {
        let s = CompileSpec::new(tesla_c2050(), Backend::Cuda, 64, 64)
            .with_boundary("IN", BoundarySpec::new(BoundaryMode::Mirror, 5, 5))
            .with_param("sigma_d", Const::Int(3))
            .with_variant(MemVariant::Texture)
            .with_config(128, 1);
        assert_eq!(s.boundary_mode("IN"), BoundaryMode::Mirror);
        assert_eq!(s.boundary_mode("OTHER"), BoundaryMode::Undefined);
        assert!(s.needs_boundary_handling());
        assert_eq!(s.force_config, Some((128, 1)));
        assert_eq!(s.variant, MemVariant::Texture);
    }
}
