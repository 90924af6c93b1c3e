//! DSL-to-device lowering.
//!
//! This pass performs the memory-space mapping of Section IV-A — accessor
//! reads become texture fetches, scratchpad loads or plain global loads;
//! mask reads become constant-memory loads; `output()` becomes a global
//! store — and weaves in the boundary-handling index adjustment for the
//! image region the generated body serves.

use crate::index::{adjust_coord, in_bounds_expr, Sides};
use crate::options::{CompileSpec, MemVariant};
use crate::regions::{Region, RegionGrid};
use hipacc_hwmodel::{Backend, LaunchConfig, OptimizationDb};
use hipacc_image::BoundaryMode;
use hipacc_ir::kernel::{
    AddressMode, BufferAccess, BufferParam, ConstBufferDecl, DeviceKernelDef, MemorySpace,
    ParamDecl, SharedDecl,
};
use hipacc_ir::{Builtin, Expr, KernelDef, LValue, ScalarType, Stmt, TexCoords};
use std::collections::HashMap;

/// The resolved memory path input reads take.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MemPath {
    /// Plain global loads.
    Global,
    /// CUDA linear texture (`tex1Dfetch` on a linear index).
    TexLinear,
    /// OpenCL image object (`read_imagef` with (x, y)).
    TexXy,
    /// 2-D texture with hardware boundary handling.
    TexHw,
    /// Shared/local-memory staging.
    Scratchpad,
}

/// Resolve the memory variant against the backend and the optimization
/// database.
pub fn resolve_mem(spec: &CompileSpec, window: (u32, u32)) -> MemPath {
    let db = OptimizationDb::new();
    let flags = db.flags(&spec.device, spec.backend, window);
    match spec.variant {
        MemVariant::Global => MemPath::Global,
        MemVariant::Texture => match spec.backend {
            Backend::Cuda => MemPath::TexLinear,
            Backend::OpenCl => MemPath::TexXy,
        },
        MemVariant::TextureHwBoundary => MemPath::TexHw,
        MemVariant::Scratchpad => MemPath::Scratchpad,
        MemVariant::Auto => {
            if flags.use_scratchpad {
                MemPath::Scratchpad
            } else if flags.use_texture {
                match spec.backend {
                    Backend::Cuda => MemPath::TexLinear,
                    Backend::OpenCl => MemPath::TexXy,
                }
            } else {
                MemPath::Global
            }
        }
    }
}

/// Hardware address mode for the `TexHw` path, or an error string when the
/// mode has no hardware support — the "n/a" cells of Tables II–VII.
pub fn hw_address_mode(mode: BoundaryMode, backend: Backend) -> Result<AddressMode, String> {
    match (mode, backend) {
        (BoundaryMode::Clamp, _) => Ok(AddressMode::Clamp),
        (BoundaryMode::Repeat, _) => Ok(AddressMode::Repeat),
        // OpenCL CLK_ADDRESS_CLAMP returns the border color, which is only
        // 0.0 or 1.0 for CL_R images — the paper: "the constants can be
        // only floating point values of either 0.0 or 1.0".
        (BoundaryMode::Constant(c), Backend::OpenCl) if c == 0.0 || c == 1.0 => {
            Ok(AddressMode::BorderConstant(c))
        }
        (BoundaryMode::Undefined, _) => Ok(AddressMode::None),
        (m, b) => Err(format!(
            "{} boundary handling is not supported by {} texture hardware",
            m.name(),
            b.name()
        )),
    }
}

/// The lowering context for one kernel compilation.
pub struct Lowering<'a> {
    kernel: &'a KernelDef,
    spec: &'a CompileSpec,
    mem: MemPath,
    /// Per-accessor half-windows (max of declared and inferred).
    halves: HashMap<String, (u32, u32)>,
    cfg: LaunchConfig,
    /// Whether border block bands overlap on each axis (narrow grids):
    /// boundary checks are then widened to both sides of the axis.
    x_overlap: bool,
    y_overlap: bool,
}

impl<'a> Lowering<'a> {
    /// Create a lowering context.
    pub fn new(
        kernel: &'a KernelDef,
        spec: &'a CompileSpec,
        mem: MemPath,
        halves: HashMap<String, (u32, u32)>,
        cfg: LaunchConfig,
    ) -> Self {
        let max_half = halves
            .values()
            .fold((0u32, 0u32), |a, h| (a.0.max(h.0), a.1.max(h.1)));
        let (ox, oy, rw, rh) = spec.iteration_space();
        // Overlap must be judged on the *effective* tile width — a
        // vectorized block covers `bx * vectorize` pixels, and the region
        // dispatch thresholds are computed against that tile. Using the
        // raw launch shape here can miss an overlap on narrow grids and
        // emit single-sided checks for a block that touches both edges.
        let eff = LaunchConfig {
            bx: cfg.bx * spec.vectorize.max(1),
            by: cfg.by,
        };
        let g = RegionGrid::compute_roi(
            spec.width,
            spec.height,
            ox,
            oy,
            rw,
            rh,
            max_half.0,
            max_half.1,
            eff,
        );
        let (x_overlap, y_overlap) = (g.x_overlap, g.y_overlap);
        Self {
            kernel,
            spec,
            mem,
            halves,
            cfg,
            x_overlap,
            y_overlap,
        }
    }

    fn half_of(&self, acc: &str) -> (u32, u32) {
        self.halves.get(acc).copied().unwrap_or((0, 0))
    }

    fn mode_of(&self, acc: &str) -> BoundaryMode {
        self.spec.boundary_mode(acc)
    }

    fn gid_x() -> Expr {
        Expr::var("gid_x")
    }

    fn gid_y() -> Expr {
        Expr::var("gid_y")
    }

    fn width() -> Expr {
        Expr::var("width")
    }

    fn height() -> Expr {
        Expr::var("height")
    }

    fn stride() -> Expr {
        Expr::var("stride")
    }

    /// Name of the shared-memory tile for an accessor.
    fn smem_name(acc: &str) -> String {
        format!("_smem{acc}")
    }

    /// Name of the constant buffer for a mask.
    fn cmem_name(mask: &str) -> String {
        format!("_const{mask}")
    }

    /// Name of the global fallback buffer for a mask (when constant memory
    /// is disabled).
    fn gmask_name(mask: &str) -> String {
        format!("_gmask{mask}")
    }

    /// The raw load of accessor `acc` at adjusted coordinates.
    fn load_at(&self, acc: &str, ax: Expr, ay: Expr) -> Expr {
        match self.mem {
            MemPath::Global | MemPath::Scratchpad => Expr::GlobalLoad {
                buf: acc.to_string(),
                idx: Box::new(ax + ay * Self::stride()),
            },
            MemPath::TexLinear => Expr::TexFetch {
                buf: acc.to_string(),
                coords: TexCoords::Linear(Box::new(ax + ay * Self::stride())),
            },
            MemPath::TexXy | MemPath::TexHw => Expr::TexFetch {
                buf: acc.to_string(),
                coords: TexCoords::Xy(Box::new(ax), Box::new(ay)),
            },
        }
    }

    /// Lower `Input(dx, dy)` for a region.
    fn read_expr(&self, acc: &str, dx: &Expr, dy: &Expr, region: Region) -> Expr {
        let ix = Self::gid_x() + dx.clone();
        let iy = Self::gid_y() + dy.clone();
        let mode = self.mode_of(acc);

        // Scratchpad: the tile was staged with boundary handling applied,
        // so reads index the tile directly.
        if self.mem == MemPath::Scratchpad {
            let (hx, hy) = self.half_of(acc);
            return Expr::SharedLoad {
                buf: Self::smem_name(acc),
                y: Box::new(Expr::Builtin(Builtin::ThreadIdxY) + Expr::int(hy as i64) + dy.clone()),
                x: Box::new(Expr::Builtin(Builtin::ThreadIdxX) + Expr::int(hx as i64) + dx.clone()),
            };
        }

        // Hardware boundary handling: raw coordinates, the sampler does
        // the rest.
        if self.mem == MemPath::TexHw {
            return self.load_at(acc, ix, iy);
        }

        // A border band that overlaps its opposite band (narrow grid)
        // widens the check to both sides of the axis; naive lowering
        // checks everything everywhere.
        let x_border = region.checks_left() || region.checks_right();
        let y_border = region.checks_top() || region.checks_bottom();
        let generic = self.spec.generic_boundary && mode != BoundaryMode::Undefined;
        let x_sides = Sides {
            low: generic || region.checks_left() || (self.x_overlap && x_border),
            high: generic || region.checks_right() || (self.x_overlap && x_border),
        };
        let y_sides = Sides {
            low: generic || region.checks_top() || (self.y_overlap && y_border),
            high: generic || region.checks_bottom() || (self.y_overlap && y_border),
        };
        match mode {
            BoundaryMode::Undefined => self.load_at(acc, ix, iy),
            BoundaryMode::Clamp | BoundaryMode::Repeat | BoundaryMode::Mirror => {
                let ax = adjust_coord(mode, ix, Self::width(), x_sides);
                let ay = adjust_coord(mode, iy, Self::height(), y_sides);
                self.load_at(acc, ax, ay)
            }
            BoundaryMode::Constant(c) => {
                match in_bounds_expr(&ix, &iy, &Self::width(), &Self::height(), x_sides, y_sides) {
                    None => self.load_at(acc, ix, iy),
                    Some(pred) => Expr::select(pred, self.load_at(acc, ix, iy), Expr::float(c)),
                }
            }
        }
    }

    /// Lower `Mask(dx, dy)`.
    fn mask_expr(&self, mask: &str, dx: &Expr, dy: &Expr) -> Expr {
        let decl = self
            .kernel
            .mask(mask)
            .unwrap_or_else(|| panic!("unknown mask {mask}"));
        let idx = (dy.clone() + Expr::int(decl.half_h() as i64)) * Expr::int(decl.width as i64)
            + dx.clone()
            + Expr::int(decl.half_w() as i64);
        if self.spec.use_const_masks {
            Expr::ConstLoad {
                buf: Self::cmem_name(mask),
                idx: Box::new(idx),
            }
        } else {
            Expr::GlobalLoad {
                buf: Self::gmask_name(mask),
                idx: Box::new(idx),
            }
        }
    }

    fn lower_expr(&self, e: Expr, region: Region) -> Expr {
        e.rewrite(&mut |n| match n {
            Expr::InputAt { acc, dx, dy } => self.read_expr(&acc, &dx, &dy, region),
            Expr::MaskAt { mask, dx, dy } => self.mask_expr(&mask, &dx, &dy),
            Expr::OutputX => Self::gid_x(),
            Expr::OutputY => Self::gid_y(),
            other => other,
        })
    }

    fn lower_stmts(&self, stmts: &[Stmt], region: Region) -> Vec<Stmt> {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::Decl { name, ty, init } => Stmt::Decl {
                    name: name.clone(),
                    ty: *ty,
                    init: init.clone().map(|e| self.lower_expr(e, region)),
                },
                Stmt::Assign { target, value } => Stmt::Assign {
                    target: target.clone(),
                    value: self.lower_expr(value.clone(), region),
                },
                Stmt::Output(e) => Stmt::GlobalStore {
                    buf: "OUT".into(),
                    idx: Self::gid_x() + Self::gid_y() * Self::stride(),
                    value: self.lower_expr(e.clone(), region),
                },
                Stmt::For {
                    var,
                    from,
                    to,
                    body,
                } => Stmt::For {
                    var: var.clone(),
                    from: self.lower_expr(from.clone(), region),
                    to: self.lower_expr(to.clone(), region),
                    body: self.lower_stmts(body, region),
                },
                Stmt::If { cond, then, els } => Stmt::If {
                    cond: self.lower_expr(cond.clone(), region),
                    then: self.lower_stmts(then, region),
                    els: self.lower_stmts(els, region),
                },
                other => other.clone(),
            })
            .collect()
    }

    /// Generate the scratchpad staging prologue (Listing 7) for every
    /// accessor, with boundary handling applied during staging. Returns
    /// the shared declarations and staging statements.
    fn staging(&self) -> (Vec<SharedDecl>, Vec<Stmt>) {
        let mut decls = Vec::new();
        let mut stmts = Vec::new();
        let bsx = self.cfg.bx;
        let bsy = self.cfg.by;
        for acc in &self.kernel.accessors {
            let (hx, hy) = self.half_of(&acc.name);
            let sx = 2 * hx; // halo columns
            let sy = 2 * hy; // halo rows
            let tile_w = bsx + sx;
            let tile_h = bsy + sy;
            decls.push(SharedDecl {
                name: Self::smem_name(&acc.name),
                ty: ScalarType::F32,
                rows: tile_h,
                // +1 column pad: "A constant of 1 is added to BSX so that
                // different banks … are accessed … to avoid bank
                // conflicts".
                cols: tile_w + 1,
            });
            stmts.push(Stmt::Comment(format!(
                "stage {} into scratchpad memory ({}x{} tile, +1 pad)",
                acc.name, tile_h, tile_w
            )));
            // base coordinates of the tile in image space.
            let base_x = format!("_base_x_{}", acc.name);
            let base_y = format!("_base_y_{}", acc.name);
            stmts.push(Stmt::Decl {
                name: base_x.clone(),
                ty: ScalarType::I32,
                init: Some(
                    Expr::Builtin(Builtin::BlockIdxX) * Expr::int(bsx as i64)
                        + Expr::var("is_offset_x")
                        - Expr::int(hx as i64),
                ),
            });
            stmts.push(Stmt::Decl {
                name: base_y.clone(),
                ty: ScalarType::I32,
                init: Some(
                    Expr::Builtin(Builtin::BlockIdxY) * Expr::int(bsy as i64)
                        + Expr::var("is_offset_y")
                        - Expr::int(hy as i64),
                ),
            });
            let steps_x = tile_w.div_ceil(bsx);
            let steps_y = tile_h.div_ceil(bsy);
            let mode = self.mode_of(&acc.name);
            for step_y in 0..steps_y {
                for step_x in 0..steps_x {
                    let lx = Expr::Builtin(Builtin::ThreadIdxX) + Expr::int((step_x * bsx) as i64);
                    let ly = Expr::Builtin(Builtin::ThreadIdxY) + Expr::int((step_y * bsy) as i64);
                    // Image coordinates with full boundary handling: the
                    // staged tile must be valid for every region.
                    let ix = Expr::var(&base_x) + lx.clone();
                    let iy = Expr::var(&base_y) + ly.clone();
                    let value = match mode {
                        BoundaryMode::Undefined => self.load_at(&acc.name, ix, iy),
                        BoundaryMode::Clamp | BoundaryMode::Repeat | BoundaryMode::Mirror => {
                            let ax = adjust_coord(mode, ix, Self::width(), Sides::both());
                            let ay = adjust_coord(mode, iy, Self::height(), Sides::both());
                            self.load_at(&acc.name, ax, ay)
                        }
                        BoundaryMode::Constant(c) => {
                            let pred = in_bounds_expr(
                                &ix,
                                &iy,
                                &Self::width(),
                                &Self::height(),
                                Sides::both(),
                                Sides::both(),
                            )
                            .expect("both sides checked");
                            Expr::select(pred, self.load_at(&acc.name, ix, iy), Expr::float(c))
                        }
                    };
                    let store = Stmt::SharedStore {
                        buf: Self::smem_name(&acc.name),
                        y: ly.clone(),
                        x: lx.clone(),
                        value,
                    };
                    // Guard partial staging steps.
                    let needs_guard = (step_x + 1) * bsx > tile_w || (step_y + 1) * bsy > tile_h;
                    if needs_guard {
                        stmts.push(Stmt::If {
                            cond: lx
                                .lt(Expr::int(tile_w as i64))
                                .and(ly.lt(Expr::int(tile_h as i64))),
                            then: vec![store],
                            els: vec![],
                        });
                    } else {
                        stmts.push(store);
                    }
                }
            }
        }
        stmts.push(Stmt::Barrier);
        (decls, stmts)
    }

    /// Whether border block bands overlap on each axis: besides its
    /// region, the one launch fact a lowered region body depends on. Two
    /// lowerings with equal overlaps produce the same region bodies.
    pub fn overlap(&self) -> (bool, bool) {
        (self.x_overlap, self.y_overlap)
    }

    /// Lower the kernel body once per region the kernel dispatches to:
    /// all nine, in [`Region::all`] order, when `specialized`, else the
    /// interior alone.
    pub fn region_bodies(&self, specialized: bool) -> Vec<(Region, Vec<Stmt>)> {
        let all = Region::all();
        let regions: &[Region] = if specialized {
            &all
        } else {
            &[Region::Interior]
        };
        regions
            .iter()
            .map(|&r| (r, self.lower_stmts(&self.kernel.body, r)))
            .collect()
    }

    /// Build the full device kernel. `grid` provides the region thresholds
    /// when border-specialized code is requested; `None` produces a single
    /// interior body (used for `Undefined` handling and for the resource
    /// probe before the launch configuration is known).
    pub fn device_kernel(&self, grid: Option<&RegionGrid>) -> DeviceKernelDef {
        self.assemble(grid, self.region_bodies(grid.is_some()))
    }

    /// [`device_kernel`](Self::device_kernel) around bodies already
    /// lowered by [`region_bodies`](Self::region_bodies) (of this or an
    /// equal-[`overlap`](Self::overlap) lowering), for `grid.is_some()`.
    pub fn assemble(
        &self,
        grid: Option<&RegionGrid>,
        bodies: Vec<(Region, Vec<Stmt>)>,
    ) -> DeviceKernelDef {
        let vec_w = self.spec.vectorize.max(1) as i64;
        let mut body: Vec<Stmt> = Vec::new();
        // Global ids are *image* coordinates: the iteration-space offset is
        // added so a sub-image ROI tiles from its own origin. With
        // vectorization each work-item owns `vec_w` adjacent pixels.
        let thread_x = Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX)
            + Expr::Builtin(Builtin::ThreadIdxX);
        body.push(Stmt::Decl {
            name: "gid_x".into(),
            ty: ScalarType::I32,
            init: Some(if vec_w > 1 {
                thread_x * Expr::int(vec_w) + Expr::var("is_offset_x")
            } else {
                thread_x + Expr::var("is_offset_x")
            }),
        });
        body.push(Stmt::Decl {
            name: "gid_y".into(),
            ty: ScalarType::I32,
            init: Some(
                Expr::Builtin(Builtin::BlockIdxY) * Expr::Builtin(Builtin::BlockDimY)
                    + Expr::Builtin(Builtin::ThreadIdxY)
                    + Expr::var("is_offset_y"),
            ),
        });

        let guard = Stmt::If {
            cond: Self::gid_x()
                .ge(Expr::var("is_offset_x") + Expr::var("is_width"))
                .or(Self::gid_y().ge(Expr::var("is_offset_y") + Expr::var("is_height"))),
            then: vec![Stmt::Return],
            els: vec![],
        };

        let mut shared = Vec::new();
        if self.mem == MemPath::Scratchpad {
            // Staging must run for the whole block before any thread can
            // return, so the guard comes after the barrier.
            let (decls, staging) = self.staging();
            shared = decls;
            body.extend(staging);
            body.push(guard);
        } else {
            body.push(guard);
        }

        let pixel_body = match grid {
            None => match <[_; 1]>::try_from(bodies) {
                Ok([(Region::Interior, body)]) => body,
                _ => panic!("an unspecialized kernel has one interior body"),
            },
            Some(g) => {
                let mut b = vec![Stmt::Comment(
                    "region dispatch: 9 specialized boundary-handling bodies".into(),
                )];
                b.extend(Self::region_dispatch(g, bodies));
                b
            }
        };
        if vec_w > 1 {
            // Vectorized pixel loop (Section VIII): rebase gid_x per lane.
            // The emitted loop is trivially unrolled/packed by the backend.
            body.push(Stmt::Comment(format!(
                "vectorized: {vec_w} pixels per work-item"
            )));
            let rebased = Stmt::rewrite_exprs(pixel_body, &mut |e| {
                if matches!(&e, Expr::Var(v) if v == "gid_x") {
                    Expr::var("_vgid_x")
                } else {
                    e
                }
            });
            let mut lane_body = vec![Stmt::Decl {
                name: "_vgid_x".into(),
                ty: ScalarType::I32,
                init: Some(Self::gid_x() + Expr::var("_vlane")),
            }];
            lane_body.push(Stmt::If {
                cond: Expr::var("_vgid_x").lt(Expr::var("is_offset_x") + Expr::var("is_width")),
                then: rebased,
                els: vec![],
            });
            body.push(Stmt::For {
                var: "_vlane".into(),
                from: Expr::int(0),
                to: Expr::int(vec_w - 1),
                body: lane_body,
            });
        } else {
            body.extend(pixel_body);
        }

        // Parameters.
        let mut scalars = vec![
            ParamDecl {
                name: "width".into(),
                ty: ScalarType::I32,
            },
            ParamDecl {
                name: "height".into(),
                ty: ScalarType::I32,
            },
            ParamDecl {
                name: "stride".into(),
                ty: ScalarType::I32,
            },
            ParamDecl {
                name: "is_width".into(),
                ty: ScalarType::I32,
            },
            ParamDecl {
                name: "is_height".into(),
                ty: ScalarType::I32,
            },
            ParamDecl {
                name: "is_offset_x".into(),
                ty: ScalarType::I32,
            },
            ParamDecl {
                name: "is_offset_y".into(),
                ty: ScalarType::I32,
            },
        ];
        for p in &self.kernel.params {
            scalars.push(p.clone());
        }

        let mut buffers = Vec::new();
        for acc in &self.kernel.accessors {
            let space = match self.mem {
                MemPath::Global | MemPath::Scratchpad => MemorySpace::Global,
                _ => MemorySpace::Texture,
            };
            let address_mode = if self.mem == MemPath::TexHw {
                hw_address_mode(self.mode_of(&acc.name), self.spec.backend)
                    .unwrap_or(AddressMode::None)
            } else {
                AddressMode::None
            };
            buffers.push(BufferParam {
                name: acc.name.clone(),
                ty: acc.ty,
                access: BufferAccess::ReadOnly,
                space,
                address_mode,
            });
        }
        buffers.push(BufferParam {
            name: "OUT".into(),
            ty: self.kernel.pixel,
            access: BufferAccess::WriteOnly,
            space: MemorySpace::Global,
            address_mode: AddressMode::None,
        });

        let mut const_buffers = Vec::new();
        for m in &self.kernel.masks {
            if self.spec.use_const_masks {
                const_buffers.push(ConstBufferDecl {
                    name: Self::cmem_name(&m.name),
                    width: m.width,
                    height: m.height,
                    data: m.coeffs.clone(),
                });
            } else {
                buffers.push(BufferParam {
                    name: Self::gmask_name(&m.name),
                    ty: ScalarType::F32,
                    access: BufferAccess::ReadOnly,
                    space: MemorySpace::Global,
                    address_mode: AddressMode::None,
                });
            }
        }

        DeviceKernelDef {
            name: format!("{}_kernel", self.kernel.name),
            buffers,
            scalars,
            const_buffers,
            shared,
            body,
        }
    }

    /// Take the region bodies back out of a kernel this lowering
    /// [`assemble`](Self::assemble)d for `grid.is_some() == specialized`:
    /// the inverse of `assemble`, so the resource probe's kernel can hand
    /// its bodies on instead of being built from a copy. `None` for a
    /// vectorized kernel, whose bodies were rebased onto the lane's id.
    pub fn disassemble(
        &self,
        kernel: DeviceKernelDef,
        specialized: bool,
    ) -> Option<Vec<(Region, Vec<Stmt>)>> {
        if self.spec.vectorize > 1 {
            return None;
        }
        // The pixel part follows the iteration-space guard, the first
        // top-level `if (...) return;` (staging never returns).
        let mut body = kernel.body;
        let guard = body.iter().position(|s| {
            matches!(s, Stmt::If { then, els, .. } if matches!(then[..], [Stmt::Return]) && els.is_empty())
        })?;
        let mut pixel = body.split_off(guard + 1);
        if !specialized {
            return Some(vec![(Region::Interior, pixel)]);
        }
        // Walk the dispatch chain from the outside in: the regions come
        // out in `Region::all` order, each arm behind its label comment.
        let mut chain = pixel.split_off(1);
        let mut bodies = Vec::with_capacity(9);
        for region in Region::all() {
            let mut arm = match region {
                Region::Interior => std::mem::take(&mut chain),
                _ => match <[Stmt; 1]>::try_from(chain).ok()? {
                    [Stmt::If { then, els, .. }] => {
                        chain = els;
                        then
                    }
                    _ => return None,
                },
            };
            match arm.first() {
                Some(Stmt::Comment(label)) if label == region.label() => arm.remove(0),
                _ => return None,
            };
            bodies.push((region, arm));
        }
        Some(bodies)
    }

    /// The if/else-if chain dispatching blocks to their region body
    /// (structured form of Listing 8's goto chain): corners, edges, then
    /// the interior, which is why [`Region::all`] lists it last.
    fn region_dispatch(g: &RegionGrid, bodies: Vec<(Region, Vec<Stmt>)>) -> Vec<Stmt> {
        let left = || Expr::Builtin(Builtin::BlockIdxX).lt(Expr::int(g.left_blocks as i64));
        let right =
            || Expr::Builtin(Builtin::BlockIdxX).ge(Expr::int((g.grid_x - g.right_blocks) as i64));
        let top = || Expr::Builtin(Builtin::BlockIdxY).lt(Expr::int(g.top_blocks as i64));
        let bottom =
            || Expr::Builtin(Builtin::BlockIdxY).ge(Expr::int((g.grid_y - g.bottom_blocks) as i64));
        let mut chain: Vec<Stmt> = Vec::new();
        for (region, body) in bodies.into_iter().rev() {
            let mut arm = vec![Stmt::Comment(region.label().into())];
            arm.extend(body);
            let cond = match region {
                Region::Interior => {
                    chain = arm;
                    continue;
                }
                Region::TopLeft => left().and(top()),
                Region::TopRight => right().and(top()),
                Region::BottomLeft => left().and(bottom()),
                Region::BottomRight => right().and(bottom()),
                Region::Top => top(),
                Region::Bottom => bottom(),
                Region::Left => left(),
                Region::Right => right(),
            };
            chain = vec![Stmt::If {
                cond,
                then: arm,
                els: chain,
            }];
        }
        chain
    }
}

/// Assignment helper used by baseline generators: `name = value;`.
pub fn assign(name: &str, value: Expr) -> Stmt {
    Stmt::Assign {
        target: LValue::Var(name.into()),
        value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_hwmodel::device::tesla_c2050;
    use hipacc_ir::typecheck::check_device;
    use hipacc_ir::KernelBuilder;

    fn blur3() -> KernelDef {
        let mut b = KernelBuilder::new("blur", ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        let acc = b.let_("acc", ScalarType::F32, Expr::float(0.0));
        b.for_inclusive("yf", Expr::int(-1), Expr::int(1), |b, yf| {
            b.for_inclusive("xf", Expr::int(-1), Expr::int(1), |b, xf| {
                b.add_assign(&acc, b.read_at(&input, xf.get(), yf.get()));
            });
        });
        b.output(acc.get() / Expr::float(9.0));
        b.finish()
    }

    fn spec(mode: BoundaryMode, variant: MemVariant) -> CompileSpec {
        CompileSpec::new(tesla_c2050(), Backend::Cuda, 256, 256)
            .with_boundary("IN", crate::options::BoundarySpec::new(mode, 3, 3))
            .with_variant(variant)
    }

    fn halves() -> HashMap<String, (u32, u32)> {
        let mut h = HashMap::new();
        h.insert("IN".to_string(), (1, 1));
        h
    }

    fn cfg() -> LaunchConfig {
        LaunchConfig { bx: 32, by: 4 }
    }

    #[test]
    fn lowered_kernel_passes_device_typecheck_all_modes_and_paths() {
        let kernel = blur3();
        for mode in BoundaryMode::all() {
            for variant in [
                MemVariant::Global,
                MemVariant::Texture,
                MemVariant::Scratchpad,
            ] {
                let spec = spec(mode, variant);
                let mem = resolve_mem(&spec, (3, 3));
                let lo = Lowering::new(&kernel, &spec, mem, halves(), cfg());
                let grid = RegionGrid::compute(256, 256, 1, 1, cfg());
                let dk = lo.device_kernel(Some(&grid));
                check_device(&dk).unwrap_or_else(|e| panic!("{mode:?}/{variant:?}: {e}"));
            }
        }
    }

    #[test]
    fn interior_region_has_no_boundary_conditionals() {
        let kernel = blur3();
        let spec = spec(BoundaryMode::Clamp, MemVariant::Global);
        let lo = Lowering::new(&kernel, &spec, MemPath::Global, halves(), cfg());
        let dk = lo.device_kernel(None);
        // No min/max adjustment anywhere: interior body reads raw.
        let mut minmax = 0;
        Stmt::visit_exprs(&dk.body, &mut |e| {
            if let Expr::Call(f, _) = e {
                if matches!(f, hipacc_ir::MathFn::Min | hipacc_ir::MathFn::Max) {
                    minmax += 1;
                }
            }
        });
        assert_eq!(minmax, 0);
    }

    #[test]
    fn disassemble_returns_the_bodies_assemble_took() {
        let kernel = blur3();
        let grid = RegionGrid::compute(256, 256, 1, 1, cfg());
        for variant in [MemVariant::Global, MemVariant::Scratchpad] {
            let spec = spec(BoundaryMode::Mirror, variant);
            let lo = Lowering::new(&kernel, &spec, resolve_mem(&spec, (3, 3)), halves(), cfg());
            for specialized in [false, true] {
                let g = specialized.then_some(&grid);
                let bodies = lo.region_bodies(specialized);
                let dk = lo.assemble(g, bodies.clone());
                assert_eq!(dk.body, lo.device_kernel(g).body);
                assert_eq!(lo.disassemble(dk, specialized), Some(bodies));
            }
        }
        // A vectorized kernel's bodies are rebased: not handed on.
        let spec = spec(BoundaryMode::Clamp, MemVariant::Global).with_vectorize(4);
        let lo = Lowering::new(&kernel, &spec, MemPath::Global, halves(), cfg());
        assert_eq!(lo.disassemble(lo.device_kernel(Some(&grid)), true), None);
    }

    #[test]
    fn nine_region_kernel_contains_all_labels() {
        let kernel = blur3();
        let spec = spec(BoundaryMode::Clamp, MemVariant::Global);
        let lo = Lowering::new(&kernel, &spec, MemPath::Global, halves(), cfg());
        let grid = RegionGrid::compute(256, 256, 1, 1, cfg());
        let dk = lo.device_kernel(Some(&grid));
        let mut labels = Vec::new();
        Stmt::visit_all(&dk.body, &mut |s| {
            if let Stmt::Comment(c) = s {
                if c.ends_with("_BH") {
                    labels.push(c.clone());
                }
            }
        });
        for r in Region::all() {
            assert!(
                labels.contains(&r.label().to_string()),
                "missing region {}",
                r.label()
            );
        }
    }

    #[test]
    fn texture_path_emits_tex_fetches() {
        let kernel = blur3();
        let spec = spec(BoundaryMode::Clamp, MemVariant::Texture);
        let lo = Lowering::new(&kernel, &spec, MemPath::TexLinear, halves(), cfg());
        let dk = lo.device_kernel(None);
        let mut tex = 0;
        let mut glob = 0;
        Stmt::visit_exprs(&dk.body, &mut |e| match e {
            Expr::TexFetch { .. } => tex += 1,
            Expr::GlobalLoad { .. } => glob += 1,
            _ => {}
        });
        assert!(tex > 0, "texture path must fetch via textures");
        assert_eq!(glob, 0, "no global loads on the texture path");
        assert_eq!(dk.buffer("IN").unwrap().space, MemorySpace::Texture);
        // Output still goes to global memory.
        assert_eq!(dk.buffer("OUT").unwrap().space, MemorySpace::Global);
        assert_eq!(dk.buffer("OUT").unwrap().access, BufferAccess::WriteOnly);
    }

    #[test]
    fn scratchpad_path_stages_and_barriers() {
        let kernel = blur3();
        let spec = spec(BoundaryMode::Mirror, MemVariant::Scratchpad);
        let lo = Lowering::new(&kernel, &spec, MemPath::Scratchpad, halves(), cfg());
        let dk = lo.device_kernel(None);
        assert!(dk.has_barrier());
        assert_eq!(dk.shared.len(), 1);
        // Tile: (4 + 2)x(32 + 2 + 1) floats.
        assert_eq!(dk.shared[0].rows, 6);
        assert_eq!(dk.shared[0].cols, 35);
        let mut sloads = 0;
        let mut sstores = 0;
        Stmt::visit_exprs(&dk.body, &mut |e| {
            if matches!(e, Expr::SharedLoad { .. }) {
                sloads += 1;
            }
        });
        Stmt::visit_all(&dk.body, &mut |s| {
            if matches!(s, Stmt::SharedStore { .. }) {
                sstores += 1;
            }
        });
        assert!(sloads > 0 && sstores > 0);
    }

    #[test]
    fn constant_mode_uses_value_select() {
        let kernel = blur3();
        let spec = spec(BoundaryMode::Constant(7.5), MemVariant::Global);
        let lo = Lowering::new(&kernel, &spec, MemPath::Global, halves(), cfg());
        let grid = RegionGrid::compute(256, 256, 1, 1, cfg());
        let dk = lo.device_kernel(Some(&grid));
        let mut found_const = false;
        Stmt::visit_exprs(&dk.body, &mut |e| {
            if let Expr::Select(_, _, b) = e {
                if matches!(**b, Expr::ImmFloat(v) if v == 7.5) {
                    found_const = true;
                }
            }
        });
        assert!(found_const, "constant fallback must appear in selects");
    }

    #[test]
    fn masks_lower_to_constant_memory() {
        let mut b = KernelBuilder::new("conv", ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        let m = b.mask_const("M", 3, 3, vec![1.0 / 9.0; 9]);
        let acc = b.let_("acc", ScalarType::F32, Expr::float(0.0));
        b.for_inclusive("yf", Expr::int(-1), Expr::int(1), |b, yf| {
            b.for_inclusive("xf", Expr::int(-1), Expr::int(1), |b, xf| {
                b.add_assign(
                    &acc,
                    b.mask_at(&m, xf.get(), yf.get()) * b.read_at(&input, xf.get(), yf.get()),
                );
            });
        });
        b.output(acc.get());
        let kernel = b.finish();
        let spec = spec(BoundaryMode::Clamp, MemVariant::Global);
        let lo = Lowering::new(&kernel, &spec, MemPath::Global, halves(), cfg());
        let dk = lo.device_kernel(None);
        assert_eq!(dk.const_buffers.len(), 1);
        assert_eq!(dk.const_buffers[0].name, "_constM");
        assert!(dk.const_buffers[0].data.is_some(), "static initialization");
        let mut cloads = 0;
        Stmt::visit_exprs(&dk.body, &mut |e| {
            if matches!(e, Expr::ConstLoad { .. }) {
                cloads += 1;
            }
        });
        assert!(cloads > 0);
        check_device(&dk).unwrap();
    }

    #[test]
    fn disabled_const_masks_fall_back_to_global() {
        let mut b = KernelBuilder::new("conv", ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        let m = b.mask_dynamic("M", 3, 3);
        b.output(b.mask_at(&m, Expr::int(0), Expr::int(0)) * b.read_center(&input));
        let kernel = b.finish();
        let mut spec = spec(BoundaryMode::Clamp, MemVariant::Global);
        spec.use_const_masks = false;
        let lo = Lowering::new(&kernel, &spec, MemPath::Global, halves(), cfg());
        let dk = lo.device_kernel(None);
        assert!(dk.const_buffers.is_empty());
        assert!(dk.buffer("_gmaskM").is_some());
        check_device(&dk).unwrap();
    }

    #[test]
    fn hw_address_mode_rejects_mirror() {
        assert!(hw_address_mode(BoundaryMode::Mirror, Backend::Cuda).is_err());
        assert!(hw_address_mode(BoundaryMode::Clamp, Backend::Cuda).is_ok());
        assert!(hw_address_mode(BoundaryMode::Repeat, Backend::OpenCl).is_ok());
        // CUDA has no constant border on linear textures.
        assert!(hw_address_mode(BoundaryMode::Constant(0.0), Backend::Cuda).is_err());
        // OpenCL supports only 0.0/1.0 border constants.
        assert!(hw_address_mode(BoundaryMode::Constant(0.0), Backend::OpenCl).is_ok());
        assert!(hw_address_mode(BoundaryMode::Constant(0.5), Backend::OpenCl).is_err());
    }
}
