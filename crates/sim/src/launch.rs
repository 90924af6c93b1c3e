//! Launch wiring: images in, images out.
//!
//! This module is the simulator-side half of the generated host code: it
//! allocates device buffers from host images, binds textures with their
//! address modes, uploads dynamic mask coefficients, fills the standard
//! geometry scalars (`width`, `height`, `stride`, `is_width`,
//! `is_height`), runs one of the two tape engines and downloads the
//! output.
//!
//! Launches go through [`Engine::Simd`] by default: the kernel is
//! compiled once to a flat register-machine tape (see
//! [`crate::bytecode`]), the tape is lowered to a typed warp program and
//! run sixteen lanes per instruction (see [`crate::simd`]).
//! [`Engine::Bytecode`] runs the same tape one thread at a time with
//! dynamically typed registers — the simd engine's oracle and fallback.
//! Both produce bit-identical outputs and statistics, and both are
//! checked against the tree-walking specification in [`crate::interp`],
//! which is not an engine: tests reach it through [`bind`].
//!
//! There is one launch step, [`run_on_image_instrumented`]: bind, take
//! the tape from a [`TapeMemo`] (building it when the memo has none that
//! fits), run [`CompiledKernel::run_instrumented`] with whatever
//! instrumentation was asked for, download. [`run_on_image`] and
//! [`run_on_image_with`] are that step with the instrumentation off and
//! an empty memo.
//!
//! [`CompiledKernel::run_instrumented`]: crate::bytecode::CompiledKernel::run_instrumented

use crate::bytecode::CompiledKernel;
use crate::interp::{ExecStats, SimError};
use crate::memory::{BufferGeometry, DeviceBuffer, DeviceMemory, LaunchParams};
use hipacc_image::Image;
use hipacc_ir::kernel::{BufferAccess, DeviceKernelDef};
use hipacc_ir::ty::Const;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Everything a launch needs besides the kernel itself.
///
/// The mask coefficients and filter parameters are behind [`Arc`]s so
/// repeated launches of one compiled kernel (the streaming steady state)
/// share them instead of deep-cloning a 13×13 mask per frame; cloning a
/// `LaunchSpec` is O(inputs), not O(mask bytes).
#[derive(Clone, Debug, Default)]
pub struct LaunchSpec<'a> {
    /// Grid dimensions in blocks.
    pub grid: (u32, u32),
    /// Block dimensions in threads.
    pub block: (u32, u32),
    /// Input images by accessor/buffer name.
    pub inputs: HashMap<String, &'a Image<f32>>,
    /// Coefficients for dynamically initialized masks (constant buffers
    /// with no static data, and `_gmask*` global fallbacks). Shared:
    /// launches never mutate the coefficients.
    pub mask_data: Arc<HashMap<String, Vec<f32>>>,
    /// Filter parameters shared across launches of one operator. At
    /// launch, [`Self::scalars`] entries win over same-named parameters.
    pub params: Arc<HashMap<String, Const>>,
    /// Per-launch scalar arguments and overrides (geometry scalars, ROI
    /// offsets). Highest precedence: a name set here shadows the same
    /// name in [`Self::params`] and the derived geometry defaults.
    pub scalars: HashMap<String, Const>,
    /// Explicit host worker-thread count for the parallel block loop
    /// (`None` = the pool width, then available parallelism).
    pub sim_threads: Option<usize>,
    /// Shared worker pool executing the block loop (`None` = per-launch
    /// scoped threads, the historical behaviour).
    pub pool: Option<Arc<crate::pool::WorkerPool>>,
}

/// Result of a simulated launch: output and statistics always, the rest
/// only when [`run_on_image_instrumented`] was asked for it.
#[derive(Clone, Debug)]
pub struct LaunchResult {
    /// The output image (downloaded `OUT` buffer, injected faults
    /// included).
    pub output: Image<f32>,
    /// Dynamic execution statistics.
    pub stats: ExecStats,
    /// Per-block execution profile, when one was requested.
    pub exec: Option<crate::sched::ExecProfile>,
    /// Per-block checksum ledger and virtual launch time. `None` without
    /// a fault hook and for a disabled one (an inert plan, or a transient
    /// session past its faulty attempts) — such a launch is trivially
    /// clean.
    pub faults: Option<crate::inject::FaultedRun>,
    /// Constant banks whose contents no longer match what was uploaded —
    /// the result of the post-launch constant-memory scrub that follows
    /// every launch under an enabled hook. Non-empty means every output
    /// of this launch is suspect.
    pub corrupt_const_banks: Vec<String>,
    /// How the launch came by its tape.
    pub tape: TapeReport,
}

/// The tape of one device kernel, kept across its launches.
///
/// The first launch that needs a tape builds it and leaves it here; a
/// later launch runs it only when its *launch-constant* state — grid,
/// block, scalars, bound buffer geometries and address modes, the bits
/// of every constant bank the tape captured, worker count and pool —
/// compares equal to what the tape was built from. Pixels are per-frame
/// state and are bound afresh on every launch. A launch that differs
/// anywhere builds a tape of its own and leaves the memo as it is, so the
/// memo never serves a tape another launch could not have built itself.
/// The tape's warp program hangs off the tape, so it is lowered once per
/// memo too.
///
/// A memo belongs to one `DeviceKernelDef`: pass it only with the kernel
/// whose launches filled it.
#[derive(Default)]
pub struct TapeMemo {
    tape: OnceLock<CompiledKernel>,
    /// Where every launch on this memo counts what it did for its tape.
    counters: Option<Arc<TapeCounters>>,
}

impl std::fmt::Debug for TapeMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TapeMemo")
            .field("built", &self.tape.get().is_some())
            .finish()
    }
}

/// Tapes built, tapes reused and warp programs lowered by the launches
/// of every memo that counts into these counters — a kernel cache's
/// entries share one set. A launch is counted when it has its tape, so a
/// launch that fails while running is counted too.
#[derive(Debug, Default)]
pub struct TapeCounters {
    built: AtomicU64,
    reused: AtomicU64,
    warps_lowered: AtomicU64,
}

impl TapeCounters {
    /// Tapes built, rebuilds for a single launch included.
    pub fn built(&self) -> u64 {
        self.built.load(Ordering::Relaxed)
    }

    /// Launches that ran a kept tape.
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Warp programs lowered.
    pub fn warps_lowered(&self) -> u64 {
        self.warps_lowered.load(Ordering::Relaxed)
    }

    fn note(&self, tape: TapeReport) {
        let counter = if tape.built() {
            &self.built
        } else {
            &self.reused
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if tape.lowered_warp {
            self.warps_lowered.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl TapeMemo {
    /// An empty memo whose launches count into `counters`.
    pub fn counted(counters: Arc<TapeCounters>) -> Self {
        Self {
            tape: OnceLock::new(),
            counters: Some(counters),
        }
    }

    /// The tape for this launch, its warp program lowered when `engine`
    /// runs one: the memoised tape when the launch constants match,
    /// otherwise a fresh build (in `fresh`) — kept in the memo only when
    /// the memo is empty and `pristine` says the launch's constant banks
    /// are the ones its spec uploaded.
    fn tape<'t>(
        &'t self,
        kernel: &DeviceKernelDef,
        params: &LaunchParams,
        mem: &DeviceMemory,
        engine: Engine,
        pristine: impl FnOnce() -> bool,
        fresh: &'t mut Option<CompiledKernel>,
    ) -> Result<(&'t CompiledKernel, TapeReport), SimError> {
        let (tape, source) = match self.tape.get() {
            Some(tape) => match tape.launch_mismatch(params, mem) {
                None => (tape, TapeSource::Reused),
                Some(why) => {
                    let own = crate::bytecode::compile(kernel, params, mem)?;
                    (&*fresh.insert(own), TapeSource::Rebuilt(why))
                }
            },
            None => {
                let tape = crate::bytecode::compile(kernel, params, mem)?;
                if !pristine() {
                    let why = TapeSource::Rebuilt(TapeRebuild::ConstBank);
                    (&*fresh.insert(tape), why)
                } else {
                    // A concurrent first launch may have kept its tape
                    // first; this one then runs its own.
                    match self.tape.set(tape) {
                        Ok(()) => (
                            self.tape.get().expect("the tape was just set"),
                            TapeSource::Built,
                        ),
                        Err(tape) => (&*fresh.insert(tape), TapeSource::Built),
                    }
                }
            }
        };
        let lowered_warp = engine == Engine::Simd && tape.lower_warp();
        let report = TapeReport {
            source,
            lowered_warp,
        };
        if let Some(counters) = &self.counters {
            counters.note(report);
        }
        Ok((tape, report))
    }
}

/// Where a launch's tape came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TapeSource {
    /// The memo was empty: the tape was built and is kept for later
    /// launches (unless a concurrent first launch kept its own first).
    Built,
    /// The memoised tape matched the launch constants and ran.
    Reused,
    /// The launch constants differ from the memoised tape's (or, with an
    /// empty memo, the constant banks differ from the uploaded ones): a
    /// tape was built for this launch alone.
    Rebuilt(TapeRebuild),
}

/// The piece of launch-constant state that kept a launch from reusing the
/// memoised tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TapeRebuild {
    /// Grid or block dimensions.
    Shape,
    /// A scalar argument.
    Scalars,
    /// A bound buffer's geometry or address mode.
    Buffers,
    /// A constant bank's coefficients: other uploaded coefficients, or a
    /// bank a fault hook corrupted.
    ConstBank,
    /// The worker count or the worker pool.
    Workers,
}

impl TapeRebuild {
    /// Stable lowercase name.
    pub fn label(self) -> &'static str {
        match self {
            TapeRebuild::Shape => "shape",
            TapeRebuild::Scalars => "scalars",
            TapeRebuild::Buffers => "buffers",
            TapeRebuild::ConstBank => "constant bank",
            TapeRebuild::Workers => "workers",
        }
    }
}

/// What one launch did for its tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TapeReport {
    /// Where the tape came from.
    pub source: TapeSource,
    /// This launch lowered the tape's warp program (the first simd run of
    /// a tape does).
    pub lowered_warp: bool,
}

impl TapeReport {
    /// A tape was built for this launch (kept or not).
    pub fn built(&self) -> bool {
        self.source != TapeSource::Reused
    }
}

impl std::fmt::Display for TapeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.source {
            TapeSource::Built => f.write_str("built"),
            TapeSource::Reused => f.write_str("reused"),
            TapeSource::Rebuilt(why) => write!(f, "rebuilt: {}", why.label()),
        }
    }
}

/// Which execution engine runs the compiled tape. Both are bit- and
/// stat-identical; the choice only changes cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Run blocks on the register-machine tape one thread at a time (see
    /// [`crate::bytecode`]): the dynamically typed oracle the simd engine
    /// is checked against, and its fallback.
    Bytecode,
    /// The tape lowered to a typed warp program and executed sixteen
    /// lanes per instruction (see [`crate::simd`]), several times faster;
    /// a tape it cannot type runs on the bytecode engine, counted in the
    /// launch profile, and so does any block it cannot reproduce. The
    /// default.
    #[default]
    Simd,
}

impl Engine {
    /// Stable lowercase name; [`Self::from_label`] reads it back.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Bytecode => "bytecode",
            Engine::Simd => "simd",
        }
    }

    /// The engine whose [`Self::label`] is `label`, if any.
    pub fn from_label(label: &str) -> Option<Engine> {
        [Engine::Bytecode, Engine::Simd]
            .into_iter()
            .find(|e| e.label() == label)
    }

    /// Always `Some(self)`. Exists for `benchmark/src/trace.rs`, which
    /// unwraps it into `CompiledKernel::run_with`; goes when a
    /// `[benchmark]` PR stops calling it.
    pub fn exec_mode(self) -> Option<Engine> {
        Some(self)
    }
}

/// Run a device kernel over host images on [`Engine::default`] (simd).
///
/// The first input image defines the output geometry. Buffers named in the
/// kernel but missing from `inputs`/`mask_data` produce
/// [`SimError::UnboundBuffer`].
pub fn run_on_image(
    kernel: &DeviceKernelDef,
    spec: &LaunchSpec<'_>,
) -> Result<LaunchResult, SimError> {
    run_on_image_with(kernel, spec, Engine::default())
}

/// Run a device kernel over host images on an explicitly chosen engine.
pub fn run_on_image_with(
    kernel: &DeviceKernelDef,
    spec: &LaunchSpec<'_>,
    engine: Engine,
) -> Result<LaunchResult, SimError> {
    run_on_image_instrumented(kernel, spec, engine, false, None, &TapeMemo::default())
}

/// The launch step every entry point goes through: bind the spec's
/// images, masks and scalars, take the tape from `memo` (see
/// [`TapeMemo`] for when a launch reuses it), run it on `engine`,
/// download `OUT`. A cold launch is this step with an empty memo.
///
/// `profile` additionally collects the per-block
/// [`ExecProfile`](crate::sched::ExecProfile). An enabled `hook` may
/// corrupt constant banks before execution, stall or hang workers on the
/// virtual clock (cancelled via [`SimError::DeadlineExceeded`] when the
/// hook sets a deadline), and drop or corrupt block stores before commit;
/// afterwards the uploaded constant banks are scrubbed against the spec's
/// coefficients, the simulator-side equivalent of a parameter-bank CRC.
/// A disabled hook is dropped here, so the launch is byte-for-byte and
/// cost-for-cost the unhooked one.
pub fn run_on_image_instrumented(
    kernel: &DeviceKernelDef,
    spec: &LaunchSpec<'_>,
    engine: Engine,
    profile: bool,
    hook: Option<&dyn crate::inject::FaultHook>,
    memo: &TapeMemo,
) -> Result<LaunchResult, SimError> {
    let (mut mem, params) = bind(kernel, spec)?;
    let hook = hook.filter(|h| h.enabled());
    if let Some(h) = hook {
        // The tape captures constant banks, so memory corruption must
        // land before the memo decides whether its tape still fits: a
        // corrupted bank fails the comparison and gets a tape of its own.
        h.corrupt_memory(&mut mem);
    }
    let pristine = || hook.is_none() || scrub_const_banks(&mem, spec).is_empty();
    let mut fresh = None;
    let (tape, tape_report) = memo.tape(kernel, &params, &mem, engine, pristine, &mut fresh)?;
    let run = tape.run_instrumented(&mut mem, engine, profile, hook)?;
    let out = mem
        .buffer("OUT")
        .ok_or_else(|| SimError::UnboundBuffer("OUT".into()))?;
    Ok(LaunchResult {
        output: out.to_image(),
        stats: run.stats,
        exec: run.exec,
        faults: run.faults,
        corrupt_const_banks: match hook {
            Some(_) => scrub_const_banks(&mem, spec),
            None => Vec::new(),
        },
        tape: tape_report,
    })
}

/// Compare the uploaded constant banks (dynamic constant buffers and
/// their `_gmask*` global fallbacks) against the coefficients the spec
/// uploaded. Returns the names of banks that differ bit-for-bit.
fn scrub_const_banks(mem: &DeviceMemory, spec: &LaunchSpec<'_>) -> Vec<String> {
    let mut corrupt: Vec<String> = Vec::new();
    for (name, coeffs) in spec.mask_data.iter() {
        let dirty = if let Some(bank) = mem.dynamic_const.get(name) {
            bank.iter()
                .map(|v| v.to_bits())
                .ne(coeffs.iter().map(|v| v.to_bits()))
        } else if let Some(buf) = mem.buffer(name) {
            buf.data
                .iter()
                .map(|v| v.to_bits())
                .ne(coeffs.iter().map(|v| v.to_bits()))
        } else {
            false
        };
        if dirty {
            corrupt.push(name.clone());
        }
    }
    corrupt.sort();
    corrupt
}

/// Re-execute the listed blocks fault-free on freshly prepared memory and
/// return their stores (buffer-name resolved) plus the re-execution
/// statistics — the launch-level selective-repair primitive, on the same
/// `memo` as the launch it repairs. The caller patches the stores into
/// its downloaded output.
pub fn repair_blocks(
    kernel: &DeviceKernelDef,
    spec: &LaunchSpec<'_>,
    engine: Engine,
    blocks: &[(u32, u32)],
    memo: &TapeMemo,
) -> Result<(Vec<crate::inject::RepairStore>, ExecStats), SimError> {
    let (mem, params) = bind(kernel, spec)?;
    let mut fresh = None;
    let (tape, _) = memo.tape(kernel, &params, &mem, engine, || true, &mut fresh)?;
    tape.run_blocks_with(&mem, blocks, engine)
}

/// Reject launch geometries that would otherwise dispatch nothing or
/// panic mid-launch: zero-sized grids or blocks and empty iteration
/// spaces fail here, before any buffer is bound.
fn validate_spec(spec: &LaunchSpec<'_>) -> Result<(), SimError> {
    if spec.grid.0 == 0 || spec.grid.1 == 0 {
        return Err(SimError::InvalidLaunch(format!(
            "grid {}x{} has a zero dimension",
            spec.grid.0, spec.grid.1
        )));
    }
    if spec.block.0 == 0 || spec.block.1 == 0 {
        return Err(SimError::InvalidLaunch(format!(
            "block {}x{} has a zero dimension",
            spec.block.0, spec.block.1
        )));
    }
    for name in ["is_width", "is_height"] {
        if let Some(Const::Int(v)) = spec.scalars.get(name) {
            if *v <= 0 {
                return Err(SimError::InvalidLaunch(format!(
                    "iteration space is empty ({name} = {v})"
                )));
            }
        }
    }
    Ok(())
}

/// Bind buffers, masks and geometry scalars for a launch: the device
/// memory and launch parameters every engine — and, in tests, the
/// specification in [`crate::interp`] — runs a `spec` against.
pub fn bind(
    kernel: &DeviceKernelDef,
    spec: &LaunchSpec<'_>,
) -> Result<(DeviceMemory, LaunchParams), SimError> {
    validate_spec(spec)?;
    // The output takes its geometry from the kernel's first declared image
    // input (any bound image when the kernel declares none), never from
    // `HashMap` iteration order — and every bound image must agree with it.
    let (ref_name, reference) = kernel
        .buffers
        .iter()
        .filter(|b| matches!(b.access, BufferAccess::ReadOnly))
        .find_map(|b| spec.inputs.get_key_value(&b.name))
        .or_else(|| spec.inputs.iter().next())
        .ok_or_else(|| SimError::UnboundBuffer("no input images".into()))?;
    let geom = BufferGeometry {
        width: reference.width(),
        height: reference.height(),
        stride: reference.stride(),
    };
    for (name, img) in &spec.inputs {
        if (img.width(), img.height(), img.stride()) != (geom.width, geom.height, geom.stride) {
            return Err(SimError::InvalidLaunch(format!(
                "input `{name}` is {}x{} (stride {}) but `{ref_name}` sets the launch geometry \
                 to {}x{} (stride {})",
                img.width(),
                img.height(),
                img.stride(),
                geom.width,
                geom.height,
                geom.stride
            )));
        }
    }

    let mut mem = DeviceMemory::new();
    for buf in &kernel.buffers {
        match buf.access {
            BufferAccess::ReadOnly => {
                if let Some(img) = spec.inputs.get(&buf.name) {
                    mem.bind_image(&buf.name, img);
                } else if let Some(coeffs) = spec.mask_data.get(&buf.name) {
                    // Global-memory mask fallback: a 1-row buffer.
                    let g = BufferGeometry {
                        width: coeffs.len() as u32,
                        height: 1,
                        stride: coeffs.len() as u32,
                    };
                    let mut b = DeviceBuffer::new(g);
                    b.data.copy_from_slice(coeffs);
                    mem.bind(&buf.name, b);
                } else {
                    return Err(SimError::UnboundBuffer(buf.name.clone()));
                }
            }
            BufferAccess::WriteOnly | BufferAccess::ReadWrite => {
                mem.bind(&buf.name, DeviceBuffer::new(geom));
            }
        }
        mem.tex_modes.insert(buf.name.clone(), buf.address_mode);
    }
    for cb in &kernel.const_buffers {
        if cb.data.is_none() {
            let coeffs = spec
                .mask_data
                .get(&cb.name)
                .ok_or_else(|| SimError::UnboundBuffer(cb.name.clone()))?;
            mem.dynamic_const.insert(cb.name.clone(), coeffs.clone());
        }
    }

    let mut params = LaunchParams::new(spec.grid, spec.block);
    // Per-launch overrides first, then the shared filter parameters:
    // `or_insert` makes earlier layers win, so precedence is
    // scalars > params > geometry defaults.
    params.scalars = spec.scalars.clone();
    for (name, v) in spec.params.iter() {
        params.scalars.entry(name.clone()).or_insert(*v);
    }
    params.sim_threads = spec.sim_threads;
    params.pool = spec.pool.clone();
    // Standard geometry scalars, unless explicitly overridden.
    let defaults = [
        ("width", geom.width as i64),
        ("height", geom.height as i64),
        ("stride", geom.stride as i64),
        ("is_width", geom.width as i64),
        ("is_height", geom.height as i64),
        ("is_offset_x", 0),
        ("is_offset_y", 0),
    ];
    for (name, v) in defaults {
        params
            .scalars
            .entry(name.to_string())
            .or_insert(Const::Int(v));
    }

    Ok((mem, params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_ir::kernel::*;
    use hipacc_ir::{Builtin, Expr, ScalarType, Stmt};

    #[test]
    fn engine_labels_round_trip() {
        for e in [Engine::Bytecode, Engine::Simd] {
            assert_eq!(Engine::from_label(e.label()), Some(e));
        }
        assert_eq!(Engine::from_label("tree-walk"), None);
    }

    /// OUT(x, y) = IN(x, y) + 1 with the standard guard.
    fn add_one_kernel() -> DeviceKernelDef {
        DeviceKernelDef {
            name: "addone".into(),
            buffers: vec![
                BufferParam {
                    name: "IN".into(),
                    ty: ScalarType::F32,
                    access: BufferAccess::ReadOnly,
                    space: MemorySpace::Global,
                    address_mode: AddressMode::None,
                },
                BufferParam {
                    name: "OUT".into(),
                    ty: ScalarType::F32,
                    access: BufferAccess::WriteOnly,
                    space: MemorySpace::Global,
                    address_mode: AddressMode::None,
                },
            ],
            scalars: vec![
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
            ],
            const_buffers: vec![],
            shared: vec![],
            body: vec![
                Stmt::Decl {
                    name: "gid_x".into(),
                    ty: ScalarType::I32,
                    init: Some(
                        Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX)
                            + Expr::Builtin(Builtin::ThreadIdxX),
                    ),
                },
                Stmt::Decl {
                    name: "gid_y".into(),
                    ty: ScalarType::I32,
                    init: Some(
                        Expr::Builtin(Builtin::BlockIdxY) * Expr::Builtin(Builtin::BlockDimY)
                            + Expr::Builtin(Builtin::ThreadIdxY),
                    ),
                },
                Stmt::If {
                    cond: Expr::var("gid_x")
                        .ge(Expr::var("is_width"))
                        .or(Expr::var("gid_y").ge(Expr::var("is_height"))),
                    then: vec![Stmt::Return],
                    els: vec![],
                },
                Stmt::GlobalStore {
                    buf: "OUT".into(),
                    idx: Expr::var("gid_x") + Expr::var("gid_y") * Expr::var("stride"),
                    value: Expr::GlobalLoad {
                        buf: "IN".into(),
                        idx: Box::new(
                            Expr::var("gid_x") + Expr::var("gid_y") * Expr::var("stride"),
                        ),
                    } + Expr::float(1.0),
                },
            ],
        }
    }

    #[test]
    fn launch_binds_geometry_scalars_automatically() {
        let img = Image::from_fn(100, 37, |x, y| (x * y) as f32);
        let mut inputs = HashMap::new();
        inputs.insert("IN".to_string(), &img);
        let spec = LaunchSpec {
            grid: (100u32.div_ceil(32), 37),
            block: (32, 1),
            inputs,
            ..Default::default()
        };
        let res = run_on_image(&add_one_kernel(), &spec).unwrap();
        assert_eq!(res.output.width(), 100);
        for y in [0, 18, 36] {
            for x in [0, 57, 99] {
                assert_eq!(res.output.get(x, y), (x * y) as f32 + 1.0, "({x},{y})");
            }
        }
        assert_eq!(res.stats.oob_reads, 0);
        assert_eq!(res.stats.global_stores, 100 * 37);
    }

    #[test]
    fn engines_agree_through_the_launch_path() {
        let img = Image::from_fn(100, 37, |x, y| (x * y) as f32);
        let mut inputs = HashMap::new();
        inputs.insert("IN".to_string(), &img);
        let spec = LaunchSpec {
            grid: (100u32.div_ceil(32), 37),
            block: (32, 1),
            inputs,
            ..Default::default()
        };
        let k = add_one_kernel();
        let (mut mem, params) = bind(&k, &spec).unwrap();
        let spec_stats = crate::interp::execute(&k, &params, &mut mem).unwrap();
        let spec_out = mem.buffer("OUT").unwrap().to_image();
        for engine in [Engine::Bytecode, Engine::Simd] {
            let run = run_on_image_with(&k, &spec, engine).unwrap();
            assert_eq!(run.stats, spec_stats, "{engine:?}");
            assert_eq!(run.output.max_abs_diff(&spec_out), 0.0, "{engine:?}");
        }
    }

    #[test]
    fn zero_sized_launches_are_rejected_before_dispatch() {
        let img = Image::from_fn(8, 8, |x, _| x as f32);
        let mut inputs = HashMap::new();
        inputs.insert("IN".to_string(), &img);
        for (grid, block) in [
            ((0, 1), (32, 1)),
            ((1, 0), (32, 1)),
            ((1, 1), (0, 1)),
            ((1, 1), (32, 0)),
        ] {
            let spec = LaunchSpec {
                grid,
                block,
                inputs: inputs.clone(),
                ..Default::default()
            };
            assert!(
                matches!(
                    run_on_image(&add_one_kernel(), &spec).unwrap_err(),
                    SimError::InvalidLaunch(_)
                ),
                "grid {grid:?} block {block:?} must be rejected"
            );
        }
    }

    #[test]
    fn mismatched_input_sizes_are_rejected_before_dispatch() {
        let mut k = add_one_kernel();
        let second = BufferParam {
            name: "IN2".into(),
            ..k.buffers[0].clone()
        };
        k.buffers.insert(1, second);
        let (a, b) = (Image::from_fn(8, 8, |x, _| x as f32), Image::new(16, 8));
        // Either insertion order, and either image as the declared-first
        // input: the launch never picks a geometry, it refuses.
        for (first, second) in [(&a, &b), (&b, &a)] {
            let mut inputs = HashMap::new();
            inputs.insert("IN2".to_string(), second);
            inputs.insert("IN".to_string(), first);
            let spec = LaunchSpec {
                grid: (1, 8),
                block: (8, 1),
                inputs,
                ..Default::default()
            };
            let err = run_on_image(&k, &spec).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidLaunch(ref m) if m.contains("`IN2`") && m.contains("`IN`")),
                "{err}"
            );
        }
    }

    #[test]
    fn empty_iteration_space_is_rejected_before_dispatch() {
        let img = Image::from_fn(8, 8, |x, _| x as f32);
        let mut inputs = HashMap::new();
        inputs.insert("IN".to_string(), &img);
        let mut scalars = HashMap::new();
        scalars.insert("is_width".to_string(), Const::Int(0));
        let spec = LaunchSpec {
            grid: (1, 8),
            block: (8, 1),
            inputs,
            scalars,
            ..Default::default()
        };
        let err = run_on_image(&add_one_kernel(), &spec).unwrap_err();
        assert!(matches!(err, SimError::InvalidLaunch(ref m) if m.contains("is_width")));
    }

    #[test]
    fn missing_input_reports_unbound() {
        let spec = LaunchSpec {
            grid: (1, 1),
            block: (32, 1),
            ..Default::default()
        };
        assert!(matches!(
            run_on_image(&add_one_kernel(), &spec).unwrap_err(),
            SimError::UnboundBuffer(_)
        ));
    }
}
