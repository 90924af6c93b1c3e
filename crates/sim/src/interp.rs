//! The semantic specification: a tree-walking SIMT interpreter.
//!
//! Executes a device-level kernel over `grid × block` threads directly on
//! the IR, faithfully enough to validate generated code against the CPU
//! references. It is not a launch engine: the tape engines
//! ([`crate::bytecode`], [`crate::simd`]) are checked against it on
//! outputs, per-block store order, [`ExecStats`] and error identity, and
//! everything a production launch needs beyond that — worker threads,
//! pools, fault hooks, execution profiles — lives with them.
//!
//! * **Barriers** split the kernel body into phases at the top level (the
//!   only place the code generator emits them); all threads of a block
//!   finish phase *k* before any enters phase *k+1*, with thread-local
//!   variables persisting across phases like registers do.
//! * **Shared memory** is per-block storage indexed `[y][x]`.
//! * **Texture fetches** apply the binding's hardware address mode.
//! * **Out-of-bounds** global accesses are memory-safe (clamped into the
//!   allocation) but *counted*, reproducing the paper's observation that
//!   Undefined-handling kernels crash on some hardware: a launch reports
//!   `oob_reads > 0` and the harness renders the cell as "crash".
//! * Blocks run one after another in linear block order against the
//!   memory as bound; stores are buffered per block in program order and
//!   applied in block order afterwards, which is exact for kernels whose
//!   blocks write disjoint locations (all kernels in this system).
//!
//! Three entries: [`execute`] (whole grid, committed), [`execute_blocks`]
//! (listed blocks, ordered stores and statistics per block, nothing
//! committed) and [`execute_observed`] ([`execute`] with the dynamic race
//! and bounds observer attached). Dynamic operation statistics are
//! collected so tests can cross-check the static estimates of
//! `hipacc-ir::metrics`.

use crate::memory::{DeviceMemory, LaunchParams};
use crate::observer::ObserverReport;
use hipacc_image::boundary::{clamp_index, repeat_index};
use hipacc_ir::fold::{eval_binop, eval_mathfn, eval_unop};
use hipacc_ir::kernel::{AddressMode, DeviceKernelDef};
use hipacc_ir::ty::{Const, ScalarType};
use hipacc_ir::{BinOp, Builtin, Expr, LValue, Stmt, TexCoords};
use std::collections::HashMap;
use std::fmt;

/// Simulation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A variable was read before any assignment.
    UndefinedVariable(String),
    /// A referenced buffer was not bound.
    UnboundBuffer(String),
    /// A scalar kernel argument was not provided.
    MissingScalar(String),
    /// Integer division by zero.
    DivisionByZero,
    /// Barrier in a nested position (the generator never emits this).
    NestedBarrier,
    /// Expression evaluation failed (type confusion — should be caught by
    /// the device type check).
    EvalError(String),
    /// The launch is invalid — a zero-sized grid or block, an empty
    /// iteration space, or inputs of different sizes — and was rejected
    /// before dispatch.
    InvalidLaunch(String),
    /// A worker's virtual clock passed the launch deadline (a hung or
    /// badly stalled worker under fault injection); the launch was
    /// cancelled.
    DeadlineExceeded {
        /// Worker whose virtual clock tripped the deadline.
        worker: usize,
        /// The worker's accumulated virtual time in µs (saturating).
        elapsed_us: u64,
        /// The deadline it exceeded, in µs.
        deadline_us: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UndefinedVariable(n) => write!(f, "read of undefined variable `{n}`"),
            SimError::UnboundBuffer(n) => write!(f, "buffer `{n}` not bound"),
            SimError::MissingScalar(n) => write!(f, "scalar argument `{n}` missing"),
            SimError::DivisionByZero => write!(f, "integer division by zero"),
            SimError::NestedBarrier => write!(f, "barrier inside control flow"),
            SimError::EvalError(m) => write!(f, "evaluation error: {m}"),
            SimError::InvalidLaunch(m) => write!(f, "invalid launch: {m}"),
            SimError::DeadlineExceeded {
                worker,
                elapsed_us,
                deadline_us,
            } => {
                if *elapsed_us == u64::MAX {
                    write!(
                        f,
                        "launch deadline exceeded: worker {worker} hung (virtual \
                         clock saturated) against a {deadline_us} µs deadline"
                    )
                } else {
                    write!(
                        f,
                        "launch deadline exceeded: worker {worker} at {elapsed_us} µs \
                         (virtual) against a {deadline_us} µs deadline"
                    )
                }
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Dynamic statistics for one launch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Global loads executed.
    pub global_loads: u64,
    /// Global stores executed.
    pub global_stores: u64,
    /// Texture fetches executed.
    pub tex_fetches: u64,
    /// Constant-memory loads executed.
    pub const_loads: u64,
    /// Shared-memory loads executed.
    pub shared_loads: u64,
    /// Shared-memory stores executed.
    pub shared_stores: u64,
    /// Barrier participations (threads × barriers).
    pub barriers: u64,
    /// Out-of-bounds global reads (nonzero ⇒ the real kernel may crash).
    pub oob_reads: u64,
    /// Out-of-bounds global stores (dropped).
    pub oob_stores: u64,
}

impl ExecStats {
    /// Accumulate another block's (or launch's) counters into this one.
    ///
    /// Counters are accumulated in plain per-block structs on the worker
    /// threads and merged once per block at join time — no atomics in
    /// (or anywhere near) the per-thread hot loop.
    ///
    /// `other` is destructured exhaustively: adding a counter field
    /// without merging it is a compile error, which the profiler's
    /// per-region/launch-total cross-check depends on.
    pub fn merge(&mut self, other: &ExecStats) {
        let ExecStats {
            global_loads,
            global_stores,
            tex_fetches,
            const_loads,
            shared_loads,
            shared_stores,
            barriers,
            oob_reads,
            oob_stores,
        } = *other;
        self.global_loads += global_loads;
        self.global_stores += global_stores;
        self.tex_fetches += tex_fetches;
        self.const_loads += const_loads;
        self.shared_loads += shared_loads;
        self.shared_stores += shared_stores;
        self.barriers += barriers;
        self.oob_reads += oob_reads;
        self.oob_stores += oob_stores;
    }
}

/// A buffered global store.
pub(crate) struct PendingStore {
    pub(crate) buf: String,
    pub(crate) idx: usize,
    pub(crate) value: f32,
}

enum Flow {
    Normal,
    Returned,
}

/// Per-thread mutable state: a flat variable stack with scope marks.
///
/// Kernel scopes hold a handful of variables, so a flat `Vec` with
/// last-match-wins reverse scans beats hash maps by a wide margin (the
/// interpreter resolves a variable on almost every expression node).
/// Scope entry records the stack length; scope exit truncates back to it,
/// which also implements shadowing for free.
struct ThreadState {
    vars: Vec<(String, Const)>,
    marks: Vec<usize>,
    tx: i64,
    ty: i64,
    done: bool,
}

impl ThreadState {
    fn new(tx: u32, ty: u32) -> Self {
        Self {
            vars: Vec::with_capacity(16),
            marks: Vec::with_capacity(8),
            tx: tx as i64,
            ty: ty as i64,
            done: false,
        }
    }

    #[inline]
    fn lookup(&self, name: &str) -> Option<Const> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    #[inline]
    fn declare(&mut self, name: &str, v: Const) {
        self.vars.push((name.to_string(), v));
    }

    #[inline]
    fn assign(&mut self, name: &str, v: Const) -> Result<(), SimError> {
        for (n, slot) in self.vars.iter_mut().rev() {
            if n == name {
                *slot = v;
                return Ok(());
            }
        }
        Err(SimError::UndefinedVariable(name.to_string()))
    }

    #[inline]
    fn push_scope(&mut self) {
        self.marks.push(self.vars.len());
    }

    #[inline]
    fn pop_scope(&mut self) {
        let mark = self.marks.pop().expect("scope mark");
        self.vars.truncate(mark);
    }
}

/// Immutable per-block context shared by all threads of the block.
struct BlockCtx<'a> {
    kernel: &'a DeviceKernelDef,
    mem: &'a DeviceMemory,
    params: &'a LaunchParams,
    bx: i64,
    by: i64,
}

/// Per-block mutable state: shared memory and buffered stores.
struct BlockState {
    shared: HashMap<String, (Vec<f32>, u32 /* cols */)>,
    stores: Vec<PendingStore>,
    stats: ExecStats,
    /// Present only on observed runs ([`execute_observed`]); never alters
    /// execution semantics or statistics.
    obs: Option<crate::observer::BlockObserver>,
}

struct Interp<'a> {
    ctx: BlockCtx<'a>,
    block: BlockState,
}

impl<'a> Interp<'a> {
    fn builtin(&self, b: Builtin, t: &ThreadState) -> Const {
        let v = match b {
            Builtin::ThreadIdxX => t.tx,
            Builtin::ThreadIdxY => t.ty,
            Builtin::BlockIdxX => self.ctx.bx,
            Builtin::BlockIdxY => self.ctx.by,
            Builtin::BlockDimX => self.ctx.params.block.0 as i64,
            Builtin::BlockDimY => self.ctx.params.block.1 as i64,
            Builtin::GridDimX => self.ctx.params.grid.0 as i64,
            Builtin::GridDimY => self.ctx.params.grid.1 as i64,
        };
        Const::Int(v)
    }

    fn global_read(&mut self, buf: &str, idx: i64) -> Result<f32, SimError> {
        let b = self
            .ctx
            .mem
            .buffer(buf)
            .ok_or_else(|| SimError::UnboundBuffer(buf.to_string()))?;
        self.block.stats.global_loads += 1;
        if idx < 0 || idx as usize >= b.data.len() {
            self.block.stats.oob_reads += 1;
            let clamped = idx.clamp(0, b.data.len() as i64 - 1) as usize;
            return Ok(b.data[clamped]);
        }
        Ok(b.data[idx as usize])
    }

    fn tex_read(
        &mut self,
        buf: &str,
        coords: &TexCoords,
        t: &mut ThreadState,
    ) -> Result<f32, SimError> {
        self.block.stats.tex_fetches += 1;
        let b = self
            .ctx
            .mem
            .buffer(buf)
            .ok_or_else(|| SimError::UnboundBuffer(buf.to_string()))?;
        match coords {
            TexCoords::Linear(i) => {
                let idx = self.eval(i, t)?.as_i64();
                if idx < 0 || idx as usize >= b.data.len() {
                    self.block.stats.oob_reads += 1;
                    let clamped = idx.clamp(0, b.data.len() as i64 - 1) as usize;
                    return Ok(b.data[clamped]);
                }
                Ok(b.data[idx as usize])
            }
            TexCoords::Xy(xe, ye) => {
                let x = self.eval(xe, t)?.as_i64() as i32;
                let y = self.eval(ye, t)?.as_i64() as i32;
                let mode = self
                    .ctx
                    .mem
                    .tex_modes
                    .get(buf)
                    .copied()
                    .unwrap_or(AddressMode::None);
                let (w, h, stride) = (b.geom.width, b.geom.height, b.geom.stride);
                let (ax, ay) = match mode {
                    AddressMode::Clamp => (clamp_index(x, w), clamp_index(y, h)),
                    AddressMode::Repeat => (repeat_index(x, w), repeat_index(y, h)),
                    AddressMode::BorderConstant(c) => {
                        if x < 0 || y < 0 || x >= w as i32 || y >= h as i32 {
                            return Ok(c);
                        }
                        (x, y)
                    }
                    AddressMode::None => {
                        if x < 0 || y < 0 || x >= w as i32 || y >= h as i32 {
                            self.block.stats.oob_reads += 1;
                            (clamp_index(x, w), clamp_index(y, h))
                        } else {
                            (x, y)
                        }
                    }
                };
                Ok(b.data[ay as usize * stride as usize + ax as usize])
            }
        }
    }

    fn const_read(&mut self, buf: &str, idx: i64) -> Result<f32, SimError> {
        self.block.stats.const_loads += 1;
        let cb = self
            .ctx
            .kernel
            .const_buffer(buf)
            .ok_or_else(|| SimError::UnboundBuffer(buf.to_string()))?;
        let data: &[f32] = match &cb.data {
            Some(d) => d,
            None => self
                .ctx
                .mem
                .dynamic_const
                .get(buf)
                .ok_or_else(|| SimError::UnboundBuffer(buf.to_string()))?,
        };
        let idx = idx.clamp(0, data.len() as i64 - 1) as usize;
        Ok(data[idx])
    }

    fn eval(&mut self, e: &Expr, t: &mut ThreadState) -> Result<Const, SimError> {
        match e {
            Expr::ImmInt(i) => Ok(Const::Int(*i)),
            Expr::ImmFloat(f) => Ok(Const::Float(*f)),
            Expr::ImmBool(b) => Ok(Const::Bool(*b)),
            Expr::Var(n) => {
                if let Some(v) = t.lookup(n) {
                    return Ok(v);
                }
                self.ctx
                    .params
                    .scalars
                    .get(n)
                    .copied()
                    .ok_or_else(|| SimError::UndefinedVariable(n.clone()))
            }
            Expr::Builtin(b) => Ok(self.builtin(*b, t)),
            Expr::Unary(op, a) => {
                let v = self.eval(a, t)?;
                eval_unop(*op, v).ok_or_else(|| SimError::EvalError(format!("{op:?} on {v:?}")))
            }
            Expr::Binary(op, a, b) => {
                let va = self.eval(a, t)?;
                // Short-circuit logic matches C.
                match op {
                    BinOp::And if !va.as_bool() => return Ok(Const::Bool(false)),
                    BinOp::Or if va.as_bool() => return Ok(Const::Bool(true)),
                    _ => {}
                }
                let vb = self.eval(b, t)?;
                if matches!(op, BinOp::Div | BinOp::Rem) {
                    if let (Const::Int(_), Const::Int(0)) = (va, vb) {
                        return Err(SimError::DivisionByZero);
                    }
                }
                eval_binop(*op, va, vb)
                    .ok_or_else(|| SimError::EvalError(format!("{op:?} on {va:?}, {vb:?}")))
            }
            Expr::Call(f, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, t)?);
                }
                eval_mathfn(*f, &vals)
                    .ok_or_else(|| SimError::EvalError(format!("{f:?} on {vals:?}")))
            }
            Expr::Cast(ty, a) => {
                let v = self.eval(a, t)?;
                Ok(match ty {
                    ScalarType::F32 => Const::Float(v.as_f32()),
                    ScalarType::I32 | ScalarType::U32 => Const::Int(v.as_i64()),
                    ScalarType::Bool => Const::Bool(v.as_bool()),
                })
            }
            Expr::Select(c, a, b) => {
                // Lazy evaluation: only the chosen branch runs (matters for
                // constant-boundary guards around out-of-bounds loads).
                if self.eval(c, t)?.as_bool() {
                    self.eval(a, t)
                } else {
                    self.eval(b, t)
                }
            }
            Expr::GlobalLoad { buf, idx } => {
                let i = self.eval(idx, t)?.as_i64();
                Ok(Const::Float(self.global_read(buf, i)?))
            }
            Expr::TexFetch { buf, coords } => Ok(Const::Float(self.tex_read(buf, coords, t)?)),
            Expr::ConstLoad { buf, idx } => {
                let i = self.eval(idx, t)?.as_i64();
                Ok(Const::Float(self.const_read(buf, i)?))
            }
            Expr::SharedLoad { buf, y, x } => {
                let yi = self.eval(y, t)?.as_i64();
                let xi = self.eval(x, t)?.as_i64();
                self.block.stats.shared_loads += 1;
                let (data, cols) = self
                    .block
                    .shared
                    .get(buf)
                    .ok_or_else(|| SimError::UnboundBuffer(buf.clone()))?;
                let (cols, len) = (*cols, data.len());
                let idx = (yi * cols as i64 + xi).clamp(0, len as i64 - 1) as usize;
                let v = data[idx];
                if let Some(obs) = self.block.obs.as_mut() {
                    let lane = t.ty * self.ctx.params.block.0 as i64 + t.tx;
                    obs.shared_access(buf, (yi, xi), (cols, len), lane, false);
                }
                Ok(Const::Float(v))
            }
            Expr::InputAt { .. } | Expr::MaskAt { .. } | Expr::OutputX | Expr::OutputY => Err(
                SimError::EvalError("DSL-level node reached the interpreter".into()),
            ),
        }
    }

    fn exec_stmts(&mut self, stmts: &[Stmt], t: &mut ThreadState) -> Result<Flow, SimError> {
        for s in stmts {
            match s {
                Stmt::Decl { name, ty, init } => {
                    let v = match init {
                        Some(e) => {
                            let raw = self.eval(e, t)?;
                            // Coerce to the declared type, as C would.
                            match ty {
                                ScalarType::F32 => Const::Float(raw.as_f32()),
                                ScalarType::I32 | ScalarType::U32 => Const::Int(raw.as_i64()),
                                ScalarType::Bool => Const::Bool(raw.as_bool()),
                            }
                        }
                        None => Const::Int(0),
                    };
                    t.declare(name, v);
                }
                Stmt::Assign { target, value } => {
                    let LValue::Var(name) = target;
                    let v = self.eval(value, t)?;
                    t.assign(name, v)?;
                }
                Stmt::For {
                    var,
                    from,
                    to,
                    body,
                } => {
                    let lo = self.eval(from, t)?.as_i64();
                    let hi = self.eval(to, t)?.as_i64();
                    for i in lo..=hi {
                        t.push_scope();
                        t.declare(var, Const::Int(i));
                        let flow = self.exec_stmts(body, t)?;
                        t.pop_scope();
                        if let Flow::Returned = flow {
                            return Ok(Flow::Returned);
                        }
                    }
                }
                Stmt::If { cond, then, els } => {
                    let c = self.eval(cond, t)?.as_bool();
                    t.push_scope();
                    let flow = if c {
                        self.exec_stmts(then, t)?
                    } else {
                        self.exec_stmts(els, t)?
                    };
                    t.pop_scope();
                    if let Flow::Returned = flow {
                        return Ok(Flow::Returned);
                    }
                }
                Stmt::GlobalStore { buf, idx, value } => {
                    let i = self.eval(idx, t)?.as_i64();
                    let v = self.eval(value, t)?.as_f32();
                    self.block.stats.global_stores += 1;
                    let len = self
                        .ctx
                        .mem
                        .buffer(buf)
                        .ok_or_else(|| SimError::UnboundBuffer(buf.clone()))?
                        .data
                        .len();
                    if i < 0 || i as usize >= len {
                        self.block.stats.oob_stores += 1;
                    } else {
                        self.block.stores.push(PendingStore {
                            buf: buf.clone(),
                            idx: i as usize,
                            value: v,
                        });
                    }
                }
                Stmt::SharedStore { buf, y, x, value } => {
                    let yi = self.eval(y, t)?.as_i64();
                    let xi = self.eval(x, t)?.as_i64();
                    let v = self.eval(value, t)?.as_f32();
                    self.block.stats.shared_stores += 1;
                    let (data, cols) = self
                        .block
                        .shared
                        .get_mut(buf)
                        .ok_or_else(|| SimError::UnboundBuffer(buf.clone()))?;
                    let (cols, len) = (*cols, data.len());
                    let idx = (yi * cols as i64 + xi).clamp(0, len as i64 - 1) as usize;
                    data[idx] = v;
                    if let Some(obs) = self.block.obs.as_mut() {
                        let lane = t.ty * self.ctx.params.block.0 as i64 + t.tx;
                        obs.shared_access(buf, (yi, xi), (cols, len), lane, true);
                    }
                }
                Stmt::Barrier => return Err(SimError::NestedBarrier),
                Stmt::Return => return Ok(Flow::Returned),
                Stmt::Comment(_) => {}
                Stmt::Output(_) => {
                    return Err(SimError::EvalError(
                        "DSL-level output() reached the interpreter".into(),
                    ))
                }
            }
        }
        Ok(Flow::Normal)
    }
}

/// Split the body into barrier-delimited phases (top level only).
pub(crate) fn phases(body: &[Stmt]) -> Vec<&[Stmt]> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, s) in body.iter().enumerate() {
        if matches!(s, Stmt::Barrier) {
            out.push(&body[start..i]);
            start = i + 1;
        }
    }
    out.push(&body[start..]);
    out
}

/// Execute one block, returning its buffered stores, stats, and (on
/// observed runs) the block's observer report.
fn run_block(
    kernel: &DeviceKernelDef,
    mem: &DeviceMemory,
    params: &LaunchParams,
    bx: u32,
    by: u32,
    observe: bool,
) -> Result<(Vec<PendingStore>, ExecStats, Option<ObserverReport>), SimError> {
    let mut shared = HashMap::new();
    for sh in &kernel.shared {
        shared.insert(
            sh.name.clone(),
            (vec![0.0f32; (sh.rows * sh.cols) as usize], sh.cols),
        );
    }
    let mut interp = Interp {
        ctx: BlockCtx {
            kernel,
            mem,
            params,
            bx: bx as i64,
            by: by as i64,
        },
        block: BlockState {
            shared,
            stores: Vec::new(),
            stats: ExecStats::default(),
            obs: observe.then(crate::observer::BlockObserver::new),
        },
    };

    let (tbx, tby) = params.block;
    let mut threads: Vec<ThreadState> = (0..tby)
        .flat_map(|ty| (0..tbx).map(move |tx| ThreadState::new(tx, ty)))
        .collect();

    let phase_list = phases(&kernel.body);
    let n_phases = phase_list.len();
    for (pi, phase) in phase_list.into_iter().enumerate() {
        for t in threads.iter_mut() {
            if t.done {
                continue;
            }
            match interp.exec_stmts(phase, t)? {
                Flow::Returned => t.done = true,
                Flow::Normal => {}
            }
        }
        if pi + 1 < n_phases {
            interp.block.stats.barriers += threads.iter().filter(|t| !t.done).count() as u64;
            if let Some(obs) = interp.block.obs.as_mut() {
                obs.next_phase();
            }
        }
    }

    Ok((
        interp.block.stores,
        interp.block.stats,
        interp.block.obs.map(|o| o.report),
    ))
}

/// The launch validation every engine performs first, in this order:
/// every scalar parameter supplied, every buffer bound.
fn validate(
    kernel: &DeviceKernelDef,
    params: &LaunchParams,
    mem: &DeviceMemory,
) -> Result<(), SimError> {
    for p in &kernel.scalars {
        if !params.scalars.contains_key(&p.name) {
            return Err(SimError::MissingScalar(p.name.clone()));
        }
    }
    for buf in &kernel.buffers {
        if mem.buffer(&buf.name).is_none() {
            return Err(SimError::UnboundBuffer(buf.name.clone()));
        }
    }
    Ok(())
}

/// Execute a kernel launch over the whole grid: every block runs against
/// the memory as bound, in linear block order, then the buffered stores
/// are applied in that order.
pub fn execute(
    kernel: &DeviceKernelDef,
    params: &LaunchParams,
    mem: &mut DeviceMemory,
) -> Result<ExecStats, SimError> {
    execute_grid(kernel, params, mem, false).map(|(stats, _)| stats)
}

/// Execute the listed blocks against the bound memory and return, per
/// block and in the order listed, the block's stores in program order and
/// its statistics — *without committing anything*. Input buffers are
/// read-only during a launch and generated kernels write disjoint cells
/// per block, so a block run in isolation produces exactly the stores it
/// contributes to a whole launch; the tape engines' commit order (and so
/// which store a `FlipBits { nth }` fault lands on) is checked against
/// this.
pub fn execute_blocks(
    kernel: &DeviceKernelDef,
    params: &LaunchParams,
    mem: &DeviceMemory,
    blocks: &[(u32, u32)],
) -> Result<Vec<(Vec<crate::inject::RepairStore>, ExecStats)>, SimError> {
    validate(kernel, params, mem)?;
    blocks
        .iter()
        .map(|&(bx, by)| {
            let (stores, stats, _) = run_block(kernel, mem, params, bx, by, false)?;
            let stores = stores.into_iter().map(|s| crate::inject::RepairStore {
                buf: s.buf,
                idx: s.idx,
                value: s.value,
            });
            Ok((stores.collect(), stats))
        })
        .collect()
}

/// Execute a kernel launch with the dynamic observer attached: identical
/// semantics and statistics to [`execute`], plus an [`ObserverReport`]
/// witnessing shared-memory races, shared out-of-bounds accesses, global
/// out-of-bounds accesses and global store conflicts.
pub fn execute_observed(
    kernel: &DeviceKernelDef,
    params: &LaunchParams,
    mem: &mut DeviceMemory,
) -> Result<(ExecStats, ObserverReport), SimError> {
    let (stats, report) = execute_grid(kernel, params, mem, true)?;
    let mut report = report.unwrap_or_default();
    report.global_oob_reads = stats.oob_reads;
    report.global_oob_stores = stats.oob_stores;
    Ok((stats, report))
}

fn execute_grid(
    kernel: &DeviceKernelDef,
    params: &LaunchParams,
    mem: &mut DeviceMemory,
    observe: bool,
) -> Result<(ExecStats, Option<ObserverReport>), SimError> {
    validate(kernel, params, mem)?;
    let (gx, gy) = params.grid;
    let ran = (0..gy)
        .flat_map(|by| (0..gx).map(move |bx| (bx, by)))
        .map(|(bx, by)| run_block(kernel, mem, params, bx, by, observe))
        .collect::<Result<Vec<_>, SimError>>()?;

    let mut stats_total = ExecStats::default();
    let mut report_total: Option<ObserverReport> = observe.then(ObserverReport::default);
    // Generated kernels write each output pixel exactly once, so two
    // stores landing on one cell mean overlapping iteration spaces.
    let mut store_counts: HashMap<(String, usize), u64> = HashMap::new();
    for (stores, block_stats, block_report) in ran {
        stats_total.merge(&block_stats);
        if let (Some(total), Some(r)) = (report_total.as_mut(), block_report.as_ref()) {
            total.merge(r);
        }
        for st in stores {
            if let Some(total) = report_total.as_mut() {
                let n = store_counts.entry((st.buf.clone(), st.idx)).or_insert(0);
                *n += 1;
                if *n == 2 {
                    total.global_store_conflicts += 1;
                    total.example(format!("multiple threads store `{}`[{}]", st.buf, st.idx));
                }
            }
            let buf = mem
                .buffer_mut(&st.buf)
                .ok_or_else(|| SimError::UnboundBuffer(st.buf.clone()))?;
            buf.data[st.idx] = st.value;
        }
    }
    Ok((stats_total, report_total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{BufferGeometry, DeviceBuffer};
    use hipacc_ir::kernel::*;
    use hipacc_ir::{Expr, ScalarType};

    /// OUT[gid] = 2 * IN[gid] over a 1-D launch.
    fn double_kernel() -> DeviceKernelDef {
        DeviceKernelDef {
            name: "double".into(),
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
            scalars: vec![ParamDecl {
                name: "n".into(),
                ty: ScalarType::I32,
            }],
            const_buffers: vec![],
            shared: vec![],
            body: vec![
                Stmt::Decl {
                    name: "gid".into(),
                    ty: ScalarType::I32,
                    init: Some(
                        Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX)
                            + Expr::Builtin(Builtin::ThreadIdxX),
                    ),
                },
                Stmt::If {
                    cond: Expr::var("gid").ge(Expr::var("n")),
                    then: vec![Stmt::Return],
                    els: vec![],
                },
                Stmt::GlobalStore {
                    buf: "OUT".into(),
                    idx: Expr::var("gid"),
                    value: Expr::float(2.0)
                        * Expr::GlobalLoad {
                            buf: "IN".into(),
                            idx: Box::new(Expr::var("gid")),
                        },
                },
            ],
        }
    }

    fn linear_mem(n: usize) -> DeviceMemory {
        let mut mem = DeviceMemory::new();
        let geom = BufferGeometry {
            width: n as u32,
            height: 1,
            stride: n as u32,
        };
        let mut inp = DeviceBuffer::new(geom);
        for (i, v) in inp.data.iter_mut().enumerate() {
            *v = i as f32;
        }
        mem.bind("IN", inp);
        mem.bind("OUT", DeviceBuffer::new(geom));
        mem
    }

    #[test]
    fn executes_simple_kernel() {
        let k = double_kernel();
        let mut mem = linear_mem(100);
        let mut p = LaunchParams::new((4, 1), (32, 1));
        p.set_int("n", 100);
        let stats = execute(&k, &p, &mut mem).unwrap();
        let out = &mem.buffer("OUT").unwrap().data;
        for (i, v) in out.iter().take(100).enumerate() {
            assert_eq!(*v, 2.0 * i as f32);
        }
        // 28 guarded-out threads (128 launched, 100 live).
        assert_eq!(stats.global_stores, 100);
        assert_eq!(stats.global_loads, 100);
        assert_eq!(stats.oob_reads, 0);
    }

    #[test]
    fn missing_scalar_is_an_error() {
        let k = double_kernel();
        let mut mem = linear_mem(10);
        let p = LaunchParams::new((1, 1), (32, 1));
        assert_eq!(
            execute(&k, &p, &mut mem).unwrap_err(),
            SimError::MissingScalar("n".into())
        );
    }

    #[test]
    fn unbound_buffer_is_an_error() {
        let k = double_kernel();
        let mut mem = DeviceMemory::new();
        let mut p = LaunchParams::new((1, 1), (32, 1));
        p.set_int("n", 10);
        assert!(matches!(
            execute(&k, &p, &mut mem).unwrap_err(),
            SimError::UnboundBuffer(_)
        ));
    }

    #[test]
    fn oob_reads_are_counted_not_fatal() {
        let mut k = double_kernel();
        // Read one past the end for every thread.
        k.body[2] = Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: Expr::var("gid"),
            value: Expr::GlobalLoad {
                buf: "IN".into(),
                idx: Box::new(Expr::var("gid") + Expr::int(1_000_000)),
            },
        };
        let mut mem = linear_mem(64);
        let mut p = LaunchParams::new((2, 1), (32, 1));
        p.set_int("n", 64);
        let stats = execute(&k, &p, &mut mem).unwrap();
        assert_eq!(stats.oob_reads, 64);
    }

    /// Shared-memory reversal within a block: smem[0][tx] = IN[gid];
    /// barrier; OUT[gid] = smem[0][blockDim.x - 1 - tx].
    #[test]
    fn barrier_phases_see_all_shared_stores() {
        let k = DeviceKernelDef {
            name: "rev".into(),
            buffers: double_kernel().buffers,
            scalars: vec![],
            const_buffers: vec![],
            shared: vec![SharedDecl {
                name: "_s".into(),
                ty: ScalarType::F32,
                rows: 1,
                cols: 32,
            }],
            body: vec![
                Stmt::Decl {
                    name: "gid".into(),
                    ty: ScalarType::I32,
                    init: Some(
                        Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX)
                            + Expr::Builtin(Builtin::ThreadIdxX),
                    ),
                },
                Stmt::SharedStore {
                    buf: "_s".into(),
                    y: Expr::int(0),
                    x: Expr::Builtin(Builtin::ThreadIdxX),
                    value: Expr::GlobalLoad {
                        buf: "IN".into(),
                        idx: Box::new(Expr::var("gid")),
                    },
                },
                Stmt::Barrier,
                Stmt::GlobalStore {
                    buf: "OUT".into(),
                    idx: Expr::var("gid"),
                    value: Expr::SharedLoad {
                        buf: "_s".into(),
                        y: Box::new(Expr::int(0)),
                        x: Box::new(
                            Expr::Builtin(Builtin::BlockDimX)
                                - Expr::int(1)
                                - Expr::Builtin(Builtin::ThreadIdxX),
                        ),
                    },
                },
            ],
        };
        let mut mem = linear_mem(64);
        let p = LaunchParams::new((2, 1), (32, 1));
        let stats = execute(&k, &p, &mut mem).unwrap();
        let out = &mem.buffer("OUT").unwrap().data;
        // Block 0 holds 0..32 reversed; block 1 holds 32..64 reversed.
        assert_eq!(out[0], 31.0);
        assert_eq!(out[31], 0.0);
        assert_eq!(out[32], 63.0);
        assert_eq!(stats.barriers, 64);
        assert_eq!(stats.shared_loads, 64);
        assert_eq!(stats.shared_stores, 64);
    }

    /// The observer sees the barrier-separated reversal kernel as clean,
    /// flags a collapsed-index variant as racy, and never perturbs the
    /// statistics of the unobserved run.
    #[test]
    fn observer_separates_clean_from_racy() {
        let clean = {
            let mut mem = linear_mem(64);
            let p = LaunchParams::new((2, 1), (32, 1));
            let k = reversal_kernel();
            let base = execute(&k, &p, &mut mem).unwrap();
            let mut mem2 = linear_mem(64);
            let (stats, report) = execute_observed(&k, &p, &mut mem2).unwrap();
            assert_eq!(stats, base, "observation must not alter statistics");
            assert_eq!(
                mem.buffer("OUT").unwrap().data,
                mem2.buffer("OUT").unwrap().data
            );
            report
        };
        assert!(clean.is_clean(), "{clean:?}");

        // Same kernel, but every pair of lanes stages into tile cell
        // tx/2: a write/write race inside the first phase.
        let mut k = reversal_kernel();
        if let Stmt::SharedStore { x, .. } = &mut k.body[1] {
            *x = Expr::Builtin(Builtin::ThreadIdxX) / Expr::int(2);
        } else {
            panic!("expected the staging store");
        }
        let mut mem = linear_mem(64);
        let p = LaunchParams::new((2, 1), (32, 1));
        let (_, report) = execute_observed(&k, &p, &mut mem).unwrap();
        assert!(report.shared_write_write > 0, "{report:?}");
    }

    fn reversal_kernel() -> DeviceKernelDef {
        DeviceKernelDef {
            name: "rev".into(),
            buffers: double_kernel().buffers,
            scalars: vec![],
            const_buffers: vec![],
            shared: vec![SharedDecl {
                name: "_s".into(),
                ty: ScalarType::F32,
                rows: 1,
                cols: 32,
            }],
            body: vec![
                Stmt::Decl {
                    name: "gid".into(),
                    ty: ScalarType::I32,
                    init: Some(
                        Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX)
                            + Expr::Builtin(Builtin::ThreadIdxX),
                    ),
                },
                Stmt::SharedStore {
                    buf: "_s".into(),
                    y: Expr::int(0),
                    x: Expr::Builtin(Builtin::ThreadIdxX),
                    value: Expr::GlobalLoad {
                        buf: "IN".into(),
                        idx: Box::new(Expr::var("gid")),
                    },
                },
                Stmt::Barrier,
                Stmt::GlobalStore {
                    buf: "OUT".into(),
                    idx: Expr::var("gid"),
                    value: Expr::SharedLoad {
                        buf: "_s".into(),
                        y: Box::new(Expr::int(0)),
                        x: Box::new(
                            Expr::Builtin(Builtin::BlockDimX)
                                - Expr::int(1)
                                - Expr::Builtin(Builtin::ThreadIdxX),
                        ),
                    },
                },
            ],
        }
    }

    #[test]
    fn texture_address_modes_apply() {
        // OUT[tx] = tex2D(IN, tx - 2, 0) with clamp: first three reads all
        // see pixel 0.
        let mut k = double_kernel();
        k.scalars.clear();
        k.buffers[0].space = MemorySpace::Texture;
        k.buffers[0].address_mode = AddressMode::Clamp;
        k.body = vec![Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: Expr::Builtin(Builtin::ThreadIdxX),
            value: Expr::TexFetch {
                buf: "IN".into(),
                coords: TexCoords::Xy(
                    Box::new(Expr::Builtin(Builtin::ThreadIdxX) - Expr::int(2)),
                    Box::new(Expr::int(0)),
                ),
            },
        }];
        let mut mem = linear_mem(32);
        mem.tex_modes.insert("IN".into(), AddressMode::Clamp);
        let p = LaunchParams::new((1, 1), (32, 1));
        let stats = execute(&k, &p, &mut mem).unwrap();
        let out = &mem.buffer("OUT").unwrap().data;
        assert_eq!(out[0], 0.0);
        assert_eq!(out[1], 0.0);
        assert_eq!(out[2], 0.0);
        assert_eq!(out[3], 1.0);
        assert_eq!(stats.tex_fetches, 32);
        assert_eq!(stats.oob_reads, 0, "clamped sampler reads are not OOB");
    }

    #[test]
    fn border_constant_sampler_returns_constant() {
        let mut k = double_kernel();
        k.scalars.clear();
        k.buffers[0].space = MemorySpace::Texture;
        k.body = vec![Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: Expr::Builtin(Builtin::ThreadIdxX),
            value: Expr::TexFetch {
                buf: "IN".into(),
                coords: TexCoords::Xy(
                    Box::new(Expr::Builtin(Builtin::ThreadIdxX) - Expr::int(1)),
                    Box::new(Expr::int(0)),
                ),
            },
        }];
        let mut mem = linear_mem(32);
        mem.tex_modes
            .insert("IN".into(), AddressMode::BorderConstant(1.0));
        let p = LaunchParams::new((1, 1), (32, 1));
        execute(&k, &p, &mut mem).unwrap();
        let out = &mem.buffer("OUT").unwrap().data;
        assert_eq!(out[0], 1.0); // border color
        assert_eq!(out[1], 0.0); // pixel 0
    }

    #[test]
    fn division_by_zero_is_reported() {
        let mut k = double_kernel();
        k.body = vec![Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: Expr::int(0),
            value: (Expr::int(1) / Expr::int(0)).cast(ScalarType::F32),
        }];
        let mut mem = linear_mem(8);
        let mut p = LaunchParams::new((1, 1), (1, 1));
        p.set_int("n", 8);
        assert_eq!(
            execute(&k, &p, &mut mem).unwrap_err(),
            SimError::DivisionByZero
        );
    }

    #[test]
    fn scalar_params_reach_threads() {
        let mut k = double_kernel();
        k.scalars.push(ParamDecl {
            name: "scale".into(),
            ty: ScalarType::F32,
        });
        k.body[2] = Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: Expr::var("gid"),
            value: Expr::var("scale")
                * Expr::GlobalLoad {
                    buf: "IN".into(),
                    idx: Box::new(Expr::var("gid")),
                },
        };
        let mut mem = linear_mem(32);
        let mut p = LaunchParams::new((1, 1), (32, 1));
        p.set_int("n", 32).set_float("scale", 3.0);
        execute(&k, &p, &mut mem).unwrap();
        assert_eq!(mem.buffer("OUT").unwrap().data[10], 30.0);
    }
}
