//! The bytecode execution engine: compile once, run blocks on a register
//! machine.
//!
//! The tree-walking interpreter in [`crate::interp`] re-resolves variable
//! names, buffer names and launch constants on every expression node of
//! every thread. This module lowers a [`DeviceKernelDef`] *once per launch
//! configuration* into a flat register-machine program (the launch step
//! keeps it for every later launch with the same launch constants, see
//! [`crate::launch::TapeMemo`]) and then runs that program for each
//! thread:
//!
//! * **Slot resolution** — variables become dense register indices; buffer,
//!   constant-buffer and shared-memory references become indices into
//!   binding tables. The hot loop performs no name lookups and no hashing.
//! * **Launch-constant folding** — `BlockDim*`/`GridDim*` and scalar
//!   arguments are known at compile time; pure constant subtrees are folded
//!   with [`hipacc_ir::fold`] semantics (constant *evaluation* only — the
//!   algebraic identities of `fold_expr` are skipped because they may drop
//!   operands containing counted memory loads, which would change
//!   [`ExecStats`]).
//! * **Block-uniform hoisting** — maximal pure subexpressions built only
//!   from `BlockIdx*`, launch constants and scalars are compiled into a
//!   per-block *prologue tape*, evaluated once per block, and read from a
//!   uniform register file by the thread tape.
//! * **In-range texel reads** — a 2-D texture fetch whose coordinates lie
//!   inside the image reads the texel directly, because every address
//!   mode is the identity there; only out-of-range coordinates go through
//!   the address-mode dispatch. Both tape engines read through one
//!   `texel` function. The paper's interior/border split itself lives in
//!   the generated code, which specializes the nine regions.
//! * **Control flow** — `For`/`If`/`Select` and short-circuit `&&`/`||`
//!   become conditional jumps; loop bounds are evaluated once, like the
//!   interpreter. Lazy-evaluation semantics (only the chosen `Select`
//!   branch runs) are preserved exactly, so out-of-bounds counting agrees
//!   bit-for-bit with the tree-walk.
//!
//! Semantics are intentionally *identical* to the interpreter, which is
//! the specification and not a launch engine: the differential harness in
//! the workspace test-suite asserts bit-identical outputs, per-block store
//! order, identical [`ExecStats`] and identical errors against it.
//!
//! This module also owns everything whole-grid about a launch, once, for
//! both tape engines ([`Engine::Bytecode`] and [`Engine::Simd`]): the
//! claimed/strided block loop, reassembly in block order, the fault hook's
//! admit and commit steps, the execution profile and selective block
//! re-execution ([`CompiledKernel::run_instrumented`],
//! [`CompiledKernel::run_blocks_with`]).

use crate::interp::{phases, ExecStats, SimError};
use crate::launch::Engine;
use crate::memory::{BufferGeometry, DeviceMemory, LaunchParams};
use hipacc_image::boundary::{clamp_index, repeat_index};
use hipacc_ir::fold::{eval_binop, eval_const, eval_mathfn, eval_unop};
use hipacc_ir::kernel::{AddressMode, DeviceKernelDef};
use hipacc_ir::ty::{Const, ScalarType};
use hipacc_ir::{BinOp, Builtin, Expr, LValue, MathFn, Stmt, TexCoords, UnOp};
use std::collections::{HashMap, HashSet};

/// A register index in the per-thread (or per-block uniform) register file.
pub(crate) type Reg = u16;

/// One register-machine instruction.
///
/// Registers hold [`Const`] values (dynamically typed, like the
/// interpreter's variable slots). Jump targets are absolute instruction
/// indices within the containing tape.
#[derive(Clone, Debug)]
pub(crate) enum Inst {
    /// `regs[dst] = v`.
    Imm { dst: Reg, v: Const },
    /// `regs[dst] = regs[src]`.
    Mov { dst: Reg, src: Reg },
    /// `regs[dst] = uniform[src]` (thread tape only).
    LoadU { dst: Reg, src: Reg },
    /// `regs[dst] = Int(threadIdx.{x,y})` (thread tape only).
    Tid { dst: Reg, axis: u8 },
    /// `regs[dst] = Int(blockIdx.{x,y})` (prologue tape only).
    Bid { dst: Reg, axis: u8 },
    /// Unary operation via `eval_unop`.
    Un { dst: Reg, op: UnOp, a: Reg },
    /// Binary operation via `eval_binop` (never `And`/`Or`: those compile
    /// to jumps to preserve short-circuit evaluation).
    Bin { dst: Reg, op: BinOp, a: Reg, b: Reg },
    /// `regs[dst] = Bool(regs[a].as_bool())` — the coercion the
    /// interpreter applies to `&&`/`||` operands.
    AsBool { dst: Reg, a: Reg },
    /// Math-function call via `eval_mathfn`.
    Call {
        dst: Reg,
        f: MathFn,
        args: Box<[Reg]>,
    },
    /// C-style cast, identical to the interpreter's `Expr::Cast`.
    Cast { dst: Reg, ty: ScalarType, a: Reg },
    /// Unconditional jump.
    Jmp { to: u32 },
    /// Jump when `regs[cond].as_bool()` is false.
    JmpIfFalse { cond: Reg, to: u32 },
    /// Jump when `regs[cond].as_bool()` is true.
    JmpIfTrue { cond: Reg, to: u32 },
    /// `regs[dst] = Bool(regs[var] <= regs[hi])` as exact `i64` compare
    /// (the interpreter's `for i in lo..=hi` never goes through `as_f32`).
    LoopTest { dst: Reg, var: Reg, hi: Reg },
    /// `regs[reg] += 1` (checked; loop counters only).
    IncInt { reg: Reg },
    /// Global-memory load with OOB counting.
    GLoad { dst: Reg, buf: u16, idx: Reg },
    /// Buffered global store with OOB counting.
    GStore { buf: u16, idx: Reg, val: Reg },
    /// Linear texture fetch (OOB counted and clamped).
    TexLin { dst: Reg, buf: u16, idx: Reg },
    /// 2-D texture fetch through the binding's address mode.
    TexXy { dst: Reg, buf: u16, x: Reg, y: Reg },
    /// Constant-memory load (index clamped).
    CLoad { dst: Reg, cb: u16, idx: Reg },
    /// Shared-memory load (index clamped into the tile).
    SLoad { dst: Reg, sb: u16, y: Reg, x: Reg },
    /// Shared-memory store (index clamped into the tile).
    SStore { sb: u16, y: Reg, x: Reg, val: Reg },
    /// Thread returned: stop executing this thread for all phases.
    Halt,
}

/// A global/texture buffer referenced by the program.
#[derive(Clone, Debug)]
pub(crate) struct GlobalBinding {
    pub(crate) name: String,
    /// Geometry observed at compile time; re-validated before running so
    /// the binding table's width, height and stride match the buffer.
    pub(crate) geom: BufferGeometry,
    pub(crate) mode: AddressMode,
}

/// A constant buffer with its coefficients (static mask data or uploaded
/// dynamic coefficients; both are small, so they are owned by the program).
#[derive(Clone, Debug)]
pub(crate) struct ConstBinding {
    pub(crate) name: String,
    pub(crate) data: Vec<f32>,
    /// Copied from the launch's `DeviceMemory::dynamic_const` rather than
    /// from the kernel's static mask data.
    pub(crate) dynamic: bool,
}

/// Shared-memory tile layout.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SharedLayout {
    pub(crate) len: usize,
    pub(crate) cols: u32,
}

/// A buffered global store (binding index instead of a name — applying
/// stores does not clone strings).
pub(crate) struct StoreRec {
    pub(crate) buf: u16,
    pub(crate) idx: u32,
    pub(crate) value: f32,
}

/// A kernel lowered to register-machine tapes for one launch configuration.
///
/// Produced by [`compile`]; run with [`CompiledKernel::run_with`] (or use
/// [`execute`] for the one-shot compile-and-run path). The program bakes in
/// the launch's grid/block dimensions and scalar arguments, so it is only
/// valid for the `LaunchParams` it was compiled against. It keeps
/// everything it was built from except the pixels, so the launch step
/// can tell whether another launch may run it.
pub struct CompiledKernel {
    pub(crate) grid: (u32, u32),
    pub(crate) block: (u32, u32),
    /// The scalar arguments the tape was compiled against (folded into
    /// its instructions).
    scalars: HashMap<String, Const>,
    /// Worker-count override captured from the launch parameters.
    pub(crate) sim_threads: Option<usize>,
    /// Shared worker pool captured from the launch parameters.
    pub(crate) pool: Option<std::sync::Arc<crate::pool::WorkerPool>>,
    /// Per-block prologue evaluating block-uniform subexpressions.
    pub(crate) prologue: Vec<Inst>,
    pub(crate) n_uregs: usize,
    /// Barrier-delimited phase tapes.
    pub(crate) phases: Vec<Vec<Inst>>,
    pub(crate) n_regs: usize,
    pub(crate) globals: Vec<GlobalBinding>,
    pub(crate) consts: Vec<ConstBinding>,
    pub(crate) shared: Vec<SharedLayout>,
    /// The simd engine's typed lowering of the tapes (or why it has
    /// none), built by the first [`Engine::Simd`] run.
    warp: std::sync::OnceLock<WarpPlan>,
}

impl CompiledKernel {
    /// Size of the per-thread register file.
    pub fn thread_regs(&self) -> usize {
        self.n_regs
    }

    /// Number of instructions hoisted into the per-block uniform prologue.
    pub fn uniform_insts(&self) -> usize {
        self.prologue.len()
    }

    /// Whether block `(bx, by)` lies in the grid. Every block takes the
    /// in-range texel shortcut (an in-range read skips the address-mode
    /// dispatch in any block), so there is no interior/border split left
    /// to report; this stays for callers that still ask.
    pub fn block_is_interior(&self, bx: u32, by: u32) -> bool {
        bx < self.grid.0 && by < self.grid.1
    }

    /// The first piece of launch-constant state in which `params` and
    /// `mem` differ from what this tape was built from, or `None` when
    /// the tape is exactly the one [`compile`] would build for them.
    /// Pixels are not compared: the tape reads them at run time. The
    /// cost is one pass over the scalars, the bound buffers' geometry and
    /// the captured constant banks.
    pub(crate) fn launch_mismatch(
        &self,
        params: &LaunchParams,
        mem: &DeviceMemory,
    ) -> Option<crate::launch::TapeRebuild> {
        use crate::launch::TapeRebuild;
        let same_bits = |a: &Const, b: &Const| match (a, b) {
            (Const::Float(x), Const::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        };
        let same_pool = match (&self.pool, &params.pool) {
            (None, None) => true,
            (Some(a), Some(b)) => std::sync::Arc::ptr_eq(a, b),
            _ => false,
        };
        if (self.grid, self.block) != (params.grid, params.block) {
            Some(TapeRebuild::Shape)
        } else if self.scalars.len() != params.scalars.len()
            || !self
                .scalars
                .iter()
                .all(|(name, v)| params.scalars.get(name).is_some_and(|w| same_bits(v, w)))
        {
            Some(TapeRebuild::Scalars)
        } else if !self.globals.iter().all(|g| {
            mem.buffer(&g.name).is_some_and(|b| b.geom == g.geom)
                && mem
                    .tex_modes
                    .get(&g.name)
                    .copied()
                    .unwrap_or(AddressMode::None)
                    == g.mode
        }) {
            Some(TapeRebuild::Buffers)
        } else if !self.consts.iter().filter(|c| c.dynamic).all(|c| {
            mem.dynamic_const.get(&c.name).is_some_and(|bank| {
                bank.iter()
                    .map(|v| v.to_bits())
                    .eq(c.data.iter().map(|v| v.to_bits()))
            })
        }) {
            Some(TapeRebuild::ConstBank)
        } else if self.sim_threads != params.sim_threads || !same_pool {
            Some(TapeRebuild::Workers)
        } else {
            None
        }
    }

    /// Human-readable dump of the compiled tapes: the uniform prologue
    /// followed by every barrier-delimited phase tape. The format is a
    /// stable function of the program alone, so two compiles of the same
    /// kernel/launch pair disassemble to byte-identical strings — the
    /// property the kernel-cache tests assert.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "kernel: grid {:?} block {:?} uregs {} regs {}",
            self.grid, self.block, self.n_uregs, self.n_regs
        );
        let _ = writeln!(s, "prologue:");
        for (i, inst) in self.prologue.iter().enumerate() {
            let _ = writeln!(s, "  {i:4}: {inst:?}");
        }
        for (pi, tape) in self.phases.iter().enumerate() {
            let _ = writeln!(s, "phase {pi}:");
            for (i, inst) in tape.iter().enumerate() {
                let _ = writeln!(s, "  {i:4}: {inst:?}");
            }
        }
        s
    }

    /// Geometry key for the scratch pool: launches agree on this hash
    /// only when their register files, thread counts and shared tiles
    /// have identical shapes. (A colliding key is still harmless — the
    /// per-block reset re-sizes everything — it just wastes the reuse.)
    fn scratch_key(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mix = |h: &mut u64, v: u64| {
            *h ^= v;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(&mut h, self.n_regs as u64);
        mix(&mut h, self.n_uregs as u64);
        mix(&mut h, self.block.0 as u64);
        mix(&mut h, self.block.1 as u64);
        mix(&mut h, self.phases.len() as u64);
        for l in &self.shared {
            mix(&mut h, l.len as u64);
            mix(&mut h, l.cols as u64);
        }
        h
    }
}

/// Replace `BlockDim*`/`GridDim*` with launch constants and fold pure
/// constant subtrees bottom-up. Unlike `fold_expr` this performs *no*
/// algebraic identity rewrites: `load(..) * 0` must still execute (and
/// count) the load, exactly as the tree-walk does.
fn fold_launch_constants(
    body: Vec<Stmt>,
    params: &LaunchParams,
    env: &HashMap<String, Const>,
) -> Vec<Stmt> {
    let (bdx, bdy) = params.block;
    let (gdx, gdy) = params.grid;
    let body = Stmt::rewrite_exprs(body, &mut |e| match e {
        Expr::Builtin(Builtin::BlockDimX) => Expr::ImmInt(bdx as i64),
        Expr::Builtin(Builtin::BlockDimY) => Expr::ImmInt(bdy as i64),
        Expr::Builtin(Builtin::GridDimX) => Expr::ImmInt(gdx as i64),
        Expr::Builtin(Builtin::GridDimY) => Expr::ImmInt(gdy as i64),
        other => other,
    });
    Stmt::rewrite_exprs(body, &mut |e| match eval_const(&e, env) {
        Some(Const::Bool(b)) => Expr::ImmBool(b),
        Some(Const::Int(i)) => Expr::ImmInt(i),
        Some(Const::Float(f)) => Expr::ImmFloat(f),
        None => e,
    })
}

/// Names declared anywhere in the body (`Decl` targets and loop variables).
fn declared_names(body: &[Stmt]) -> HashSet<String> {
    let mut set = HashSet::new();
    Stmt::visit_all(body, &mut |s| match s {
        Stmt::Decl { name, .. } => {
            set.insert(name.clone());
        }
        Stmt::For { var, .. } => {
            set.insert(var.clone());
        }
        _ => {}
    });
    set
}

/// Compile a device kernel for one launch configuration.
///
/// Performs the interpreter's up-front validation (missing scalars, unbound
/// buffers) plus compile-time versions of its runtime errors (undefined
/// variables, nested barriers, DSL-level nodes).
pub fn compile(
    kernel: &DeviceKernelDef,
    params: &LaunchParams,
    mem: &DeviceMemory,
) -> Result<CompiledKernel, SimError> {
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

    // Scalars whose names are never locally declared fold as constants;
    // shadowed names resolve per-site through the compile-time scope map.
    let declared = declared_names(&kernel.body);
    let mut fold_env = params.scalars.clone();
    fold_env.retain(|n, _| !declared.contains(n));
    let body = fold_launch_constants(kernel.body.clone(), params, &fold_env);
    let assigned = Stmt::assigned_names(&body);

    let mut c = Compiler {
        kernel,
        params,
        mem,
        scopes: Vec::new(),
        marks: Vec::new(),
        locals_top: 0,
        temp_top: 0,
        max_regs: 0,
        next_ureg: 0,
        prologue: Vec::new(),
        hoisted: HashMap::new(),
        globals: Vec::new(),
        global_idx: HashMap::new(),
        consts: Vec::new(),
        const_idx: HashMap::new(),
        shared: Vec::new(),
        shared_idx: HashMap::new(),
        assigned,
    };
    for sh in &kernel.shared {
        c.shared_idx.insert(sh.name.clone(), c.shared.len() as u16);
        c.shared.push(SharedLayout {
            len: (sh.rows * sh.cols) as usize,
            cols: sh.cols,
        });
    }

    let mut tapes = Vec::new();
    for phase in phases(&body) {
        let mut tape = Vec::new();
        c.compile_stmts(phase, &mut tape, true)?;
        tapes.push(tape);
    }

    Ok(CompiledKernel {
        grid: params.grid,
        block: params.block,
        scalars: params.scalars.clone(),
        sim_threads: params.sim_threads,
        pool: params.pool.clone(),
        prologue: std::mem::take(&mut c.prologue),
        n_uregs: c.next_ureg as usize,
        phases: tapes,
        n_regs: c.max_regs as usize,
        globals: std::mem::take(&mut c.globals),
        consts: std::mem::take(&mut c.consts),
        shared: std::mem::take(&mut c.shared),
        warp: std::sync::OnceLock::new(),
    })
}

/// Where a name lives: a thread register or a block-uniform register.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Reg(Reg),
    Uniform(Reg),
}

struct Compiler<'a> {
    kernel: &'a DeviceKernelDef,
    params: &'a LaunchParams,
    mem: &'a DeviceMemory,
    /// Compile-time scope map mirroring the interpreter's flat variable
    /// stack: reverse-scan resolution, marks for scope entry/exit.
    scopes: Vec<(String, Slot)>,
    marks: Vec<usize>,
    /// Registers `0..locals_top` are live locals; statement temporaries
    /// are allocated above and recycled at each statement boundary.
    locals_top: Reg,
    temp_top: Reg,
    max_regs: Reg,
    next_ureg: Reg,
    prologue: Vec<Inst>,
    /// Memoized hoisted subexpressions (structural key → uniform reg), so
    /// repeated uses of e.g. `bx*BDX` share one prologue computation.
    hoisted: HashMap<String, Reg>,
    globals: Vec<GlobalBinding>,
    global_idx: HashMap<String, u16>,
    consts: Vec<ConstBinding>,
    const_idx: HashMap<String, u16>,
    shared: Vec<SharedLayout>,
    shared_idx: HashMap<String, u16>,
    /// Names ever assigned — excluded from uniform promotion.
    assigned: HashSet<String>,
}

impl<'a> Compiler<'a> {
    fn alloc_temp(&mut self) -> Reg {
        let r = self.temp_top;
        self.temp_top += 1;
        self.max_regs = self.max_regs.max(self.temp_top);
        r
    }

    /// Allocate a persistent local register. Locals are always allocated
    /// *before* the expressions whose results feed them are compiled, so a
    /// fresh local can never alias a live temporary.
    fn alloc_local(&mut self) -> Reg {
        let r = self.locals_top;
        self.locals_top += 1;
        if self.temp_top < self.locals_top {
            self.temp_top = self.locals_top;
        }
        self.max_regs = self.max_regs.max(self.locals_top);
        r
    }

    fn alloc_ureg(&mut self) -> Reg {
        let r = self.next_ureg;
        self.next_ureg += 1;
        r
    }

    fn push_scope(&mut self) {
        self.marks.push(self.scopes.len());
    }

    fn pop_scope(&mut self) {
        let mark = self.marks.pop().expect("scope mark");
        self.scopes.truncate(mark);
    }

    fn resolve(&self, name: &str) -> Option<Slot> {
        self.scopes
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
    }

    fn scalar(&self, name: &str) -> Option<Const> {
        self.params.scalars.get(name).copied()
    }

    fn global_binding(&mut self, name: &str) -> Result<u16, SimError> {
        if let Some(&i) = self.global_idx.get(name) {
            return Ok(i);
        }
        let b = self
            .mem
            .buffer(name)
            .ok_or_else(|| SimError::UnboundBuffer(name.to_string()))?;
        let mode = self
            .mem
            .tex_modes
            .get(name)
            .copied()
            .unwrap_or(AddressMode::None);
        let i = self.globals.len() as u16;
        self.globals.push(GlobalBinding {
            name: name.to_string(),
            geom: b.geom,
            mode,
        });
        self.global_idx.insert(name.to_string(), i);
        Ok(i)
    }

    fn const_binding(&mut self, name: &str) -> Result<u16, SimError> {
        if let Some(&i) = self.const_idx.get(name) {
            return Ok(i);
        }
        let cb = self
            .kernel
            .const_buffer(name)
            .ok_or_else(|| SimError::UnboundBuffer(name.to_string()))?;
        let data = match &cb.data {
            Some(d) => d.clone(),
            None => self
                .mem
                .dynamic_const
                .get(name)
                .ok_or_else(|| SimError::UnboundBuffer(name.to_string()))?
                .clone(),
        };
        let i = self.consts.len() as u16;
        self.consts.push(ConstBinding {
            name: name.to_string(),
            data,
            dynamic: cb.data.is_none(),
        });
        self.const_idx.insert(name.to_string(), i);
        Ok(i)
    }

    /// Uniformity of an expression: `None` when it (or a subterm) varies
    /// per thread or touches memory; `Some(has_block_idx)` when it is pure
    /// and block-uniform. `Div`/`Rem` are excluded so eager per-block
    /// evaluation can never raise a division error that a thread-lazy
    /// evaluation would have skipped.
    fn uniformity(&self, e: &Expr) -> Option<bool> {
        match e {
            Expr::ImmInt(_) | Expr::ImmFloat(_) | Expr::ImmBool(_) => Some(false),
            Expr::Builtin(Builtin::BlockIdxX | Builtin::BlockIdxY) => Some(true),
            Expr::Builtin(Builtin::ThreadIdxX | Builtin::ThreadIdxY) => None,
            Expr::Builtin(_) => Some(false),
            Expr::Var(n) => match self.resolve(n) {
                Some(Slot::Uniform(_)) => Some(false),
                Some(Slot::Reg(_)) => None,
                None => self.scalar(n).map(|_| false),
            },
            Expr::Unary(_, a) | Expr::Cast(_, a) => self.uniformity(a),
            Expr::Binary(BinOp::Div | BinOp::Rem, _, _) => None,
            Expr::Binary(_, a, b) => Some(self.uniformity(a)? | self.uniformity(b)?),
            Expr::Call(_, args) => {
                let mut has = false;
                for a in args {
                    has |= self.uniformity(a)?;
                }
                Some(has)
            }
            Expr::Select(c, a, b) => {
                Some(self.uniformity(c)? | self.uniformity(a)? | self.uniformity(b)?)
            }
            _ => None,
        }
    }

    /// Hoist a block-uniform subexpression into the prologue tape,
    /// memoized structurally.
    fn hoist(&mut self, e: &Expr) -> Result<Reg, SimError> {
        let key = format!("{e:?}");
        if let Some(&u) = self.hoisted.get(&key) {
            return Ok(u);
        }
        let u = self.compile_uniform_expr(e)?;
        self.hoisted.insert(key, u);
        Ok(u)
    }

    /// Compile an expression into the per-block prologue, returning the
    /// uniform register holding its value. Only called on subtrees that
    /// passed `uniformity`, so memory operations and thread builtins are
    /// unreachable here.
    fn compile_uniform_expr(&mut self, e: &Expr) -> Result<Reg, SimError> {
        match e {
            Expr::ImmInt(i) => {
                let dst = self.alloc_ureg();
                self.prologue.push(Inst::Imm {
                    dst,
                    v: Const::Int(*i),
                });
                Ok(dst)
            }
            Expr::ImmFloat(f) => {
                let dst = self.alloc_ureg();
                self.prologue.push(Inst::Imm {
                    dst,
                    v: Const::Float(*f),
                });
                Ok(dst)
            }
            Expr::ImmBool(b) => {
                let dst = self.alloc_ureg();
                self.prologue.push(Inst::Imm {
                    dst,
                    v: Const::Bool(*b),
                });
                Ok(dst)
            }
            Expr::Builtin(b) => {
                let dst = self.alloc_ureg();
                let inst = match b {
                    Builtin::BlockIdxX => Inst::Bid { dst, axis: 0 },
                    Builtin::BlockIdxY => Inst::Bid { dst, axis: 1 },
                    // BlockDim/GridDim were substituted by the fold pass;
                    // keep a correct fallback anyway.
                    Builtin::BlockDimX => Inst::Imm {
                        dst,
                        v: Const::Int(self.params.block.0 as i64),
                    },
                    Builtin::BlockDimY => Inst::Imm {
                        dst,
                        v: Const::Int(self.params.block.1 as i64),
                    },
                    Builtin::GridDimX => Inst::Imm {
                        dst,
                        v: Const::Int(self.params.grid.0 as i64),
                    },
                    Builtin::GridDimY => Inst::Imm {
                        dst,
                        v: Const::Int(self.params.grid.1 as i64),
                    },
                    Builtin::ThreadIdxX | Builtin::ThreadIdxY => {
                        unreachable!("thread builtin in uniform subtree")
                    }
                };
                self.prologue.push(inst);
                Ok(dst)
            }
            Expr::Var(n) => match self.resolve(n) {
                Some(Slot::Uniform(u)) => Ok(u),
                Some(Slot::Reg(_)) => unreachable!("thread-local var in uniform subtree"),
                None => {
                    let v = self
                        .scalar(n)
                        .ok_or_else(|| SimError::UndefinedVariable(n.clone()))?;
                    let dst = self.alloc_ureg();
                    self.prologue.push(Inst::Imm { dst, v });
                    Ok(dst)
                }
            },
            Expr::Unary(op, a) => {
                let ra = self.compile_uniform_expr(a)?;
                let dst = self.alloc_ureg();
                self.prologue.push(Inst::Un {
                    dst,
                    op: *op,
                    a: ra,
                });
                Ok(dst)
            }
            Expr::Binary(op @ (BinOp::And | BinOp::Or), a, b) => {
                let dst = self.alloc_ureg();
                let ra = self.compile_uniform_expr(a)?;
                self.prologue.push(Inst::AsBool { dst, a: ra });
                let patch = self.prologue.len();
                self.prologue.push(Inst::Jmp { to: 0 }); // placeholder
                let rb = self.compile_uniform_expr(b)?;
                self.prologue.push(Inst::AsBool { dst, a: rb });
                let end = self.prologue.len() as u32;
                self.prologue[patch] = if *op == BinOp::And {
                    Inst::JmpIfFalse { cond: dst, to: end }
                } else {
                    Inst::JmpIfTrue { cond: dst, to: end }
                };
                Ok(dst)
            }
            Expr::Binary(op, a, b) => {
                let ra = self.compile_uniform_expr(a)?;
                let rb = self.compile_uniform_expr(b)?;
                let dst = self.alloc_ureg();
                self.prologue.push(Inst::Bin {
                    dst,
                    op: *op,
                    a: ra,
                    b: rb,
                });
                Ok(dst)
            }
            Expr::Call(f, args) => {
                let regs: Result<Vec<Reg>, SimError> =
                    args.iter().map(|a| self.compile_uniform_expr(a)).collect();
                let dst = self.alloc_ureg();
                self.prologue.push(Inst::Call {
                    dst,
                    f: *f,
                    args: regs?.into_boxed_slice(),
                });
                Ok(dst)
            }
            Expr::Cast(ty, a) => {
                let ra = self.compile_uniform_expr(a)?;
                let dst = self.alloc_ureg();
                self.prologue.push(Inst::Cast {
                    dst,
                    ty: *ty,
                    a: ra,
                });
                Ok(dst)
            }
            Expr::Select(c, a, b) => {
                let dst = self.alloc_ureg();
                let rc = self.compile_uniform_expr(c)?;
                let patch_else = self.prologue.len();
                self.prologue.push(Inst::Jmp { to: 0 });
                let ra = self.compile_uniform_expr(a)?;
                self.prologue.push(Inst::Mov { dst, src: ra });
                let patch_end = self.prologue.len();
                self.prologue.push(Inst::Jmp { to: 0 });
                let else_pc = self.prologue.len() as u32;
                let rb = self.compile_uniform_expr(b)?;
                self.prologue.push(Inst::Mov { dst, src: rb });
                let end = self.prologue.len() as u32;
                self.prologue[patch_else] = Inst::JmpIfFalse {
                    cond: rc,
                    to: else_pc,
                };
                self.prologue[patch_end] = Inst::Jmp { to: end };
                Ok(dst)
            }
            other => unreachable!("non-uniform node {other:?} in uniform subtree"),
        }
    }

    /// Compile a statement list into the thread tape. `top_level` is true
    /// only for the direct children of a phase (where barriers would have
    /// been split away already — one encountered here is nested).
    fn compile_stmts(
        &mut self,
        stmts: &[Stmt],
        out: &mut Vec<Inst>,
        top_level: bool,
    ) -> Result<(), SimError> {
        for s in stmts {
            self.temp_top = self.locals_top;
            match s {
                Stmt::Decl { name, ty, init } => {
                    match init {
                        Some(e) => {
                            // Block-uniform write-once locals live in the
                            // uniform file: computed once per block.
                            let uniform_ok = top_level
                                && !self.assigned.contains(name)
                                && self.uniformity(e).is_some();
                            if uniform_ok {
                                let r = self.hoist(e)?;
                                let u = self.alloc_ureg();
                                self.prologue.push(Inst::Cast {
                                    dst: u,
                                    ty: *ty,
                                    a: r,
                                });
                                self.scopes.push((name.clone(), Slot::Uniform(u)));
                            } else {
                                let local = self.alloc_local();
                                let r = self.compile_expr(e, out)?;
                                out.push(Inst::Cast {
                                    dst: local,
                                    ty: *ty,
                                    a: r,
                                });
                                self.scopes.push((name.clone(), Slot::Reg(local)));
                            }
                        }
                        None => {
                            let local = self.alloc_local();
                            out.push(Inst::Imm {
                                dst: local,
                                v: Const::Int(0),
                            });
                            self.scopes.push((name.clone(), Slot::Reg(local)));
                        }
                    }
                }
                Stmt::Assign { target, value } => {
                    let LValue::Var(name) = target;
                    let slot = self
                        .resolve(name)
                        .ok_or_else(|| SimError::UndefinedVariable(name.clone()))?;
                    let Slot::Reg(dst) = slot else {
                        unreachable!("assigned names are never promoted to uniform")
                    };
                    let r = self.compile_expr(value, out)?;
                    if r != dst {
                        out.push(Inst::Mov { dst, src: r });
                    }
                }
                Stmt::For {
                    var,
                    from,
                    to,
                    body,
                } => {
                    // Bounds are evaluated once, before the loop, and kept
                    // in persistent locals (matching the interpreter).
                    let var_l = self.alloc_local();
                    let hi_l = self.alloc_local();
                    let rf = self.compile_expr(from, out)?;
                    out.push(Inst::Cast {
                        dst: var_l,
                        ty: ScalarType::I32,
                        a: rf,
                    });
                    let rt = self.compile_expr(to, out)?;
                    out.push(Inst::Cast {
                        dst: hi_l,
                        ty: ScalarType::I32,
                        a: rt,
                    });
                    let test_pc = out.len() as u32;
                    let t = self.alloc_temp();
                    out.push(Inst::LoopTest {
                        dst: t,
                        var: var_l,
                        hi: hi_l,
                    });
                    let patch_exit = out.len();
                    out.push(Inst::Jmp { to: 0 });
                    self.push_scope();
                    self.scopes.push((var.clone(), Slot::Reg(var_l)));
                    self.compile_stmts(body, out, false)?;
                    self.pop_scope();
                    out.push(Inst::IncInt { reg: var_l });
                    out.push(Inst::Jmp { to: test_pc });
                    let end = out.len() as u32;
                    out[patch_exit] = Inst::JmpIfFalse { cond: t, to: end };
                }
                Stmt::If { cond, then, els } => {
                    // Statically decided guards (folded scalar compares)
                    // compile to the taken branch only — the interpreter's
                    // condition evaluation has no observable effects here.
                    if let Expr::ImmBool(b) = cond {
                        self.push_scope();
                        self.compile_stmts(if *b { then } else { els }, out, false)?;
                        self.pop_scope();
                        continue;
                    }
                    let rc = self.compile_expr(cond, out)?;
                    let patch_else = out.len();
                    out.push(Inst::Jmp { to: 0 });
                    self.push_scope();
                    self.compile_stmts(then, out, false)?;
                    self.pop_scope();
                    if els.is_empty() {
                        let end = out.len() as u32;
                        out[patch_else] = Inst::JmpIfFalse { cond: rc, to: end };
                    } else {
                        let patch_end = out.len();
                        out.push(Inst::Jmp { to: 0 });
                        let else_pc = out.len() as u32;
                        self.push_scope();
                        self.compile_stmts(els, out, false)?;
                        self.pop_scope();
                        let end = out.len() as u32;
                        out[patch_else] = Inst::JmpIfFalse {
                            cond: rc,
                            to: else_pc,
                        };
                        out[patch_end] = Inst::Jmp { to: end };
                    }
                }
                Stmt::GlobalStore { buf, idx, value } => {
                    let b = self.global_binding(buf)?;
                    let ri = self.compile_expr(idx, out)?;
                    let rv = self.compile_expr(value, out)?;
                    out.push(Inst::GStore {
                        buf: b,
                        idx: ri,
                        val: rv,
                    });
                }
                Stmt::SharedStore { buf, y, x, value } => {
                    let sb = *self
                        .shared_idx
                        .get(buf)
                        .ok_or_else(|| SimError::UnboundBuffer(buf.clone()))?;
                    let ry = self.compile_expr(y, out)?;
                    let rx = self.compile_expr(x, out)?;
                    let rv = self.compile_expr(value, out)?;
                    out.push(Inst::SStore {
                        sb,
                        y: ry,
                        x: rx,
                        val: rv,
                    });
                }
                Stmt::Barrier => return Err(SimError::NestedBarrier),
                Stmt::Return => out.push(Inst::Halt),
                Stmt::Comment(_) => {}
                Stmt::Output(_) => {
                    return Err(SimError::EvalError(
                        "DSL-level output() reached the interpreter".into(),
                    ))
                }
            }
        }
        Ok(())
    }

    /// Compile an expression into the thread tape, returning the register
    /// holding its value. The returned register may be a live local (for
    /// `Var` leaves) — callers never write through it.
    fn compile_expr(&mut self, e: &Expr, out: &mut Vec<Inst>) -> Result<Reg, SimError> {
        // Block-uniform subtrees that actually depend on BlockIdx* are
        // hoisted into the prologue; pure-constant subtrees were already
        // folded to immediates.
        if self.uniformity(e) == Some(true) {
            let u = self.hoist(e)?;
            let dst = self.alloc_temp();
            out.push(Inst::LoadU { dst, src: u });
            return Ok(dst);
        }
        match e {
            Expr::ImmInt(i) => {
                let dst = self.alloc_temp();
                out.push(Inst::Imm {
                    dst,
                    v: Const::Int(*i),
                });
                Ok(dst)
            }
            Expr::ImmFloat(f) => {
                let dst = self.alloc_temp();
                out.push(Inst::Imm {
                    dst,
                    v: Const::Float(*f),
                });
                Ok(dst)
            }
            Expr::ImmBool(b) => {
                let dst = self.alloc_temp();
                out.push(Inst::Imm {
                    dst,
                    v: Const::Bool(*b),
                });
                Ok(dst)
            }
            Expr::Var(n) => match self.resolve(n) {
                Some(Slot::Reg(r)) => Ok(r),
                Some(Slot::Uniform(u)) => {
                    let dst = self.alloc_temp();
                    out.push(Inst::LoadU { dst, src: u });
                    Ok(dst)
                }
                None => {
                    let v = self
                        .scalar(n)
                        .ok_or_else(|| SimError::UndefinedVariable(n.clone()))?;
                    let dst = self.alloc_temp();
                    out.push(Inst::Imm { dst, v });
                    Ok(dst)
                }
            },
            Expr::Builtin(b) => {
                let dst = self.alloc_temp();
                let inst = match b {
                    Builtin::ThreadIdxX => Inst::Tid { dst, axis: 0 },
                    Builtin::ThreadIdxY => Inst::Tid { dst, axis: 1 },
                    // BlockIdx* is handled by the uniformity check above;
                    // BlockDim/GridDim were folded to immediates.
                    Builtin::BlockIdxX | Builtin::BlockIdxY => {
                        unreachable!("BlockIdx reaches the thread tape only via hoisting")
                    }
                    Builtin::BlockDimX => Inst::Imm {
                        dst,
                        v: Const::Int(self.params.block.0 as i64),
                    },
                    Builtin::BlockDimY => Inst::Imm {
                        dst,
                        v: Const::Int(self.params.block.1 as i64),
                    },
                    Builtin::GridDimX => Inst::Imm {
                        dst,
                        v: Const::Int(self.params.grid.0 as i64),
                    },
                    Builtin::GridDimY => Inst::Imm {
                        dst,
                        v: Const::Int(self.params.grid.1 as i64),
                    },
                };
                out.push(inst);
                Ok(dst)
            }
            Expr::Unary(op, a) => {
                let ra = self.compile_expr(a, out)?;
                let dst = self.alloc_temp();
                out.push(Inst::Un {
                    dst,
                    op: *op,
                    a: ra,
                });
                Ok(dst)
            }
            Expr::Binary(op @ (BinOp::And | BinOp::Or), a, b) => {
                let dst = self.alloc_temp();
                let ra = self.compile_expr(a, out)?;
                out.push(Inst::AsBool { dst, a: ra });
                let patch = out.len();
                out.push(Inst::Jmp { to: 0 });
                let rb = self.compile_expr(b, out)?;
                out.push(Inst::AsBool { dst, a: rb });
                let end = out.len() as u32;
                out[patch] = if *op == BinOp::And {
                    Inst::JmpIfFalse { cond: dst, to: end }
                } else {
                    Inst::JmpIfTrue { cond: dst, to: end }
                };
                Ok(dst)
            }
            Expr::Binary(op, a, b) => {
                let ra = self.compile_expr(a, out)?;
                let rb = self.compile_expr(b, out)?;
                let dst = self.alloc_temp();
                out.push(Inst::Bin {
                    dst,
                    op: *op,
                    a: ra,
                    b: rb,
                });
                Ok(dst)
            }
            Expr::Call(f, args) => {
                let regs: Result<Vec<Reg>, SimError> =
                    args.iter().map(|a| self.compile_expr(a, out)).collect();
                let dst = self.alloc_temp();
                out.push(Inst::Call {
                    dst,
                    f: *f,
                    args: regs?.into_boxed_slice(),
                });
                Ok(dst)
            }
            Expr::Cast(ty, a) => {
                let ra = self.compile_expr(a, out)?;
                let dst = self.alloc_temp();
                out.push(Inst::Cast {
                    dst,
                    ty: *ty,
                    a: ra,
                });
                Ok(dst)
            }
            Expr::Select(c, a, b) => {
                let dst = self.alloc_temp();
                let rc = self.compile_expr(c, out)?;
                let patch_else = out.len();
                out.push(Inst::Jmp { to: 0 });
                let ra = self.compile_expr(a, out)?;
                out.push(Inst::Mov { dst, src: ra });
                let patch_end = out.len();
                out.push(Inst::Jmp { to: 0 });
                let else_pc = out.len() as u32;
                let rb = self.compile_expr(b, out)?;
                out.push(Inst::Mov { dst, src: rb });
                let end = out.len() as u32;
                out[patch_else] = Inst::JmpIfFalse {
                    cond: rc,
                    to: else_pc,
                };
                out[patch_end] = Inst::Jmp { to: end };
                Ok(dst)
            }
            Expr::GlobalLoad { buf, idx } => {
                let b = self.global_binding(buf)?;
                let ri = self.compile_expr(idx, out)?;
                let dst = self.alloc_temp();
                out.push(Inst::GLoad {
                    dst,
                    buf: b,
                    idx: ri,
                });
                Ok(dst)
            }
            Expr::TexFetch { buf, coords } => {
                let b = self.global_binding(buf)?;
                match coords {
                    TexCoords::Linear(i) => {
                        let ri = self.compile_expr(i, out)?;
                        let dst = self.alloc_temp();
                        out.push(Inst::TexLin {
                            dst,
                            buf: b,
                            idx: ri,
                        });
                        Ok(dst)
                    }
                    TexCoords::Xy(xe, ye) => {
                        let rx = self.compile_expr(xe, out)?;
                        let ry = self.compile_expr(ye, out)?;
                        let dst = self.alloc_temp();
                        out.push(Inst::TexXy {
                            dst,
                            buf: b,
                            x: rx,
                            y: ry,
                        });
                        Ok(dst)
                    }
                }
            }
            Expr::ConstLoad { buf, idx } => {
                let cb = self.const_binding(buf)?;
                let ri = self.compile_expr(idx, out)?;
                let dst = self.alloc_temp();
                out.push(Inst::CLoad { dst, cb, idx: ri });
                Ok(dst)
            }
            Expr::SharedLoad { buf, y, x } => {
                let sb = *self
                    .shared_idx
                    .get(buf)
                    .ok_or_else(|| SimError::UnboundBuffer(buf.clone()))?;
                let ry = self.compile_expr(y, out)?;
                let rx = self.compile_expr(x, out)?;
                let dst = self.alloc_temp();
                out.push(Inst::SLoad {
                    dst,
                    sb,
                    y: ry,
                    x: rx,
                });
                Ok(dst)
            }
            Expr::InputAt { .. } | Expr::MaskAt { .. } | Expr::OutputX | Expr::OutputY => Err(
                SimError::EvalError("DSL-level node reached the interpreter".into()),
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Resolved view of one bound buffer.
#[derive(Clone, Copy)]
pub(crate) struct BufView<'m> {
    pub(crate) data: &'m [f32],
    pub(crate) w: u32,
    pub(crate) h: u32,
    pub(crate) stride: u32,
    pub(crate) mode: AddressMode,
}

/// Reusable per-worker execution scratch: register files, shared-memory
/// tiles, the store journal and the simd engine's register files.
///
/// One instance lives per worker for the duration of a launch and is
/// parked in [`SCRATCH_POOL`] (the simd files in [`SIMD_POOL`]) between
/// launches, so steady-state frames allocate nothing in the block loop
/// or around it. Every per-block reset is a fill of an existing
/// allocation, never a fresh `Vec`.
#[derive(Default)]
pub(crate) struct BlockScratch {
    /// Block-uniform register file (the prologue's output).
    pub(crate) uregs: Vec<Const>,
    /// Thread register file: `n_regs` slots for single-phase kernels
    /// (reused across threads and blocks — every read is dominated by a
    /// write), `n_regs × nthreads` for multi-phase kernels (zeroed per
    /// block, exactly like the former per-block allocation).
    pub(crate) regs: Vec<Const>,
    /// Per-thread halt flags (multi-phase kernels only).
    pub(crate) done: Vec<bool>,
    /// Shared-memory tiles, zeroed per block.
    pub(crate) shared: Vec<Vec<f32>>,
    /// Argument scratch for `Inst::Call`.
    pub(crate) call_scratch: Vec<Const>,
    /// The worker's store journal; blocks own disjoint ranges of it.
    pub(crate) journal: Vec<StoreRec>,
    /// The simd engine's register files: taken from [`SIMD_POOL`] (or
    /// created by the worker's first vectorized block) and parked there
    /// again as soon as the worker has run its blocks.
    pub(crate) simd: Option<crate::simd::SimdScratch>,
}

impl BlockScratch {
    /// Size and zero the shared tiles for one block.
    pub(crate) fn reset_tiles(&mut self, prog: &CompiledKernel) {
        self.shared.resize(prog.shared.len(), Vec::new());
        for (tile, l) in self.shared.iter_mut().zip(&prog.shared) {
            tile.clear();
            tile.resize(l.len, 0.0);
        }
    }
}

/// Cross-launch pool of per-worker scratch, keyed by
/// [`CompiledKernel::scratch_key`] so reuse only happens between
/// launches whose register files and tiles have identical shapes.
static SCRATCH_POOL: crate::sched::ScratchPool<BlockScratch> = crate::sched::ScratchPool::new(32);

/// Cross-launch pool of the simd engine's register files. A row per
/// register per thread is 0.2–0.3 MB for a 256² stream stage and up to
/// 0.9 MB for the catalogue's largest blocks: too much for one set per
/// slot of [`SCRATCH_POOL`], and too much to allocate, zero and fault in
/// for every worker of every launch (that quadrupled the page faults of
/// a 64² stream frame). The files grow on demand and never depend on
/// their earlier contents, so they are parked under one key whatever
/// kernel used them, and a worker holds a set only while it runs blocks:
/// the pool ends up with one set per host thread that does so at the
/// same time, four under a three-stage stream on two pool workers.
static SIMD_POOL: crate::sched::ScratchPool<crate::simd::SimdScratch> =
    crate::sched::ScratchPool::new(8);

/// The one key of [`SIMD_POOL`].
const ANY_KERNEL: u64 = 0;

/// Mutable per-block machine state, borrowing its allocations from the
/// worker's [`BlockScratch`].
pub(crate) struct BlockRun<'r> {
    pub(crate) prog: &'r CompiledKernel,
    pub(crate) bufs: &'r [BufView<'r>],
    pub(crate) shared: &'r mut Vec<Vec<f32>>,
    pub(crate) stores: &'r mut Vec<StoreRec>,
    pub(crate) stats: ExecStats,
    pub(crate) call_scratch: &'r mut Vec<Const>,
    pub(crate) bx: i64,
    pub(crate) by: i64,
}

impl BlockRun<'_> {
    /// Execute one tape over a register file. Returns `true` when the
    /// thread hit `Halt` (returned) and must skip the remaining phases.
    pub(crate) fn exec_tape(
        &mut self,
        insts: &[Inst],
        regs: &mut [Const],
        uregs: &[Const],
        tx: i64,
        ty: i64,
    ) -> Result<bool, SimError> {
        let mut pc = 0usize;
        while pc < insts.len() {
            match &insts[pc] {
                Inst::Imm { dst, v } => regs[*dst as usize] = *v,
                Inst::Mov { dst, src } => regs[*dst as usize] = regs[*src as usize],
                Inst::LoadU { dst, src } => regs[*dst as usize] = uregs[*src as usize],
                Inst::Tid { dst, axis } => {
                    regs[*dst as usize] = Const::Int(if *axis == 0 { tx } else { ty });
                }
                Inst::Bid { dst, axis } => {
                    regs[*dst as usize] = Const::Int(if *axis == 0 { self.bx } else { self.by });
                }
                Inst::Un { dst, op, a } => {
                    let v = regs[*a as usize];
                    regs[*dst as usize] = eval_unop(*op, v)
                        .ok_or_else(|| SimError::EvalError(format!("{op:?} on {v:?}")))?;
                }
                Inst::Bin { dst, op, a, b } => {
                    let va = regs[*a as usize];
                    let vb = regs[*b as usize];
                    if matches!(op, BinOp::Div | BinOp::Rem) {
                        if let (Const::Int(_), Const::Int(0)) = (va, vb) {
                            return Err(SimError::DivisionByZero);
                        }
                    }
                    regs[*dst as usize] = eval_binop(*op, va, vb)
                        .ok_or_else(|| SimError::EvalError(format!("{op:?} on {va:?}, {vb:?}")))?;
                }
                Inst::AsBool { dst, a } => {
                    regs[*dst as usize] = Const::Bool(regs[*a as usize].as_bool());
                }
                Inst::Call { dst, f, args } => {
                    self.call_scratch.clear();
                    for &r in args.iter() {
                        self.call_scratch.push(regs[r as usize]);
                    }
                    regs[*dst as usize] = eval_mathfn(*f, self.call_scratch).ok_or_else(|| {
                        SimError::EvalError(format!("{f:?} on {:?}", self.call_scratch))
                    })?;
                }
                Inst::Cast { dst, ty, a } => {
                    let v = regs[*a as usize];
                    regs[*dst as usize] = match ty {
                        ScalarType::F32 => Const::Float(v.as_f32()),
                        ScalarType::I32 | ScalarType::U32 => Const::Int(v.as_i64()),
                        ScalarType::Bool => Const::Bool(v.as_bool()),
                    };
                }
                Inst::Jmp { to } => {
                    pc = *to as usize;
                    continue;
                }
                Inst::JmpIfFalse { cond, to } => {
                    if !regs[*cond as usize].as_bool() {
                        pc = *to as usize;
                        continue;
                    }
                }
                Inst::JmpIfTrue { cond, to } => {
                    if regs[*cond as usize].as_bool() {
                        pc = *to as usize;
                        continue;
                    }
                }
                Inst::LoopTest { dst, var, hi } => {
                    regs[*dst as usize] =
                        Const::Bool(regs[*var as usize].as_i64() <= regs[*hi as usize].as_i64());
                }
                Inst::IncInt { reg } => {
                    let v = regs[*reg as usize].as_i64();
                    let next = v
                        .checked_add(1)
                        .ok_or_else(|| SimError::EvalError("loop counter overflow".into()))?;
                    regs[*reg as usize] = Const::Int(next);
                }
                Inst::GLoad { dst, buf, idx } | Inst::TexLin { dst, buf, idx } => {
                    let b = &self.bufs[*buf as usize];
                    if matches!(&insts[pc], Inst::GLoad { .. }) {
                        self.stats.global_loads += 1;
                    } else {
                        self.stats.tex_fetches += 1;
                    }
                    let i = regs[*idx as usize].as_i64();
                    // Negative indices wrap to huge usize values, so one
                    // `get` covers both OOB directions.
                    let v = match b.data.get(i as usize) {
                        Some(v) => *v,
                        None => {
                            self.stats.oob_reads += 1;
                            b.data[i.clamp(0, b.data.len() as i64 - 1) as usize]
                        }
                    };
                    regs[*dst as usize] = Const::Float(v);
                }
                Inst::GStore { buf, idx, val } => {
                    let i = regs[*idx as usize].as_i64();
                    let v = regs[*val as usize].as_f32();
                    self.stats.global_stores += 1;
                    let len = self.bufs[*buf as usize].data.len();
                    if i < 0 || i as usize >= len {
                        self.stats.oob_stores += 1;
                    } else {
                        self.stores.push(StoreRec {
                            buf: *buf,
                            idx: i as u32,
                            value: v,
                        });
                    }
                }
                Inst::TexXy { dst, buf, x, y } => {
                    self.stats.tex_fetches += 1;
                    let b = &self.bufs[*buf as usize];
                    let xi = regs[*x as usize].as_i64() as i32;
                    let yi = regs[*y as usize].as_i64() as i32;
                    regs[*dst as usize] = Const::Float(texel(b, xi, yi, &mut self.stats.oob_reads));
                }
                Inst::CLoad { dst, cb, idx } => {
                    self.stats.const_loads += 1;
                    let data = &self.prog.consts[*cb as usize].data;
                    let i = regs[*idx as usize].as_i64().clamp(0, data.len() as i64 - 1) as usize;
                    regs[*dst as usize] = Const::Float(data[i]);
                }
                Inst::SLoad { dst, sb, y, x } => {
                    let yi = regs[*y as usize].as_i64();
                    let xi = regs[*x as usize].as_i64();
                    self.stats.shared_loads += 1;
                    let tile = &self.shared[*sb as usize];
                    let cols = self.prog.shared[*sb as usize].cols as i64;
                    let i = (yi * cols + xi).clamp(0, tile.len() as i64 - 1) as usize;
                    regs[*dst as usize] = Const::Float(tile[i]);
                }
                Inst::SStore { sb, y, x, val } => {
                    let yi = regs[*y as usize].as_i64();
                    let xi = regs[*x as usize].as_i64();
                    let v = regs[*val as usize].as_f32();
                    self.stats.shared_stores += 1;
                    let tile = &mut self.shared[*sb as usize];
                    let cols = self.prog.shared[*sb as usize].cols as i64;
                    let i = (yi * cols + xi).clamp(0, tile.len() as i64 - 1) as usize;
                    tile[i] = v;
                }
                Inst::Halt => return Ok(true),
            }
            pc += 1;
        }
        Ok(false)
    }
}

/// One texel of `b` at `(xi, yi)` under its address mode, counting an
/// out-of-range read of an unaddressed buffer in `oob_reads`; the one
/// 2-D texture read of both tape engines. In-range coordinates skip the
/// address-mode dispatch: every mode is the identity there.
#[inline(always)]
pub(crate) fn texel(b: &BufView<'_>, xi: i32, yi: i32, oob_reads: &mut u64) -> f32 {
    let stride = b.stride as usize;
    if (xi as u32) < b.w && (yi as u32) < b.h {
        return b.data[yi as usize * stride + xi as usize];
    }
    let (ax, ay) = match b.mode {
        // The border constant is returned without any oob count.
        AddressMode::BorderConstant(c) => return c,
        AddressMode::Clamp => (clamp_index(xi, b.w), clamp_index(yi, b.h)),
        AddressMode::Repeat => (repeat_index(xi, b.w), repeat_index(yi, b.h)),
        AddressMode::None => {
            *oob_reads += 1;
            (clamp_index(xi, b.w), clamp_index(yi, b.h))
        }
    };
    b.data[ay as usize * stride + ax as usize]
}

/// Evaluate the block-uniform prologue into `scratch.uregs` (shared by
/// the scalar and simd engines so the two can never drift). The prologue
/// tape contains no memory operations and no thread builtins, so it
/// touches neither the journal nor the statistics.
pub(crate) fn exec_prologue(
    prog: &CompiledKernel,
    bufs: &[BufView<'_>],
    bx: u32,
    by: u32,
    scratch: &mut BlockScratch,
) -> Result<(), SimError> {
    scratch.uregs.clear();
    scratch.uregs.resize(prog.n_uregs, Const::Int(0));
    if prog.prologue.is_empty() {
        return Ok(());
    }
    let mut sink = Vec::new();
    let mut run = BlockRun {
        prog,
        bufs,
        shared: &mut scratch.shared,
        stores: &mut sink,
        stats: ExecStats::default(),
        call_scratch: &mut scratch.call_scratch,
        bx: bx as i64,
        by: by as i64,
    };
    // The prologue's register file *is* the uniform file.
    run.exec_tape(&prog.prologue, &mut scratch.uregs, &[], 0, 0)?;
    debug_assert!(sink.is_empty(), "prologue tapes never store");
    Ok(())
}

/// Run one block on the scalar engine: uniform prologue, then all
/// threads phase by phase. Stores land in `journal`; the returned range
/// is this block's slice of it.
pub(crate) fn run_block(
    prog: &CompiledKernel,
    bufs: &[BufView<'_>],
    bx: u32,
    by: u32,
    scratch: &mut BlockScratch,
    journal: &mut Vec<StoreRec>,
) -> Result<(std::ops::Range<usize>, ExecStats), SimError> {
    let start = journal.len();
    scratch.reset_tiles(prog);
    exec_prologue(prog, bufs, bx, by, scratch)?;
    let mut run = BlockRun {
        prog,
        bufs,
        shared: &mut scratch.shared,
        stores: journal,
        stats: ExecStats::default(),
        call_scratch: &mut scratch.call_scratch,
        bx: bx as i64,
        by: by as i64,
    };
    let uregs = &scratch.uregs;

    let (tbx, tby) = prog.block;
    let n_regs = prog.n_regs.max(1);
    if prog.phases.len() == 1 {
        // Single phase: one reusable register file. Every register read
        // is dominated by a write in the same run (declare-before-use is
        // enforced at compile time), so stale values are never observed —
        // which also makes reuse across blocks and launches safe.
        scratch.regs.resize(n_regs, Const::Int(0));
        let regs = &mut scratch.regs;
        let tape = &prog.phases[0];
        for ty in 0..tby {
            for tx in 0..tbx {
                run.exec_tape(tape, regs, uregs, tx as i64, ty as i64)?;
            }
        }
    } else {
        // Registers persist across phases per thread, like the
        // interpreter's thread-local variables; zeroed per block exactly
        // like the former per-block allocation.
        let nthreads = (tbx * tby) as usize;
        scratch.regs.clear();
        scratch.regs.resize(n_regs * nthreads, Const::Int(0));
        scratch.done.clear();
        scratch.done.resize(nthreads, false);
        let all_regs = &mut scratch.regs;
        let done = &mut scratch.done;
        let n_phases = prog.phases.len();
        for (pi, tape) in prog.phases.iter().enumerate() {
            let mut ti = 0usize;
            for ty in 0..tby {
                for tx in 0..tbx {
                    if !done[ti] {
                        let regs = &mut all_regs[ti * n_regs..(ti + 1) * n_regs];
                        if run.exec_tape(tape, regs, uregs, tx as i64, ty as i64)? {
                            done[ti] = true;
                        }
                    }
                    ti += 1;
                }
            }
            if pi + 1 < n_phases {
                run.stats.barriers += done.iter().filter(|d| !**d).count() as u64;
            }
        }
    }

    let end = run.stores.len();
    Ok((start..end, run.stats))
}

/// Run one block. `simd` is `None` on the scalar engine and otherwise
/// the launch's warp program, or why [`crate::warp::lower`] refused the
/// tape. The simd engine rolls back its partial journal and re-runs the
/// whole block on the scalar path whenever it hits an error, so error
/// identity — like everything else observable — is always decided by the
/// scalar engine. A simd launch counts every block it runs scalar in
/// `tel`, by cause.
#[allow(clippy::too_many_arguments)]
fn run_block_dispatch(
    prog: &CompiledKernel,
    bufs: &[BufView<'_>],
    bx: u32,
    by: u32,
    scratch: &mut BlockScratch,
    journal: &mut Vec<StoreRec>,
    simd: Option<&WarpPlan>,
    tel: &mut crate::sched::SimdTelemetry,
) -> Result<(std::ops::Range<usize>, ExecStats), SimError> {
    match simd {
        Some(Ok(wp)) => {
            if let Ok(out) =
                crate::simd::run_block_simd(prog, wp, bufs, bx, by, scratch, journal, tel)
            {
                return Ok(out);
            }
            tel.note_fallback(crate::sched::FallbackCause::BlockBail);
        }
        Some(Err(cause)) => tel.note_fallback(*cause),
        None => {}
    }
    run_block(prog, bufs, bx, by, scratch, journal)
}

/// What a simd launch runs: the typed warp program, or the launch-wide
/// reason every block goes to the scalar engine.
type WarpPlan = Result<crate::warp::WarpProgram, crate::sched::FallbackCause>;

impl CompiledKernel {
    /// Execute the compiled program over the whole grid on `engine`.
    /// Blocks run in parallel across host cores; buffered stores are
    /// applied in deterministic block order afterwards, exactly like
    /// [`crate::interp::execute`].
    ///
    /// The bound buffers must still have the geometry observed at compile
    /// time (the binding table's widths, heights and strides come from it).
    pub fn run_with(&self, mem: &mut DeviceMemory, engine: Engine) -> Result<ExecStats, SimError> {
        self.run_instrumented(mem, engine, false, None)
            .map(|run| run.stats)
    }

    /// Re-execute the listed blocks fault-free and return their stores
    /// *without committing them* — the selective-repair primitive. Input
    /// buffers are read-only during a launch and generated kernels write
    /// disjoint cells per block, so re-running a block in isolation
    /// reproduces exactly the stores of a clean launch, in the order
    /// [`crate::interp::execute_blocks`] specifies.
    pub fn run_blocks_with(
        &self,
        mem: &DeviceMemory,
        blocks: &[(u32, u32)],
        engine: Engine,
    ) -> Result<(Vec<crate::inject::RepairStore>, ExecStats), SimError> {
        let bufs = self.buffer_views(mem)?;
        let simd = self.warp_plan(engine);
        let mut scratch = BlockScratch::default();
        let mut journal = Vec::new();
        let mut tel = crate::sched::SimdTelemetry::default();
        let mut out = Vec::new();
        let mut stats = ExecStats::default();
        for &(bx, by) in blocks {
            journal.clear();
            let (range, block_stats) = run_block_dispatch(
                self,
                &bufs,
                bx,
                by,
                &mut scratch,
                &mut journal,
                simd,
                &mut tel,
            )?;
            stats.merge(&block_stats);
            out.extend(journal[range].iter().map(|s| crate::inject::RepairStore {
                buf: self.globals[s.buf as usize].name.clone(),
                idx: s.idx as usize,
                value: s.value,
            }));
        }
        Ok((out, stats))
    }

    /// The simd engine's plan for this program, lowered on first use;
    /// `None` on the scalar engine.
    fn warp_plan(&self, engine: Engine) -> Option<&WarpPlan> {
        (engine == Engine::Simd).then(|| self.warp.get_or_init(|| crate::warp::lower(self)))
    }

    /// Lower the warp program now unless it already is; true for the one
    /// call that lowered it.
    pub(crate) fn lower_warp(&self) -> bool {
        let mut lowered = false;
        self.warp.get_or_init(|| {
            lowered = true;
            crate::warp::lower(self)
        });
        lowered
    }

    /// Resolve the binding table against bound memory (shared by the run
    /// paths and the repair path).
    fn buffer_views<'m>(&self, mem: &'m DeviceMemory) -> Result<Vec<BufView<'m>>, SimError> {
        let mut bufs = Vec::with_capacity(self.globals.len());
        for g in &self.globals {
            let b = mem
                .buffer(&g.name)
                .ok_or_else(|| SimError::UnboundBuffer(g.name.clone()))?;
            if b.geom != g.geom {
                return Err(SimError::EvalError(format!(
                    "buffer `{}` geometry changed since compile",
                    g.name
                )));
            }
            bufs.push(BufView {
                data: &b.data,
                w: g.geom.width,
                h: g.geom.height,
                stride: g.geom.stride,
                mode: g.mode,
            });
        }
        Ok(bufs)
    }

    /// [`Self::run_with`] with the optional instrumentation every other
    /// launch flavour is built from: `profile` additionally records one
    /// [`ExecStats`] per block and the worker that ran it, and an enabled
    /// `hook` may stall or hang workers on the virtual clock and mutate or
    /// drop block stores before commit (see [`crate::inject`]). A missing
    /// or disabled hook leaves the run byte-for-byte on the plain path.
    ///
    /// Constant banks are captured at [`compile`] time, so constant-memory
    /// corruption must be applied to the [`DeviceMemory`] *before* the
    /// launch decides which tape runs (the launch-level entry point does
    /// this, and a corrupted bank makes it build a tape of its own).
    pub fn run_instrumented(
        &self,
        mem: &mut DeviceMemory,
        engine: Engine,
        profile: bool,
        hook: Option<&dyn crate::inject::FaultHook>,
    ) -> Result<crate::sched::GridRun, SimError> {
        let hook = crate::inject::ArmedHook::attach(hook);

        let bufs = self.buffer_views(mem)?;
        let simd = self.warp_plan(engine);
        let key = self.scratch_key();

        let (gx, gy) = self.grid;
        let blocks: Vec<(u32, u32)> = (0..gy)
            .flat_map(|by| (0..gx).map(move |bx| (bx, by)))
            .collect();
        let pool = self.pool.as_deref();
        let n_workers =
            crate::sched::effective_workers_pooled(self.sim_threads, blocks.len(), pool);

        // Results are keyed by the linear block index and stores applied
        // in block order afterwards, exactly like the specification, so
        // outputs stay bit-identical whichever worker ran which block.
        // Each worker owns one pooled journal; a block's stores are a
        // range of it. With a fault hook armed the workers walk their
        // strided shares, because the hook charges a per-worker virtual
        // clock; without one they claim chunks of blocks first come first
        // served, so the launch is not gated by its slowest host thread.
        // The trailing u64 is the block's virtual latency (0 without a
        // fault hook). A worker stops at its first failing block and
        // says which one it was.
        type BlockOut = (usize, std::ops::Range<usize>, ExecStats, u64);
        type WorkerOut = (
            Vec<BlockOut>,
            Vec<StoreRec>,
            crate::sched::SimdTelemetry,
            BlockScratch,
        );
        let claims = (hook.is_none() && n_workers > 1)
            .then(|| crate::sched::BlockClaims::new(blocks.len(), n_workers));
        let results = crate::sched::run_workers(
            pool,
            n_workers,
            |w| -> Result<WorkerOut, (usize, SimError)> {
                let mut scratch = SCRATCH_POOL.checkout(key).unwrap_or_default();
                if simd.is_some() {
                    scratch.simd = SIMD_POOL.checkout(ANY_KERNEL);
                }
                let mut journal = std::mem::take(&mut scratch.journal);
                journal.clear();
                let mut tel = crate::sched::SimdTelemetry::default();
                let mut out: Vec<BlockOut> =
                    Vec::with_capacity(crate::sched::worker_share(blocks.len(), n_workers, w));
                let mut vtime: u64 = 0;
                let mut run_one = |i: usize| -> Result<(), SimError> {
                    let (bx, by) = blocks[i];
                    let lat = match &hook {
                        Some(h) => h.admit(w, &mut vtime, bx, by)?,
                        None => 0,
                    };
                    let (range, block_stats) = run_block_dispatch(
                        self,
                        &bufs,
                        bx,
                        by,
                        &mut scratch,
                        &mut journal,
                        simd,
                        &mut tel,
                    )?;
                    out.push((i, range, block_stats, lat));
                    Ok(())
                };
                match &claims {
                    Some(claims) => {
                        while let Some(chunk) = claims.claim() {
                            for i in chunk {
                                run_one(i).map_err(|e| (i, e))?;
                            }
                        }
                    }
                    None => {
                        for i in crate::sched::worker_indices(blocks.len(), n_workers, w) {
                            run_one(i).map_err(|e| (i, e))?;
                        }
                    }
                }
                // The simd register files go back at once, not with the
                // rest of the scratch after the commit: the fewer sets
                // are out at one time, the fewer exist.
                if let Some(files) = scratch.simd.take() {
                    SIMD_POOL.publish(ANY_KERNEL, files);
                }
                Ok((out, journal, tel, scratch))
            },
        );

        // The error of a failed launch is the one of its lowest failing
        // block, as the specification has it. A worker walks its blocks
        // in rising order and chunks are claimed in rising order, so each
        // worker's failure is the lowest of the blocks it was given and
        // the minimum over workers is the lowest of the launch, whatever
        // the worker count and whoever claimed what.
        let mut finished = Vec::with_capacity(n_workers);
        let mut failure: Option<(usize, SimError)> = None;
        for result in results {
            match result {
                Ok(worker) => finished.push(worker),
                Err(f) => match &failure {
                    Some(lowest) if lowest.0 < f.0 => {}
                    _ => failure = Some(f),
                },
            }
        }
        if let Some((_, e)) = failure {
            return Err(e);
        }
        drop(bufs);

        let mut slots: Vec<Option<BlockOut>> = (0..blocks.len()).map(|_| None).collect();
        let mut worker_vtime = vec![0u64; n_workers];
        let mut journals: Vec<Vec<StoreRec>> = Vec::with_capacity(n_workers);
        let mut scratches: Vec<BlockScratch> = Vec::with_capacity(n_workers);
        let mut tel_total = crate::sched::SimdTelemetry::default();
        for (w, (outs, journal, tel, scratch)) in finished.into_iter().enumerate() {
            tel_total.merge(&tel);
            for (i, range, stats, lat) in outs {
                worker_vtime[w] = worker_vtime[w].saturating_add(lat);
                // The journal is the executing worker's.
                slots[i] = Some((w, range, stats, lat));
            }
            journals.push(journal);
            scratches.push(scratch);
        }

        let mut stats_total = ExecStats::default();
        let mut exec_profile = profile.then(|| crate::sched::ExecProfile {
            n_workers,
            blocks: Vec::with_capacity(blocks.len()),
            simd: (engine == Engine::Simd).then_some(tel_total),
        });
        let mut faulted = hook.map(|h| {
            (
                h,
                crate::inject::FaultedRun::with_clock(blocks.len(), &worker_vtime),
            )
        });
        for (i, slot) in slots.into_iter().enumerate() {
            let (ran_on, range, block_stats, lat) = slot.expect("every block ran");
            stats_total.merge(&block_stats);
            let (bx, by) = blocks[i];
            if let Some(p) = exec_profile.as_mut() {
                p.blocks.push(crate::sched::BlockProfile {
                    bx,
                    by,
                    worker: i % n_workers,
                    stats: block_stats,
                });
            }
            // Faults mutate the journal range in place; a dropped block
            // skips the commit entirely.
            let keep = match faulted.as_mut() {
                Some((h, run)) => h.commit(
                    run,
                    (bx, by),
                    self.grid,
                    lat,
                    &mut journals[ran_on][range.clone()],
                    &self.globals,
                ),
                None => true,
            };
            if keep {
                // Stores of one kernel target one or two bindings: resolve
                // the output buffer once per run of equal bindings, not
                // once per store.
                let mut rest = &journals[ran_on][range];
                while let Some(first) = rest.first() {
                    let run = rest.iter().take_while(|st| st.buf == first.buf).count();
                    let name = &self.globals[first.buf as usize].name;
                    let buf = mem
                        .buffer_mut(name)
                        .ok_or_else(|| SimError::UnboundBuffer(name.clone()))?;
                    for st in &rest[..run] {
                        buf.data[st.idx as usize] = st.value;
                    }
                    rest = &rest[run..];
                }
            }
        }

        // Park the per-worker scratch for the next launch of the same
        // geometry (journals keep their capacity, not their contents).
        for (journal, mut scratch) in journals.into_iter().zip(scratches) {
            scratch.journal = journal;
            scratch.journal.clear();
            SCRATCH_POOL.publish(key, scratch);
        }
        Ok(crate::sched::GridRun {
            stats: stats_total,
            exec: exec_profile,
            faults: faulted.map(|(_, run)| run),
        })
    }
}

/// Compile a kernel for this launch and execute it: the bytecode engine's
/// drop-in equivalent of [`crate::interp::execute`].
pub fn execute(
    kernel: &DeviceKernelDef,
    params: &LaunchParams,
    mem: &mut DeviceMemory,
) -> Result<ExecStats, SimError> {
    compile(kernel, params, mem)?.run_with(mem, Engine::Bytecode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp;
    use crate::memory::DeviceBuffer;
    use hipacc_ir::kernel::{
        BufferAccess, BufferParam, ConstBufferDecl, MemorySpace, ParamDecl, SharedDecl,
    };
    use hipacc_ir::stmt::LValue;

    /// Run the same launch through the specification and both engines
    /// and assert bit-identical outputs and identical dynamic statistics,
    /// then return them.
    fn engines_agree(
        k: &DeviceKernelDef,
        p: &LaunchParams,
        mem: &DeviceMemory,
    ) -> (DeviceMemory, ExecStats) {
        let mut mem_tree = mem.clone();
        let mut mem_bc = mem.clone();
        let mut mem_simd = mem.clone();
        let stats_tree = interp::execute(k, p, &mut mem_tree).unwrap();
        let stats_bc = execute(k, p, &mut mem_bc).unwrap();
        let stats_simd = compile(k, p, &mem_simd)
            .unwrap()
            .run_with(&mut mem_simd, Engine::Simd)
            .unwrap();
        assert_eq!(stats_tree, stats_bc, "ExecStats diverge for `{}`", k.name);
        assert_eq!(
            stats_tree, stats_simd,
            "simd ExecStats diverge for `{}`",
            k.name
        );
        for name in mem_tree.buffer_names() {
            let a = &mem_tree.buffer(&name).unwrap().data;
            for (engine, m) in [("bytecode", &mem_bc), ("simd", &mem_simd)] {
                let b = &m.buffer(&name).unwrap().data;
                let eq =
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(eq, "buffer `{name}` diverges for `{}` on {engine}", k.name);
            }
        }
        (mem_bc, stats_bc)
    }

    /// Run a launch the specification and both engines must refuse,
    /// assert they refuse it with the same error (the simd engine through
    /// its scalar re-run), and return that error.
    fn engines_reject(k: &DeviceKernelDef, p: &LaunchParams, mem: &DeviceMemory) -> SimError {
        let tree = interp::execute(k, p, &mut mem.clone()).unwrap_err();
        assert_eq!(execute(k, p, &mut mem.clone()).unwrap_err(), tree);
        let simd = compile(k, p, mem)
            .unwrap()
            .run_with(&mut mem.clone(), Engine::Simd);
        assert_eq!(simd.unwrap_err(), tree);
        tree
    }

    /// OUT[gid] = 2 * IN[gid] over a 1-D launch (mirrors the interpreter's
    /// reference kernel).
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
        let mem = linear_mem(100);
        let mut p = LaunchParams::new((4, 1), (32, 1));
        p.set_int("n", 100);
        let (mem, stats) = engines_agree(&k, &p, &mem);
        let out = &mem.buffer("OUT").unwrap().data;
        for (i, v) in out.iter().take(100).enumerate() {
            assert_eq!(*v, 2.0 * i as f32);
        }
        assert_eq!(stats.global_stores, 100);
        assert_eq!(stats.global_loads, 100);
    }

    #[test]
    fn uniform_prologue_hoists_block_offset() {
        let k = double_kernel();
        let mut p = LaunchParams::new((4, 1), (32, 1));
        p.set_int("n", 100);
        let mem = linear_mem(100);
        let ck = compile(&k, &p, &mem).unwrap();
        // `BlockIdxX * BlockDimX` is block-uniform and must run once per
        // block, not once per thread.
        assert!(ck.uniform_insts() > 0, "no uniform prologue emitted");
    }

    #[test]
    fn missing_scalar_and_unbound_buffer_match_interpreter() {
        let k = double_kernel();
        let mut mem = linear_mem(10);
        let p = LaunchParams::new((1, 1), (32, 1));
        assert_eq!(
            execute(&k, &p, &mut mem).unwrap_err(),
            SimError::MissingScalar("n".into())
        );
        let mut empty = DeviceMemory::new();
        let mut p2 = LaunchParams::new((1, 1), (32, 1));
        p2.set_int("n", 10);
        assert!(matches!(
            execute(&k, &p2, &mut empty).unwrap_err(),
            SimError::UnboundBuffer(_)
        ));
    }

    #[test]
    fn oob_reads_match_interpreter() {
        let mut k = double_kernel();
        k.body[2] = Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: Expr::var("gid"),
            value: Expr::GlobalLoad {
                buf: "IN".into(),
                idx: Box::new(Expr::var("gid") + Expr::int(1_000_000)),
            },
        };
        let mem = linear_mem(64);
        let mut p = LaunchParams::new((2, 1), (32, 1));
        p.set_int("n", 64);
        let (_, stats) = engines_agree(&k, &p, &mem);
        assert_eq!(stats.oob_reads, 64);
    }

    #[test]
    fn negative_oob_reads_match_interpreter() {
        let mut k = double_kernel();
        k.body[2] = Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: Expr::var("gid"),
            value: Expr::GlobalLoad {
                buf: "IN".into(),
                idx: Box::new(Expr::var("gid") - Expr::int(5)),
            },
        };
        let mem = linear_mem(64);
        let mut p = LaunchParams::new((2, 1), (32, 1));
        p.set_int("n", 64);
        let (_, stats) = engines_agree(&k, &p, &mem);
        assert_eq!(stats.oob_reads, 5);
    }

    /// OUT[gid] = the block-reversed IN, staged through one shared tile
    /// with a barrier between the fill and the read.
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
    fn barrier_phases_match_interpreter() {
        let mem = linear_mem(64);
        let p = LaunchParams::new((2, 1), (32, 1));
        let (mem, stats) = engines_agree(&reversal_kernel(), &p, &mem);
        let out = &mem.buffer("OUT").unwrap().data;
        assert_eq!(out[0], 31.0);
        assert_eq!(out[31], 0.0);
        assert_eq!(out[32], 63.0);
        assert_eq!(stats.barriers, 64);
    }

    /// Without the barrier one phase both stores and loads the tile — the
    /// case `warp::lower` refuses. A simd launch then runs every
    /// block scalar, and says so.
    #[test]
    fn same_phase_tile_load_and_store_is_counted_as_scalar_fallback() {
        let p = LaunchParams::new((2, 1), (32, 1));
        let fallbacks = |k: &DeviceKernelDef, mode| {
            let (mut mem, _) = engines_agree(k, &p, &linear_mem(64));
            let run = compile(k, &p, &mem)
                .unwrap()
                .run_instrumented(&mut mem, mode, true, None)
                .unwrap();
            let tel = run.exec.unwrap().simd;
            tel.map(|t| t.fallbacks().collect::<Vec<_>>())
        };
        let staged = reversal_kernel();
        let mut racy = staged.clone();
        racy.body.retain(|s| !matches!(s, Stmt::Barrier));
        let both_blocks = vec![(crate::sched::FallbackCause::SharedTileHazard, 2)];
        assert_eq!(fallbacks(&racy, Engine::Simd), Some(both_blocks));
        assert_eq!(fallbacks(&staged, Engine::Simd), Some(vec![]));
        assert_eq!(fallbacks(&racy, Engine::Bytecode), None);
    }

    fn stencil_kernel(mode: AddressMode) -> DeviceKernelDef {
        let mut k = double_kernel();
        k.scalars.clear();
        k.buffers[0].space = MemorySpace::Texture;
        k.buffers[0].address_mode = mode;
        let tap = |dx: i64| Expr::TexFetch {
            buf: "IN".into(),
            coords: TexCoords::Xy(
                Box::new(
                    Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX)
                        + Expr::Builtin(Builtin::ThreadIdxX)
                        + Expr::int(dx),
                ),
                Box::new(Expr::int(0)),
            ),
        };
        k.body = vec![Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX)
                + Expr::Builtin(Builtin::ThreadIdxX),
            value: tap(-1) + tap(0) + tap(1),
        }];
        k
    }

    /// A 3×3 box over a 20×6 texture at stride 24. The 24×8 grid of
    /// threads starts at texel (-2, -1), so blocks straddle all four
    /// edges and every block mixes in-range and out-of-range taps.
    fn box_2d_kernel(mode: AddressMode) -> DeviceKernelDef {
        let mut k = stencil_kernel(mode);
        let gx = || {
            Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX)
                + Expr::Builtin(Builtin::ThreadIdxX)
        };
        let gy = || {
            Expr::Builtin(Builtin::BlockIdxY) * Expr::Builtin(Builtin::BlockDimY)
                + Expr::Builtin(Builtin::ThreadIdxY)
        };
        let tap = |dx: i64, dy: i64| Expr::TexFetch {
            buf: "IN".into(),
            coords: TexCoords::Xy(
                Box::new(gx() + Expr::int(dx - 2)),
                Box::new(gy() + Expr::int(dy - 1)),
            ),
        };
        let sum = (-1..=1)
            .flat_map(|dy| (-1..=1).map(move |dx| tap(dx, dy)))
            .reduce(|acc, t| acc + t)
            .unwrap();
        k.body = vec![Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: gy() * Expr::int(24) + gx(),
            value: sum,
        }];
        k
    }

    #[test]
    fn texture_modes_match_interpreter() {
        let tex = BufferGeometry {
            width: 20,
            height: 6,
            stride: 24,
        };
        let mut padded = DeviceBuffer::new(tex);
        for (i, v) in padded.data.iter_mut().enumerate() {
            // A read of the row padding would show in every output.
            *v = if i % 24 < 20 { i as f32 } else { 1e6 };
        }
        for mode in [
            AddressMode::Clamp,
            AddressMode::Repeat,
            AddressMode::BorderConstant(9.5),
            AddressMode::None,
        ] {
            let k = stencil_kernel(mode);
            let mut mem = linear_mem(64);
            mem.tex_modes.insert("IN".into(), mode);
            let p = LaunchParams::new((4, 1), (16, 1));
            engines_agree(&k, &p, &mem);

            let mut mem = DeviceMemory::new();
            mem.bind("IN", padded.clone());
            mem.bind(
                "OUT",
                DeviceBuffer::new(BufferGeometry {
                    width: 24,
                    height: 8,
                    stride: 24,
                }),
            );
            mem.tex_modes.insert("IN".into(), mode);
            let p = LaunchParams::new((3, 2), (8, 4));
            let (_, stats) = engines_agree(&box_2d_kernel(mode), &p, &mem);
            assert_eq!(stats.tex_fetches, 9 * 24 * 8);
            assert_eq!(stats.oob_reads > 0, mode == AddressMode::None, "{mode:?}");
        }
    }

    #[test]
    fn lazy_select_and_short_circuit_match_interpreter() {
        // The guarded load must not execute (or count) for out-of-range
        // threads; an eager engine would diverge in `global_loads`.
        let mut k = double_kernel();
        k.body[1] = Stmt::Comment("no early return".into());
        k.body[2] = Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: Expr::min(Expr::var("gid"), Expr::var("n") - Expr::int(1)),
            value: Expr::select(
                Expr::var("gid").lt(Expr::var("n")).and(
                    Expr::GlobalLoad {
                        buf: "IN".into(),
                        idx: Box::new(Expr::var("gid")),
                    }
                    .ge(Expr::float(0.0)),
                ),
                Expr::GlobalLoad {
                    buf: "IN".into(),
                    idx: Box::new(Expr::var("gid")),
                },
                Expr::float(-1.0),
            ),
        };
        let mem = linear_mem(40);
        let mut p = LaunchParams::new((2, 1), (32, 1));
        p.set_int("n", 40);
        let (_, stats) = engines_agree(&k, &p, &mem);
        // 40 live threads take both loads; 24 guarded threads take none.
        assert_eq!(stats.global_loads, 80);
    }

    #[test]
    fn for_loop_and_const_buffer_match_interpreter() {
        let mut k = double_kernel();
        k.const_buffers = vec![ConstBufferDecl {
            name: "coeffs".into(),
            width: 3,
            height: 1,
            data: Some(vec![0.25, 0.5, 0.25]),
        }];
        k.body = vec![
            Stmt::Decl {
                name: "gid".into(),
                ty: ScalarType::I32,
                init: Some(
                    Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX)
                        + Expr::Builtin(Builtin::ThreadIdxX),
                ),
            },
            Stmt::Decl {
                name: "acc".into(),
                ty: ScalarType::F32,
                init: Some(Expr::float(0.0)),
            },
            Stmt::For {
                var: "i".into(),
                from: Expr::int(0),
                to: Expr::int(2),
                body: vec![Stmt::Assign {
                    target: LValue::Var("acc".into()),
                    value: Expr::var("acc")
                        + Expr::ConstLoad {
                            buf: "coeffs".into(),
                            idx: Box::new(Expr::var("i")),
                        } * Expr::GlobalLoad {
                            buf: "IN".into(),
                            idx: Box::new(Expr::var("gid") + Expr::var("i") - Expr::int(1)),
                        },
                }],
            },
            Stmt::GlobalStore {
                buf: "OUT".into(),
                idx: Expr::var("gid"),
                value: Expr::var("acc"),
            },
        ];
        k.scalars.clear();
        let mem = linear_mem(64);
        let p = LaunchParams::new((2, 1), (32, 1));
        let (mem, stats) = engines_agree(&k, &p, &mem);
        assert_eq!(stats.const_loads, 3 * 64);
        let out = &mem.buffer("OUT").unwrap().data;
        assert_eq!(out[10], 0.25 * 9.0 + 0.5 * 10.0 + 0.25 * 11.0);
    }

    #[test]
    fn math_calls_match_interpreter() {
        let mut k = double_kernel();
        k.body[2] = Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: Expr::var("gid"),
            value: Expr::exp(
                -Expr::GlobalLoad {
                    buf: "IN".into(),
                    idx: Box::new(Expr::var("gid")),
                } * Expr::float(0.1),
            ) + Expr::max(Expr::var("gid").cast(ScalarType::F32), Expr::float(7.0)),
        };
        let mem = linear_mem(64);
        let mut p = LaunchParams::new((2, 1), (32, 1));
        p.set_int("n", 64);
        engines_agree(&k, &p, &mem);
    }

    #[test]
    fn division_by_zero_matches_interpreter() {
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

    /// `-i64::MIN` is an integer overflow like any other: the same typed
    /// error from the tree-walk, the scalar tape and the simd engine
    /// (whose block bails to the scalar re-run).
    #[test]
    fn integer_negation_overflow_matches_interpreter() {
        let mut k = double_kernel();
        k.body = vec![Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: Expr::int(0),
            value: (-(Expr::var("n") - Expr::int(8) + Expr::int(i64::MIN))).cast(ScalarType::F32),
        }];
        let mut p = LaunchParams::new((1, 1), (1, 1));
        p.set_int("n", 8);
        assert_eq!(
            engines_reject(&k, &p, &linear_mem(8)),
            SimError::EvalError(format!("Neg on Int({})", i64::MIN))
        );
    }

    /// Two blocks fail differently: block 6 (worker 0's share of a
    /// two-worker strided split) divides by zero, block 1 (worker 1's)
    /// overflows a negation. Whichever worker meets which of them first,
    /// the launch reports what the specification reports: the error of
    /// the lowest failing block, block 1's, under every worker count and
    /// on both engines.
    #[test]
    fn error_identity_does_not_depend_on_which_worker_ran_a_block() {
        let mut k = double_kernel();
        let fail = |value: Expr| {
            vec![Stmt::GlobalStore {
                buf: "OUT".into(),
                idx: Expr::int(0),
                value: value.cast(ScalarType::F32),
            }]
        };
        let bid = || Expr::Builtin(Builtin::BlockIdxX);
        k.body = vec![
            Stmt::If {
                cond: bid().eq_(Expr::int(6)),
                then: fail(Expr::int(1) / (Expr::var("n") - Expr::int(64))),
                els: vec![],
            },
            Stmt::If {
                cond: bid().eq_(Expr::int(1)),
                then: fail(-(Expr::var("n") - Expr::int(64) + Expr::int(i64::MIN))),
                els: vec![],
            },
        ];
        let mut p = LaunchParams::new((8, 1), (8, 1));
        p.set_int("n", 64);
        let mem = linear_mem(64);
        for sim_threads in [1, 2, 3] {
            p.sim_threads = Some(sim_threads);
            for _ in 0..8 {
                assert_eq!(
                    engines_reject(&k, &p, &mem),
                    SimError::EvalError(format!("Neg on Int({})", i64::MIN)),
                    "{sim_threads} workers"
                );
            }
        }
    }

    #[test]
    fn compiled_kernel_is_reusable_and_validates_geometry() {
        let k = double_kernel();
        let mut p = LaunchParams::new((2, 1), (32, 1));
        p.set_int("n", 64);
        let mut mem = linear_mem(64);
        let ck = compile(&k, &p, &mem).unwrap();
        ck.run_with(&mut mem, Engine::Bytecode).unwrap();
        let first = mem.buffer("OUT").unwrap().data.clone();
        let mut mem2 = linear_mem(64);
        ck.run_with(&mut mem2, Engine::Bytecode).unwrap();
        assert_eq!(first, mem2.buffer("OUT").unwrap().data);

        let mut small = linear_mem(32);
        assert!(matches!(
            ck.run_with(&mut small, Engine::Bytecode).unwrap_err(),
            SimError::EvalError(_)
        ));
    }

    // -----------------------------------------------------------------
    // The warp program's semantic traps: places where the typed, two-file
    // lowering could plausibly differ from the dynamically typed engines.
    // Each kernel is checked three ways on output bits and `ExecStats`
    // (`engines_agree`), and its warp telemetry — counted in source-tape
    // instructions — is pinned to what the tagged simd engine this one
    // replaced reported for the same launch.
    // -----------------------------------------------------------------

    /// `engines_agree`, then the simd engine's telemetry for the launch.
    fn warp_telemetry(
        k: &DeviceKernelDef,
        p: &LaunchParams,
        mem: &DeviceMemory,
    ) -> crate::sched::SimdTelemetry {
        let (mut mem, _) = engines_agree(k, p, mem);
        let run = compile(k, p, &mem)
            .unwrap()
            .run_instrumented(&mut mem, Engine::Simd, true, None)
            .unwrap();
        run.exec.unwrap().simd.expect("a simd launch has telemetry")
    }

    fn gid_decl() -> Stmt {
        Stmt::Decl {
            name: "gid".into(),
            ty: ScalarType::I32,
            init: Some(
                Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX)
                    + Expr::Builtin(Builtin::ThreadIdxX),
            ),
        }
    }

    fn load_in(idx: Expr) -> Expr {
        Expr::GlobalLoad {
            buf: "IN".into(),
            idx: Box::new(idx),
        }
    }

    /// A kernel over `double_kernel`'s buffers with no scalar arguments.
    fn trap_kernel(name: &str, body: Vec<Stmt>) -> DeviceKernelDef {
        DeviceKernelDef {
            name: name.into(),
            scalars: vec![],
            body,
            ..double_kernel()
        }
    }

    fn store_out(value: Expr) -> Stmt {
        Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: Expr::var("gid"),
            value,
        }
    }

    fn assign(name: &str, value: Expr) -> Stmt {
        Stmt::Assign {
            target: LValue::Var(name.into()),
            value,
        }
    }

    fn decl(name: &str, ty: ScalarType, init: Option<Expr>) -> Stmt {
        Stmt::Decl {
            name: name.into(),
            ty,
            init,
        }
    }

    /// `acc += IN[gid + i]` for `i` in `0..=hi`.
    fn tap_loop(var: &str, hi: Expr) -> Stmt {
        Stmt::For {
            var: var.into(),
            from: Expr::int(0),
            to: hi,
            body: vec![assign(
                "acc",
                Expr::var("acc") + load_in(Expr::var("gid") + Expr::var(var)),
            )],
        }
    }

    #[test]
    fn int_compare_goes_through_f32() {
        // 2^24 + 1 == 2^24 once both sides are `as_f32`, also for two
        // ints; an exact integer compare would store 0 everywhere.
        let big = 1i64 << 24;
        let k = trap_kernel(
            "cmp",
            vec![
                gid_decl(),
                store_out(Expr::select(
                    (Expr::var("gid") * Expr::int(0) + Expr::int(big + 1))
                        .eq_(Expr::var("gid") * Expr::int(0) + Expr::int(big)),
                    Expr::float(1.0),
                    Expr::float(0.0),
                )),
            ],
        );
        let p = LaunchParams::new((2, 1), (32, 1));
        let (mem, _) = engines_agree(&k, &p, &linear_mem(64));
        assert!(mem.buffer("OUT").unwrap().data.iter().all(|v| *v == 1.0));
        let tel = warp_telemetry(&k, &p, &linear_mem(64));
        assert_eq!((tel.warp_steps, tel.active_lane_sum), (72, 1152));
        assert_eq!(tel.scalar_fallback_blocks(), 0);
    }

    #[test]
    fn integer_overflow_keeps_the_scalar_error_identity() {
        // Only the last thread of the second block overflows: the simd
        // block bails, the scalar re-run owns the message.
        let k = trap_kernel(
            "ovf",
            vec![
                gid_decl(),
                store_out((Expr::var("gid") + Expr::int(i64::MAX - 62)).cast(ScalarType::F32)),
            ],
        );
        let p = LaunchParams::new((2, 1), (32, 1));
        let err = engines_reject(&k, &p, &linear_mem(64));
        assert!(matches!(&err, SimError::EvalError(m) if m.starts_with("Add on")));
    }

    #[test]
    fn float_to_int_cast_saturates() {
        // `as i64` on a float saturates and maps NaN to 0; the int goes
        // back out through `as f32`.
        let k = trap_kernel(
            "sat",
            vec![
                gid_decl(),
                store_out(
                    ((load_in(Expr::var("gid")) - Expr::float(31.5)) * Expr::float(1e30))
                        .cast(ScalarType::I32)
                        .cast(ScalarType::F32),
                ),
            ],
        );
        let p = LaunchParams::new((2, 1), (32, 1));
        let mut input = linear_mem(64);
        input.buffer_mut("IN").unwrap().data[5] = f32::NAN;
        let (mem, _) = engines_agree(&k, &p, &input);
        let out = &mem.buffer("OUT").unwrap().data;
        assert_eq!(out[0], i64::MIN as f32);
        assert_eq!(out[5], 0.0);
        assert_eq!(out[63], i64::MAX as f32);
        let tel = warp_telemetry(&k, &p, &input);
        assert_eq!((tel.warp_steps, tel.active_lane_sum), (48, 768));
        assert_eq!(tel.scalar_fallback_blocks(), 0);
    }

    #[test]
    fn untyped_decl_feeding_a_float_loop_is_refused_and_counted() {
        // `float acc;` is `Int(0)` whatever it declares, so the loop head
        // sees an int from above and a float from the back edge. The
        // tape cannot be typed: every block runs scalar, counted, with
        // the same bits.
        let k = trap_kernel(
            "untyped",
            vec![
                gid_decl(),
                decl("acc", ScalarType::F32, None),
                tap_loop("i", Expr::int(2)),
                store_out(Expr::var("acc")),
            ],
        );
        let p = LaunchParams::new((2, 1), (32, 1));
        let tel = warp_telemetry(&k, &p, &linear_mem(64));
        assert_eq!((tel.warp_steps, tel.active_lane_sum), (0, 0));
        assert_eq!(tel.scalar_fallback_blocks(), 2);
        let causes: Vec<_> = tel.fallbacks().collect();
        assert_eq!(
            causes,
            [(crate::sched::FallbackCause::PolymorphicRegister, 2)]
        );
        // Initialised with a float, the same kernel is typed.
        let mut typed = k.clone();
        typed.body[1] = decl("acc", ScalarType::F32, Some(Expr::float(0.0)));
        let tel = warp_telemetry(&typed, &p, &linear_mem(64));
        assert_eq!(tel.scalar_fallback_blocks(), 0);
        assert!(tel.uniform_steps > 0);
    }

    #[test]
    fn uniform_counter_under_a_varying_branch_stays_per_lane() {
        // The tap counter is warp-uniform in value, but only the even
        // lanes run the loop: its definitions must not land in the
        // scalar file (and the guard must not fire).
        let k = trap_kernel(
            "varying-if",
            vec![
                gid_decl(),
                decl("acc", ScalarType::F32, Some(Expr::float(0.0))),
                Stmt::If {
                    cond: Expr::var("gid").rem(Expr::int(2)).eq_(Expr::int(0)),
                    then: vec![tap_loop("i", Expr::int(2))],
                    els: vec![assign("acc", Expr::float(-1.0))],
                },
                store_out(Expr::var("acc")),
            ],
        );
        let p = LaunchParams::new((2, 1), (32, 1));
        let (mem, stats) = engines_agree(&k, &p, &linear_mem(72));
        assert_eq!(stats.global_loads, 32 * 3);
        let out = &mem.buffer("OUT").unwrap().data;
        assert_eq!((out[4], out[5]), (4.0 + 5.0 + 6.0, -1.0));
        let tel = warp_telemetry(&k, &p, &linear_mem(72));
        assert_eq!((tel.warp_steps, tel.active_lane_sum), (180, 1824));
        assert_eq!(tel.scalar_fallback_blocks(), 0);
    }

    #[test]
    fn uniform_counter_inside_a_varying_trip_count_loop() {
        // The inner loop's bounds are uniform, the outer trip count is
        // `gid % 3`: lanes leave the outer loop at different times, so
        // the inner counter is control-dependent on a varying branch.
        let k = trap_kernel(
            "varying-trips",
            vec![
                gid_decl(),
                decl("acc", ScalarType::F32, Some(Expr::float(0.0))),
                Stmt::For {
                    var: "j".into(),
                    from: Expr::int(0),
                    to: Expr::var("gid").rem(Expr::int(3)),
                    body: vec![tap_loop("i", Expr::int(1))],
                },
                store_out(Expr::var("acc") + Expr::var("gid").cast(ScalarType::F32)),
            ],
        );
        let p = LaunchParams::new((2, 1), (32, 1));
        let (_, stats) = engines_agree(&k, &p, &linear_mem(72));
        // Trip counts 1, 2, 3 by `gid % 3`, two loads per trip.
        assert_eq!(stats.global_loads, 2 * (22 + 2 * 21 + 3 * 21));
        let tel = warp_telemetry(&k, &p, &linear_mem(72));
        assert_eq!((tel.warp_steps, tel.active_lane_sum), (376, 4326));
        assert_eq!(tel.scalar_fallback_blocks(), 0);
    }

    #[test]
    fn scalar_file_value_lives_across_a_barrier() {
        // `k` is assigned (so never promoted to the block-uniform file)
        // and warp-uniform: it sits in each warp's scalar file while the
        // barrier separates its definition from its use.
        let mut k = reversal_kernel();
        k.name = "uniform-across-barrier".into();
        k.body
            .insert(1, decl("k", ScalarType::I32, Some(Expr::int(3))));
        k.body.insert(2, assign("k", Expr::var("k") * Expr::int(5)));
        let Some(Stmt::GlobalStore { value, .. }) = k.body.last_mut() else {
            unreachable!("the reversal kernel ends in its store")
        };
        *value = value.clone() + Expr::var("k").cast(ScalarType::F32);
        let p = LaunchParams::new((2, 1), (32, 1));
        let (mem, stats) = engines_agree(&k, &p, &linear_mem(64));
        assert_eq!(mem.buffer("OUT").unwrap().data[0], 31.0 + 15.0);
        assert_eq!(stats.barriers, 64);
        let tel = warp_telemetry(&k, &p, &linear_mem(64));
        assert_eq!((tel.warp_steps, tel.active_lane_sum), (84, 1344));
        assert_eq!(tel.scalar_fallback_blocks(), 0);
        assert!(tel.uniform_steps > 0);
    }

    // -----------------------------------------------------------------
    // Lockstep against per-warp: what the scalar engine cannot witness.
    // A block that runs on one program counter must be indistinguishable
    // from the same block run warp by warp — not only in its output bits
    // and `ExecStats`, which the specification pins, but in the order of
    // its journal and in the warp telemetry, which is counted per 16-lane
    // warp whoever ran the step.
    // -----------------------------------------------------------------

    /// `engines_agree`, then every block of the launch through the simd
    /// engine's block-wide entry, its per-warp entry and the scalar
    /// engine, each on one scratch as a worker would: the three journals
    /// must match entry for entry, the `ExecStats` must match, and the
    /// two simd runs must count the same warp steps, active lanes and
    /// uniform steps. Returns the lockstep run's telemetry.
    fn lockstep_matches_per_warp(
        k: &DeviceKernelDef,
        p: &LaunchParams,
        mem: &DeviceMemory,
    ) -> crate::sched::SimdTelemetry {
        use crate::simd::{run_block_per_warp, run_block_simd};
        engines_agree(k, p, mem);
        let ck = compile(k, p, mem).unwrap();
        let Some(Ok(wp)) = ck.warp_plan(Engine::Simd) else {
            panic!("`{}` has no warp program", k.name);
        };
        let bufs = ck.buffer_views(mem).unwrap();
        let bits = |journal: &[StoreRec]| -> Vec<(u16, u32, u32)> {
            let rec = |s: &StoreRec| (s.buf, s.idx, s.value.to_bits());
            journal.iter().map(rec).collect()
        };
        let mut scratch: [BlockScratch; 3] = Default::default();
        let mut tel: [crate::sched::SimdTelemetry; 2] = Default::default();
        for by in 0..p.grid.1 {
            for bx in 0..p.grid.0 {
                let at = format!("`{}` block ({bx},{by})", k.name);
                let [s0, s1, s2] = &mut scratch;
                let mut journal: [Vec<StoreRec>; 3] = Default::default();
                let [j0, j1, j2] = &mut journal;
                let (_, lock) = run_block_simd(&ck, wp, &bufs, bx, by, s0, j0, &mut tel[0])
                    .unwrap_or_else(|e| panic!("{at}: lockstep: {e}"));
                let (_, warp) = run_block_per_warp(&ck, wp, &bufs, bx, by, s1, j1, &mut tel[1])
                    .unwrap_or_else(|e| panic!("{at}: per-warp: {e}"));
                let (_, scalar) = run_block(&ck, &bufs, bx, by, s2, j2).unwrap();
                assert_eq!(bits(j0), bits(j2), "{at}: lockstep journal order");
                assert_eq!(bits(j1), bits(j2), "{at}: per-warp journal order");
                assert_eq!(lock, scalar, "{at}: lockstep ExecStats");
                assert_eq!(warp, scalar, "{at}: per-warp ExecStats");
                let steps = |t: &crate::sched::SimdTelemetry| {
                    (t.warp_steps, t.active_lane_sum, t.uniform_steps)
                };
                assert_eq!(steps(&tel[0]), steps(&tel[1]), "{at}: warp telemetry");
            }
        }
        let blocks = u64::from(p.grid.0 * p.grid.1);
        assert_eq!(tel[0].lockstep_blocks, blocks, "every block in lockstep");
        assert_eq!(tel[1].lockstep_blocks, blocks, "every block warp by warp");
        tel[0]
    }

    /// `gid` over a two-dimensional block: the block's threads in linear
    /// order, blocks side by side.
    fn gid_2d_decl() -> Stmt {
        let b = Expr::Builtin;
        let per_block = b(Builtin::BlockDimX) * b(Builtin::BlockDimY);
        decl(
            "gid",
            ScalarType::I32,
            Some(
                b(Builtin::BlockIdxX) * per_block
                    + b(Builtin::ThreadIdxY) * b(Builtin::BlockDimX)
                    + b(Builtin::ThreadIdxX),
            ),
        )
    }

    #[test]
    fn lockstep_runs_blocks_of_any_shape() {
        // A uniform tap loop never diverges, whatever the block: threads
        // that do not fill their last warp (24×1, 28×3), one warp per
        // block (16×1, 5×2), many (32×6).
        let k = trap_kernel(
            "taps",
            vec![
                gid_2d_decl(),
                decl("acc", ScalarType::F32, Some(Expr::float(0.0))),
                tap_loop("i", Expr::int(2)),
                store_out(Expr::var("acc")),
            ],
        );
        for block in [(24, 1), (28, 3), (16, 1), (5, 2), (32, 6)] {
            let p = LaunchParams::new((2, 1), block);
            let n = 2 * (block.0 * block.1) as usize;
            let tel = lockstep_matches_per_warp(&k, &p, &linear_mem(n + 2));
            assert_eq!(tel.lockstep_blocks, 2, "{block:?}");
            let warps = u64::from(block.0 * block.1).div_ceil(16);
            assert_eq!(tel.warp_steps % warps, 0, "{block:?}: one step, every warp");
        }
    }

    #[test]
    fn a_re_merge_keeps_each_threads_stores_in_order() {
        // Every thread stores in lockstep, the even ones again while the
        // block runs the `if` as a region, all once more after the block
        // re-merged at its join: thread-major means each thread's two or
        // three in a row.
        let k = trap_kernel(
            "store-split-store",
            vec![
                gid_2d_decl(),
                store_out(Expr::float(1.0)),
                Stmt::If {
                    cond: Expr::var("gid").rem(Expr::int(2)).eq_(Expr::int(0)),
                    then: vec![store_out(load_in(Expr::var("gid")))],
                    els: vec![],
                },
                store_out(Expr::var("gid").cast(ScalarType::F32) + Expr::float(0.5)),
            ],
        );
        for block in [(32, 1), (28, 3)] {
            let p = LaunchParams::new((2, 1), block);
            let n = 2 * (block.0 * block.1) as usize;
            let tel = lockstep_matches_per_warp(&k, &p, &linear_mem(n));
            let pin = (tel.lockstep_blocks, tel.remerges);
            assert_eq!(pin, (2, 2), "{block:?}");
        }
    }

    #[test]
    fn a_block_re_merges_inside_a_loop() {
        // Two unanimous trips, then the `if` of the last three (`For` is
        // inclusive) disagrees: the block runs it as a region and is
        // back on one program counter at its join, the counter still in
        // the one scalar file. The inner test is `&&`-lazy, so the
        // scalar-file half of it is a branch of its own.
        let k = trap_kernel(
            "remerge-in-loop",
            vec![
                gid_2d_decl(),
                decl("acc", ScalarType::F32, Some(Expr::float(0.0))),
                Stmt::For {
                    var: "i".into(),
                    from: Expr::int(0),
                    to: Expr::int(4),
                    body: vec![Stmt::If {
                        cond: Expr::var("i")
                            .ge(Expr::int(2))
                            .and(Expr::var("gid").rem(Expr::int(3)).eq_(Expr::int(0))),
                        then: vec![assign(
                            "acc",
                            Expr::var("acc") + load_in(Expr::var("gid") + Expr::var("i")),
                        )],
                        els: vec![assign("acc", Expr::var("acc") + Expr::float(1.0))],
                    }],
                },
                store_out(Expr::var("acc")),
            ],
        );
        let p = LaunchParams::new((2, 1), (24, 2));
        let tel = lockstep_matches_per_warp(&k, &p, &linear_mem(100));
        let pin = (tel.lockstep_blocks, tel.remerges);
        assert_eq!(pin, (2, 6), "three trips apart in each block");
    }

    #[test]
    fn a_mirrored_tap_loop_re_merges_every_trip() {
        // The border index of a `Mirror` kernel: `x < 0 ? -x - 1 : x` is
        // a branch diamond, and the block's first columns take the other
        // arm on every trip. Each trip runs the diamond as a block-wide
        // region and the rest of the tap in lockstep.
        let x = || Expr::Builtin(Builtin::ThreadIdxX) + Expr::var("i") - Expr::int(3);
        let mirrored = Expr::select(x().lt(Expr::int(0)), -x() - Expr::int(1), x());
        let row = Expr::var("gid") - Expr::Builtin(Builtin::ThreadIdxX);
        let k = trap_kernel(
            "mirrored-taps",
            vec![
                gid_2d_decl(),
                decl("acc", ScalarType::F32, Some(Expr::float(0.0))),
                Stmt::For {
                    var: "i".into(),
                    from: Expr::int(0),
                    to: Expr::int(2),
                    body: vec![assign("acc", Expr::var("acc") + load_in(row + mirrored))],
                },
                store_out(Expr::var("acc")),
            ],
        );
        let p = LaunchParams::new((2, 1), (32, 6));
        let tel = lockstep_matches_per_warp(&k, &p, &linear_mem(2 * 192));
        let pin = (tel.lockstep_blocks, tel.remerges);
        assert_eq!(pin, (2, 2 * 3), "one re-merge per trip and block");
    }

    #[test]
    fn a_lane_that_returns_inside_a_region_leaves_its_block_in_lockstep() {
        // The first `if` re-merges; inside the second one every fifth
        // thread returns, which clears its lane from the live masks: the
        // last store runs in lockstep for the others. A region a thread
        // returned in does not count as a re-merge.
        let k = trap_kernel(
            "return-in-region",
            vec![
                gid_2d_decl(),
                Stmt::If {
                    cond: Expr::var("gid").rem(Expr::int(2)).eq_(Expr::int(0)),
                    then: vec![store_out(Expr::float(1.0))],
                    els: vec![],
                },
                Stmt::If {
                    cond: Expr::var("gid").rem(Expr::int(5)).eq_(Expr::int(4)),
                    then: vec![Stmt::Return],
                    els: vec![],
                },
                store_out(load_in(Expr::var("gid"))),
            ],
        );
        let p = LaunchParams::new((2, 1), (24, 2));
        let tel = lockstep_matches_per_warp(&k, &p, &linear_mem(96));
        let pin = (tel.lockstep_blocks, tel.remerges);
        assert_eq!(pin, (2, 2));
    }

    // The region scheduler: a block runs a varying region once, its lanes
    // grouped by program counter with one mask per warp. Each kernel below
    // gives it a shape of region per-warp execution must not tell apart.

    #[test]
    fn a_region_fetches_textures_and_stores_block_wide() {
        // Both arms of the diamond fetch from a texture, one through its
        // 2-D address mode and one linearly, and store: each arm is one
        // group over the whole block, its warps' masks side by side.
        let gid = || Expr::var("gid");
        let tex = |coords| Expr::TexFetch {
            buf: "IN".into(),
            coords,
        };
        let xy = tex(TexCoords::Xy(
            Box::new(gid() - Expr::int(2)),
            Box::new(Expr::int(0)),
        ));
        let linear = tex(TexCoords::Linear(Box::new(gid() + Expr::int(1))));
        let mut k = trap_kernel(
            "texture-diamond",
            vec![
                gid_2d_decl(),
                Stmt::If {
                    cond: gid().rem(Expr::int(3)).eq_(Expr::int(0)),
                    then: vec![store_out(xy)],
                    els: vec![store_out(linear * Expr::float(2.0))],
                },
            ],
        );
        k.buffers[0].space = MemorySpace::Texture;
        k.buffers[0].address_mode = AddressMode::Clamp;
        for block in [(32, 6), (24, 3)] {
            let p = LaunchParams::new((2, 1), block);
            let mut mem = linear_mem(2 * (block.0 * block.1) as usize + 1);
            mem.tex_modes.insert("IN".into(), AddressMode::Clamp);
            let tel = lockstep_matches_per_warp(&k, &p, &mem);
            let pin = (tel.lockstep_blocks, tel.remerges);
            assert_eq!(pin, (2, 2), "{block:?}");
        }
    }

    #[test]
    fn a_varying_loop_inside_a_region_merges_its_groups_at_the_exit() {
        // Inside the `if`, lane `gid` runs the tap loop `gid % 5 + 1`
        // times: lanes that leave early wait at the exit as a group of
        // their own while the rest go round again, and each group that
        // arrives there joins the one already waiting before it runs on.
        let k = trap_kernel(
            "loop-in-region",
            vec![
                gid_2d_decl(),
                decl("acc", ScalarType::F32, Some(Expr::float(0.0))),
                Stmt::If {
                    cond: Expr::var("gid").rem(Expr::int(4)).lt(Expr::int(3)),
                    then: vec![
                        tap_loop("j", Expr::var("gid").rem(Expr::int(5))),
                        assign("acc", Expr::var("acc") * Expr::float(0.5)),
                    ],
                    els: vec![assign("acc", Expr::float(-1.0))],
                },
                store_out(Expr::var("acc")),
            ],
        );
        let p = LaunchParams::new((2, 1), (32, 6));
        let tel = lockstep_matches_per_warp(&k, &p, &linear_mem(2 * 192 + 5));
        let pin = (tel.lockstep_blocks, tel.remerges);
        assert_eq!(pin, (2, 2), "the loop belongs to the `if`'s region");
    }

    #[test]
    fn nested_varying_branches_keep_three_groups_apart() {
        // The outer `if` parts the block into even and odd lanes; the even
        // ones part again at the inner `if` while the odd ones wait in the
        // outer `else`: three groups at three program counters, each run
        // when it is the lowest, all meeting at the outer join.
        let gid = || Expr::var("gid");
        let k = trap_kernel(
            "nested-diamonds",
            vec![
                gid_2d_decl(),
                decl("acc", ScalarType::F32, Some(Expr::float(0.0))),
                Stmt::If {
                    cond: gid().rem(Expr::int(2)).eq_(Expr::int(0)),
                    then: vec![Stmt::If {
                        cond: gid().rem(Expr::int(3)).eq_(Expr::int(0)),
                        then: vec![assign("acc", load_in(gid()))],
                        els: vec![assign(
                            "acc",
                            load_in(gid() + Expr::int(1)) * Expr::float(2.0),
                        )],
                    }],
                    els: vec![Stmt::If {
                        cond: gid().rem(Expr::int(5)).eq_(Expr::int(0)),
                        then: vec![store_out(Expr::float(7.0))],
                        els: vec![assign("acc", load_in(gid()) + Expr::float(0.5))],
                    }],
                },
                store_out(Expr::var("acc")),
            ],
        );
        for block in [(32, 6), (24, 3)] {
            let p = LaunchParams::new((2, 1), block);
            let n = 2 * (block.0 * block.1) as usize;
            let tel = lockstep_matches_per_warp(&k, &p, &linear_mem(n + 1));
            let pin = (tel.lockstep_blocks, tel.remerges);
            assert_eq!(pin, (2, 2), "{block:?}: one region per block");
        }
    }

    #[test]
    fn lanes_that_return_in_a_region_leave_the_block_in_lockstep_from_its_join() {
        // Every thread stores; then every third returns inside the `if`,
        // and so do all of row 1 (two whole warps of the 32×6 block),
        // while the others store again. The lazy `||` is a diamond of its
        // own and re-merges; the `if` does not, but from its join the
        // block goes on in lockstep over the lanes it has left, the
        // returned warps with none.
        let gid = || Expr::var("gid");
        let row_1 = Expr::Builtin(Builtin::ThreadIdxY).eq_(Expr::int(1));
        let k = trap_kernel(
            "return-in-a-group",
            vec![
                gid_2d_decl(),
                store_out(Expr::float(1.0)),
                Stmt::If {
                    cond: gid().rem(Expr::int(3)).eq_(Expr::int(1)).or(row_1),
                    then: vec![Stmt::Return],
                    els: vec![store_out(load_in(gid()) + Expr::float(0.5))],
                },
                store_out(load_in(gid()) * Expr::float(2.0)),
            ],
        );
        for block in [(32, 6), (24, 3)] {
            let p = LaunchParams::new((2, 1), block);
            let n = 2 * (block.0 * block.1) as usize;
            let tel = lockstep_matches_per_warp(&k, &p, &linear_mem(n));
            let pin = (tel.lockstep_blocks, tel.remerges);
            assert_eq!(pin, (2, 2), "{block:?}");
        }
    }

    #[test]
    fn returned_lanes_sit_out_later_regions_and_phases() {
        // Every fifth thread returns inside a region. The regions after
        // it, in the same phase and across a barrier, group only the lanes
        // that are left, lockstep runs over those, and the barrier counts
        // only them (6 + 7 threads of the two blocks returned).
        let gid = || Expr::var("gid");
        let ret = |r| Stmt::If {
            cond: gid().rem(Expr::int(5)).eq_(Expr::int(r)),
            then: vec![Stmt::Return],
            els: vec![],
        };
        let diamond = |m, v| Stmt::If {
            cond: gid().rem(Expr::int(m)).eq_(Expr::int(0)),
            then: vec![store_out(load_in(gid()) + Expr::float(v))],
            els: vec![],
        };
        let mut phased = reversal_kernel();
        phased.name = "return-then-regions-across-a-barrier".into();
        phased.body.insert(1, ret(2));
        phased.body.insert(2, diamond(4, 0.25));
        phased.body.push(diamond(3, 0.5));
        let p = LaunchParams::new((2, 1), (32, 1));
        let (_, stats) = engines_agree(&phased, &p, &linear_mem(64));
        assert_eq!(stats.barriers, 64 - 13);
        let tel = lockstep_matches_per_warp(&phased, &p, &linear_mem(64));
        assert_eq!((tel.lockstep_blocks, tel.remerges), (2, 4));

        // One phase, five warps to a block, the last one partial. The
        // second `if` is the first one's test again: no live lane takes
        // it, so lockstep decides it without a region, whatever the
        // returned lanes' registers still hold.
        let flat = trap_kernel(
            "return-then-a-region",
            vec![
                gid_2d_decl(),
                ret(4),
                Stmt::If {
                    cond: gid().rem(Expr::int(5)).eq_(Expr::int(4)),
                    then: vec![store_out(Expr::float(-1.0))],
                    els: vec![],
                },
                diamond(3, 0.5),
                store_out(load_in(gid()) * Expr::float(2.0)),
            ],
        );
        let p = LaunchParams::new((2, 1), (24, 3));
        let tel = lockstep_matches_per_warp(&flat, &p, &linear_mem(2 * 72));
        assert_eq!((tel.lockstep_blocks, tel.remerges), (2, 2));
    }

    #[test]
    fn a_partial_last_warp_takes_part_in_every_group() {
        // 24×3 = 72 threads: four full warps and one of eight lanes, whose
        // rows straddle warp boundaries. The diamond parts every warp,
        // the last one included, and no lane past the block's end runs or
        // is counted.
        let gid = || Expr::var("gid");
        let k = trap_kernel(
            "partial-warp-groups",
            vec![
                gid_2d_decl(),
                decl("acc", ScalarType::F32, Some(Expr::float(0.0))),
                Stmt::If {
                    cond: gid().rem(Expr::int(4)).eq_(Expr::int(0)),
                    then: vec![assign("acc", load_in(gid()))],
                    els: vec![
                        assign("acc", load_in(gid()) * Expr::float(3.0)),
                        store_out(Expr::var("acc")),
                    ],
                },
                store_out(Expr::var("acc") + Expr::float(1.0)),
            ],
        );
        let p = LaunchParams::new((3, 1), (24, 3));
        let tel = lockstep_matches_per_warp(&k, &p, &linear_mem(3 * 72));
        let pin = (tel.lockstep_blocks, tel.remerges);
        assert_eq!(pin, (3, 3));
    }

    #[test]
    fn a_whole_block_can_return_in_lockstep() {
        // Block 1 returns before the barrier, all of it on a block-uniform
        // condition: one `Halt` for the block, no thread left to count at
        // the barrier or to run the second phase.
        let mut k = reversal_kernel();
        k.name = "unanimous-halt".into();
        k.body.insert(
            1,
            Stmt::If {
                cond: Expr::Builtin(Builtin::BlockIdxX).eq_(Expr::int(1)),
                then: vec![Stmt::Return],
                els: vec![],
            },
        );
        let p = LaunchParams::new((2, 1), (32, 1));
        let (_, stats) = engines_agree(&k, &p, &linear_mem(64));
        assert_eq!((stats.barriers, stats.global_stores), (32, 32));
        let tel = lockstep_matches_per_warp(&k, &p, &linear_mem(64));
        assert_eq!(tel.lockstep_blocks, 2);
    }

    #[test]
    fn one_lane_out_of_range_drops_one_store() {
        // Thread 5 stores far outside `OUT`, branch-free, so the block
        // stays in lockstep: its record is dropped and counted, its
        // neighbours' are not.
        let far = Expr::var("gid").eq_(Expr::int(5)).cast(ScalarType::I32) * Expr::int(1 << 20);
        let k = trap_kernel(
            "one-oob-store",
            vec![
                gid_2d_decl(),
                Stmt::GlobalStore {
                    buf: "OUT".into(),
                    idx: Expr::var("gid") + far,
                    value: load_in(Expr::var("gid")),
                },
            ],
        );
        let p = LaunchParams::new((2, 1), (24, 2));
        let (_, stats) = engines_agree(&k, &p, &linear_mem(96));
        assert_eq!((stats.global_stores, stats.oob_stores), (96, 1));
        let tel = lockstep_matches_per_warp(&k, &p, &linear_mem(96));
        assert_eq!(tel.lockstep_blocks, 2);
    }

    #[test]
    fn a_scalar_file_value_survives_a_re_merge_and_a_barrier() {
        // `k` is assigned (never promoted to the block-uniform file) and
        // uniform: it waits in the scalar file while the barrier separates
        // its definition from its use. Without a varying branch the block
        // crosses the barrier on the one file it has; with one in phase 0
        // the warps run it apart on that same file, which nothing inside
        // the region writes, and the block re-merges before the barrier.
        let mut plain = reversal_kernel();
        plain.name = "uniform-across-barrier".into();
        plain
            .body
            .insert(1, decl("k", ScalarType::I32, Some(Expr::int(3))));
        plain
            .body
            .insert(2, assign("k", Expr::var("k") * Expr::int(5)));
        let Some(Stmt::GlobalStore { value, .. }) = plain.body.last_mut() else {
            unreachable!("the reversal kernel ends in its store")
        };
        *value = value.clone() + Expr::var("k").cast(ScalarType::F32);
        let mut apart = plain.clone();
        apart.name = "uniform-across-a-re-merge-and-a-barrier".into();
        apart
            .body
            .insert(3, decl("odd", ScalarType::F32, Some(Expr::float(0.0))));
        apart.body.insert(
            4,
            Stmt::If {
                cond: Expr::var("gid").rem(Expr::int(2)).eq_(Expr::int(1)),
                then: vec![assign("odd", load_in(Expr::var("gid")))],
                els: vec![],
            },
        );
        let p = LaunchParams::new((2, 1), (32, 1));
        for (k, remerges) in [(&plain, 0), (&apart, 2)] {
            let (mem, stats) = engines_agree(k, &p, &linear_mem(64));
            assert_eq!(mem.buffer("OUT").unwrap().data[0], 31.0 + 15.0);
            assert_eq!(stats.barriers, 64);
            let tel = lockstep_matches_per_warp(k, &p, &linear_mem(64));
            let pin = (tel.lockstep_blocks, tel.remerges);
            assert_eq!(pin, (2, remerges), "`{}`", k.name);
        }
    }

    #[test]
    fn an_error_in_lockstep_sends_the_block_to_the_scalar_engine() {
        // The last thread of block 1 overflows while the block is in
        // lockstep: the vector run is abandoned with nothing journalled,
        // counted as a per-block bail, and the scalar re-run owns the
        // error. Block 0 is untouched by it.
        let k = trap_kernel(
            "ovf",
            vec![
                gid_decl(),
                store_out(Expr::float(1.0)),
                store_out((Expr::var("gid") + Expr::int(i64::MAX - 62)).cast(ScalarType::F32)),
            ],
        );
        let p = LaunchParams::new((2, 1), (32, 1));
        let mem = linear_mem(64);
        let ck = compile(&k, &p, &mem).unwrap();
        let plan = ck.warp_plan(Engine::Simd);
        let bufs = ck.buffer_views(&mem).unwrap();
        let mut scratch = BlockScratch::default();
        let mut journal = Vec::new();
        let mut tel = crate::sched::SimdTelemetry::default();
        let mut run = |bx| {
            run_block_dispatch(
                &ck,
                &bufs,
                bx,
                0,
                &mut scratch,
                &mut journal,
                plan,
                &mut tel,
            )
        };
        assert_eq!(run(0).unwrap().0, 0..64);
        let err = run(1).unwrap_err();
        assert!(matches!(&err, SimError::EvalError(m) if m.starts_with("Add on")));
        assert_eq!(tel.lockstep_blocks, 1);
        let bail = crate::sched::FallbackCause::BlockBail;
        assert_eq!(tel.fallbacks().collect::<Vec<_>>(), [(bail, 1)]);
    }
}
