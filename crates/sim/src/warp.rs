//! The simd engine's lowering: an [`Inst`] tape becomes a typed,
//! two-file **warp program**.
//!
//! The scalar engine keeps `Const` enums in its registers and matches
//! their tag on every instruction. Everything that match decides is
//! decidable from the tape alone, so this module decides it once per
//! [`CompiledKernel`] and hands [`crate::simd`] a program whose every
//! operation is monomorphic:
//!
//! * **Tags** — a flow-sensitive inference over each tape (lattice
//!   ⊥ / `Bool` / `Int` / `Float` / ⊤ per register, joins at jump
//!   targets, loop fixpoint, multi-phase kernels chained across barriers
//!   from the per-block `Int(0)` fill) mirrors the result-tag rules of
//!   `eval_binop` / `eval_unop` / `eval_mathfn` / `Cast`. Declared types
//!   are *not* consulted: `Assign` is a bare `Mov`, a `Decl` without
//!   initialiser is `Int(0)` whatever its type, and a `Select` whose arms
//!   differ in type really does yield either tag at run time. A register
//!   that is ⊤ or ⊥ where it is *read* makes the tape unsupported; the
//!   launch then runs on the scalar engine, counted.
//! * **Files** — the same pass classifies every *definition* as
//!   uniform (operands uniform, instruction pure, not control-dependent
//!   on a varying branch) or varying. Uniform definitions write the
//!   **scalar file** and run once per step for the whole block; their
//!   only sources are immediates, `LoadU`, `Bid` and `CLoad` at a scalar
//!   index, so they are uniform across the *block*, whichever of its
//!   threads are still running, which is what lets the executor keep one
//!   scalar file per block. Varying ones write the **vector file**, a row
//!   of lanes per register. A register is
//!   read from the file its reaching definitions wrote; where a uniform
//!   and a varying definition of one register meet at a join and the
//!   register is read afterwards, the uniform definition is demoted (the
//!   accumulator's `acc = 0.0` ahead of its tap loop is the common case).
//!   Immediates, block-uniform registers and the block index live in
//!   read-only slots behind the registers of the scalar file.
//!
//! Every varying branch also carries the end of its region as its *join*:
//! a block that runs the region block-wide, lanes grouped by program
//! counter, on its one scalar file resumes lockstep there.
//!
//! Classification can only cost time: the executor abandons the block to
//! the scalar engine when a scalar-file write turns up inside a varying
//! region.
//!
//! Steps are 1:1 with the tape's instructions — same pcs, same jump
//! targets — so warp telemetry counted in steps is counted in source
//! instructions.

use crate::bytecode::{CompiledKernel, Inst, Reg};
use crate::sched::FallbackCause;
use hipacc_ir::ty::{Const, ScalarType};
use hipacc_ir::{BinOp, MathFn, UnOp};
use std::ops::Range;

/// A register operand of a lowered op: slot index, which file holds it,
/// and which slab (`f32`, or `i64` for ints and 0/1 bools).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Slot(u32);

impl Slot {
    const SCALAR: u32 = 1 << 31;
    const FLOAT: u32 = 1 << 30;

    fn new(idx: usize, scalar: bool, float: bool) -> Slot {
        debug_assert!(idx < Self::FLOAT as usize);
        Slot(
            idx as u32
                | if scalar { Self::SCALAR } else { 0 }
                | if float { Self::FLOAT } else { 0 },
        )
    }

    /// Lives in the scalar file (else in the vector file).
    #[inline(always)]
    pub(crate) fn is_scalar(self) -> bool {
        self.0 & Self::SCALAR != 0
    }

    /// Lives in the `f32` slab (else in the `i64` slab).
    #[inline(always)]
    pub(crate) fn is_float(self) -> bool {
        self.0 & Self::FLOAT != 0
    }

    /// Slot index: the scalar-file index, or the vector-file row.
    #[inline(always)]
    pub(crate) fn idx(self) -> usize {
        (self.0 & !(Self::SCALAR | Self::FLOAT)) as usize
    }
}

/// Typed unary operations. Operands are read as `f32` (`as_f32`) except
/// `NegI` (`i64`) and `Not` (`as_bool`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum UnFn {
    NegI,
    NegF,
    Not,
    Exp,
    Log,
    Sqrt,
    Rsqrt,
    Abs,
    Sin,
    Cos,
    Floor,
    Round,
}

/// Typed binary operations: checked `i64` arithmetic, `f32` arithmetic,
/// comparisons through `f32` (what `eval_binop` does even for two ints)
/// and the loop test's exact `i64` compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BinFn {
    AddI,
    SubI,
    MulI,
    DivI,
    RemI,
    MinI,
    MaxI,
    LeI,
    AddF,
    SubF,
    MulF,
    DivF,
    MinF,
    MaxF,
    PowF,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// One monomorphic operation of the warp program.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    /// An instruction that errors on every execution (`-true`, float
    /// `%`), or one the analysis found unreachable: the block re-runs
    /// scalar, which owns the outcome.
    Bail,
    Jmp {
        to: u32,
    },
    /// Jump when `as_bool(cond) == when`. `join` ends the region the
    /// branch controls: lanes that part here meet again there, and when
    /// `cond` lives in the vector file no step in between writes the
    /// scalar file.
    Br {
        cond: Slot,
        when: bool,
        to: u32,
        join: u32,
    },
    Halt,
    /// Copy or convert into `dst`'s slab: `as_f32` / `as_i64`, or
    /// `as_bool` when `truth`. `Imm`, `Mov`, `LoadU`, `Bid`, `Cast` and
    /// `AsBool` all lower to this.
    Cvt {
        dst: Slot,
        a: Slot,
        truth: bool,
    },
    Un {
        f: UnFn,
        dst: Slot,
        a: Slot,
    },
    Bin {
        f: BinFn,
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    Tid {
        dst: Slot,
        axis: u8,
    },
    /// `GLoad` (`tex == false`) or `TexLin`.
    Load {
        dst: Slot,
        buf: u16,
        idx: Slot,
        tex: bool,
    },
    Store {
        buf: u16,
        idx: Slot,
        val: Slot,
    },
    TexXy {
        dst: Slot,
        buf: u16,
        x: Slot,
        y: Slot,
    },
    CLoad {
        dst: Slot,
        cb: u16,
        idx: Slot,
    },
    SLoad {
        dst: Slot,
        sb: u16,
        y: Slot,
        x: Slot,
    },
    SStore {
        sb: u16,
        y: Slot,
        x: Slot,
        val: Slot,
    },
}

/// A lowered op plus what the executor's step loop needs beside it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Step {
    pub(crate) op: Op,
    /// Writes the scalar file: run once for the block in lockstep, never
    /// inside a varying region.
    pub(crate) guard: bool,
    /// Served without touching the vector file (scalar-file write, branch
    /// on a scalar-file condition, unconditional jump).
    pub(crate) uniform: bool,
}

/// Dynamic tag lattice of one register at one program point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tag {
    /// No definition reaches here.
    Bot,
    Bool,
    Int,
    Float,
    /// Definitions of different tags reach here.
    Top,
}

impl Tag {
    fn of(c: Const) -> Tag {
        match c {
            Const::Bool(_) => Tag::Bool,
            Const::Int(_) => Tag::Int,
            Const::Float(_) => Tag::Float,
        }
    }

    fn known(self) -> bool {
        !matches!(self, Tag::Bot | Tag::Top)
    }
}

/// Which file holds a register's current value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loc {
    Scalar,
    Vector,
    /// Scalar on some incoming paths, vector on others: unreadable until
    /// the scalar definitions are demoted.
    Mixed,
}

/// `Abs::sdef` when no scalar definition reaches, or more than one does.
const NO_DEF: u32 = u32::MAX;
const MANY_DEFS: u32 = u32::MAX - 1;

/// Abstract state of one register.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Abs {
    tag: Tag,
    loc: Loc,
    /// The pc of the one scalar-file definition reaching here (so a
    /// `Mixed` read knows what to demote), `MANY_DEFS`, or `NO_DEF`.
    sdef: u32,
}

impl Abs {
    const BOT: Abs = Abs {
        tag: Tag::Bot,
        loc: Loc::Vector,
        sdef: NO_DEF,
    };
    /// The multi-phase register fill: `Int(0)` in every lane.
    const ZERO: Abs = Abs {
        tag: Tag::Int,
        loc: Loc::Vector,
        sdef: NO_DEF,
    };

    fn join(self, o: Abs) -> Abs {
        if self.tag == Tag::Bot || self == o {
            return o;
        }
        if o.tag == Tag::Bot {
            return self;
        }
        let sdef = match (self.sdef, o.sdef) {
            (a, b) if a == b => a,
            (a, NO_DEF) => a,
            (NO_DEF, b) => b,
            _ => MANY_DEFS,
        };
        Abs {
            tag: if self.tag == o.tag {
                self.tag
            } else {
                Tag::Top
            },
            loc: if self.loc == o.loc {
                self.loc
            } else {
                Loc::Mixed
            },
            sdef,
        }
    }
}

/// Join `from` into `into`, register by register.
fn join_states(into: &mut [Abs], from: &[Abs]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a = a.join(*b);
    }
}

/// The simd engine's view of one [`CompiledKernel`].
pub(crate) struct WarpProgram {
    /// One step list per barrier-delimited phase, pcs 1:1 with the tape.
    pub(crate) phases: Vec<Vec<Step>>,
    /// Scalar-file length: registers, then block-uniform registers, the
    /// block index pair and the immediates.
    pub(crate) scalar_len: usize,
    /// First block-uniform slot (`n_regs`).
    pub(crate) ureg_base: usize,
    /// Inferred tag of every block-uniform register at prologue exit.
    pub(crate) utags: Vec<Tag>,
    /// Slot of `blockIdx.x`; `.y` follows.
    pub(crate) bid_base: usize,
    /// First immediate slot and the immediates stored from there.
    pub(crate) const_base: usize,
    pub(crate) consts: Vec<Const>,
}

/// What the analysis keeps per tape: the facts that only grow from sweep
/// to sweep, and the jump structure with the loop states of the current
/// pass.
struct TapeFacts {
    /// Control-dependent on a branch whose condition varies per lane.
    varying: Vec<bool>,
    /// Scalar definition demoted because it met a vector one at a join.
    force_v: Vec<bool>,
    /// Per pc (`len` included): its index among the jump targets.
    target_id: Vec<Option<usize>>,
    n_targets: usize,
    /// Backward jumps `(from, to)` and, once the current pass has taken
    /// one, the state it last sent to its loop head.
    back_edges: Vec<(u32, u32)>,
    back_out: Vec<Abs>,
    back_seen: Vec<bool>,
}

impl TapeFacts {
    fn new(tape: &[Inst], n_regs: usize) -> TapeFacts {
        let len = tape.len();
        let mut target_id = vec![None; len + 1];
        let mut n_targets = 0usize;
        let mut back_edges = Vec::new();
        for (pc, inst) in tape.iter().enumerate() {
            if let Some(to) = jump_target(inst) {
                let to = (to as usize).min(len);
                if target_id[to].is_none() {
                    target_id[to] = Some(n_targets);
                    n_targets += 1;
                }
                if to <= pc {
                    back_edges.push((pc as u32, to as u32));
                }
            }
        }
        TapeFacts {
            varying: vec![false; len + 1],
            force_v: vec![false; len],
            target_id,
            n_targets,
            back_out: vec![Abs::BOT; back_edges.len() * n_regs],
            back_seen: vec![false; back_edges.len()],
            back_edges,
        }
    }

    /// Record `state` as what the backward jump at `pc` sends to its loop
    /// head; true when that is news to the head.
    fn loop_again(&mut self, pc: usize, state: &[Abs], n: usize) -> bool {
        let e = self
            .back_edges
            .iter()
            .position(|&(from, _)| from as usize == pc)
            .expect("backward jump was indexed");
        let sent = &mut self.back_out[e * n..(e + 1) * n];
        let news = !self.back_seen[e] || sent != state;
        sent.copy_from_slice(state);
        self.back_seen[e] = true;
        news
    }
}

fn jump_target(inst: &Inst) -> Option<u32> {
    match inst {
        Inst::Jmp { to } | Inst::JmpIfFalse { to, .. } | Inst::JmpIfTrue { to, .. } => Some(*to),
        _ => None,
    }
}

/// What the branch at `j` to `to` controls when its condition varies per
/// lane: from the branch to where its lanes reconverge under min-pc
/// scheduling. The region grows to every jump target reachable from
/// inside it, forwards (an `else` arm) and backwards (the head of a loop
/// whose trip count varies), so every jump in it lands in it or on its
/// end: a lane leaves it only at `end` or by `Halt`, and `end` is where
/// the executor re-merges a block. Over-approximation only moves
/// definitions to the vector file and the join later.
fn varying_region(tape: &[Inst], j: usize, to: usize) -> Range<usize> {
    let (mut lo, mut hi) = (j + 1, to.min(tape.len()));
    loop {
        let (l0, h0) = (lo, hi);
        for inst in &tape[lo.min(j)..hi] {
            if let Some(t) = jump_target(inst) {
                let t = (t as usize).min(tape.len());
                hi = hi.max(t);
                lo = lo.min(t);
            }
        }
        if (lo, hi) == (l0, h0) {
            return lo..hi;
        }
    }
}

/// Lower `prog` for the simd engine, or say why its blocks must run on
/// the scalar engine.
pub(crate) fn lower(prog: &CompiledKernel) -> Result<WarpProgram, FallbackCause> {
    if !tiles_deferrable(prog) {
        return Err(FallbackCause::SharedTileHazard);
    }
    // The prologue runs on the scalar engine; only the tags it leaves in
    // the uniform file (from its `Int(0)` fill) are needed, to type `LoadU`.
    let n_uregs = prog.n_uregs.max(1);
    let mut pro = Lowerer::new(n_uregs, Vec::new());
    let (_, exits) = pro.run(
        std::slice::from_ref(&prog.prologue),
        &vec![Abs::ZERO; n_uregs],
    )?;
    let utags = exits[..prog.n_uregs].iter().map(|a| a.tag).collect();

    // Single-phase register files are reused unzeroed (every read is
    // dominated by a write); multi-phase ones start from the Int(0) fill.
    let fill = if prog.phases.len() > 1 {
        Abs::ZERO
    } else {
        Abs::BOT
    };
    let n_regs = prog.n_regs.max(1);
    let mut lw = Lowerer::new(n_regs, utags);
    let (phases, _) = lw.run(&prog.phases, &vec![fill; n_regs])?;
    Ok(WarpProgram {
        phases,
        scalar_len: lw.const_base + lw.consts.len(),
        ureg_base: lw.ureg_base,
        utags: lw.utags,
        bid_base: lw.bid_base,
        const_base: lw.const_base,
        consts: lw.consts,
    })
}

/// Deferring a lane's tile writes to the end of the phase is invisible
/// exactly when no phase both loads and stores the *same* tile. Arrays a
/// phase only stores commit in thread order at its end, reproducing the
/// scalar engine's thread-major final state; arrays a phase only loads
/// are immutable for the whole phase. No shipped lowering produces a
/// phase that loads and stores one tile (the scratchpad path stores its
/// tile, syncs, then only loads it); the check guards hand-built kernels
/// passed to the public launch API.
fn tiles_deferrable(prog: &CompiledKernel) -> bool {
    prog.phases.iter().all(|tape| {
        let n = prog.shared.len();
        let mut loaded = vec![false; n];
        let mut stored = vec![false; n];
        for inst in tape.iter() {
            match inst {
                Inst::SLoad { sb, .. } => loaded[*sb as usize] = true,
                Inst::SStore { sb, .. } => stored[*sb as usize] = true,
                _ => {}
            }
        }
        (0..n).all(|i| !(loaded[i] && stored[i]))
    })
}

/// Sweeps of the whole tape sequence before the analysis gives up. Facts
/// only grow, and the catalogue's tapes need two or three sweeps.
const MAX_SWEEPS: usize = 32;

struct Lowerer {
    n_regs: usize,
    ureg_base: usize,
    bid_base: usize,
    const_base: usize,
    utags: Vec<Tag>,
    /// Interned immediates, in scalar-file order.
    consts: Vec<Const>,
    /// Registers whose every definition is forced into the vector file
    /// (a `Mixed` read that more than one scalar definition reaches).
    force_reg: Vec<bool>,
    /// A monotone fact (demotion, varying region) grew during the current
    /// sweep: states computed before it are stale.
    facts_grew: bool,
    /// A ⊤/⊥ register was read at a reachable pc during the current
    /// sweep.
    polymorphic: bool,
}

impl Lowerer {
    /// A lowerer for tapes over `n_regs` registers that read the uniform
    /// registers typed by `utags`. The scalar file is laid out registers,
    /// uniform registers, block index pair, immediates.
    fn new(n_regs: usize, utags: Vec<Tag>) -> Lowerer {
        let bid_base = n_regs + utags.len();
        Lowerer {
            n_regs,
            ureg_base: n_regs,
            bid_base,
            const_base: bid_base + 2,
            utags,
            consts: Vec::new(),
            force_reg: vec![false; n_regs],
            facts_grew: false,
            polymorphic: false,
        }
    }

    /// Lower `tapes` (chained entry → exit → entry): sweep until a whole
    /// sweep grows no fact; its steps are the program. Returns them and
    /// the last exit state.
    fn run(
        &mut self,
        tapes: &[Vec<Inst>],
        entry: &[Abs],
    ) -> Result<(Vec<Vec<Step>>, Vec<Abs>), FallbackCause> {
        let mut facts: Vec<TapeFacts> = tapes
            .iter()
            .map(|t| TapeFacts::new(t, self.n_regs))
            .collect();
        let mut out: Vec<Vec<Step>> = tapes.iter().map(|t| Vec::with_capacity(t.len())).collect();
        let mut pending = Vec::new();
        for _ in 0..MAX_SWEEPS {
            self.facts_grew = false;
            self.polymorphic = false;
            let mut state = entry.to_vec();
            for ((tape, f), steps) in tapes.iter().zip(&mut facts).zip(&mut out) {
                steps.clear();
                self.pass(tape, f, &mut state, &mut pending, steps);
                // A definition's pc means nothing in the next tape.
                for a in state.iter_mut().filter(|a| a.sdef != NO_DEF) {
                    a.sdef = MANY_DEFS;
                }
            }
            // States computed before a fact grew are stale; a sweep that
            // grew none is a fixpoint under the facts it started with.
            if !self.facts_grew {
                return match self.polymorphic {
                    true => Err(FallbackCause::PolymorphicRegister),
                    false => Ok((out, state)),
                };
            }
        }
        // Not settled: no typed program to offer.
        Err(FallbackCause::PolymorphicRegister)
    }

    /// One forward pass over `tape` from `state` (left holding the exit
    /// state), loops iterated in place: a backward jump whose state
    /// differs from what its loop head last saw sends the pass back to
    /// the head, so a pass that grows no fact ends at the fixpoint and
    /// `out` holds the steps of every loop's last iteration.
    fn pass(
        &mut self,
        tape: &[Inst],
        f: &mut TapeFacts,
        state: &mut [Abs],
        pending: &mut Vec<Abs>,
        out: &mut Vec<Step>,
    ) {
        let n = self.n_regs;
        let len = tape.len();
        // Per jump target: the join of the forward edges met so far, then
        // (once the pass has been there) the target's whole forward-in
        // state, which a loop re-iteration restarts from.
        pending.clear();
        pending.resize(f.n_targets * n, Abs::BOT);
        let mut has_pending = vec![false; f.n_targets];
        f.back_seen.fill(false);
        let mut reachable = true;
        let mut pc = 0;
        loop {
            if let Some(t) = f.target_id[pc] {
                let fwd = &mut pending[t * n..(t + 1) * n];
                if reachable {
                    if has_pending[t] {
                        join_states(state, fwd);
                    }
                    fwd.copy_from_slice(state);
                    has_pending[t] = true;
                } else if has_pending[t] {
                    state.copy_from_slice(fwd);
                    reachable = true;
                }
                for (e, &(_, to)) in f.back_edges.iter().enumerate() {
                    if to as usize == pc && f.back_seen[e] {
                        join_states(state, &f.back_out[e * n..(e + 1) * n]);
                    }
                }
            }
            if pc == len {
                break;
            }
            let inst = &tape[pc];
            let step = match inst {
                _ if !reachable => Step {
                    op: Op::Bail,
                    guard: false,
                    uniform: false,
                },
                Inst::Jmp { to } | Inst::JmpIfFalse { to, .. } | Inst::JmpIfTrue { to, .. } => {
                    let to = (*to as usize).min(len);
                    let cond = match inst {
                        Inst::JmpIfFalse { cond, .. } | Inst::JmpIfTrue { cond, .. } => {
                            let (c, _) = self.read(f, state, *cond);
                            let region = varying_region(tape, pc, to);
                            let join = region.end as u32;
                            if !c.is_scalar() {
                                for v in &mut f.varying[region] {
                                    self.facts_grew |= !*v;
                                    *v = true;
                                }
                            }
                            Some((c, join))
                        }
                        _ => None,
                    };
                    if to > pc {
                        let t = f.target_id[to].expect("jump targets were indexed");
                        let slot = &mut pending[t * n..(t + 1) * n];
                        if has_pending[t] {
                            join_states(slot, state);
                        } else {
                            slot.copy_from_slice(state);
                            has_pending[t] = true;
                        }
                    } else if f.loop_again(pc, state, n) {
                        // Re-run the loop from its head: forget what the
                        // body sent forward inside itself and what it
                        // emitted; the head restores its forward-in state.
                        for t in (to + 1..=pc).filter_map(|inner| f.target_id[inner]) {
                            has_pending[t] = false;
                        }
                        out.truncate(to);
                        reachable = false;
                        pc = to;
                        continue;
                    }
                    reachable = cond.is_some();
                    match cond {
                        Some((c, join)) => Step {
                            op: Op::Br {
                                cond: c,
                                when: matches!(inst, Inst::JmpIfTrue { .. }),
                                to: to as u32,
                                join,
                            },
                            guard: false,
                            uniform: c.is_scalar(),
                        },
                        None => Step {
                            op: Op::Jmp { to: to as u32 },
                            guard: false,
                            uniform: true,
                        },
                    }
                }
                Inst::Halt => {
                    reachable = false;
                    Step {
                        op: Op::Halt,
                        guard: false,
                        uniform: false,
                    }
                }
                _ => {
                    let op = self.transfer(f, state, pc, inst);
                    let guard = op_dst(&op).is_some_and(Slot::is_scalar);
                    Step {
                        op,
                        guard,
                        uniform: guard,
                    }
                }
            };
            out.push(step);
            pc += 1;
        }
        if !reachable {
            // Every path halted: the next phase has no thread to run.
            state.fill(Abs::BOT);
        }
    }

    /// Resolve a register read: the slot it lives in and its tag. A
    /// `Mixed` location demotes the scalar definition(s) behind it and
    /// reads as vector, which is what the next pass will compute.
    fn read(&mut self, f: &mut TapeFacts, state: &[Abs], r: Reg) -> (Slot, Tag) {
        let a = state[r as usize];
        if !a.tag.known() {
            self.polymorphic = true;
            return (Slot::new(r as usize, false, false), Tag::Top);
        }
        let scalar = match a.loc {
            Loc::Scalar => true,
            Loc::Vector => false,
            Loc::Mixed => {
                // Always another sweep: the program of a sweep that met a
                // `Mixed` read is never the one that is kept.
                match f.force_v.get_mut(a.sdef as usize) {
                    Some(one_def) => *one_def = true,
                    None => self.force_reg[r as usize] = true,
                }
                self.facts_grew = true;
                false
            }
        };
        (Slot::new(r as usize, scalar, a.tag == Tag::Float), a.tag)
    }

    /// Record the definition of `dst` at `pc`. `uniform` says the value
    /// is the same in every lane (pure op, all operands scalar-file).
    fn def(
        &mut self,
        f: &TapeFacts,
        state: &mut [Abs],
        pc: usize,
        dst: Reg,
        tag: Tag,
        uniform: bool,
    ) -> Slot {
        let scalar = uniform && !f.varying[pc] && !f.force_v[pc] && !self.force_reg[dst as usize];
        state[dst as usize] = Abs {
            tag,
            loc: if scalar { Loc::Scalar } else { Loc::Vector },
            sdef: if scalar { pc as u32 } else { NO_DEF },
        };
        Slot::new(dst as usize, scalar, tag == Tag::Float)
    }

    /// The read-only scalar slot holding immediate `c`.
    fn konst(&mut self, c: Const) -> Slot {
        let same = |a: &Const| match (*a, c) {
            (Const::Float(x), Const::Float(y)) => x.to_bits() == y.to_bits(),
            (a, b) => a == b,
        };
        let i = match self.consts.iter().position(same) {
            Some(i) => i,
            None => {
                self.consts.push(c);
                self.consts.len() - 1
            }
        };
        Slot::new(self.const_base + i, true, matches!(c, Const::Float(_)))
    }

    /// Lower one non-control instruction and update `state`.
    fn transfer(&mut self, f: &mut TapeFacts, state: &mut [Abs], pc: usize, inst: &Inst) -> Op {
        // An operand of unknown tag poisons the result (⊤); `read` has
        // flagged the sweep.
        macro_rules! read {
            ($r:expr) => {
                self.read(f, state, $r)
            };
        }
        // An instruction that always errors still defines its register,
        // so the rest of the tape stays analysable.
        macro_rules! bail {
            ($dst:expr, $tag:expr) => {{
                self.def(f, state, pc, $dst, $tag, false);
                return Op::Bail;
            }};
        }
        let copy = |dst, a| Op::Cvt {
            dst,
            a,
            truth: false,
        };
        match inst {
            Inst::Imm { dst, v } => {
                let a = self.konst(*v);
                copy(self.def(f, state, pc, *dst, Tag::of(*v), true), a)
            }
            Inst::Mov { dst, src } => {
                let (a, tag) = read!(*src);
                copy(self.def(f, state, pc, *dst, tag, a.is_scalar()), a)
            }
            Inst::LoadU { dst, src } => {
                let tag = self.utags.get(*src as usize).copied().unwrap_or(Tag::Top);
                self.polymorphic |= !tag.known();
                let a = Slot::new(self.ureg_base + *src as usize, true, tag == Tag::Float);
                copy(self.def(f, state, pc, *dst, tag, true), a)
            }
            Inst::Bid { dst, axis } => {
                let a = Slot::new(self.bid_base + *axis as usize, true, false);
                copy(self.def(f, state, pc, *dst, Tag::Int, true), a)
            }
            Inst::Tid { dst, axis } => Op::Tid {
                dst: self.def(f, state, pc, *dst, Tag::Int, false),
                axis: *axis,
            },
            Inst::Un { dst, op, a } => {
                let (a, tag) = read!(*a);
                let (fun, out) = match (op, tag) {
                    (UnOp::Not, _) => (UnFn::Not, Tag::Bool),
                    (UnOp::Neg, Tag::Int) => (UnFn::NegI, Tag::Int),
                    (UnOp::Neg, Tag::Float) => (UnFn::NegF, Tag::Float),
                    (UnOp::Neg, Tag::Bool) => bail!(*dst, Tag::Int),
                    (UnOp::Neg, _) => (UnFn::NegF, Tag::Top),
                };
                Op::Un {
                    f: fun,
                    dst: self.def(f, state, pc, *dst, out, a.is_scalar()),
                    a,
                }
            }
            Inst::Bin { dst, op, a, b } => {
                let (a, ta) = read!(*a);
                let (b, tb) = read!(*b);
                let both_int = ta == Tag::Int && tb == Tag::Int;
                let (fun, out) = match op {
                    BinOp::Eq => (BinFn::Eq, Tag::Bool),
                    BinOp::Ne => (BinFn::Ne, Tag::Bool),
                    BinOp::Lt => (BinFn::Lt, Tag::Bool),
                    BinOp::Le => (BinFn::Le, Tag::Bool),
                    BinOp::Gt => (BinFn::Gt, Tag::Bool),
                    BinOp::Ge => (BinFn::Ge, Tag::Bool),
                    // `&&`/`||` compile to jumps; a tape that carries one
                    // is left to the scalar engine.
                    BinOp::And | BinOp::Or => bail!(*dst, Tag::Bool),
                    _ if !(ta.known() && tb.known()) => (BinFn::AddF, Tag::Top),
                    BinOp::Add if both_int => (BinFn::AddI, Tag::Int),
                    BinOp::Sub if both_int => (BinFn::SubI, Tag::Int),
                    BinOp::Mul if both_int => (BinFn::MulI, Tag::Int),
                    BinOp::Div if both_int => (BinFn::DivI, Tag::Int),
                    BinOp::Rem if both_int => (BinFn::RemI, Tag::Int),
                    BinOp::Add => (BinFn::AddF, Tag::Float),
                    BinOp::Sub => (BinFn::SubF, Tag::Float),
                    BinOp::Mul => (BinFn::MulF, Tag::Float),
                    BinOp::Div => (BinFn::DivF, Tag::Float),
                    BinOp::Rem => bail!(*dst, Tag::Float),
                };
                Op::Bin {
                    f: fun,
                    dst: self.def(f, state, pc, *dst, out, a.is_scalar() && b.is_scalar()),
                    a,
                    b,
                }
            }
            Inst::AsBool { dst, a } => {
                let (a, _) = read!(*a);
                Op::Cvt {
                    dst: self.def(f, state, pc, *dst, Tag::Bool, a.is_scalar()),
                    a,
                    truth: true,
                }
            }
            Inst::Call { dst, f: fun, args } => {
                let Some(&a0) = args.first() else {
                    bail!(*dst, Tag::Float)
                };
                let (a, ta) = read!(a0);
                let unary = |u| Some(u);
                let un = match fun {
                    MathFn::Exp => unary(UnFn::Exp),
                    MathFn::Log => unary(UnFn::Log),
                    MathFn::Sqrt => unary(UnFn::Sqrt),
                    MathFn::Rsqrt => unary(UnFn::Rsqrt),
                    MathFn::Abs => unary(UnFn::Abs),
                    MathFn::Sin => unary(UnFn::Sin),
                    MathFn::Cos => unary(UnFn::Cos),
                    MathFn::Floor => unary(UnFn::Floor),
                    MathFn::Round => unary(UnFn::Round),
                    MathFn::Pow | MathFn::Min | MathFn::Max => None,
                };
                if let Some(u) = un {
                    return Op::Un {
                        f: u,
                        dst: self.def(f, state, pc, *dst, Tag::Float, a.is_scalar()),
                        a,
                    };
                }
                let Some(&a1) = args.get(1) else {
                    bail!(*dst, Tag::Float)
                };
                let (b, tb) = read!(a1);
                // Min/Max stay integer only for int–int, like `eval_mathfn`.
                let both_int = ta == Tag::Int && tb == Tag::Int;
                let (bf, out) = match fun {
                    MathFn::Pow => (BinFn::PowF, Tag::Float),
                    _ if !(ta.known() && tb.known()) => (BinFn::MinF, Tag::Top),
                    MathFn::Min if both_int => (BinFn::MinI, Tag::Int),
                    MathFn::Max if both_int => (BinFn::MaxI, Tag::Int),
                    MathFn::Min => (BinFn::MinF, Tag::Float),
                    _ => (BinFn::MaxF, Tag::Float),
                };
                Op::Bin {
                    f: bf,
                    dst: self.def(f, state, pc, *dst, out, a.is_scalar() && b.is_scalar()),
                    a,
                    b,
                }
            }
            Inst::Cast { dst, ty, a } => {
                let (a, _) = read!(*a);
                let out = match ty {
                    ScalarType::F32 => Tag::Float,
                    ScalarType::I32 | ScalarType::U32 => Tag::Int,
                    ScalarType::Bool => Tag::Bool,
                };
                Op::Cvt {
                    dst: self.def(f, state, pc, *dst, out, a.is_scalar()),
                    a,
                    truth: out == Tag::Bool,
                }
            }
            Inst::LoopTest { dst, var, hi } => {
                let (a, _) = read!(*var);
                let (b, _) = read!(*hi);
                Op::Bin {
                    f: BinFn::LeI,
                    dst: self.def(
                        f,
                        state,
                        pc,
                        *dst,
                        Tag::Bool,
                        a.is_scalar() && b.is_scalar(),
                    ),
                    a,
                    b,
                }
            }
            Inst::IncInt { reg } => {
                let (a, _) = read!(*reg);
                let b = self.konst(Const::Int(1));
                Op::Bin {
                    f: BinFn::AddI,
                    dst: self.def(f, state, pc, *reg, Tag::Int, a.is_scalar()),
                    a,
                    b,
                }
            }
            Inst::GLoad { dst, buf, idx } | Inst::TexLin { dst, buf, idx } => {
                let (idx, _) = read!(*idx);
                Op::Load {
                    dst: self.def(f, state, pc, *dst, Tag::Float, false),
                    buf: *buf,
                    idx,
                    tex: matches!(inst, Inst::TexLin { .. }),
                }
            }
            Inst::GStore { buf, idx, val } => {
                let (idx, _) = read!(*idx);
                let (val, _) = read!(*val);
                Op::Store {
                    buf: *buf,
                    idx,
                    val,
                }
            }
            Inst::TexXy { dst, buf, x, y } => {
                let (x, _) = read!(*x);
                let (y, _) = read!(*y);
                Op::TexXy {
                    dst: self.def(f, state, pc, *dst, Tag::Float, false),
                    buf: *buf,
                    x,
                    y,
                }
            }
            Inst::CLoad { dst, cb, idx } => {
                let (idx, _) = read!(*idx);
                Op::CLoad {
                    dst: self.def(f, state, pc, *dst, Tag::Float, idx.is_scalar()),
                    cb: *cb,
                    idx,
                }
            }
            Inst::SLoad { dst, sb, y, x } => {
                let (y, _) = read!(*y);
                let (x, _) = read!(*x);
                Op::SLoad {
                    dst: self.def(f, state, pc, *dst, Tag::Float, false),
                    sb: *sb,
                    y,
                    x,
                }
            }
            Inst::SStore { sb, y, x, val } => {
                let (y, _) = read!(*y);
                let (x, _) = read!(*x);
                let (val, _) = read!(*val);
                Op::SStore { sb: *sb, y, x, val }
            }
            Inst::Jmp { .. } | Inst::JmpIfFalse { .. } | Inst::JmpIfTrue { .. } | Inst::Halt => {
                unreachable!("control flow is lowered by `pass`")
            }
        }
    }
}

/// The slot an op writes, if any.
fn op_dst(op: &Op) -> Option<Slot> {
    match op {
        Op::Cvt { dst, .. }
        | Op::Un { dst, .. }
        | Op::Bin { dst, .. }
        | Op::Tid { dst, .. }
        | Op::Load { dst, .. }
        | Op::TexXy { dst, .. }
        | Op::CLoad { dst, .. }
        | Op::SLoad { dst, .. } => Some(*dst),
        _ => None,
    }
}
