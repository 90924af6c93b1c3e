//! A small forward dataflow framework over the device-IR CFG.
//!
//! The verifier's analyses are expressed as monotone transfer functions
//! over a join-semilattice; [`forward_fixpoint`] runs the classic
//! worklist algorithm to a fixpoint and returns the entry state of every
//! block. The framework is deliberately tiny — the kernels this compiler
//! generates have a few dozen blocks — but it is a genuine fixpoint
//! engine: loops (`Stmt::For` back edges) converge through repeated
//! joins, exactly like the read/write analysis traversal of Section IV-A.

use hipacc_ir::cfg::{Block, Cfg};
use std::collections::VecDeque;

/// A join-semilattice element.
pub trait Lattice: Clone {
    /// Join `other` into `self`; returns whether `self` changed. Joins
    /// must be monotone (never lose information) for the worklist to
    /// terminate.
    fn join(&mut self, other: &Self) -> bool;
}

/// The powerset lattice over a fixed universe of `len` elements, one bit
/// per element (the taint analysis indexes the names a kernel assigns).
/// Cloning copies a few words, not the names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// The empty set over `len` elements.
    pub fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Add element `i`; returns whether it was new.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        let new = self.words[w] & bit == 0;
        self.words[w] |= bit;
        new
    }

    /// Whether element `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// The elements, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.words.len() * 64).filter(|&i| self.contains(i))
    }
}

impl Lattice for BitSet {
    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            changed |= *b & !*a != 0;
            *a |= *b;
        }
        changed
    }
}

/// Run a forward dataflow analysis to fixpoint.
///
/// `entry` seeds block 0; every other block starts from `bottom`.
/// `transfer` maps a block's entry state to its exit state and must be
/// monotone. Returns the fixpoint *entry* state of every block
/// (unreachable blocks keep `bottom`).
pub fn forward_fixpoint<L: Lattice>(
    cfg: &Cfg<'_>,
    entry: L,
    bottom: L,
    mut transfer: impl FnMut(&Block<'_>, &L) -> L,
) -> Vec<L> {
    let n = cfg.blocks.len();
    let mut states = vec![bottom; n];
    states[0] = entry;
    // Seed every block, not just the entry: a transfer applied to the
    // bottom state can still produce a non-bottom exit state that must
    // reach the successors.
    let mut queued = vec![true; n];
    let mut work: VecDeque<usize> = (0..n).collect();
    while let Some(b) = work.pop_front() {
        queued[b] = false;
        let out = transfer(&cfg.blocks[b], &states[b]);
        for &s in &cfg.blocks[b].succs {
            if states[s].join(&out) && !queued[s] {
                queued[s] = true;
                work.push_back(s);
            }
        }
    }
    states
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_ir::{Expr, ScalarType, Stmt};

    fn decl(name: &str, init: Expr) -> Stmt {
        Stmt::Decl {
            name: name.into(),
            ty: ScalarType::I32,
            init: Some(init),
        }
    }

    /// The universe of the tests' name sets.
    const NAMES: [&str; 5] = ["a", "b", "t", "e", "inner"];

    /// Transfer: a declared variable becomes "defined"; the set of defined
    /// names flows forward.
    fn defined_names(block: &Block<'_>, inp: &BitSet) -> BitSet {
        let mut out = inp.clone();
        for s in &block.stmts {
            if let Stmt::Decl { name, .. } = s {
                out.insert(NAMES.iter().position(|n| n == name).unwrap());
            }
        }
        out
    }

    fn run(cfg: &hipacc_ir::cfg::Cfg<'_>) -> Vec<BitSet> {
        let empty = BitSet::new(NAMES.len());
        forward_fixpoint(cfg, empty.clone(), empty, defined_names)
    }

    fn has(set: &BitSet, name: &str) -> bool {
        set.contains(NAMES.iter().position(|n| *n == name).unwrap())
    }

    #[test]
    fn bitset_insert_join_and_iterate() {
        let mut a = BitSet::new(130);
        assert!(a.insert(3) && a.insert(129));
        assert!(!a.insert(3));
        let mut b = BitSet::new(130);
        b.insert(64);
        assert!(b.join(&a));
        assert!(!b.join(&a));
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![3, 64, 129]);
    }

    #[test]
    fn straight_line_accumulates() {
        let body = [decl("a", Expr::int(0)), decl("b", Expr::int(1))];
        let cfg = hipacc_ir::cfg::Cfg::build(&body);
        let states = run(&cfg);
        // The exit block's entry state has seen both declarations.
        assert!(has(&states[cfg.exit], "a") && has(&states[cfg.exit], "b"));
    }

    #[test]
    fn branches_join_at_the_merge_point() {
        let body = [Stmt::If {
            cond: Expr::var("c").lt(Expr::int(0)),
            then: vec![decl("t", Expr::int(0))],
            els: vec![decl("e", Expr::int(0))],
        }];
        let cfg = hipacc_ir::cfg::Cfg::build(&body);
        let states = run(&cfg);
        // Join of both branches reaches the exit.
        assert!(has(&states[cfg.exit], "t") && has(&states[cfg.exit], "e"));
    }

    #[test]
    fn loops_reach_a_fixpoint() {
        let body = [Stmt::For {
            var: "i".into(),
            from: Expr::int(0),
            to: Expr::int(3),
            body: vec![decl("inner", Expr::int(0))],
        }];
        let cfg = hipacc_ir::cfg::Cfg::build(&body);
        let states = run(&cfg);
        assert!(has(&states[cfg.exit], "inner"));
    }
}
