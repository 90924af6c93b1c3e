//! Control-flow graph construction.
//!
//! Section IV-A of the paper: "a control-flow graph (CFG) of the
//! instructions in the kernel method is created and traversed". This
//! module builds that CFG from the structured statement list. Blocks
//! borrow their statements and conditions from the list, so building a
//! CFG copies no IR. The verifier's dataflow analyses
//! (`hipacc_analysis::dataflow`) run their fixpoints over it; the
//! read/write analysis ([`crate::access`]) walks the structured body
//! directly.

use crate::expr::Expr;
use crate::stmt::Stmt;

/// Index of a basic block within a [`Cfg`].
pub type BlockId = usize;

/// A basic block: a maximal straight-line run of non-control statements,
/// borrowed from the statement list the CFG was built from.
#[derive(Clone, Debug, Default)]
pub struct Block<'a> {
    /// The statements of the block (control statements never appear here;
    /// their conditions are recorded on the block that evaluates them).
    pub stmts: Vec<&'a Stmt>,
    /// Condition expressions evaluated at the end of this block (loop
    /// bounds / branch conditions), kept for analyses that must see every
    /// evaluated expression.
    pub conditions: Vec<&'a Expr>,
    /// Successor blocks.
    pub succs: Vec<BlockId>,
    /// Whether the block ends in a kernel return.
    pub terminates: bool,
}

/// A control-flow graph over kernel statements.
#[derive(Clone, Debug)]
pub struct Cfg<'a> {
    /// All blocks; block 0 is the entry.
    pub blocks: Vec<Block<'a>>,
    /// The single exit block id.
    pub exit: BlockId,
}

impl<'a> Cfg<'a> {
    /// Build the CFG of a statement list.
    pub fn build(stmts: &'a [Stmt]) -> Cfg<'a> {
        let mut cfg = Cfg {
            blocks: vec![Block::default()],
            exit: 0,
        };
        let entry = 0;
        let last = cfg.lower_seq(stmts, entry);
        // Create a dedicated exit block.
        let exit = cfg.new_block();
        cfg.add_edge(last, exit);
        // Blocks that terminated with `return` also flow to exit.
        for b in 0..cfg.blocks.len() {
            if cfg.blocks[b].terminates && !cfg.blocks[b].succs.contains(&exit) {
                cfg.blocks[b].succs.push(exit);
            }
        }
        cfg.exit = exit;
        cfg
    }

    fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn add_edge(&mut self, from: BlockId, to: BlockId) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    /// Lower a statement sequence starting in `current`; returns the block
    /// that control falls out of.
    fn lower_seq(&mut self, stmts: &'a [Stmt], mut current: BlockId) -> BlockId {
        for s in stmts {
            match s {
                Stmt::If { cond, then, els } => {
                    self.blocks[current].conditions.push(cond);
                    let then_entry = self.new_block();
                    let els_entry = self.new_block();
                    self.add_edge(current, then_entry);
                    self.add_edge(current, els_entry);
                    let then_exit = self.lower_seq(then, then_entry);
                    let els_exit = self.lower_seq(els, els_entry);
                    let join = self.new_block();
                    self.add_edge(then_exit, join);
                    self.add_edge(els_exit, join);
                    current = join;
                }
                Stmt::For { from, to, body, .. } => {
                    self.blocks[current].conditions.push(from);
                    self.blocks[current].conditions.push(to);
                    let header = self.new_block();
                    self.add_edge(current, header);
                    let body_entry = self.new_block();
                    self.add_edge(header, body_entry);
                    let body_exit = self.lower_seq(body, body_entry);
                    // Back edge and loop exit.
                    self.add_edge(body_exit, header);
                    let after = self.new_block();
                    self.add_edge(header, after);
                    current = after;
                }
                Stmt::Return => {
                    self.blocks[current].terminates = true;
                    // Statements after an unconditional return are dead;
                    // start a fresh unreachable block for them.
                    current = self.new_block();
                }
                other => self.blocks[current].stmts.push(other),
            }
        }
        current
    }

    /// Blocks reachable from the entry, in preorder.
    pub fn reachable(&self) -> Vec<BlockId> {
        let mut seen = vec![false; self.blocks.len()];
        let mut order = Vec::new();
        let mut stack = vec![0usize];
        while let Some(b) = stack.pop() {
            if seen[b] {
                continue;
            }
            seen[b] = true;
            order.push(b);
            for &s in &self.blocks[b].succs {
                stack.push(s);
            }
        }
        order
    }

    /// Visit every statement and condition in reachable blocks — the
    /// paper's "traversal" primitive that the read/write analysis uses.
    pub fn visit_reachable(&self, mut on_stmt: impl FnMut(&Stmt), mut on_cond: impl FnMut(&Expr)) {
        for b in self.reachable() {
            for s in &self.blocks[b].stmts {
                on_stmt(s);
            }
            for c in &self.blocks[b].conditions {
                on_cond(c);
            }
        }
    }

    /// Number of blocks (including unreachable ones).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the CFG has no blocks (never true: entry always exists).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::ScalarType;

    fn decl(name: &str) -> Stmt {
        Stmt::Decl {
            name: name.into(),
            ty: ScalarType::F32,
            init: Some(Expr::float(0.0)),
        }
    }

    #[test]
    fn straight_line_is_two_blocks() {
        let body = [decl("a"), decl("b")];
        let cfg = Cfg::build(&body);
        // Entry + exit.
        assert_eq!(cfg.len(), 2);
        assert_eq!(cfg.blocks[0].stmts.len(), 2);
        assert_eq!(cfg.blocks[0].succs, vec![cfg.exit]);
    }

    #[test]
    fn if_produces_diamond() {
        let body = [Stmt::If {
            cond: Expr::var("x").lt(Expr::int(0)),
            then: vec![decl("a")],
            els: vec![decl("b")],
        }];
        let cfg = Cfg::build(&body);
        // entry, then, else, join, exit.
        assert_eq!(cfg.len(), 5);
        assert_eq!(cfg.blocks[0].succs.len(), 2);
        assert_eq!(cfg.blocks[0].conditions.len(), 1);
        // Both branches join.
        let joins: Vec<_> = cfg.blocks[1].succs.clone();
        assert_eq!(joins, cfg.blocks[2].succs);
    }

    #[test]
    fn loop_has_back_edge() {
        let body = [Stmt::For {
            var: "i".into(),
            from: Expr::int(0),
            to: Expr::int(3),
            body: vec![decl("a")],
        }];
        let cfg = Cfg::build(&body);
        // Find a block whose successors include an earlier block.
        let mut has_back_edge = false;
        for (i, b) in cfg.blocks.iter().enumerate() {
            for &s in &b.succs {
                if s <= i {
                    has_back_edge = true;
                }
            }
        }
        assert!(has_back_edge, "loop CFG must contain a back edge");
        // Loop bounds are recorded as conditions on the preheader.
        assert_eq!(cfg.blocks[0].conditions.len(), 2);
    }

    #[test]
    fn statements_after_return_are_unreachable() {
        let body = [decl("a"), Stmt::Return, decl("dead")];
        let cfg = Cfg::build(&body);
        let reachable = cfg.reachable();
        let mut seen_dead = false;
        for b in &reachable {
            for s in &cfg.blocks[*b].stmts {
                if matches!(s, Stmt::Decl { name, .. } if name == "dead") {
                    seen_dead = true;
                }
            }
        }
        assert!(!seen_dead, "code after return must be unreachable");
    }

    #[test]
    fn visit_reachable_sees_all_live_statements() {
        let body = [
            decl("a"),
            Stmt::If {
                cond: Expr::ImmBool(true),
                then: vec![decl("b")],
                els: vec![],
            },
            Stmt::Output(Expr::var("a")),
        ];
        let cfg = Cfg::build(&body);
        let mut stmts = 0;
        let mut conds = 0;
        cfg.visit_reachable(|_| stmts += 1, |_| conds += 1);
        assert_eq!(stmts, 3); // a, b, output
        assert_eq!(conds, 1);
    }
}
