//! Fused-chain compilation: one device kernel for a producer–consumer
//! operator chain.
//!
//! The unfused pipeline launches every operator separately and
//! round-trips each intermediate image through global memory. This
//! module lowers a validated [`FusionChain`] into a *single* kernel by
//! **register handoff**: every point (halo-0) consumer is folded into the
//! stage before it. The producer's `output(e)` becomes a local
//! `_h<i>: f32 = e` and the consumer's body follows, reading that local
//! where it read its input. A point consumer needs no buffer at all; its
//! input is already in a register.
//!
//! The folded chain is an ordinary kernel and goes through
//! [`Compiler::compile_with_sink`] under the chain's name, so it gets
//! what every unfused kernel gets: the nine border-region bodies,
//! Algorithm-2 configuration, the device's texture path, the optimizer
//! and the verifier. A stencil consumer reads its producer off its own
//! pixel and does not fold; the legality analysis
//! (`hipacc_analysis::fusion`, `F0102`) splits the chain there, and a
//! chain that reaches this module without folding to one stage is
//! rejected with [`CompileError::UnsupportedCombination`].

use crate::compile::{CompileError, CompiledKernel, Compiler};
use crate::options::CompileSpec;
use hipacc_ir::fuse::{FusedStage, FusionChain};
use hipacc_ir::{Expr, KernelDef, ScalarType, Stmt};

impl Compiler {
    /// Compile a fused operator chain into a single device kernel.
    ///
    /// The chain must already be structurally composed
    /// ([`hipacc_ir::fuse::compose`]) and legal
    /// (`hipacc_analysis::fusion::check_fusion`): every stage after the
    /// first is a point consumer. A stencil consumer is re-checked here
    /// and fails with [`CompileError::UnsupportedCombination`]. `spec`
    /// describes the chain's shared geometry; per-stage boundary modes
    /// are looked up under the renamed accessor names, parameter
    /// bindings under the renamed parameter names.
    pub fn compile_fused(
        &self,
        chain: &FusionChain,
        spec: &CompileSpec,
    ) -> Result<CompiledKernel, CompileError> {
        self.compile_fused_with_sink(chain, spec, &mut hipacc_profile::NullSink)
    }

    /// [`Self::compile_fused`] with one timed span per compile phase
    /// recorded into `sink`, mirroring [`Self::compile_with_sink`].
    pub fn compile_fused_with_sink(
        &self,
        chain: &FusionChain,
        spec: &CompileSpec,
        sink: &mut dyn hipacc_profile::ProfileSink,
    ) -> Result<CompiledKernel, CompileError> {
        if spec.vectorize > 1 {
            return Err(CompileError::UnsupportedCombination(
                "fused kernels are scalar; vectorization is not supported".into(),
            ));
        }
        if chain.stages.len() < 2 {
            return Err(CompileError::Internal(
                "fusion chain has fewer than two stages".into(),
            ));
        }
        // The planner splits at a stencil consumer with F0102 before
        // compiling; this is the compiler's own backstop for callers
        // that bypass the legality check.
        if let Some(s) = chain.stages[1..].iter().find(|s| s.halo != (0, 0)) {
            return Err(CompileError::UnsupportedCombination(format!(
                "stage `{}` reads its producer at half-window {:?}; only point consumers fuse",
                s.def.name, s.halo
            )));
        }
        let folded = KernelDef {
            name: chain.union.name.clone(),
            ..fold_point_consumers(&chain.stages)
        };
        self.compile_with_sink(&folded, spec, sink)
    }
}

/// Fold every point (halo-0) consumer into the stage before it. The
/// producer's top-level `output(e)` becomes `_h<i>: f32 = e` (the type an
/// intermediate image holds) and the consumer's body follows, reading
/// `_h<i>` wherever it read its input. Stages are alpha-renamed, so the
/// concatenation captures no name.
fn fold_point_consumers(stages: &[FusedStage]) -> KernelDef {
    let mut p = stages[0].def.clone();
    for (i, s) in stages.iter().enumerate().skip(1) {
        let h = format!("_h{i}");
        for st in &mut p.body {
            if let Stmt::Output(e) = st {
                *st = Stmt::Decl {
                    name: h.clone(),
                    ty: ScalarType::F32,
                    init: Some(e.clone()),
                };
            }
        }
        let consumer = Stmt::rewrite_exprs(s.def.body.clone(), &mut |e| match e {
            Expr::InputAt { acc, .. } if acc == s.input => Expr::Var(h.clone()),
            other => other,
        });
        p.body.extend(consumer);
        p.params.extend(s.def.params.iter().cloned());
        p.masks.extend(s.def.masks.iter().cloned());
        p.pixel = s.def.pixel;
    }
    p
}
