//! Producer–consumer kernel fusion: the IR-level composer.
//!
//! The paper's pipelines (Gaussian → Sobel → Harris) run each local
//! operator as its own launch, round-tripping every intermediate image
//! through global memory. Fusing a *chain* of point/local operators into
//! one kernel removes the intermediate launches entirely; what this
//! module contributes is the DSL-level half of that transformation:
//!
//! * **structural validation** — a stage is composable iff it reads
//!   exactly one input accessor, writes its output exactly once at the
//!   top level of its body, never returns early, and every read offset
//!   is bounded (so the stage has a finite stencil window);
//! * **alpha-renaming** — every stage's parameters, masks, locals and
//!   loop variables are prefixed `_s<i>_` so the composed kernel has one
//!   flat namespace with no collisions, even when the same operator
//!   appears twice in a chain;
//! * **halo inference** — per-stage half-windows from
//!   [`access::analyze`](crate::access::analyze). The code generator
//!   folds a halo-0 stage into its producer (register handoff); the
//!   legality analysis splits the chain before any other consumer.
//!
//! The result is a [`FusionChain`]: the renamed per-stage kernels plus a
//! synthetic *union* [`KernelDef`] that merges every parameter and mask
//! declaration. The union kernel is what the runtime binds launches and
//! cache fingerprints against — its body is the concatenation of all
//! stage bodies, so two chains differing anywhere fingerprint apart —
//! while the per-stage kernels are what
//! `hipacc_codegen::Compiler::compile_fused` actually folds. *Legality*
//! (point consumers and matching ROIs) is deliberately not decided here:
//! the IR crate knows nothing about declared boundary windows or ROIs,
//! so that check lives in `hipacc_analysis::fusion`.

use crate::access::analyze;
use crate::kernel::{AccessorDecl, KernelDef};
use crate::stmt::{LValue, Stmt};
use crate::Expr;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Why a chain of kernels cannot be composed. These are *structural*
/// failures of the kernel shapes themselves; boundary-mode and ROI
/// legality is checked separately by `hipacc_analysis::fusion`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FuseError {
    /// Fusion needs at least two stages.
    TooFewStages(usize),
    /// A stage reads more (or fewer) than one input accessor, so the
    /// chain is not a linear producer → consumer pipeline.
    AccessorCount {
        /// Kernel name of the offending stage.
        stage: String,
        /// How many accessors it declares.
        count: usize,
    },
    /// A stage does not write its output exactly once as a top-level
    /// statement of its body.
    OutputShape {
        /// Kernel name of the offending stage.
        stage: String,
    },
    /// A stage returns early, so its output (and every consumer folded
    /// after it) could be skipped.
    EarlyReturn {
        /// Kernel name of the offending stage.
        stage: String,
    },
    /// A stage's reads of its input are not bounded by a finite window.
    UnboundedAccess {
        /// Kernel name of the offending stage.
        stage: String,
    },
}

impl fmt::Display for FuseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuseError::TooFewStages(n) => {
                write!(f, "fusion needs at least two stages, got {n}")
            }
            FuseError::AccessorCount { stage, count } => write!(
                f,
                "stage `{stage}` declares {count} accessors; fusable stages read exactly one input"
            ),
            FuseError::OutputShape { stage } => write!(
                f,
                "stage `{stage}` must write its output exactly once at the top level of its body"
            ),
            FuseError::EarlyReturn { stage } => {
                write!(
                    f,
                    "stage `{stage}` returns early; its fused consumers could be skipped"
                )
            }
            FuseError::UnboundedAccess { stage } => write!(
                f,
                "stage `{stage}` reads its input with offsets not bounded by a finite window"
            ),
        }
    }
}

impl std::error::Error for FuseError {}

/// One alpha-renamed stage of a fused chain.
#[derive(Clone, Debug, PartialEq)]
pub struct FusedStage {
    /// The stage kernel with `_s<i>_`-prefixed params, masks and locals.
    /// `def.name` keeps the original kernel name for diagnostics.
    pub def: KernelDef,
    /// The accessor this stage reads: the original input name for stage
    /// 0, the renamed handoff accessor (`_s<i>_<name>`) for later stages.
    pub input: String,
    /// Inferred half-window of the stage's reads on `input` (x, y). A
    /// later stage folds into its producer only when this is (0, 0).
    pub halo: (u32, u32),
}

/// A validated, alpha-renamed chain of fusable kernels.
#[derive(Clone, Debug, PartialEq)]
pub struct FusionChain {
    /// Chain name, derived from the stage names.
    pub name: String,
    /// The renamed stages, producer first.
    pub stages: Vec<FusedStage>,
    /// The synthetic union kernel: merged params/masks, the stage-0
    /// accessor, and the concatenated stage bodies. This is the artifact
    /// launches are bound against and cache keys are derived from. Its
    /// body is never lowered: the code generator lowers the stages, and
    /// names the fused kernel after this one.
    pub union: KernelDef,
}

impl FusionChain {
    /// Stage kernel names, producer first.
    pub fn stage_names(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.def.name.as_str()).collect()
    }
}

/// Compose a chain of kernels (producer first) into a [`FusionChain`].
///
/// Each `stages[i + 1]` consumes the output image of `stages[i]`; the
/// caller is responsible for that wiring being real (in a
/// `hipacc_runtime::Stream` chain it is by construction). Fails with
/// the first structural violation found, producer first.
pub fn compose(stages: &[KernelDef]) -> Result<FusionChain, FuseError> {
    if stages.len() < 2 {
        return Err(FuseError::TooFewStages(stages.len()));
    }

    let mut renamed = Vec::with_capacity(stages.len());
    for (i, def) in stages.iter().enumerate() {
        validate_stage(def)?;
        let halo = stage_halo(def)?;
        let stage = rename_stage(def, i);
        renamed.push(FusedStage {
            input: stage_input(&stage),
            def: stage,
            halo,
        });
    }

    let union = union_def(&renamed);
    Ok(FusionChain {
        name: union.name.clone(),
        stages: renamed,
        union,
    })
}

/// The single accessor name of a validated, renamed stage.
fn stage_input(def: &KernelDef) -> String {
    def.accessors[0].name.clone()
}

fn validate_stage(def: &KernelDef) -> Result<(), FuseError> {
    if def.accessors.len() != 1 {
        return Err(FuseError::AccessorCount {
            stage: def.name.clone(),
            count: def.accessors.len(),
        });
    }
    let mut returns = false;
    let mut nested_outputs = 0usize;
    Stmt::visit_all(&def.body, &mut |s| {
        if matches!(s, Stmt::Return) {
            returns = true;
        }
        if matches!(s, Stmt::Output(_)) {
            nested_outputs += 1;
        }
    });
    if returns {
        return Err(FuseError::EarlyReturn {
            stage: def.name.clone(),
        });
    }
    let top_level_outputs = def
        .body
        .iter()
        .filter(|s| matches!(s, Stmt::Output(_)))
        .count();
    // Exactly one output, and it must sit at the top level: an output
    // under `if`/`for` may execute zero or many times per pixel.
    if nested_outputs != 1 || top_level_outputs != 1 {
        return Err(FuseError::OutputShape {
            stage: def.name.clone(),
        });
    }
    Ok(())
}

/// Inferred half-window of the stage's reads on its (single) accessor.
fn stage_halo(def: &KernelDef) -> Result<(u32, u32), FuseError> {
    let info = analyze(def, &HashMap::new());
    match info.inputs.get(&def.accessors[0].name) {
        None => Ok((0, 0)), // the stage never reads its input
        Some(p) => match p.window() {
            Some((w, h)) if !p.unbounded => Ok((w / 2, h / 2)),
            _ => Err(FuseError::UnboundedAccess {
                stage: def.name.clone(),
            }),
        },
    }
}

/// Alpha-rename stage `i`: params, masks, locals and loop variables get
/// the `_s<i>_` prefix; the accessor is renamed for every stage but the
/// first (whose accessor stays the real input binding name).
fn rename_stage(def: &KernelDef, i: usize) -> KernelDef {
    let prefix = format!("_s{i}_");

    let mut vars: HashSet<String> = def.params.iter().map(|p| p.name.clone()).collect();
    Stmt::visit_all(&def.body, &mut |s| match s {
        Stmt::Decl { name, .. } => {
            vars.insert(name.clone());
        }
        Stmt::For { var, .. } => {
            vars.insert(var.clone());
        }
        _ => {}
    });
    let masks: HashSet<String> = def.masks.iter().map(|m| m.name.clone()).collect();
    let old_acc = def.accessors[0].name.clone();
    let new_acc = if i == 0 {
        old_acc.clone()
    } else {
        format!("{prefix}{old_acc}")
    };

    let mut out = def.clone();
    for p in &mut out.params {
        p.name = format!("{prefix}{}", p.name);
    }
    for m in &mut out.masks {
        m.name = format!("{prefix}{}", m.name);
    }
    out.accessors = vec![AccessorDecl {
        name: new_acc.clone(),
        ty: def.accessors[0].ty,
    }];
    out.body = rename_stmts(std::mem::take(&mut out.body), &|name: &str| {
        if vars.contains(name) {
            Some(format!("{prefix}{name}"))
        } else {
            None
        }
    });
    out.body = Stmt::rewrite_exprs(std::mem::take(&mut out.body), &mut |e| match e {
        Expr::Var(name) if vars.contains(&name) => Expr::Var(format!("{prefix}{name}")),
        Expr::MaskAt { mask, dx, dy } if masks.contains(&mask) => Expr::MaskAt {
            mask: format!("{prefix}{mask}"),
            dx,
            dy,
        },
        Expr::InputAt { acc, dx, dy } if acc == old_acc => Expr::InputAt {
            acc: new_acc.clone(),
            dx,
            dy,
        },
        other => other,
    });
    out
}

/// Rename declaration sites (`Decl`, `For` variables, `Assign` targets);
/// expression *uses* are renamed by a `rewrite_exprs` pass afterwards.
fn rename_stmts(stmts: Vec<Stmt>, rename: &impl Fn(&str) -> Option<String>) -> Vec<Stmt> {
    stmts
        .into_iter()
        .map(|s| match s {
            Stmt::Decl { name, ty, init } => Stmt::Decl {
                name: rename(&name).unwrap_or(name),
                ty,
                init,
            },
            Stmt::Assign {
                target: LValue::Var(name),
                value,
            } => Stmt::Assign {
                target: LValue::Var(rename(&name).unwrap_or(name)),
                value,
            },
            Stmt::For {
                var,
                from,
                to,
                body,
            } => Stmt::For {
                var: rename(&var).unwrap_or(var),
                from,
                to,
                body: rename_stmts(body, rename),
            },
            Stmt::If { cond, then, els } => Stmt::If {
                cond,
                then: rename_stmts(then, rename),
                els: rename_stmts(els, rename),
            },
            other => other,
        })
        .collect()
}

/// The synthetic union kernel of a renamed chain.
fn union_def(stages: &[FusedStage]) -> KernelDef {
    let name = format!(
        "_fused_{}",
        stages
            .iter()
            .map(|s| s.def.name.as_str())
            .collect::<Vec<_>>()
            .join("_")
    );
    let mut body = Vec::new();
    for (i, s) in stages.iter().enumerate() {
        body.push(Stmt::Comment(format!("fused stage {i}: {}", s.def.name)));
        body.extend(s.def.body.iter().cloned());
    }
    KernelDef {
        name,
        pixel: stages.last().expect("chain has stages").def.pixel,
        params: stages.iter().flat_map(|s| s.def.params.clone()).collect(),
        accessors: stages[0].def.accessors.clone(),
        masks: stages.iter().flat_map(|s| s.def.masks.clone()).collect(),
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::ty::ScalarType;

    fn blur3(name: &str) -> KernelDef {
        let mut b = KernelBuilder::new(name, ScalarType::F32);
        let input = b.accessor("Input", ScalarType::F32);
        let acc = b.let_("acc", ScalarType::F32, Expr::float(0.0));
        b.for_inclusive("xf", Expr::int(-1), Expr::int(1), |b, xf| {
            b.add_assign(&acc, b.read_at(&input, xf.get(), Expr::int(0)));
        });
        b.output(acc.get() / Expr::float(3.0));
        b.finish()
    }

    fn scale(name: &str) -> KernelDef {
        let mut b = KernelBuilder::new(name, ScalarType::F32);
        let input = b.accessor("Input", ScalarType::F32);
        let gain = b.param("gain", ScalarType::F32);
        b.output(b.read_center(&input) * gain.get());
        b.finish()
    }

    #[test]
    fn composes_and_renames_a_two_stage_chain() {
        let chain = compose(&[blur3("blur"), scale("scale")]).unwrap();
        assert_eq!(chain.stages.len(), 2);
        assert_eq!(chain.stages[0].halo, (1, 0));
        assert_eq!(chain.stages[1].halo, (0, 0));
        // Stage 0 keeps the real input binding name; stage 1 reads the
        // renamed handoff accessor.
        assert_eq!(chain.stages[0].input, "Input");
        assert_eq!(chain.stages[1].input, "_s1_Input");
        // Params and locals are prefixed.
        assert_eq!(chain.stages[1].def.params[0].name, "_s1_gain");
        let mut saw_renamed_local = false;
        Stmt::visit_all(&chain.stages[0].def.body, &mut |s| {
            if let Stmt::Decl { name, .. } = s {
                if name == "_s0_acc" {
                    saw_renamed_local = true;
                }
            }
        });
        assert!(saw_renamed_local, "stage-0 local must be prefixed");
        // The union merges the namespaces and keeps the stage-0 accessor.
        assert_eq!(chain.union.accessors.len(), 1);
        assert_eq!(chain.union.accessors[0].name, "Input");
        assert_eq!(chain.union.params.len(), 1);
        assert_eq!(chain.union.name, "_fused_blur_scale");
    }

    #[test]
    fn same_operator_twice_does_not_collide() {
        let chain = compose(&[blur3("blur"), blur3("blur")]).unwrap();
        let names: Vec<_> = chain.stages.iter().map(|s| s.input.clone()).collect();
        assert_eq!(names, vec!["Input".to_string(), "_s1_Input".to_string()]);
    }

    #[test]
    fn rejects_single_stage_and_multi_accessor() {
        assert_eq!(
            compose(&[blur3("blur")]).unwrap_err(),
            FuseError::TooFewStages(1)
        );
        let mut b = KernelBuilder::new("two", ScalarType::F32);
        let a = b.accessor("A", ScalarType::F32);
        let _ = b.accessor("B", ScalarType::F32);
        b.output(b.read_center(&a));
        let two = b.finish();
        assert!(matches!(
            compose(&[blur3("blur"), two]).unwrap_err(),
            FuseError::AccessorCount { count: 2, .. }
        ));
    }

    #[test]
    fn rejects_conditional_output() {
        let mut b = KernelBuilder::new("cond", ScalarType::F32);
        let input = b.accessor("Input", ScalarType::F32);
        let v = b.let_("v", ScalarType::F32, b.read_center(&input));
        b.if_else(
            v.get().gt(Expr::float(0.0)),
            |b| b.output(Expr::float(1.0)),
            |b| b.output(Expr::float(0.0)),
        );
        let cond = b.finish();
        assert!(matches!(
            compose(&[cond, blur3("blur")]).unwrap_err(),
            FuseError::OutputShape { .. }
        ));
    }

    #[test]
    fn rejects_param_dependent_window() {
        let mut b = KernelBuilder::new("dyn", ScalarType::F32);
        let input = b.accessor("Input", ScalarType::F32);
        let r = b.param("r", ScalarType::I32);
        let acc = b.let_("acc", ScalarType::F32, Expr::float(0.0));
        b.for_inclusive("xf", Expr::int(0) - r.get(), r.get(), |b, xf| {
            b.add_assign(&acc, b.read_at(&input, xf.get(), Expr::int(0)));
        });
        b.output(acc.get());
        let dynamic = b.finish();
        assert!(matches!(
            compose(&[dynamic, blur3("blur")]).unwrap_err(),
            FuseError::UnboundedAccess { .. }
        ));
    }
}
