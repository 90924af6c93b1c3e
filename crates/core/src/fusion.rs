//! Fusing operator chains: the framework-level planner.
//!
//! [`fuse_operators`] turns a linear chain of [`Operator`]s (producer
//! first, each consuming the previous stage's output) into one fused
//! operator whose compilation goes through
//! `Compiler::compile_fused`, which folds every consumer into its
//! producer (register handoff). Legality is decided by
//! `hipacc_analysis::fusion` (ROIs, point consumers after the first
//! stage, kernel shape — the `F01xx` diagnostic band), structure by
//! [`hipacc_ir::fuse::compose`] (linear single-input stages, one
//! top-level output, bounded windows), and the per-stage metadata —
//! boundary conditions, scalar parameters, dynamic mask uploads — is
//! re-keyed under the chain's alpha-renamed namespace so one launch
//! binds everything.
//!
//! Rejections come back as the same structured [`Diagnostic`]s the
//! kernel verifier emits ([`check_chain`] returns them without
//! failing), so a runtime can record *why* a chain stayed unfused and
//! fall back to per-stage launches.

use crate::operator::{Operator, PipelineOptions};
use hipacc_analysis::fusion::{check_fusion, StageShape};
use hipacc_analysis::Diagnostic;
use hipacc_ir::fuse::{compose, FuseError, FusionChain};
use hipacc_ir::KernelDef;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Why a chain of operators was not fused.
#[derive(Debug)]
pub enum FusionError {
    /// The legality analysis rejected the chain; the diagnostics carry
    /// the stable `F01xx` codes.
    Illegal(Vec<Diagnostic>),
    /// The IR composer rejected a stage's structure.
    Structural(FuseError),
}

impl fmt::Display for FusionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FusionError::Illegal(diags) => {
                write!(f, "fusion rejected:")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            FusionError::Structural(e) => write!(f, "fusion rejected: {e}"),
        }
    }
}

impl std::error::Error for FusionError {}

impl FusionError {
    /// The rejection as `F01xx` diagnostics (structural failures are
    /// mapped into the same code space).
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        match self {
            FusionError::Illegal(diags) => diags.clone(),
            FusionError::Structural(e) => vec![fuse_error_diagnostic(e)],
        }
    }
}

/// Map an IR composer error into the `F01xx` diagnostic band.
fn fuse_error_diagnostic(e: &FuseError) -> Diagnostic {
    let (code, stage) = match e {
        FuseError::AccessorCount { stage, .. } => ("F0103", stage.as_str()),
        FuseError::TooFewStages(_) => ("F0104", "<chain>"),
        FuseError::OutputShape { stage }
        | FuseError::EarlyReturn { stage }
        | FuseError::UnboundedAccess { stage } => ("F0104", stage.as_str()),
    };
    Diagnostic::error(code, stage, e.to_string())
}

/// The fusion-relevant shape of each operator (producer first), fed to
/// the legality analysis.
pub fn stage_shapes(ops: &[&Operator]) -> Vec<StageShape> {
    ops.iter()
        .map(|op| {
            let acc = op
                .def
                .accessors
                .first()
                .map(|a| a.name.as_str())
                .unwrap_or("");
            StageShape::of(
                &op.def,
                op.boundaries
                    .get(acc)
                    .map(|b| (b.half_x(), b.half_y()))
                    .unwrap_or((0, 0)),
                op.options.roi,
                op.options.vectorize,
            )
        })
        .collect()
}

/// Check a chain for fusability without building anything. Returns the
/// `F01xx` diagnostics that would reject it; empty means the chain
/// fuses.
pub fn check_chain(ops: &[&Operator]) -> Vec<Diagnostic> {
    let mut diags = check_fusion(&stage_shapes(ops));
    if diags.is_empty() {
        let defs: Vec<KernelDef> = ops.iter().map(|o| o.def.clone()).collect();
        if let Err(e) = compose(&defs) {
            diags.push(fuse_error_diagnostic(&e));
        }
    }
    diags
}

/// Fuse a linear chain of operators (producer first) into one operator.
///
/// The fused operator's `def` is the chain's union kernel (what cache
/// fingerprints and launches bind against); its boundary conditions,
/// parameters and mask uploads are the stages' own, re-keyed under the
/// alpha-renamed (`_s<i>_`) namespace. Pipeline options are inherited
/// from the first stage — including its cache, engine and worker pool —
/// with `fused` set and vectorization forced scalar. The chain's input
/// binds under the first stage's original accessor name.
pub fn fuse_operators(ops: &[&Operator]) -> Result<Operator, FusionError> {
    let diags = check_fusion(&stage_shapes(ops));
    if !diags.is_empty() {
        return Err(FusionError::Illegal(diags));
    }
    let defs: Vec<KernelDef> = ops.iter().map(|o| o.def.clone()).collect();
    let chain: FusionChain = compose(&defs).map_err(FusionError::Structural)?;

    let mut boundaries = HashMap::new();
    let mut params = HashMap::new();
    let mut uploads = HashMap::new();
    for (i, (op, stage)) in ops.iter().zip(&chain.stages).enumerate() {
        let orig_acc = &op.def.accessors[0].name;
        if let Some(b) = op.boundaries.get(orig_acc) {
            boundaries.insert(stage.input.clone(), *b);
        }
        for (name, v) in op.params.iter() {
            params.insert(format!("_s{i}_{name}"), *v);
        }
        for m in &op.def.masks {
            if let Some(c) = op.mask_uploads.get(&format!("_const{}", m.name)) {
                let renamed = format!("_s{i}_{}", m.name);
                uploads.insert(format!("_const{renamed}"), c.clone());
                uploads.insert(format!("_gmask{renamed}"), c.clone());
            }
        }
    }

    let options = PipelineOptions {
        fused: Some(Arc::new(chain.clone())),
        vectorize: 1,
        // A configuration forced for one stage says nothing about the
        // fused kernel's resource needs; let selection run fresh.
        force_config: None,
        ..ops[0].options.clone()
    };
    Ok(Operator {
        def: chain.union.clone(),
        boundaries,
        params: Arc::new(params),
        mask_uploads: Arc::new(uploads),
        options,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::Target;
    use hipacc_hwmodel::device::tesla_c2050;
    use hipacc_image::{phantom, BoundaryMode};
    use hipacc_ir::{Expr, KernelBuilder, ScalarType};

    fn box3_kernel(name: &str) -> KernelDef {
        let mut b = KernelBuilder::new(name, ScalarType::F32);
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

    fn cross_kernel(name: &str) -> KernelDef {
        let mut b = KernelBuilder::new(name, ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        let sum = b.read_at(&input, Expr::int(-1), Expr::int(0))
            + b.read_at(&input, Expr::int(1), Expr::int(0))
            + b.read_at(&input, Expr::int(0), Expr::int(-1))
            + b.read_at(&input, Expr::int(0), Expr::int(1));
        b.output(Expr::float(0.25) * sum);
        b.finish()
    }

    /// A point consumer: `v * v - 0.125` of its own pixel.
    fn square_kernel(name: &str) -> KernelDef {
        let mut b = KernelBuilder::new(name, ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        let v = b.let_("v", ScalarType::F32, b.read_center(&input));
        b.output(v.get() * v.get() - Expr::float(0.125));
        b.finish()
    }

    fn diff(fused: &Operator, stages: &[&Operator], img: &hipacc_image::Image<f32>) -> f32 {
        let target = Target::cuda(tesla_c2050());
        let mut cur = img.clone();
        for op in stages {
            cur = op.execute(&[("IN", &cur)], &target).unwrap().output;
        }
        let got = fused.execute(&[("IN", img)], &target).unwrap().output;
        got.max_abs_diff(&cur)
    }

    #[test]
    fn two_stage_chain_is_bit_identical() {
        let a = Operator::new(box3_kernel("blur")).boundary("IN", BoundaryMode::Clamp, 3, 3);
        let b = Operator::new(square_kernel("square"));
        let fused = fuse_operators(&[&a, &b]).unwrap();
        let img = phantom::vessel_tree(40, 33, &phantom::VesselParams::default());
        assert_eq!(diff(&fused, &[&a, &b], &img), 0.0);
    }

    #[test]
    fn three_stage_chain_on_tiny_all_border_image() {
        let a = Operator::new(box3_kernel("s0")).boundary("IN", BoundaryMode::Mirror, 3, 3);
        let b = Operator::new(square_kernel("s1")).boundary("IN", BoundaryMode::Repeat, 1, 1);
        let c = Operator::new(square_kernel("s2"));
        let fused = fuse_operators(&[&a, &b, &c]).unwrap();
        // Every pixel of a 9x7 frame is within the producer's halo of a
        // border, so the fused kernel runs border regions everywhere.
        let img = phantom::gradient(9, 7);
        assert_eq!(diff(&fused, &[&a, &b, &c], &img), 0.0);
    }

    #[test]
    fn fused_params_and_masks_are_rekeyed() {
        // Stage 1 scales its own pixel by the centre of an uploaded 1x1
        // mask and a runtime parameter, so the fused launch must bind
        // both under the renamed `_s1_` namespace.
        let mut b = KernelBuilder::new("dynscale", ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        let m = b.mask_dynamic("M", 1, 1);
        let gain = b.param("gain", ScalarType::F32);
        b.output(b.mask_at(&m, Expr::int(0), Expr::int(0)) * b.read_center(&input) * gain.get());
        let a = Operator::new(box3_kernel("pre")).boundary("IN", BoundaryMode::Clamp, 3, 3);
        let bop = Operator::new(b.finish())
            .upload_mask("M", vec![0.75])
            .param_float("gain", 2.0);
        let fused = fuse_operators(&[&a, &bop]).unwrap();
        assert!(fused.mask_uploads.contains_key("_const_s1_M"));
        assert!(fused.params.contains_key("_s1_gain"));
        let img = phantom::gradient(24, 9);
        assert_eq!(diff(&fused, &[&a, &bop], &img), 0.0);
    }

    #[test]
    fn stencil_consumer_is_rejected_with_f0102() {
        // The consumer's window decides, whatever its boundary mode.
        for mode in [BoundaryMode::Clamp, BoundaryMode::Repeat] {
            let a = Operator::new(box3_kernel("a")).boundary("IN", BoundaryMode::Clamp, 3, 3);
            let b = Operator::new(cross_kernel("b")).boundary("IN", mode, 3, 3);
            let err = fuse_operators(&[&a, &b]).unwrap_err();
            let codes: Vec<&str> = err.diagnostics().iter().map(|d| d.code).collect();
            assert_eq!(codes, ["F0102"], "{mode:?}");
            assert!(check_chain(&[&a, &b]).iter().any(|d| d.code == "F0102"));
        }
        // A point kernel declaring a 3x3 boundary window counts as a
        // stencil: the declared window joins the inferred one.
        let a = Operator::new(box3_kernel("a")).boundary("IN", BoundaryMode::Clamp, 3, 3);
        let c = Operator::new(square_kernel("c")).boundary("IN", BoundaryMode::Clamp, 3, 3);
        let codes: Vec<&str> = check_chain(&[&a, &c]).iter().map(|d| d.code).collect();
        assert_eq!(codes, ["F0102"]);
    }

    #[test]
    fn early_return_maps_to_f0104() {
        let mut b = KernelBuilder::new("gated", ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        let v = b.read_at(&input, Expr::int(0), Expr::int(0));
        b.output(v);
        let mut def = b.finish();
        def.body.insert(0, hipacc_ir::Stmt::Return);
        let a = Operator::new(def).boundary("IN", BoundaryMode::Clamp, 1, 1);
        let c = Operator::new(square_kernel("c"));
        let diags = check_chain(&[&a, &c]);
        assert!(diags.iter().any(|d| d.code == "F0104"), "{diags:?}");
    }
}
