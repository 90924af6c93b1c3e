//! Fusion legality: when may a chain of operators become one kernel?
//!
//! The IR composer (`hipacc_ir::fuse`) checks that stage *bodies* are
//! structurally composable; this module decides the semantic half. A
//! chain is fusable iff every consumer takes its producer's value in a
//! register, which the code generator's fold (`hipacc_codegen::fuse`)
//! can do only when the consumer reads its own pixel:
//!
//! * **Linear pipeline** (`F0103`) — every stage reads exactly one input
//!   accessor, so the chain is producer → consumer with no side inputs.
//! * **Point handoff** (`F0102`) — every stage after the first is a
//!   point consumer: its half-window (inferred reads joined with the
//!   declared boundary window) is (0, 0). A stencil consumer reads its
//!   producer off its own pixel, so the chain splits there. The handoff
//!   boundary mode is never exercised, so any mode is legal, and the
//!   *first* stage reads a real global image with any window and mode.
//! * **Compatible ROIs** (`F0101`) — all stages must iterate the same
//!   space.
//! * **Kernel shape** (`F0104`) — bounded stencil windows and scalar
//!   (non-vectorized) stages only.
//!
//! Rejections are reported as error-severity [`Diagnostic`]s with the
//! stable `F01xx` codes so runtimes can record *why* a chain stayed
//! unfused; `F0105` (resource overflow at compile time, fall back
//! per-stage) is emitted by the runtime layer, not here.

use crate::diag::Diagnostic;
use hipacc_ir::access::analyze;
use hipacc_ir::KernelDef;
use std::collections::HashMap;

/// The fusion-relevant shape of one pipeline stage.
#[derive(Clone, Debug, PartialEq)]
pub struct StageShape {
    /// Stage (kernel) name, used in diagnostics.
    pub name: String,
    /// Number of input accessors the kernel declares.
    pub accessor_count: usize,
    /// Iteration-space ROI `(off_x, off_y, w, h)`, when restricted.
    pub roi: Option<(u32, u32, u32, u32)>,
    /// Stencil half-window on the input — the larger of the inferred
    /// read window and the declared boundary window.
    pub halo: (u32, u32),
    /// Whether the read window could not be bounded statically.
    pub unbounded: bool,
    /// Pixels per work-item the stage was configured with.
    pub vectorize: u32,
}

impl StageShape {
    /// Derive a shape from a DSL kernel plus the access metadata the
    /// framework carries outside the kernel body (declared boundary
    /// half-window, ROI, vectorization width).
    pub fn of(
        def: &KernelDef,
        declared_half: (u32, u32),
        roi: Option<(u32, u32, u32, u32)>,
        vectorize: u32,
    ) -> Self {
        let info = analyze(def, &HashMap::new());
        let first = def.accessors.first().map(|a| a.name.clone());
        let (halo, unbounded) = match first.and_then(|n| info.inputs.get(&n).cloned()) {
            None => ((0, 0), false),
            Some(p) => match p.window() {
                Some((w, h)) if !p.unbounded => (
                    ((w / 2).max(declared_half.0), (h / 2).max(declared_half.1)),
                    false,
                ),
                _ => (declared_half, true),
            },
        };
        StageShape {
            name: def.name.clone(),
            accessor_count: def.accessors.len(),
            roi,
            halo,
            unbounded,
            vectorize: vectorize.max(1),
        }
    }
}

/// Check a chain of stages (producer first) for fusion legality.
///
/// Returns one error-severity diagnostic per violated rule, in chain
/// order; an empty result means the chain is legal to fuse. Chains
/// shorter than two stages are trivially "legal" (there is nothing to
/// fuse) and return no findings.
pub fn check_fusion(stages: &[StageShape]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if stages.len() < 2 {
        return diags;
    }

    for s in stages {
        if s.accessor_count != 1 {
            diags.push(Diagnostic::error(
                "F0103",
                s.name.clone(),
                format!(
                    "stage reads {} input accessors; only linear single-input chains fuse",
                    s.accessor_count
                ),
            ));
        }
        if s.unbounded {
            diags.push(Diagnostic::error(
                "F0104",
                s.name.clone(),
                "stage's read window is not statically bounded",
            ));
        }
        if s.vectorize > 1 {
            diags.push(Diagnostic::error(
                "F0104",
                s.name.clone(),
                format!(
                    "stage is vectorized ({} pixels per work-item); fused kernels are scalar",
                    s.vectorize
                ),
            ));
        }
    }

    // Handoff: a consumer that reads off its own pixel cannot take its
    // producer's value in a register.
    for s in &stages[1..] {
        if s.halo != (0, 0) {
            diags.push(Diagnostic::error(
                "F0102",
                s.name.clone(),
                format!(
                    "stage reads its producer at half-window {:?}; only point consumers fuse",
                    s.halo
                ),
            ));
        }
    }

    let roi0 = stages[0].roi;
    for s in &stages[1..] {
        if s.roi != roi0 {
            diags.push(Diagnostic::error(
                "F0101",
                s.name.clone(),
                format!("stage ROI {:?} differs from the chain's {:?}", s.roi, roi0),
            ));
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(name: &str, halo: (u32, u32)) -> StageShape {
        StageShape {
            name: name.into(),
            accessor_count: 1,
            roi: None,
            halo,
            unbounded: false,
            vectorize: 1,
        }
    }

    #[test]
    fn clean_chain_is_legal() {
        // The first stage may read any window; its consumers read only
        // their own pixel.
        let chain = [
            shape("gauss", (2, 2)),
            shape("attenuate", (0, 0)),
            shape("window", (0, 0)),
        ];
        assert!(check_fusion(&chain).is_empty());
    }

    #[test]
    fn stencil_consumers_reject_with_f0102() {
        for halo in [(1, 1), (1, 0), (0, 2)] {
            let chain = [shape("a", (1, 1)), shape("pt", (0, 0)), shape("b", halo)];
            let d = check_fusion(&chain);
            assert_eq!(d.len(), 1, "{halo:?}");
            assert_eq!(d[0].code, "F0102");
            assert_eq!(d[0].kernel, "b");
            assert!(
                d[0].message.contains(&format!("{halo:?}")),
                "{}",
                d[0].message
            );
        }
    }

    #[test]
    fn roi_mismatch_rejects() {
        let mut a = shape("a", (1, 1));
        let b = shape("b", (0, 0));
        a.roi = Some((0, 0, 64, 64));
        let d = check_fusion(&[a, b]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "F0101");
    }

    #[test]
    fn partial_roi_with_point_consumers_is_legal() {
        // The producer's stencil reads a real image, so a shared partial
        // ROI needs no more than the point consumers already guarantee.
        let roi = Some((4, 4, 32, 32));
        let mut a = shape("a", (1, 1));
        let mut c = shape("c", (0, 0));
        a.roi = roi;
        c.roi = roi;
        assert!(check_fusion(&[a, c]).is_empty());
    }

    #[test]
    fn non_linear_and_vectorized_reject() {
        let mut a = shape("a", (1, 1));
        a.accessor_count = 2;
        let d = check_fusion(&[a, shape("b", (0, 0))]);
        assert_eq!(d[0].code, "F0103");

        let mut v = shape("v", (0, 0));
        v.vectorize = 4;
        let d = check_fusion(&[shape("a", (1, 1)), v]);
        assert_eq!(d[0].code, "F0104");
    }
}
