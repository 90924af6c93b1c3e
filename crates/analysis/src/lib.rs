//! # hipacc-analysis
//!
//! Static kernel verifier for the generated device kernels.
//!
//! The paper's compiler trusts its lowering: the staging code, boundary
//! clamps and region dispatch are emitted from templates and assumed
//! correct. This crate removes that assumption. It runs four
//! GPUVerify/GKLEE-style analyses over the *final lowered* device kernel
//! — the same IR the CUDA/OpenCL emitters print and the simulator
//! executes — and reports findings as structured
//! [`Diagnostic`]s:
//!
//! 1. **Barrier divergence** ([`taint`]) — a taint lattice seeded from
//!    the thread-index builtins, run to fixpoint over the CFG with the
//!    [`dataflow`] framework, rejects barriers under thread-dependent
//!    control flow.
//! 2. **Shared-memory races** ([`races`]) — barrier-delimited intervals,
//!    evaluated concretely per lane of a representative block.
//! 3. **Bounds** ([`bounds`]) — interval arithmetic with branch
//!    refinement proves every global/texture/shared/constant access in
//!    range for each of the nine boundary-region block rectangles. The
//!    interpreter is [`range::RangeState`], the same one the IR
//!    optimizer queries as its oracle.
//! 4. **Resource limits** ([`limits`]) — scratchpad (including the +1
//!    pad column), registers, constant-mask bytes and block shape
//!    against the abstract device model.
//!
//! The compiler (`hipacc-codegen`) builds a [`VerifyInput`] for every
//! compiled kernel and calls [`verify`]; error-severity findings fail
//! compilation, warnings ride along on the compile output. Its optimizer
//! reuses two of the analyses rather than owning copies: [`range`] as the
//! value-range oracle of every fact-driven pass, and [`taint`]'s
//! thread-dependence fixpoint as the varying set branch flattening asks
//! about.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bounds;
pub mod dataflow;
pub mod diag;
pub mod fusion;
pub mod interval;
pub mod limits;
pub mod races;
pub mod range;
pub mod taint;

pub use diag::{has_errors, Diagnostic, Severity};
pub use interval::Ival;

use hipacc_hwmodel::DeviceModel;
use hipacc_ir::kernel::DeviceKernelDef;
use std::collections::{HashMap, HashSet};

/// A rectangle of block indices to verify under one boundary-region
/// specialization (inclusive bounds). The nine regions of the paper's
/// boundary handling each map to one seed; a kernel without region
/// specialization gets a single full-grid seed.
#[derive(Clone, Debug)]
pub struct RegionSeed {
    /// Region label for diagnostics (`TL_BH`, `NO_BH`, …), if any.
    pub label: Option<String>,
    /// Inclusive `blockIdx.x` range of the region.
    pub bx: (i64, i64),
    /// Inclusive `blockIdx.y` range of the region.
    pub by: (i64, i64),
}

/// Everything the verifier needs to know about one compiled kernel: the
/// lowered IR, the launch geometry, and the facts the compiler knows but
/// the IR does not spell out (buffer sizes, scalar bindings, which
/// buffers tolerate out-of-bounds access).
pub struct VerifyInput<'a> {
    /// The lowered device kernel to verify.
    pub kernel: &'a DeviceKernelDef,
    /// Target device model (resource limits).
    pub device: &'a DeviceModel,
    /// Launch block shape `(x, y)`.
    pub block: (u32, u32),
    /// Launch grid shape `(x, y)` in blocks.
    pub grid: (u32, u32),
    /// Known integer values of scalar parameters (`width`, `is_offset_x`,
    /// constant-propagated bindings, …).
    pub scalars: HashMap<String, i64>,
    /// Element count of each linearly indexed buffer.
    pub buffer_len: HashMap<String, i64>,
    /// `(width, height)` of each 2-D-fetched buffer.
    pub buffer_dims: HashMap<String, (i64, i64)>,
    /// Buffers whose boundary mode is `Undefined`: out-of-bounds access
    /// is the programmer's declared intent (the paper's "crash" cells),
    /// so bounds findings degrade to warnings.
    pub oob_allowed: HashSet<String>,
    /// Buffers bound with a hardware texture address mode: any coordinate
    /// is valid by construction.
    pub hw_bounded: HashSet<String>,
    /// Boundary-region block rectangles; empty means one full-grid seed.
    pub regions: Vec<RegionSeed>,
    /// Register estimate per thread (from the resource estimator).
    pub registers_per_thread: u32,
}

impl<'a> VerifyInput<'a> {
    /// A minimal input: geometry only, everything else empty (no buffer
    /// sizes means no bounds obligations, zero registers never exceeds a
    /// limit). The compiler fills in the rest.
    pub fn new(
        kernel: &'a DeviceKernelDef,
        device: &'a DeviceModel,
        block: (u32, u32),
        grid: (u32, u32),
    ) -> Self {
        VerifyInput {
            kernel,
            device,
            block,
            grid,
            scalars: HashMap::new(),
            buffer_len: HashMap::new(),
            buffer_dims: HashMap::new(),
            oob_allowed: HashSet::new(),
            hw_bounded: HashSet::new(),
            regions: Vec::new(),
            registers_per_thread: 0,
        }
    }
}

/// Run all four verifier passes and collect their findings
/// (errors and warnings, in pass order).
pub fn verify(input: &VerifyInput<'_>) -> Vec<Diagnostic> {
    verify_with_sink(input, &mut hipacc_profile::NullSink)
}

/// [`verify`] with one timed span per analysis pass recorded into `sink`
/// (category `"verify"`). With a disabled sink — [`NullSink`] is what
/// [`verify`] passes — no clocks are read at all.
///
/// [`NullSink`]: hipacc_profile::NullSink
pub fn verify_with_sink(
    input: &VerifyInput<'_>,
    sink: &mut dyn hipacc_profile::ProfileSink,
) -> Vec<Diagnostic> {
    use hipacc_profile::timed;
    let mut diags = timed(sink, "verify:taint", "verify", || {
        taint::check_barrier_divergence(input.kernel)
    });
    diags.extend(timed(sink, "verify:races", "verify", || {
        races::check_shared_races(input)
    }));
    diags.extend(timed(sink, "verify:limits", "verify", || {
        limits::check_limits(input)
    }));
    diags.extend(timed(sink, "verify:bounds", "verify", || {
        bounds::check_bounds(input)
    }));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_hwmodel::device as devices;
    use hipacc_ir::{Builtin, Expr, ScalarType, Stmt};

    #[test]
    fn verify_aggregates_passes() {
        // One kernel with a divergent barrier AND an unprovable store.
        let k = DeviceKernelDef {
            name: "bad".into(),
            buffers: vec![],
            scalars: vec![],
            const_buffers: vec![],
            shared: vec![],
            body: vec![
                Stmt::If {
                    cond: Expr::Builtin(Builtin::ThreadIdxX).lt(Expr::int(8)),
                    then: vec![Stmt::Barrier],
                    els: vec![],
                },
                Stmt::Decl {
                    name: "g".into(),
                    ty: ScalarType::I32,
                    init: Some(Expr::Builtin(Builtin::ThreadIdxX)),
                },
                Stmt::GlobalStore {
                    buf: "OUT".into(),
                    idx: Expr::var("g"),
                    value: Expr::float(0.0),
                },
            ],
        };
        let dev = devices::tesla_c2050();
        let mut inp = VerifyInput::new(&k, &dev, (16, 1), (1, 1));
        inp.buffer_len.insert("OUT".into(), 8);
        let d = verify(&inp);
        let codes: Vec<&str> = d.iter().map(|x| x.code).collect();
        assert!(codes.contains(&"A0101"), "{codes:?}");
        assert!(codes.contains(&"A0301"), "{codes:?}");
        assert!(has_errors(&d));
    }
}
