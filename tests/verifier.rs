//! Acceptance tests for the kernel verifier (`hipacc-analysis` wired
//! into `Compiler::compile`).
//!
//! Two directions:
//!
//! * **Soundness on shipped code** — every filter the repository ships
//!   compiles with zero error-severity diagnostics on all five frozen
//!   devices and both backends. Error diagnostics fail compilation, so a
//!   successful compile *is* the assertion; we additionally check that
//!   the warnings that ride along carry no error severity.
//! * **Sensitivity to seeded bugs** — hand-mutated kernels with a
//!   barrier under a thread-dependent branch, a staging loop running
//!   past the padded tile, and an oversized constant mask must trip the
//!   matching diagnostic codes (A0101, A0302, A0403).

use hipacc_analysis::{verify, VerifyInput};
use hipacc_codegen::{CompileError, Compiler};
use hipacc_core::prelude::*;
use hipacc_core::{Operator, Target};
use hipacc_filters::{
    bilateral::bilateral_operator, boxf::box_operator, gaussian::gaussian_operator,
    harris::harris_response_kernel, laplacian::laplacian_operator, median::median3_operator,
    pyramid::attenuate_kernel, sobel::sobel_operator,
};
use hipacc_hwmodel::{device, Vendor};
use hipacc_ir::kernel::{DeviceKernelDef, SharedDecl};
use hipacc_ir::{Builtin, Expr, ScalarType, Stmt};

/// The five frozen device models of the evaluation.
fn frozen_devices() -> Vec<hipacc_hwmodel::DeviceModel> {
    vec![
        device::tesla_c2050(),
        device::quadro_fx_5800(),
        device::radeon_hd_5870(),
        device::radeon_hd_6970(),
        device::geforce_8800_gtx(),
    ]
}

/// One representative operator per shipped filter module.
fn shipped_operators() -> Vec<(&'static str, Operator)> {
    let m = BoundaryMode::Clamp;
    vec![
        ("bilateral", bilateral_operator(1, 5, true, m)),
        ("box", box_operator(5, 5, m)),
        ("gaussian", gaussian_operator(5, 1.1, m)),
        (
            "harris",
            Operator::new(harris_response_kernel(3, 0.04))
                .boundary("Ixx", m, 3, 3)
                .boundary("Iyy", m, 3, 3)
                .boundary("Ixy", m, 3, 3),
        ),
        ("laplacian", laplacian_operator(m)),
        ("median", median3_operator(m)),
        (
            "pyramid",
            Operator::new(attenuate_kernel()).param_float("threshold", 0.1),
        ),
        ("sobel", sobel_operator(true, m)),
    ]
}

/// Every shipped filter × every frozen device × both backends compiles
/// with zero error-severity diagnostics. (AMD devices are OpenCL-only;
/// the CUDA combination is skipped as unsupported by the toolchain.)
#[test]
fn shipped_filters_verify_clean_on_all_frozen_devices() {
    for (name, op) in shipped_operators() {
        for dev in frozen_devices() {
            let mut targets = vec![Target::opencl(dev.clone())];
            if dev.vendor != Vendor::Amd {
                targets.push(Target::cuda(dev.clone()));
            }
            for target in targets {
                let compiled = op
                    .compile(&target, 512, 512)
                    .unwrap_or_else(|e| panic!("{name} on {}: {e}", target.label()));
                assert!(
                    compiled.diagnostics.iter().all(|d| !d.is_error()),
                    "{name} on {}: error diagnostics leaked into output: {:?}",
                    target.label(),
                    compiled.diagnostics
                );
            }
        }
    }
}

/// Minimal hand-built device kernel scaffold for mutants.
fn bare_kernel(body: Vec<Stmt>, shared: Vec<SharedDecl>) -> DeviceKernelDef {
    DeviceKernelDef {
        name: "mutant".into(),
        buffers: vec![],
        scalars: vec![],
        const_buffers: vec![],
        shared,
        body,
    }
}

/// A barrier inside a `threadIdx`-dependent branch is divergent: some
/// lanes of the block wait at a barrier others never reach.
#[test]
fn mutant_divergent_barrier_is_a0101() {
    let k = bare_kernel(
        vec![Stmt::If {
            cond: Expr::Builtin(Builtin::ThreadIdxX).lt(Expr::int(8)),
            then: vec![Stmt::Barrier],
            els: vec![],
        }],
        vec![],
    );
    let dev = device::tesla_c2050();
    let input = VerifyInput::new(&k, &dev, (16, 16), (4, 4));
    let d = verify(&input);
    assert!(
        d.iter().any(|x| x.code == "A0101" && x.is_error()),
        "expected A0101, got {d:?}"
    );
}

/// A staging store indexed past the padded tile: each thread writes
/// column `2 * threadIdx.x` into a 17-column shared array with a
/// 16-wide block — lanes 9..15 land outside the tile.
#[test]
fn mutant_staging_past_padded_tile_is_a0302() {
    let k = bare_kernel(
        vec![Stmt::SharedStore {
            buf: "tile".into(),
            y: Expr::int(0),
            x: Expr::Builtin(Builtin::ThreadIdxX) * Expr::int(2),
            value: Expr::float(0.0),
        }],
        vec![SharedDecl {
            name: "tile".into(),
            ty: ScalarType::F32,
            rows: 1,
            cols: 17, // 16 + the +1 bank-conflict pad
        }],
    );
    let dev = device::tesla_c2050();
    let input = VerifyInput::new(&k, &dev, (16, 1), (4, 4));
    let d = verify(&input);
    assert!(
        d.iter().any(|x| x.code == "A0302" && x.is_error()),
        "expected A0302, got {d:?}"
    );
}

/// A 129×129 Gaussian on the plain global-memory path (a tile that big
/// cannot be staged in scratchpad anyway) with its mask in constant
/// memory.
fn oversized_mask_operator() -> Operator {
    gaussian_operator(129, 20.0, BoundaryMode::Clamp).with_options(hipacc_core::PipelineOptions {
        variant: hipacc_core::prelude::MemVariant::Global,
        ..Default::default()
    })
}

/// A 129×129 filter mask placed in constant memory needs ~65 KiB of
/// coefficients — more than any frozen device provides. The verifier
/// rejects the compile with A0403.
#[test]
fn mutant_oversized_constant_mask_is_a0403() {
    let op = oversized_mask_operator();
    let target = Target::cuda(device::tesla_c2050());
    let spec = op.compile_spec(&target, 512, 512);
    assert!(
        spec.use_const_masks,
        "mutant must exercise the constant path"
    );
    match Compiler::new().compile(&op.def, &spec) {
        Err(CompileError::Verification(d)) => {
            assert!(
                d.iter().any(|x| x.code == "A0403" && x.is_error()),
                "expected A0403, got {d:?}"
            );
        }
        other => panic!("expected verification failure, got {other:?}"),
    }
}

/// The compile error message names the diagnostics so a failed build is
/// actionable without digging into the structured list.
#[test]
fn verification_errors_render_their_diagnostics() {
    let op = oversized_mask_operator();
    let target = Target::cuda(device::tesla_c2050());
    let spec = op.compile_spec(&target, 512, 512);
    let err = Compiler::new().compile(&op.def, &spec).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("kernel verification failed") && msg.contains("A0403"),
        "unhelpful error message: {msg}"
    );
}

// ---------------------------------------------------------------------
// The diagnostic-code registry.
// ---------------------------------------------------------------------

/// The registry covers all three code spaces exactly, in sorted order
/// (which also proves uniqueness), and every entry carries a summary and
/// advice.
#[test]
fn diagnostic_registry_is_complete_sorted_and_described() {
    let codes: Vec<&str> = hipacc_core::diagnostic_registry()
        .iter()
        .map(|c| c.code)
        .collect();
    let expected = [
        // Verifier and source linter (hipacc_analysis::diag).
        "A0101", "A0102", "A0201", "A0202", "A0301", "A0302", "A0303", "A0401", "A0402", "A0403",
        "A0404", "A0501", "A0502", // Compile failures (hipacc_core::errors).
        "C0101", "C0102", "C0103", "C0201", "C0202", "C0301",
        // Fusion legality and fallback (hipacc_analysis::fusion).
        "F0101", "F0102", "F0103", "F0104", "F0105",
        // Runtime and supervisor failures.
        "R0001", "R0101", "R0102", "R0103", "R0104", "R0105", "R0106", "R0202", "R0301", "R0401",
        "R0501", // Stream resilience governor (hipacc_runtime).
        "R0601", "R0602", "R0603", "R0604", "R0605", "R0606",
    ];
    assert_eq!(codes, expected);
    let mut sorted = codes.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(codes, sorted, "registry must be sorted and duplicate-free");
    for info in hipacc_core::diagnostic_registry() {
        assert!(!info.origin.is_empty(), "{}", info.code);
        assert!(!info.summary.is_empty(), "{}", info.code);
        assert!(
            info.advice.len() > info.summary.len(),
            "{}: advice should expand on the summary",
            info.code
        );
    }
}

/// `explain` is case/whitespace-insensitive and rejects unknown codes;
/// every code an `OperatorError` can produce resolves in the registry.
#[test]
fn explain_resolves_every_emitted_code() {
    assert_eq!(hipacc_core::explain(" a0301 ").unwrap().code, "A0301");
    assert_eq!(hipacc_core::explain("r0401").unwrap().code, "R0401");
    assert!(hipacc_core::explain("Z9999").is_none());
    assert!(hipacc_core::explain("").is_none());

    use hipacc_core::OperatorError;
    use hipacc_sim::SimError;
    let samples = [
        OperatorError::NoInputs,
        OperatorError::Unrecovered("gone".into()),
        OperatorError::Sim(SimError::UnboundBuffer("IN".into())),
        OperatorError::Sim(SimError::DivisionByZero),
        OperatorError::Compile(CompileError::NoValidConfiguration),
        OperatorError::Compile(CompileError::Internal("bug".into())),
        OperatorError::Compile(CompileError::Verification(vec![
            hipacc_analysis::Diagnostic::error("A0302", "k", "oob"),
        ])),
    ];
    for err in samples {
        let code = err.diagnostic().code;
        assert!(
            hipacc_core::explain(code).is_some(),
            "{code} emitted but not in the registry"
        );
    }
}
