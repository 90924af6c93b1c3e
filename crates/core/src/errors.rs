//! The unified error surface of the pipeline.
//!
//! Compilation fails with [`CompileError`], simulation with [`SimError`],
//! and the operator API wraps both in [`OperatorError`] — three enums
//! that grew separately. The launch supervisor needs one consistent view
//! over them to decide what to *do* with a failure:
//!
//! * [`OperatorError::class`] splits failures into **transient** (a
//!   retry may cure them — today only a launch-deadline cancellation,
//!   the signature of a hung worker) and **permanent** (retrying the
//!   same configuration is pointless);
//! * [`OperatorError::diagnostic`] converts any failure into the same
//!   structured [`Diagnostic`] the kernel verifier emits, with a stable
//!   `C`-prefixed code for compile failures and `R`-prefixed code for
//!   runtime failures (verifier failures keep their original `A` code);
//! * [`error_chain`] walks `std::error::Error::source` links and renders
//!   each level, so a supervisor log can show "compile error: … ←
//!   kernel verification failed: …" without hand-written matching;
//! * [`diagnostic_registry`] / [`explain`] index *every* stable code of
//!   the three spaces (`A`/`C`/`R`) with a summary and advice —
//!   `reproduce --explain CODE` renders from it.
//!
//! # Runtime/compile diagnostic code space
//!
//! | Code  | Failure |
//! |-------|---------|
//! | C0101 | backend cannot target the device |
//! | C0102 | requested hardware boundary handling does not exist |
//! | C0103 | unsupported feature combination |
//! | C0201 | no launch configuration fits the device |
//! | C0202 | forced launch configuration invalid |
//! | C0301 | internal codegen error |
//! | F0101 | fusion rejected: incompatible ROIs across the chain |
//! | F0102 | fusion rejected: illegal handoff, the consumer reads its producer off its own pixel |
//! | F0103 | fusion rejected: stage is not a linear single-input consumer |
//! | F0104 | fusion rejected: unsupported kernel shape |
//! | F0105 | fused compile exceeded device resources; fell back per-stage — *warning* |
//! | R0001 | operator executed with no inputs |
//! | R0101 | read of an undefined variable |
//! | R0102 | buffer not bound |
//! | R0103 | scalar argument missing |
//! | R0104 | integer division by zero |
//! | R0105 | barrier inside control flow |
//! | R0106 | expression evaluation failed |
//! | R0202 | invalid launch geometry |
//! | R0301 | launch deadline exceeded (hung worker) — *transient* |
//! | R0401 | supervisor exhausted retries and fallbacks |
//! | R0501 | kernel cache recovered from a poisoned lock — *warning* |
//! | R0601 | stage worker panic contained (frame failed, pipeline kept draining) |
//! | R0602 | per-frame deadline budget exhausted |
//! | R0603 | whole-stream deadline budget exhausted |
//! | R0604 | frame shed under sustained queue pressure |
//! | R0605 | invalid stream configuration |
//! | R0606 | circuit breaker pinned a stage to its degraded rung — *warning* |

use crate::operator::OperatorError;
use hipacc_analysis::Diagnostic;
use hipacc_codegen::CompileError;
use hipacc_sim::SimError;

/// Whether a failure is worth retrying.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FailureClass {
    /// The failure can vanish on a retry of the same configuration
    /// (e.g. a hung worker cancelled by the launch deadline).
    Transient,
    /// Retrying the identical launch will fail the identical way; only
    /// a *different* configuration (or giving up) makes progress.
    Permanent,
}

impl FailureClass {
    /// `true` for [`FailureClass::Transient`].
    pub fn is_transient(self) -> bool {
        self == FailureClass::Transient
    }
}

impl OperatorError {
    /// Classify the failure for retry policy. Only a launch-deadline
    /// cancellation is transient: every other failure is deterministic
    /// in this simulator and will recur verbatim.
    pub fn class(&self) -> FailureClass {
        match self {
            OperatorError::Sim(SimError::DeadlineExceeded { .. }) => FailureClass::Transient,
            _ => FailureClass::Permanent,
        }
    }

    /// The failure as a structured [`Diagnostic`] with a stable code
    /// (see the module docs for the code space). Verification failures
    /// return their first verifier diagnostic unchanged, so `A`-codes
    /// survive the conversion.
    pub fn diagnostic(&self) -> Diagnostic {
        let msg = self.to_string();
        match self {
            OperatorError::Compile(e) => {
                if let CompileError::Verification(diags) = e {
                    if let Some(d) = diags.first() {
                        return d.clone();
                    }
                }
                let code = match e {
                    CompileError::UnsupportedBackend(_) => "C0101",
                    CompileError::UnsupportedHwBoundary(_) => "C0102",
                    CompileError::UnsupportedCombination(_) => "C0103",
                    CompileError::NoValidConfiguration => "C0201",
                    CompileError::InvalidForcedConfiguration(_) => "C0202",
                    CompileError::Internal(_) => "C0301",
                    CompileError::Verification(_) => "C0301",
                };
                Diagnostic::error(code, "<operator>", msg)
            }
            OperatorError::Sim(e) => {
                let code = match e {
                    SimError::UndefinedVariable(_) => "R0101",
                    SimError::UnboundBuffer(_) => "R0102",
                    SimError::MissingScalar(_) => "R0103",
                    SimError::DivisionByZero => "R0104",
                    SimError::NestedBarrier => "R0105",
                    SimError::EvalError(_) => "R0106",
                    SimError::InvalidLaunch(_) => "R0202",
                    SimError::DeadlineExceeded { .. } => "R0301",
                };
                Diagnostic::error(code, "<operator>", msg)
            }
            OperatorError::NoInputs => Diagnostic::error("R0001", "<operator>", msg),
            OperatorError::Unrecovered(_) => Diagnostic::error("R0401", "<operator>", msg),
        }
    }
}

/// One entry of the stable diagnostic-code registry.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CodeInfo {
    /// The stable code: `A…` (verifier / source linter), `C…` (compile
    /// failure), `R…` (runtime failure).
    pub code: &'static str,
    /// The subsystem that emits the code.
    pub origin: &'static str,
    /// One-line summary, matching the code-space tables in the module
    /// docs here and in `hipacc_analysis::diag`.
    pub summary: &'static str,
    /// What the code means for the kernel author and how to react.
    pub advice: &'static str,
}

/// Every diagnostic code any layer of the pipeline can emit, in code
/// order. The registry is the single human-readable index over the three
/// code spaces; `reproduce --explain CODE` renders entries from it.
pub fn diagnostic_registry() -> &'static [CodeInfo] {
    REGISTRY
}

/// Look up one code, case-insensitively and ignoring surrounding
/// whitespace. Returns `None` for unknown codes.
pub fn explain(code: &str) -> Option<&'static CodeInfo> {
    let needle = code.trim().to_ascii_uppercase();
    REGISTRY.iter().find(|c| c.code == needle)
}

macro_rules! registry {
    ($($code:literal, $origin:literal : $summary:literal => $advice:literal;)*) => {
        &[$(CodeInfo {
            code: $code,
            origin: $origin,
            summary: $summary,
            advice: $advice,
        },)*]
    };
}

static REGISTRY: &[CodeInfo] = registry![
    "A0101", "verifier:barriers": "barrier under thread-dependent control flow" =>
        "Every thread of a block must reach the same barriers; hoist the barrier out of the divergent branch or make the condition block-uniform.";
    "A0102", "verifier:barriers": "barrier reachable after a thread-dependent early return" =>
        "Threads that returned early never arrive at the barrier and the block deadlocks; guard the returning path or drop the barrier.";
    "A0201", "verifier:races": "write/write race on shared memory in one barrier interval" =>
        "Two threads store to the same scratchpad cell between barriers; separate the phases with a barrier or make the store footprints disjoint.";
    "A0202", "verifier:races": "read/write race on shared memory in one barrier interval" =>
        "A thread reads a scratchpad cell another thread writes in the same interval; insert a barrier between the staging and consuming phases.";
    "A0301", "verifier:bounds": "global or texture access not provably in bounds" =>
        "The index interval escapes the buffer; clamp or wrap the coordinate (boundary handling), or shrink the iteration space.";
    "A0302", "verifier:bounds": "shared-memory access not provably in bounds" =>
        "The scratchpad index interval escapes the declared tile; check the tile geometry against the block size and filter radius.";
    "A0303", "verifier:bounds": "constant-memory access not provably in bounds" =>
        "The mask index interval escapes the constant buffer; check the mask dimensions against the loop bounds.";
    "A0401", "verifier:resources": "shared memory exceeds the device budget" =>
        "The scratchpad tiles do not fit the device's shared memory; shrink the block or switch the memory variant.";
    "A0402", "verifier:resources": "register estimate exceeds the per-thread limit" =>
        "The kernel's estimated register pressure exceeds the device limit; simplify the kernel or reduce unrolling.";
    "A0403", "verifier:resources": "constant-mask bytes exceed constant memory" =>
        "The compiled-in masks are larger than the device's constant memory; use dynamic masks or a smaller window.";
    "A0404", "verifier:resources": "block shape exceeds the device thread limits" =>
        "The launch configuration violates the device's block-dimension or thread-count limits; let the heuristic pick, or force a smaller block.";
    "A0501", "linter": "unbalanced delimiters in generated source" =>
        "The emitted source has mismatched braces/parens — a codegen bug; report it with the kernel that triggered it.";
    "A0502", "linter": "undeclared identifier in generated source" =>
        "The emitted source references a name it never declares — a codegen bug; report it with the kernel that triggered it.";
    "C0101", "compiler": "backend cannot target the device" =>
        "The vendor/backend pair is unsupported (e.g. CUDA on an AMD device); pick the device's native backend.";
    "C0102", "compiler": "requested hardware boundary handling does not exist" =>
        "The device's texture hardware has no unit for this boundary mode; use software boundary handling.";
    "C0103", "compiler": "unsupported feature combination" =>
        "Two requested options are mutually exclusive for this target; the message names the pair.";
    "C0201", "compiler": "no launch configuration fits the device" =>
        "The resource heuristic found no block shape satisfying all device limits; reduce the kernel's footprint.";
    "C0202", "compiler": "forced launch configuration invalid" =>
        "The `force_config` block shape violates a device limit; drop the override or pick a legal shape.";
    "C0301", "compiler": "internal codegen error" =>
        "The compiler reached an inconsistent state; this is a bug — report it with the kernel that triggered it.";
    "F0101", "fusion": "fusion rejected: incompatible ROIs across the chain" =>
        "Every stage of a fused chain must iterate the same space; align the ROIs or run the chain unfused.";
    "F0102", "fusion": "fusion rejected: illegal handoff, the consumer reads its producer off its own pixel" =>
        "Only point consumers fuse: every stage after the first must read just its own pixel and declare no boundary window wider than 1x1. A stencil consumer starts a new stage; the chain splits there and runs as separate launches.";
    "F0103", "fusion": "fusion rejected: stage is not a linear single-input consumer" =>
        "Only linear producer -> consumer chains fuse: every stage must read exactly one input accessor; split multi-input stages out of the chain.";
    "F0104", "fusion": "fusion rejected: unsupported kernel shape" =>
        "The stage has no statically bounded read window, is vectorized, or fails structural composition (conditional output, early return); fused kernels are scalar with finite stencils.";
    "F0105", "fusion": "fused compile exceeded device resources; fell back per-stage" =>
        "The folded kernel exceeds a device resource limit (constant memory, registers, block shape) that each stage alone meets, so the chain ran as individual launches instead — a warning recording the decision, not an error.";
    "R0001", "runtime": "operator executed with no inputs" =>
        "Bind at least one input image; the first input defines the output geometry.";
    "R0101", "runtime": "read of an undefined variable" =>
        "The kernel reads a local before any assignment on some path; initialize it at declaration.";
    "R0102", "runtime": "buffer not bound" =>
        "A buffer the kernel names was not supplied at launch; bind it in the inputs or mask uploads.";
    "R0103", "runtime": "scalar argument missing" =>
        "A scalar parameter has no binding at launch; supply it via the operator's params.";
    "R0104", "runtime": "integer division by zero" =>
        "An integer `/` or `%` evaluated with a zero divisor; guard the divisor.";
    "R0105", "runtime": "barrier inside control flow" =>
        "The engine refuses barriers nested in loops or branches; restructure so barriers sit at the kernel's top level.";
    "R0106", "runtime": "expression evaluation failed" =>
        "An expression produced no value (e.g. a type confusion); the message pinpoints the node.";
    "R0202", "runtime": "invalid launch geometry" =>
        "Grid or block has a zero dimension, the iteration space is empty or the inputs disagree on their size — check the launch spec; the message says which.";
    "R0301", "runtime": "launch deadline exceeded (hung worker)" =>
        "A simulator worker missed the deadline — the signature of a hang; transient, the supervisor retries it.";
    "R0401", "supervisor": "supervisor exhausted retries and fallbacks" =>
        "Every retry and fallback in the recovery chain failed; the report lists each attempt's diagnostic.";
    "R0501", "runtime": "kernel cache recovered from a poisoned lock" =>
        "A launch thread panicked while holding the cache lock; the cache adopted its state and kept serving — investigate the panic, the cache itself is healthy.";
    "R0601", "stream": "stage worker panic contained (frame failed, pipeline kept draining)" =>
        "A stage's launch panicked (e.g. an injected driver abort); the frame is recorded as failed with this code, the stage thread survives, and successor frames keep flowing — replay the bundle to reproduce the panic standalone.";
    "R0602", "stream": "per-frame deadline budget exhausted" =>
        "A frame's supervised launches spent more virtual time than StreamConfig.frame_deadline_us allows; the frame is cancelled with a typed failure instead of stalling the queue chain — raise the budget or fix the hang.";
    "R0603", "stream": "whole-stream deadline budget exhausted" =>
        "The stream's cumulative virtual time crossed StreamConfig.stream_budget_us; every frame from the crossing point on is cancelled deterministically — raise the budget or shed load earlier.";
    "R0604", "stream": "frame shed under sustained queue pressure" =>
        "The producer queue sat at its high-water mark past StreamConfig.shed_after_us, so the oldest undispatched frame was dropped with a typed event; downstream stages never saw it — slow the producer or raise the capacity.";
    "R0605", "stream": "invalid stream configuration" =>
        "A stream knob is out of range (zero workers, zero queue capacity, a zero deadline or budget, a zero breaker threshold, or no stages); fix the config — the stream refuses to start rather than surface the error mid-run.";
    "R0606", "stream": "circuit breaker pinned a stage to its degraded rung" =>
        "A stage kept succeeding only via its degradation ladder, so the breaker opened and pinned the proven rung (one recompile, no per-frame ladder walk); half-open probes restore the healthy config after enough clean frames — a warning, not an error.";
];

/// Render an error and its `source()` chain, outermost first.
pub fn error_chain(e: &(dyn std::error::Error + 'static)) -> Vec<String> {
    let mut chain = vec![e.to_string()];
    let mut cur = e.source();
    while let Some(src) = cur {
        chain.push(src.to_string());
        cur = src.source();
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deadline() -> OperatorError {
        OperatorError::Sim(SimError::DeadlineExceeded {
            worker: 1,
            elapsed_us: 900,
            deadline_us: 500,
        })
    }

    /// A two-accessor launch whose input images disagree in size.
    fn mismatched_inputs() -> OperatorError {
        use hipacc_ir::{KernelBuilder, ScalarType};
        let mut b = KernelBuilder::new("sum2", ScalarType::F32);
        let (a, c) = (
            b.accessor("A", ScalarType::F32),
            b.accessor("B", ScalarType::F32),
        );
        b.output(b.read(&a, 0, 0) + b.read(&c, 0, 0));
        let (small, large) = (
            hipacc_image::Image::new(8, 8),
            hipacc_image::Image::new(16, 8),
        );
        let target = crate::Target::cuda(hipacc_hwmodel::device::tesla_c2050());
        crate::Operator::new(b.finish())
            .execute(&[("A", &small), ("B", &large)], &target)
            .unwrap_err()
    }

    #[test]
    fn classification_table() {
        let cases: Vec<(OperatorError, FailureClass, &str)> = vec![
            (deadline(), FailureClass::Transient, "R0301"),
            (mismatched_inputs(), FailureClass::Permanent, "R0202"),
            (
                OperatorError::Sim(SimError::InvalidLaunch("zero grid".into())),
                FailureClass::Permanent,
                "R0202",
            ),
            (
                OperatorError::Sim(SimError::UnboundBuffer("IN".into())),
                FailureClass::Permanent,
                "R0102",
            ),
            (
                OperatorError::Compile(CompileError::NoValidConfiguration),
                FailureClass::Permanent,
                "C0201",
            ),
            (
                OperatorError::Compile(CompileError::UnsupportedBackend("cuda/amd".into())),
                FailureClass::Permanent,
                "C0101",
            ),
            (OperatorError::NoInputs, FailureClass::Permanent, "R0001"),
            (
                OperatorError::Unrecovered("retries exhausted".into()),
                FailureClass::Permanent,
                "R0401",
            ),
        ];
        for (err, class, code) in cases {
            assert_eq!(err.class(), class, "{err}");
            let d = err.diagnostic();
            assert_eq!(d.code, code, "{err}");
            assert!(d.is_error());
            assert!(!d.message.is_empty());
        }
    }

    #[test]
    fn verification_failures_keep_their_verifier_code() {
        let inner = Diagnostic::error("A0401", "blur", "too much shared memory");
        let err = OperatorError::Compile(CompileError::Verification(vec![inner.clone()]));
        assert_eq!(err.diagnostic(), inner);
        assert_eq!(err.class(), FailureClass::Permanent);
    }

    #[test]
    fn chains_render_outermost_first() {
        let err = deadline();
        let chain = error_chain(&err);
        assert_eq!(chain.len(), 2);
        assert!(chain[0].starts_with("simulation error:"), "{}", chain[0]);
        assert!(chain[1].contains("deadline"), "{}", chain[1]);
    }
}
