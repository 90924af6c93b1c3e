//! Fault drill: inject one fault of each class into a 5x5 Gaussian blur
//! and watch the launch supervisor recover, deterministically.
//!
//! Five scenarios, one per fault class:
//!
//! 1. a **dropped block result** — repaired by re-executing the block;
//! 2. a **bit flip** in a committed store — detected by the block
//!    checksum ledger, repaired selectively;
//! 3. **poisoned boundary reads** (NaN outputs of a rim block) — same
//!    detection and repair path;
//! 4. a **hung worker** — cancelled by the virtual launch deadline,
//!    classified transient, cured by a retry with backoff (all on the
//!    virtual clock: this drill never sleeps);
//! 5. a **corrupted constant bank** — caught by the post-launch scrub of
//!    the uploaded mask coefficients, cured by a full retry (run against
//!    a dynamic-mask convolution, the only kernel kind with runtime
//!    constant banks).
//!
//! Every recovered output is asserted bit-identical to a fault-free
//! reference, the recovery log is printed, and all profile spans
//! (including the `"recovery"`-category fault/retry spans) are exported
//! as one Chrome trace that the example validates before exiting.
//!
//! ```text
//! cargo run --release --example fault_drill [TRACE_PATH]
//! ```
//!
//! `TRACE_PATH` defaults to `target/fault_drill_trace.json`.

use hipacc::prelude::*;
use hipacc_core::supervisor::RecoveryAction;
use hipacc_core::{Engine, FaultPlan, Operator, SupervisorConfig};
use hipacc_filters::gaussian::gaussian_operator;
use hipacc_image::phantom;
use hipacc_ir::{Expr, KernelBuilder, ScalarType};
use hipacc_profile::Span;

/// A 3x1 convolution with a dynamically uploaded mask, so the constant
/// corruption scenario has a runtime bank to flip.
fn dyn_mask_operator() -> Operator {
    let mut b = KernelBuilder::new("dynconv", ScalarType::F32);
    let input = b.accessor("Input", ScalarType::F32);
    let m = b.mask_dynamic("M", 3, 1);
    let acc = b.let_("acc", ScalarType::F32, Expr::float(0.0));
    b.for_inclusive("xf", Expr::int(-1), Expr::int(1), |b, xf| {
        b.add_assign(
            &acc,
            b.mask_at(&m, xf.get(), Expr::int(0)) * b.read_at(&input, xf.get(), Expr::int(0)),
        );
    });
    b.output(acc.get());
    Operator::new(b.finish())
        .boundary("Input", BoundaryMode::Clamp, 3, 1)
        .upload_mask("M", vec![0.25, 0.5, 0.25])
}

fn main() {
    let trace_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/fault_drill_trace.json".to_string());

    let image = phantom::vessel_tree(96, 80, &phantom::VesselParams::default());
    let target = Target::cuda(hipacc_hwmodel::device::tesla_c2050());
    let engine = Engine::default();
    let cfg = SupervisorConfig::default();
    let gaussian = gaussian_operator(5, 1.1, BoundaryMode::Clamp);
    let dynconv = dyn_mask_operator();

    // The drill's scenarios: (name, operator, plan, expected action).
    let scenarios: Vec<(&str, &Operator, FaultPlan, RecoveryAction)> = vec![
        (
            "dropped block result",
            &gaussian,
            FaultPlan::drop_block(11, (0, 1)),
            RecoveryAction::Repaired,
        ),
        (
            "bit flip in a committed store",
            &gaussian,
            FaultPlan::flip_block(22, (0, 2), 1 << 22),
            RecoveryAction::Repaired,
        ),
        (
            "poisoned boundary reads",
            &gaussian,
            FaultPlan::poison_block(33, (0, 0)),
            RecoveryAction::Repaired,
        ),
        (
            "hung worker",
            &gaussian,
            FaultPlan::hang_block(44, (0, 3), 10_000),
            RecoveryAction::Retried,
        ),
        (
            "corrupted constant bank",
            &dynconv,
            FaultPlan::corrupt_constants(55, 1),
            RecoveryAction::Retried,
        ),
    ];

    let mut spans: Vec<Span> = Vec::new();
    for (name, op, plan, expected) in scenarios {
        let reference = op
            .execute_with(&[("Input", &image)], &target, engine)
            .expect("fault-free reference run");
        let sup = op
            .execute_supervised(&[("Input", &image)], &target, engine, &plan, &cfg)
            .expect("the supervisor must recover this drill");

        // Self-validation: recovery must be bit-exact and take the
        // expected path.
        assert_eq!(
            reference.output.max_abs_diff(&sup.execution.output),
            0.0,
            "{name}: recovered output diverged from the reference"
        );
        assert!(
            sup.recovery.events.iter().any(|e| e.action == expected),
            "{name}: expected a `{expected}` event, got:\n{}",
            sup.recovery.render_text()
        );
        assert_eq!(
            sup.recovery.events.last().map(|e| e.action),
            Some(RecoveryAction::Completed)
                .filter(|_| expected == RecoveryAction::Retried)
                .or(Some(expected)),
            "{name}: drill must end validated"
        );

        println!("== drill: {name} ==");
        println!("   plan: {plan}");
        print!("{}", sup.recovery.render_text());
        println!("   recovered: output bit-identical to fault-free reference");
        println!();
        spans.extend(sup.profile().spans.iter().cloned());
    }

    // Export and self-validate the combined trace, recovery spans included.
    let recovery_spans = spans.iter().filter(|s| s.cat == "recovery").count();
    assert!(recovery_spans >= 5, "each drill must leave recovery spans");
    let trace = hipacc_profile::chrome::trace_json(&spans);
    let n_events = hipacc_profile::chrome::validate(&trace).expect("emitted trace must validate");
    std::fs::write(&trace_path, &trace).expect("write trace file");
    println!(
        "wrote {n_events} trace events ({} spans, {recovery_spans} recovery spans) to {trace_path}",
        spans.len()
    );
    println!("ok: fault drill finished");
}
