//! The analysis-driven device-IR optimizer driver.
//!
//! Runs the `ir::opt` pass pipeline over the lowered device kernel.
//! The value-range oracle ([`RangeState`]) is seeded once with the
//! launch geometry and the compile-time scalar bindings, and each
//! fact-driven pass walks a clone of that seed — the interpreter the
//! verifier's bounds pass runs on, which is what makes the rewrites
//! safe: anything the optimizer elides, the re-run verifier could have
//! proven redundant. Only `flatten` asks about block-uniformity, so the
//! thread-dependence fixpoint runs once, on the body that pass is about
//! to walk (span `opt:uniformity`), and not at all when it is disabled.
//!
//! Pass order (each independently vetoable through
//! [`CompileSpec::disabled_passes`]):
//!
//! 1. `elide-clamps` — drop `min`/`max` border clamps whose operand
//!    range already satisfies the bound, and collapse region-dispatch
//!    branches the block-rectangle facts decide.
//! 2. `strength-reduce` — fold decidable comparisons/selects and
//!    range-provable `%`/`/` identities.
//! 3. `flatten` — rewrite thread-*varying* two-sided assignments into
//!    `Select`, keeping SIMD warps on the converged fast path.
//! 4. `hoist` — loop-invariant code motion out of (provably entered)
//!    convolution loops.
//! 5. `dead-barrier` — delete barriers whose adjacent race phases have
//!    provably disjoint cross-thread footprints
//!    ([`removable_barriers`]).
//! 6. `fold` — final literal sweep and dead-declaration cleanup.
//!
//! Per-pass wall-clock spans are recorded as `opt:<pass>` in the
//! `compile` category, next to the numbered phases. The optimizer runs
//! *between* resource estimation and emission, so the emitted source,
//! the execution engines and the re-run verifier all see the optimized
//! kernel, while the analytical performance model — occupancy, register
//! estimate, and the region timing bodies
//! ([`CompiledKernel::region_bodies`](crate::CompiledKernel::region_bodies))
//! — deliberately reflects the paper's unoptimized per-region costs
//! (its op-count model is already LICM-aware).

use crate::options::CompileSpec;
use hipacc_analysis::races::removable_barriers;
use hipacc_analysis::range::RangeState;
use hipacc_analysis::{taint, VerifyInput};
use hipacc_hwmodel::LaunchConfig;
use hipacc_ir::kernel::DeviceKernelDef;
use hipacc_ir::opt::{self, OptReport};
use std::collections::HashMap;

/// Run the optimization pipeline over `k` in place. At `opt_level = 0`
/// this is a no-op returning an empty report.
pub(crate) fn optimize_device_kernel(
    k: &mut DeviceKernelDef,
    spec: &CompileSpec,
    config: LaunchConfig,
    grid: (u32, u32),
    scalars: &HashMap<String, i64>,
    sink: &mut dyn hipacc_profile::ProfileSink,
) -> OptReport {
    let mut report = OptReport {
        level: spec.opt_level,
        passes: Vec::new(),
    };
    if spec.opt_level == 0 {
        return report;
    }
    let block = (config.bx, config.by);

    // The iteration-space scalars can be rebound at launch time (the
    // simulator's `LaunchSpec` lets a caller shrink the ROI without
    // recompiling), so the optimizer must not bake their compile-time
    // values into the code: a specialized-away ROI guard would write
    // outside a runtime-shrunk region. Geometry (`width`/`height`/
    // `stride`) and constant-propagated parameter bindings are part of
    // the compile contract — the verifier and the cache key already
    // assume them — and stay point-valued.
    let mut scalars = scalars.clone();
    for key in ["is_offset_x", "is_offset_y", "is_width", "is_height"] {
        scalars.remove(key);
    }
    let scalars = &scalars;

    // Builtins, scalar points and integer kinds: none of it depends on
    // the body the passes rewrite, so every pass starts from a clone (a
    // few map entries; the syntactic passes leave theirs unused).
    let seed = RangeState::new(k, block, grid, scalars);

    for pass in opt::PASSES {
        if spec.disabled_passes.contains(*pass) {
            continue;
        }
        let mut o = seed.clone();
        // Only `flatten` asks `is_uniform`: the fixpoint runs on the body
        // that pass is about to walk.
        if *pass == opt::PASS_FLATTEN {
            o = o.with_varying(hipacc_profile::timed(
                sink,
                "opt:uniformity",
                "compile",
                || taint::thread_dependent_vars(&k.body),
            ));
        }
        let span = format!("opt:{pass}");
        let fires = hipacc_profile::timed(sink, &span, "compile", || match *pass {
            opt::PASS_ELIDE_CLAMPS => opt::elide_clamps(k, &mut o),
            opt::PASS_STRENGTH => opt::strength_reduce(k, &mut o),
            opt::PASS_FLATTEN => opt::flatten_branches(k, &mut o),
            opt::PASS_HOIST => opt::hoist_invariants(k),
            opt::PASS_DEAD_BARRIER => {
                let mut input = VerifyInput::new(k, &spec.device, block, grid);
                input.scalars = scalars.clone();
                let dead = removable_barriers(&input);
                opt::remove_barriers(k, &dead)
            }
            opt::PASS_FOLD => opt::cleanup(k),
            _ => 0,
        });
        report.passes.push((pass.to_string(), fires));
    }
    report
}
