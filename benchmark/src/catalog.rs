//! The benchmark's vocabulary: every workload and every metric it prints,
//! with unit, direction and regression bound. `BENCHMARK.json` at the
//! repository root repeats this table for the driver; a self-test keeps
//! the two equal.

/// A workload and the reason it exists.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "cold_sweep",
        why: "9 operators x 4 border modes x 6 targets, no cache, 16x16: compile, verify and optimize are over half of a frame, so codegen/analysis/ir/hwmodel work shows here and nowhere else",
    },
    WorkloadInfo {
        name: "steady_gauss512",
        why: "Gaussian 5x5 at 512x512 on a warm cache: 98% of a frame is block execution, so engine gains show 1:1 and per-launch overhead work should move nothing",
    },
    WorkloadInfo {
        name: "steady_bilateral_border",
        why: "bilateral 13x13 Mirror at 96x96, the paper's headline kernel: border dispatch in every block, exp() per tap, warp occupancy 0.965, so a gain for the converged path that taxes divergence shows here",
    },
    WorkloadInfo {
        name: "stream_tiny",
        why: "3-stage stencil chain at 16x16, 256 frames per run: the only workload where fixed per-launch cost (key, lookup clone, tape rebuild, estimate, supervision, queue handoff) is a large share",
    },
    WorkloadInfo {
        name: "stream_256",
        why: "stencil + two point stages at 256x256, fusion off: a representative frame size where execution dominates and stage imbalance and queue wait are visible",
    },
    WorkloadInfo {
        name: "stream_fused_256",
        why: "the same frames, chain and config as stream_256 with fuse on: gates the fused path on its own and shows the fused/unfused crossover at a real size",
    },
    WorkloadInfo {
        name: "stream_faulted",
        why: "stencil chain at 64x64 with a seeded transient fault on every 8th frame: puts the supervisor and governor in recovery mode; every frame must still come out right",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it; the self-test compares the two.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "frames_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.2,
    },
    EndToEnd {
        name: "frame_ms_p10",
        unit: "ms",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
    },
];

/// A per-layer metric of the traced run. `exact` metrics are counts and
/// model outputs that must read the same on every run of every commit
/// that does not mean to change them.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// For `BENCHMARK.json`; the self-test compares the two.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

const fn higher(name: &'static str, unit: &'static str, exact: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    timed("filters.build_us_p50", "us"),
    timed("codegen.compile_ms_p50", "ms"),
    timed("codegen.phase_us.specialize", "us"),
    timed("codegen.phase_us.access-analysis", "us"),
    timed("codegen.phase_us.mem-path", "us"),
    timed("codegen.phase_us.resource-probe", "us"),
    timed("codegen.phase_us.config-select", "us"),
    timed("codegen.phase_us.lowering", "us"),
    timed("codegen.phase_us.resources", "us"),
    timed("codegen.phase_us.optimize", "us"),
    timed("codegen.phase_us.emission", "us"),
    timed("codegen.phase_us.verify", "us"),
    exact("codegen.generated_loc", "count"),
    exact("codegen.source_bytes", "B"),
    higher("ir.opt_rewrites", "count", true),
    timed("analysis.verify_us.taint", "us"),
    timed("analysis.verify_us.races", "us"),
    timed("analysis.verify_us.limits", "us"),
    timed("analysis.verify_us.bounds", "us"),
    timed("analysis.verify_us.lint", "us"),
    exact("analysis.warnings", "count"),
    higher("hwmodel.occupancy", "ratio", true),
    timed("core.fingerprint_us_p50", "us"),
    timed("core.cache_lookup_us_p50", "us"),
    timed("core.launch_spec_us_p50", "us"),
    timed("core.estimate_us_p50", "us"),
    timed("core.execute_overhead_us_p50", "us"),
    timed("core.profile_overhead_us_p50", "us"),
    timed("core.supervise_overhead_us_p50", "us"),
    higher("core.cache_hits", "count", true),
    exact("core.cache_misses", "count"),
    exact("core.cache_bypasses", "count"),
    exact("core.actions_retried", "count"),
    exact("core.actions_repaired", "count"),
    exact("core.actions_degraded", "count"),
    exact("core.actions_surfaced", "count"),
    timed("sim.upload_us_p50", "us"),
    timed("sim.tape_build_us_p50", "us"),
    timed("sim.download_us_p50", "us"),
    timed("sim.execute_ms_p50", "ms"),
    timed("sim.launch_ms_p50", "ms"),
    higher("sim.exec_share", "ratio", false),
    timed("sim.unattributed_share", "ratio"),
    timed("sim.ns_per_pixtap", "ns"),
    higher("sim.interior_block_share", "ratio", true),
    higher("sim.warp_occupancy", "ratio", true),
    higher("sim.bytecode_over_simd", "ratio", false),
    exact("sim.tape_uniform_insts", "count"),
    exact("sim.tape_thread_regs", "count"),
    exact("sim.global_loads", "count"),
    exact("sim.tex_fetches", "count"),
    exact("sim.const_loads", "count"),
    exact("sim.shared_loads", "count"),
    exact("sim.shared_stores", "count"),
    exact("sim.barriers", "count"),
    exact("sim.oob_reads", "count"),
    exact("sim.modelled_frame_ms", "model_ms"),
    timed("runtime.wall_ms_p50", "ms"),
    timed("runtime.latency_ms_p50", "ms"),
    timed("runtime.latency_ms_p99", "ms"),
    timed("runtime.stage0_service_ms_p50", "ms"),
    timed("runtime.stage1_service_ms_p50", "ms"),
    timed("runtime.stage2_service_ms_p50", "ms"),
    timed("runtime.queue_wait_share", "ratio"),
    timed("runtime.queue_max_depth", "count"),
    higher("runtime.cache_hit_rate", "ratio", true),
    higher("runtime.pipeline_speedup", "ratio", false),
    higher("runtime.exec_share", "ratio", false),
    timed("runtime.report_json_us", "us"),
    exact("runtime.frames_failed", "count"),
    exact("runtime.frames_shed", "count"),
    exact("runtime.frames_recovered", "count"),
    exact("runtime.breaker_transitions", "count"),
    higher("runtime.fused_groups", "count", true),
    timed("harness.frame_ms_p50", "ms"),
    timed("harness.frame_ms_p90", "ms"),
    higher("harness.samples", "count", false),
    timed("harness.rep_spread", "ratio"),
    timed("harness.trace_overhead_share", "ratio"),
    exact("harness.fail_share", "ratio"),
];

/// The workload of that name.
pub fn workload(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}
