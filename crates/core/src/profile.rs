//! The launch report: the pipeline's three observability feeds joined
//! into one record.
//!
//! A [`LaunchProfile`] combines
//!
//! 1. **compile-phase spans** — wall-clock timings of the compiler's
//!    numbered phases and each verifier pass, recorded through the
//!    [`hipacc_profile::ProfileSink`] plumbing,
//! 2. **per-region execution counters** — the simulator's per-block
//!    [`ExecStats`] attributed to the paper's nine boundary regions via
//!    the compiled kernel's [`RegionGrid`], cross-checked against the
//!    launch totals, and
//! 3. **the model view** — the analytical [`TimeBreakdown`] and hwmodel
//!    occupancy for the same launch,
//!
//! and renders them as a human-readable text report
//! ([`LaunchProfile::render_text`]) or a Chrome `trace_event` JSON
//! document ([`LaunchProfile::chrome_trace`]) for `about:tracing` /
//! Perfetto.
//!
//! Profiling is strictly opt-in: [`Operator::execute`] never records
//! anything; [`Operator::execute_profiled`] is the instrumented path, and
//! a supervised launch keeps only the raw `LaunchFacts` until somebody
//! asks for [`Supervised::profile`]. Both go through the one constructor,
//! `LaunchProfile::assemble`.
//!
//! [`RegionGrid`]: hipacc_codegen::regions::RegionGrid
//! [`Operator::execute`]: crate::operator::Operator::execute
//! [`Operator::execute_profiled`]: crate::operator::Operator::execute_profiled
//! [`Supervised::profile`]: crate::supervisor::Supervised::profile

use crate::cache::CacheReport;
use crate::operator::Execution;
use hipacc_codegen::Region;
use hipacc_hwmodel::Occupancy;
use hipacc_profile::Span;
use hipacc_sim::sched::ExecProfile;
use hipacc_sim::timing::TimeBreakdown;
use hipacc_sim::ExecStats;

/// Execution counters attributed to one boundary region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionProfile {
    /// The region (one of the paper's nine; `Interior` when the kernel
    /// was compiled without boundary specialization).
    pub region: Region,
    /// Blocks that ran this region's body.
    pub blocks: u64,
    /// Summed dynamic statistics of those blocks.
    pub stats: ExecStats,
}

/// One launch, observed end to end.
#[derive(Clone, Debug)]
pub struct LaunchProfile {
    /// Kernel name.
    pub kernel: String,
    /// Target label (`"Tesla C2050 / CUDA"`).
    pub target: String,
    /// Which simulator engine ran the launch (`"bytecode"` / `"simd"`).
    pub engine: &'static str,
    /// Grid dimensions in blocks.
    pub grid: (u32, u32),
    /// Block dimensions in threads.
    pub block: (u32, u32),
    /// Effective host worker threads used by the simulator (the explicit
    /// `sim_threads`, else the pool width or the host's parallelism).
    pub n_workers: usize,
    /// Per-region execution counters, in [`Region::all`] order, regions
    /// with zero blocks omitted.
    pub regions: Vec<RegionProfile>,
    /// Launch-total execution counters (what `execute()` reports).
    pub totals: ExecStats,
    /// Blocks run by each worker thread (index = worker id).
    pub blocks_per_worker: Vec<usize>,
    /// The analytical time model's verdict for this launch.
    pub time: TimeBreakdown,
    /// Occupancy at the chosen configuration, when available.
    pub occupancy: Option<Occupancy>,
    /// Compile-phase wall-clock breakdown `(phase, ms)`.
    pub phase_times: Vec<(String, f64)>,
    /// All recorded spans (compile phases, verifier passes, simulated
    /// launch) on the shared profiling timeline.
    pub spans: Vec<Span>,
    /// The fault plan injected into this launch (its stable summary
    /// string), when the launch ran under the supervisor with fault
    /// injection armed. `None` for plain launches.
    pub fault_plan: Option<String>,
    /// What the kernel cache did for this launch, when one was installed
    /// ([`crate::cache::KernelCache`]). `None` when no cache was
    /// consulted.
    pub cache: Option<crate::cache::CacheReport>,
    /// Mean active-lane fraction across all warp execution steps, when
    /// the launch ran on the simd engine. 1.0 means no divergence and no
    /// partially filled warps.
    pub warp_occupancy: Option<f64>,
    /// Blocks of a simd launch that ran on the scalar engine instead
    /// ([`hipacc_sim::SimdTelemetry::scalar_fallback_blocks`]); 0 on the
    /// other engines.
    pub scalar_fallback_blocks: u64,
    /// `scalar_fallback_blocks` by cause (only the causes that occurred):
    /// a kernel the simd engine cannot type runs at bytecode speed, and
    /// its profile says so.
    pub fallback_causes: Vec<(hipacc_sim::FallbackCause, u64)>,
    /// Fraction of the simd engine's warp steps served by the scalar
    /// file — one operation for all the lanes at the step.
    pub warp_uniform_share: Option<f64>,
    /// Fraction of a simd launch's blocks that ran every phase in
    /// lockstep — one program counter and one scalar file for the whole
    /// block, re-merges included
    /// ([`hipacc_sim::SimdTelemetry::lockstep_fraction`]). The others
    /// fell back to the scalar engine.
    pub lockstep_block_share: Option<f64>,
    /// Times a block of a simd launch ran a branch its lanes disagreed on
    /// block-wide, lanes grouped by program counter, and all of them went
    /// back to lockstep at the join
    /// ([`hipacc_sim::SimdTelemetry::remerges`]); 0 on the other engines.
    pub remerges: u64,
    /// Steps those regions took, one per lane group run for the whole
    /// block ([`hipacc_sim::SimdTelemetry::region_steps`]); 0 on the
    /// other engines.
    pub region_steps: u64,
}

/// What a launch has to keep for a [`LaunchProfile`] to be assembled from
/// it later, next to its [`Execution`] and cache report.
#[derive(Clone, Debug)]
pub(crate) struct LaunchFacts {
    pub kernel: String,
    pub target: String,
    pub engine: hipacc_sim::Engine,
    pub exec: ExecProfile,
    /// Spans recorded while compiling; none on a cache hit.
    pub compile_spans: Vec<Span>,
    /// Start and duration of the `execute` span: host wall time for a
    /// plain launch, the charged virtual time for a supervised one.
    pub launch_us: (u64, u64),
    pub fault_plan: Option<String>,
}

impl LaunchProfile {
    /// Join a launch's facts with its execution and cache outcome — the
    /// only place a `LaunchProfile` is built.
    pub(crate) fn assemble(
        facts: &LaunchFacts,
        execution: &Execution,
        cache: Option<CacheReport>,
    ) -> Self {
        let compiled = &execution.compiled;
        let engine = facts.engine.label();
        let (start, dur) = facts.launch_us;
        let mut spans = facts.compile_spans.clone();
        let simd = facts.exec.simd;
        let lockstep_block_share = simd.and_then(|t| t.lockstep_fraction());
        let mut execute = Span::new("execute", "launch", start, dur)
            .arg("engine", engine)
            .arg("workers", facts.exec.n_workers.to_string())
            .arg("blocks", facts.exec.blocks.len().to_string());
        if let (Some(share), Some(t)) = (lockstep_block_share, simd) {
            execute = execute
                .arg("lockstep_block_share", format!("{share:.4}"))
                .arg("remerges", t.remerges.to_string())
                .arg("region_steps", t.region_steps.to_string());
        }
        spans.push(execute);
        // On a cache hit the compile phases never ran this launch: the
        // profile must show zero compile time, even though the cached
        // artifact still carries its original `phase_times`.
        let phase_times = if cache.as_ref().is_some_and(|c| c.is_hit()) {
            Vec::new()
        } else {
            compiled.phase_times.clone()
        };
        LaunchProfile {
            kernel: facts.kernel.clone(),
            target: facts.target.clone(),
            engine,
            grid: compiled.grid,
            block: (compiled.config.bx, compiled.config.by),
            n_workers: facts.exec.n_workers,
            regions: Self::attribute_regions(&facts.exec, |bx, by| {
                compiled
                    .region_grid
                    .as_ref()
                    .map_or(Region::Interior, |g| g.region_of(bx, by))
            }),
            totals: execution.stats,
            blocks_per_worker: facts.exec.blocks_per_worker(),
            time: execution.time,
            occupancy: compiled.occupancy,
            phase_times,
            spans,
            fault_plan: facts.fault_plan.clone(),
            cache,
            warp_occupancy: simd.and_then(|t| t.mean_active_fraction()),
            scalar_fallback_blocks: simd.map_or(0, |t| t.scalar_fallback_blocks()),
            fallback_causes: simd.map_or_else(Vec::new, |t| t.fallbacks().collect()),
            warp_uniform_share: simd.and_then(|t| t.uniform_fraction()),
            lockstep_block_share,
            remerges: simd.map_or(0, |t| t.remerges),
            region_steps: simd.map_or(0, |t| t.region_steps),
        }
    }

    /// Attribute a per-block execution profile to boundary regions.
    ///
    /// `region_of` maps a block index to its region — the compiled
    /// kernel's `RegionGrid::region_of`, or constant `Interior` when no
    /// boundary specialization was generated.
    pub fn attribute_regions(
        exec: &ExecProfile,
        region_of: impl Fn(u32, u32) -> Region,
    ) -> Vec<RegionProfile> {
        let mut per: Vec<RegionProfile> = Region::all()
            .iter()
            .map(|r| RegionProfile {
                region: *r,
                blocks: 0,
                stats: ExecStats::default(),
            })
            .collect();
        for b in &exec.blocks {
            let r = region_of(b.bx, b.by);
            let slot = per
                .iter_mut()
                .find(|p| p.region == r)
                .expect("Region::all covers every region");
            slot.blocks += 1;
            slot.stats.merge(&b.stats);
        }
        per.retain(|p| p.blocks > 0);
        per
    }

    /// Sum of the per-region counters. Equal to [`Self::totals`] for any
    /// faithful profile — [`Self::cross_check`] asserts it.
    pub fn region_sum(&self) -> ExecStats {
        let mut sum = ExecStats::default();
        for r in &self.regions {
            sum.merge(&r.stats);
        }
        sum
    }

    /// Verify the per-region attribution against the launch totals:
    /// every counter must sum exactly, and the region block counts must
    /// cover the whole grid. Returns a description of the first mismatch.
    pub fn cross_check(&self) -> Result<(), String> {
        let sum = self.region_sum();
        if sum != self.totals {
            return Err(format!(
                "per-region counters do not sum to launch totals:\n  regions: {sum:?}\n  totals:  {:?}",
                self.totals
            ));
        }
        let blocks: u64 = self.regions.iter().map(|r| r.blocks).sum();
        let grid = self.grid.0 as u64 * self.grid.1 as u64;
        if blocks != grid {
            return Err(format!(
                "region block counts cover {blocks} of {grid} grid blocks"
            ));
        }
        Ok(())
    }

    /// Render the profile as a Chrome `trace_event` JSON document.
    pub fn chrome_trace(&self) -> String {
        hipacc_profile::chrome::trace_json(&self.spans)
    }

    /// Render a human-readable text report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "launch profile: {} on {} ({} engine)\n",
            self.kernel, self.target, self.engine
        ));
        out.push_str(&format!(
            "  grid {}x{} blocks of {}x{} threads, {} sim worker(s), blocks/worker {:?}\n",
            self.grid.0,
            self.grid.1,
            self.block.0,
            self.block.1,
            self.n_workers,
            self.blocks_per_worker,
        ));
        if let Some(plan) = &self.fault_plan {
            out.push_str(&format!("  injected: {plan}\n"));
        }
        if let Some(c) = &self.cache {
            out.push_str(&format!(
                "  kernel cache: {} ({} hits, {} misses)\n",
                c.outcome, c.hits, c.misses
            ));
            if let Some(tape) = c.tape {
                out.push_str(&format!(
                    "  tape: {tape} ({} built, {} reused, {} warp programs lowered)\n",
                    c.tapes_built, c.tapes_reused, c.warps_lowered
                ));
            }
        }
        if let Some(w) = self.warp_occupancy {
            out.push_str(&format!(
                "  warp occupancy {:.3} (mean active-lane fraction)\n",
                w
            ));
        }
        if let Some(u) = self.warp_uniform_share {
            out.push_str(&format!("  warp-uniform: {:.1} % of steps\n", u * 100.0));
        }
        if let Some(l) = self.lockstep_block_share {
            out.push_str(&format!(
                "  lockstep: {:.1} % of blocks, {} re-merges, {} region steps\n",
                l * 100.0,
                self.remerges,
                self.region_steps
            ));
        }
        for (cause, blocks) in &self.fallback_causes {
            out.push_str(&format!(
                "  simd fallback: {blocks} blocks ({})\n",
                cause.label()
            ));
        }
        if let Some(o) = &self.occupancy {
            out.push_str(&format!(
                "  occupancy {:.2} ({} warps, limited by {:?})\n",
                o.occupancy, o.active_warps, o.limiter
            ));
        }
        out.push_str(&format!(
            "  modelled time {:.3} ms (compute {:.3}, memory {:.3}, staging {:.3}, launch {:.3})\n",
            self.time.total_ms,
            self.time.compute_ms,
            self.time.memory_ms,
            self.time.staging_ms,
            self.time.launch_ms,
        ));

        out.push_str("  compile phases:\n");
        for (name, ms) in &self.phase_times {
            out.push_str(&format!("    {name:<16} {ms:>9.3} ms\n"));
        }

        out.push_str(&format!(
            "  {:<8} {:>7} {:>12} {:>12} {:>10} {:>10} {:>9} {:>9} {:>9}\n",
            "region", "blocks", "gloads", "gstores", "tex", "const", "shload", "shstore", "barrier"
        ));
        let mut rows: Vec<(&str, u64, ExecStats)> = self
            .regions
            .iter()
            .map(|r| (r.region.label(), r.blocks, r.stats))
            .collect();
        rows.push((
            "TOTAL",
            self.grid.0 as u64 * self.grid.1 as u64,
            self.totals,
        ));
        for (label, blocks, s) in rows {
            out.push_str(&format!(
                "  {:<8} {:>7} {:>12} {:>12} {:>10} {:>10} {:>9} {:>9} {:>9}\n",
                label,
                blocks,
                s.global_loads,
                s.global_stores,
                s.tex_fetches,
                s.const_loads,
                s.shared_loads,
                s.shared_stores,
                s.barriers,
            ));
        }
        if self.totals.oob_reads > 0 || self.totals.oob_stores > 0 {
            out.push_str(&format!(
                "  out-of-bounds: {} reads, {} stores (the paper's crash cells)\n",
                self.totals.oob_reads, self.totals.oob_stores
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_sim::sched::BlockProfile;

    fn stats(n: u64) -> ExecStats {
        ExecStats {
            global_loads: n,
            global_stores: 1,
            ..Default::default()
        }
    }

    fn profile_of(exec: &ExecProfile, grid: (u32, u32)) -> LaunchProfile {
        LaunchProfile {
            kernel: "k".into(),
            target: "t".into(),
            engine: "bytecode",
            grid,
            block: (8, 8),
            n_workers: exec.n_workers,
            regions: LaunchProfile::attribute_regions(exec, |bx, _| {
                if bx == 0 {
                    Region::Left
                } else {
                    Region::Interior
                }
            }),
            totals: exec.total(),
            blocks_per_worker: exec.blocks_per_worker(),
            time: TimeBreakdown::default(),
            occupancy: None,
            phase_times: vec![("lowering".into(), 0.5)],
            spans: Vec::new(),
            fault_plan: None,
            cache: None,
            warp_occupancy: None,
            scalar_fallback_blocks: 0,
            fallback_causes: Vec::new(),
            warp_uniform_share: None,
            lockstep_block_share: None,
            remerges: 0,
            region_steps: 0,
        }
    }

    fn exec_grid(gx: u32, gy: u32) -> ExecProfile {
        let mut blocks = Vec::new();
        for by in 0..gy {
            for bx in 0..gx {
                blocks.push(BlockProfile {
                    bx,
                    by,
                    worker: (bx % 2) as usize,
                    stats: stats((bx + 10 * by) as u64),
                });
            }
        }
        ExecProfile {
            n_workers: 2,
            blocks,
            simd: None,
        }
    }

    #[test]
    fn attribution_partitions_blocks_and_sums() {
        let exec = exec_grid(4, 3);
        let p = profile_of(&exec, (4, 3));
        assert_eq!(p.regions.len(), 2);
        let left = p.regions.iter().find(|r| r.region == Region::Left).unwrap();
        assert_eq!(left.blocks, 3);
        assert_eq!(left.stats.global_loads, 10 + 20);
        p.cross_check().unwrap();
    }

    #[test]
    fn cross_check_catches_dropped_counters() {
        let exec = exec_grid(4, 3);
        let mut p = profile_of(&exec, (4, 3));
        p.totals.global_loads += 1;
        assert!(p.cross_check().unwrap_err().contains("sum"));
        let mut p = profile_of(&exec, (5, 3));
        p.totals = p.region_sum();
        assert!(p.cross_check().unwrap_err().contains("grid blocks"));
    }

    #[test]
    fn text_report_mentions_every_section() {
        let exec = exec_grid(4, 3);
        let p = profile_of(&exec, (4, 3));
        let text = p.render_text();
        for needle in [
            "launch profile",
            "compile phases",
            "lowering",
            "L_BH",
            "TOTAL",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn text_report_names_simd_fallbacks_and_uniform_share() {
        use hipacc_sim::FallbackCause;
        let exec = exec_grid(4, 3);
        let mut p = profile_of(&exec, (4, 3));
        assert!(!p.render_text().contains("simd fallback"));
        p.scalar_fallback_blocks = 12;
        p.fallback_causes = vec![(FallbackCause::PolymorphicRegister, 12)];
        p.warp_uniform_share = Some(0.625);
        p.lockstep_block_share = Some(1360.0 / 1376.0);
        p.remerges = 5022;
        p.region_steps = 42_687;
        let text = p.render_text();
        assert!(
            text.contains("simd fallback: 12 blocks (polymorphic register)"),
            "{text}"
        );
        assert!(text.contains("warp-uniform: 62.5 % of steps"), "{text}");
        assert!(
            text.contains("lockstep: 98.8 % of blocks, 5022 re-merges, 42687 region steps"),
            "{text}"
        );
    }
}
