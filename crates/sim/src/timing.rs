//! The analytical timing model.
//!
//! Predicts kernel execution time on the modelled devices from static
//! per-region operation counts, in the tradition of first-order GPU
//! performance models (Hong & Kim style): a compute pipeline and a memory
//! pipeline overlap, the slower one bounds throughput, and occupancy
//! determines how much of the memory latency multithreading can hide.
//!
//! Inputs come from the compiler: the per-region device bodies (counted
//! with LICM-aware [`hipacc_ir::metrics::count_ops_licm`]), the region
//! block counts from the tiling, the launch configuration and occupancy,
//! and the memory path. Device constants come from the frozen device
//! database; per-device calibration is limited to `sfu_cost`,
//! `bw_efficiency` and `opencl_penalty`, each anchored once against a
//! single cell of the paper's tables (see EXPERIMENTS.md).
//!
//! What the model reproduces, and why:
//!
//! * **Boundary-mode insensitivity of generated code** — border regions
//!   are a vanishing fraction of blocks on a 4096² image, so per-mode cost
//!   differences only touch ~1% of threads.
//! * **Mode sensitivity of naive code** — baselines evaluate handling on
//!   every access of every thread; their per-tap op counts differ by mode.
//! * **Texture/caching effects** — the cached path's DRAM traffic is the
//!   unique tile footprint; the uncached path pays per-tap traffic.
//! * **Scratchpad slowdown for small windows** — staging serializes
//!   transfer and compute phases, so its time *adds* instead of
//!   overlapping ("the benefit of massive multithreading … is lost when
//!   data is staged").
//! * **AMD scalar penalty** — scalar code fills one VLIW lane.
//! * **Occupancy effects (Figure 4)** — low-occupancy configurations
//!   cannot hide memory latency and stretch compute time.
//!
//! The model is *static*: it never executes the kernel, so it is
//! independent of which functional engine ([`crate::bytecode`] or
//! [`crate::simd`]) ran the launch. It prices the interior/border
//! distinction through per-region block counts, mirroring the paper's
//! observation that border handling only touches the outermost ring of
//! blocks; the engines need no such split, since an in-range texel read
//! skips the address-mode dispatch in any block.

use hipacc_hwmodel::{DeviceModel, LaunchConfig};
use hipacc_ir::metrics::OpCounts;

/// Which memory system the kernel's input reads traverse.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MemClass {
    /// Plain global loads (cached only on architectures with a default
    /// data cache, i.e. Fermi).
    Global,
    /// Texture path (always cached).
    Texture,
    /// Shared/local-memory staging.
    Scratchpad,
}

/// Per-region cost input: how many blocks execute this body and what one
/// thread of it costs.
#[derive(Clone, Debug)]
pub struct RegionCost {
    /// Blocks executing this region's body.
    pub blocks: u64,
    /// Per-thread operation counts (LICM-aware).
    pub ops: OpCounts,
}

/// Everything the model needs for one kernel launch.
#[derive(Clone, Debug)]
pub struct TimingInput {
    /// Target device.
    pub device: DeviceModel,
    /// Whether the OpenCL penalty applies.
    pub opencl: bool,
    /// Launch configuration.
    pub config: LaunchConfig,
    /// Achieved occupancy in `[0, 1]`.
    pub occupancy: f64,
    /// Per-region costs; block counts must sum to the full grid.
    pub regions: Vec<RegionCost>,
    /// Memory path of input reads.
    pub mem: MemClass,
    /// Maximum half-window (x, y) over all accessors (footprint model).
    pub halo: (u32, u32),
    /// Bytes per pixel of the input/output element type.
    pub pixel_bytes: u32,
    /// Number of kernel launches this operation performs (2 for separable
    /// row+column filters, pyramid levels, …).
    pub launches: u32,
    /// Pixels per work-item. Values > 1 let VLIW devices pack independent
    /// per-pixel chains into their lanes (Section VIII: "first manual
    /// vectorization shows that the performance improves significantly on
    /// graphics cards from AMD").
    pub vector_width: u32,
}

/// The time estimate, decomposed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Compute-pipeline time (ms).
    pub compute_ms: f64,
    /// DRAM-traffic time (ms).
    pub memory_ms: f64,
    /// Non-overlapped staging time for the scratchpad path (ms).
    pub staging_ms: f64,
    /// Launch overhead (ms).
    pub launch_ms: f64,
    /// Latency-hiding utilization factor applied to compute, in `(0, 1]`.
    pub utilization: f64,
    /// Total (ms).
    pub total_ms: f64,
}

/// Latency-hiding utilization: how completely the resident warps cover
/// memory latency. Below the saturation point, time stretches inversely.
fn utilization(dev: &DeviceModel, occupancy: f64) -> f64 {
    // Warps needed to hide `mem_latency` cycles assuming a new long-latency
    // operation roughly every 30 issued instructions per warp.
    let warps_needed = dev.mem_latency_cycles / 30.0;
    let occ_needed = (warps_needed / dev.max_warps_per_sm() as f64).min(0.9);
    (occupancy / occ_needed).clamp(0.05, 1.0)
}

/// DRAM bytes one thread's input reads cost, given the memory path.
/// `ops` are per-*thread* counts (already scaled by the vector width).
fn input_bytes_per_thread(input: &TimingInput, ops: &OpCounts) -> f64 {
    let dev = &input.device;
    let vec = input.vector_width.max(1) as f64;
    let pb = input.pixel_bytes as f64;
    let reads = ops.global_loads + ops.tex_fetches;
    let cached = match input.mem {
        MemClass::Texture => true,
        MemClass::Global => dev.arch.default_cached_loads(),
        MemClass::Scratchpad => {
            // Tile staging: the unique block footprint, divided among the
            // block's threads. Shared-memory traffic itself is on-chip.
            let (hx, hy) = input.halo;
            let bx = input.config.bx as f64;
            let by = input.config.by as f64;
            let tile = (bx + 2.0 * hx as f64) * (by + 2.0 * hy as f64) * pb;
            return tile / (bx * by);
        }
    };
    if reads == 0.0 {
        return 0.0;
    }
    if cached {
        // Unique footprint per block when the tile fits in the cache,
        // otherwise per warp-row; divided among the threads that share it.
        let (hx, hy) = input.halo;
        let bx = input.config.bx as f64 * vec; // pixels per block row
        let by = input.config.by as f64;
        let threads = input.config.threads() as f64;
        let block_tile = (bx + 2.0 * hx as f64) * (by + 2.0 * hy as f64) * pb;
        let cache_bytes = (input.device.tex_cache_kib * 1024) as f64;
        let per_thread_tile = if block_tile <= cache_bytes {
            block_tile / threads
        } else {
            // Row footprint per warp: one warp covers `simd * vec`
            // consecutive pixels of one row and reads `window_h` rows of
            // that width plus the halo.
            let simd = dev.simd_width as f64;
            let window_h = 2.0 * hy as f64 + 1.0;
            window_h * (simd * vec + 2.0 * hx as f64) * pb / simd
        };
        // Multiple read sites per tap (several accessors) scale the
        // footprint proportionally to distinct reads per window position.
        let window_taps = (2.0 * hx as f64 + 1.0) * (2.0 * hy as f64 + 1.0) * vec;
        let site_factor = (reads / window_taps).max(1.0);
        per_thread_tile * site_factor
    } else {
        match dev.vendor {
            // Pre-Fermi NVIDIA: no data cache, but the unrolled stencil
            // loads of a warp walk consecutive addresses, so DRAM
            // row-buffer locality keeps effective traffic near the unique
            // footprint (x2 for segment overfetch at the tile edges).
            hipacc_hwmodel::Vendor::Nvidia => {
                let (hx, hy) = input.halo;
                let simd = dev.simd_width as f64;
                let window_h = 2.0 * hy as f64 + 1.0;
                let footprint = window_h * (simd * vec + 2.0 * hx as f64) * pb / simd;
                let window_taps = (2.0 * hx as f64 + 1.0) * (2.0 * hy as f64 + 1.0) * vec;
                let site_factor = (reads / window_taps).max(1.0);
                2.0 * footprint * site_factor
            }
            // VLIW-era AMD buffer (UAV) reads do not coalesce across
            // work-items: every read site pays its own transaction share
            // plus a misalignment penalty - the documented reason pre-GCN
            // OpenCL kernels preferred image objects. float4-vectorized
            // kernels issue 128-bit loads, which the memory controller
            // handles at near-footprint efficiency - the second half of
            // the paper's Section-VIII vectorization gain.
            hipacc_hwmodel::Vendor::Amd => {
                if vec >= 4.0 {
                    let (hx, hy) = input.halo;
                    let simd = dev.simd_width as f64;
                    let window_h = 2.0 * hy as f64 + 1.0;
                    let footprint = window_h * (simd * vec + 2.0 * hx as f64) * pb / simd;
                    let window_taps = (2.0 * hx as f64 + 1.0) * (2.0 * hy as f64 + 1.0) * vec;
                    let site_factor = (reads / window_taps).max(1.0);
                    2.0 * footprint * site_factor
                } else {
                    reads * pb * 1.5
                }
            }
        }
    }
}

/// Estimate the execution time of one operator invocation.
pub fn estimate_time(input: &TimingInput) -> TimeBreakdown {
    let dev = &input.device;
    let threads_per_block = input.config.threads() as f64;

    let mut compute_ops = 0.0f64;
    let mut dram_bytes = 0.0f64;
    let mut staging_bytes = 0.0f64;
    let vec = input.vector_width.max(1) as f64;
    for region in &input.regions {
        let threads = region.blocks as f64 * threads_per_block;
        // Region bodies are counted per *pixel*; a vectorized work-item
        // executes the body once per lane.
        let ops = region.ops.scaled(vec);
        let ops = &ops;
        // Weighted compute: ALU + branches at 1, SFU and divides at their
        // device ratios, memory instructions at their issue cost, shared
        // accesses at 1 (full-throughput on-chip), constant broadcasts at 1.
        let per_thread = ops.alu
            + ops.branches
            + ops.sfu * dev.sfu_cost
            + (ops.fdiv + ops.idiv) * dev.div_cost
            + ops.global_loads
            + dev.tex_issue_cost * ops.tex_fetches
            + ops.const_loads
            + ops.shared_loads
            + ops.shared_stores
            + ops.global_stores
            + ops.mem_selects * dev.divergence_cost
            + dev.thread_overhead;
        compute_ops += threads * per_thread;

        let in_bytes = input_bytes_per_thread(input, ops);
        let out_bytes = ops.global_stores * input.pixel_bytes as f64;
        if input.mem == MemClass::Scratchpad {
            staging_bytes += threads * in_bytes;
            dram_bytes += threads * out_bytes;
        } else {
            dram_bytes += threads * (in_bytes + out_bytes);
        }
    }

    let util = utilization(dev, input.occupancy);
    let penalty = if input.opencl {
        dev.opencl_penalty
    } else {
        1.0
    };
    // Vectorized code fills up to `vector_width` VLIW lanes per slot; on
    // scalar-issue NVIDIA parts the factor is 1.
    let vliw = dev.arch.vliw_width() as f64;
    let lane_fill = (input.vector_width.max(1) as f64).min(vliw);
    let throughput = dev.scalar_gops() * lane_fill * 1e9 * util / penalty;
    let compute_ms = compute_ops / throughput * 1e3;

    let bw = dev.mem_bandwidth_gbs * 1e9 * dev.bw_efficiency;
    let memory_ms = dram_bytes / bw * 1e3;
    let staging_ms = staging_bytes / bw * 1e3;

    let launch_ms = dev.launch_overhead_us / 1e3 * input.launches as f64;

    // Compute and streaming memory overlap; staging phases serialize.
    let total_ms = compute_ms.max(memory_ms) + staging_ms + launch_ms;

    TimeBreakdown {
        compute_ms,
        memory_ms,
        staging_ms,
        launch_ms,
        utilization: util,
        total_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_hwmodel::device::{quadro_fx_5800, radeon_hd_5870, tesla_c2050};

    /// A bilateral-like per-thread cost: 169 taps, 1 SFU + ~18 ALU each,
    /// ~2 loads per tap (center hoisted).
    fn bilateral_ops() -> OpCounts {
        OpCounts {
            alu: 169.0 * 18.0,
            sfu: 169.0,
            fdiv: 1.0,
            global_loads: 169.0 * 2.0,
            global_stores: 1.0,
            const_loads: 169.0,
            branches: 182.0,
            ..OpCounts::default()
        }
    }

    fn tesla_input(mem: MemClass, occupancy: f64) -> TimingInput {
        TimingInput {
            device: tesla_c2050(),
            opencl: false,
            config: LaunchConfig { bx: 128, by: 1 },
            occupancy,
            regions: vec![RegionCost {
                blocks: 32 * 4096,
                ops: bilateral_ops(),
            }],
            mem,
            halo: (6, 6),
            pixel_bytes: 4,
            launches: 1,
            vector_width: 1,
        }
    }

    #[test]
    fn bilateral_is_compute_bound_on_fermi() {
        let t = estimate_time(&tesla_input(MemClass::Texture, 0.67));
        assert!(
            t.compute_ms > t.memory_ms * 3.0,
            "compute {} vs memory {}",
            t.compute_ms,
            t.memory_ms
        );
        // Order of magnitude of the paper's ~180 ms.
        assert!(t.total_ms > 40.0 && t.total_ms < 800.0, "{}", t.total_ms);
    }

    #[test]
    fn low_occupancy_stretches_time() {
        let high = estimate_time(&tesla_input(MemClass::Texture, 0.67));
        let low = estimate_time(&tesla_input(MemClass::Texture, 0.10));
        assert!(
            low.total_ms > high.total_ms * 1.5,
            "low {} vs high {}",
            low.total_ms,
            high.total_ms
        );
    }

    #[test]
    fn scratchpad_adds_staging_serially() {
        let smem = estimate_time(&tesla_input(MemClass::Scratchpad, 0.5));
        let tex = estimate_time(&tesla_input(MemClass::Texture, 0.5));
        assert!(smem.staging_ms > 0.0);
        assert_eq!(tex.staging_ms, 0.0);
        assert!(smem.total_ms > tex.total_ms);
    }

    #[test]
    fn uncached_path_pays_more_traffic_on_gt200() {
        let mk = |mem| TimingInput {
            device: quadro_fx_5800(),
            mem,
            ..tesla_input(MemClass::Global, 0.5)
        };
        let global = estimate_time(&mk(MemClass::Global));
        let tex = estimate_time(&mk(MemClass::Texture));
        // Uncached stencil traffic keeps DRAM row locality but still pays
        // roughly the doubled footprint vs the texture cache.
        assert!(
            global.memory_ms > tex.memory_ms * 2.0,
            "global {} vs tex {}",
            global.memory_ms,
            tex.memory_ms
        );
    }

    #[test]
    fn fermi_global_loads_are_cached_by_default() {
        let global = estimate_time(&tesla_input(MemClass::Global, 0.5));
        let tex = estimate_time(&tesla_input(MemClass::Texture, 0.5));
        assert!((global.memory_ms - tex.memory_ms).abs() < 1e-9);
    }

    #[test]
    fn opencl_penalty_applies_to_nvidia_only() {
        let cuda = estimate_time(&tesla_input(MemClass::Texture, 0.5));
        let ocl = estimate_time(&TimingInput {
            opencl: true,
            ..tesla_input(MemClass::Texture, 0.5)
        });
        assert!(ocl.compute_ms > cuda.compute_ms * 1.15);
        // AMD: penalty is 1.0.
        let amd = TimingInput {
            device: radeon_hd_5870(),
            opencl: true,
            config: LaunchConfig { bx: 128, by: 1 },
            ..tesla_input(MemClass::Global, 0.5)
        };
        let amd_t = estimate_time(&amd);
        let amd_native = estimate_time(&TimingInput {
            opencl: false,
            ..amd
        });
        assert!((amd_t.compute_ms - amd_native.compute_ms).abs() < 1e-9);
    }

    #[test]
    fn amd_scalar_code_underuses_vliw() {
        // Same ops, AMD should be slower than its peak suggests by the
        // VLIW width: peak is 1360 Gops but scalar code gets 272.
        let amd5 = TimingInput {
            device: radeon_hd_5870(),
            config: LaunchConfig { bx: 128, by: 1 },
            ..tesla_input(MemClass::Global, 0.8)
        };
        let t = estimate_time(&amd5);
        let b = bilateral_ops();
        let per_thread = b.alu
            + b.branches
            + b.sfu * amd5.device.sfu_cost
            + b.fdiv * amd5.device.div_cost
            + b.global_loads
            + b.const_loads
            + b.global_stores
            + amd5.device.thread_overhead;
        let ops = 32.0 * 4096.0 * 128.0 * per_thread;
        let expected_ms = ops / (272e9 * t.utilization) * 1e3;
        assert!(
            (t.compute_ms - expected_ms).abs() / expected_ms < 0.01,
            "compute {} vs expected {}",
            t.compute_ms,
            expected_ms
        );
    }

    #[test]
    fn launch_overhead_scales_with_launches() {
        let one = estimate_time(&tesla_input(MemClass::Texture, 0.5));
        let two = estimate_time(&TimingInput {
            launches: 2,
            ..tesla_input(MemClass::Texture, 0.5)
        });
        assert!((two.launch_ms - 2.0 * one.launch_ms).abs() < 1e-12);
    }

    #[test]
    fn region_weighting_sums_blocks() {
        // Splitting the same total blocks between two identical regions
        // must not change the estimate.
        let single = estimate_time(&tesla_input(MemClass::Texture, 0.5));
        let mut split = tesla_input(MemClass::Texture, 0.5);
        split.regions = vec![
            RegionCost {
                blocks: 32 * 2048,
                ops: bilateral_ops(),
            },
            RegionCost {
                blocks: 32 * 2048,
                ops: bilateral_ops(),
            },
        ];
        let split_t = estimate_time(&split);
        assert!((split_t.total_ms - single.total_ms).abs() < 1e-9);
    }

    #[test]
    fn taller_tiles_reduce_cached_traffic() {
        let flat = estimate_time(&tesla_input(MemClass::Texture, 0.5));
        let tall = estimate_time(&TimingInput {
            config: LaunchConfig { bx: 32, by: 6 },
            regions: vec![RegionCost {
                blocks: 128 * 683,
                ops: bilateral_ops(),
            }],
            ..tesla_input(MemClass::Texture, 0.5)
        });
        assert!(
            tall.memory_ms < flat.memory_ms,
            "tall {} vs flat {}",
            tall.memory_ms,
            flat.memory_ms
        );
    }
}
