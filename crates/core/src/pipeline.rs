//! Bridges between the compiler's output and the simulator's inputs.
//!
//! `hipacc-codegen` and `hipacc-sim` are deliberately independent (the
//! emitters don't know about simulation; the simulator doesn't know about
//! compilation). This module converts a [`CompiledKernel`] into the
//! simulator's launch spec and the timing model's input.

use crate::target::Target;
use hipacc_codegen::lower::MemPath;
use hipacc_codegen::CompiledKernel;
use hipacc_image::Image;
use hipacc_ir::metrics::{count_ops_licm, CountConfig};
use hipacc_ir::ty::Const;
use hipacc_sim::launch::LaunchSpec;
use hipacc_sim::timing::{MemClass, RegionCost, TimingInput};
use std::collections::HashMap;
use std::sync::Arc;

/// Build the simulator launch spec for a compiled kernel.
///
/// The filter parameters and mask coefficients are *shared* into the
/// spec (`Arc::clone`), never deep-cloned: building a spec per frame in
/// a streaming loop allocates nothing proportional to mask size. The
/// per-launch `scalars` overlay carries only the iteration-space
/// geometry and shadows `params` by name.
pub fn launch_spec<'a>(
    compiled: &CompiledKernel,
    inputs: &[(&str, &'a Image<f32>)],
    params: &Arc<HashMap<String, Const>>,
    mask_data: &Arc<HashMap<String, Vec<f32>>>,
) -> LaunchSpec<'a> {
    let mut spec = LaunchSpec {
        grid: compiled.grid,
        block: (compiled.config.bx, compiled.config.by),
        inputs: HashMap::new(),
        mask_data: Arc::clone(mask_data),
        params: Arc::clone(params),
        scalars: HashMap::with_capacity(4),
        sim_threads: None,
        pool: None,
    };
    for (name, img) in inputs {
        spec.inputs.insert((*name).to_string(), img);
    }
    // Iteration-space scalars come from the compiled kernel, so ROIs
    // survive the trip through the simulator.
    let (ox, oy, w, h) = compiled.iteration_space;
    spec.scalars
        .insert("is_offset_x".into(), Const::Int(ox as i64));
    spec.scalars
        .insert("is_offset_y".into(), Const::Int(oy as i64));
    spec.scalars.insert("is_width".into(), Const::Int(w as i64));
    spec.scalars
        .insert("is_height".into(), Const::Int(h as i64));
    spec
}

/// Translate the compiler's memory path into the timing model's class.
pub fn mem_class(path: MemPath) -> MemClass {
    match path {
        MemPath::Global => MemClass::Global,
        MemPath::TexLinear | MemPath::TexXy | MemPath::TexHw => MemClass::Texture,
        MemPath::Scratchpad => MemClass::Scratchpad,
    }
}

/// Assemble the timing-model input for a compiled kernel. `params` feeds
/// loop trip counts; `launches` covers multi-pass operators.
pub fn timing_input(
    compiled: &CompiledKernel,
    target: &Target,
    params: &HashMap<String, Const>,
    launches: u32,
) -> TimingInput {
    timing_input_opts(compiled, target, params, launches, false)
}

/// Like [`timing_input`], optionally counting operations without the
/// LICM/CSE model (`naive` — how a simple JIT like RapidMind's compiles).
pub fn timing_input_opts(
    compiled: &CompiledKernel,
    target: &Target,
    params: &HashMap<String, Const>,
    launches: u32,
    naive: bool,
) -> TimingInput {
    let cfg = CountConfig::default();
    // Block counts per region: from the region grid when border-specialized
    // code was generated, otherwise every block runs the single body.
    let total_blocks = compiled.grid.0 as u64 * compiled.grid.1 as u64;
    let block_counts: HashMap<hipacc_codegen::Region, u64> = match &compiled.region_grid {
        Some(g) => g.block_counts().into_iter().collect(),
        None => {
            let mut m = HashMap::new();
            m.insert(hipacc_codegen::Region::Interior, total_blocks);
            m
        }
    };
    // Only regions that have blocks are counted: at small sizes most of
    // the nine region bodies have none.
    let regions: Vec<RegionCost> = compiled
        .region_bodies
        .iter()
        .filter_map(|(region, body)| {
            let blocks = block_counts.get(region).copied().unwrap_or(0);
            (blocks > 0).then(|| RegionCost {
                blocks,
                ops: if naive {
                    hipacc_ir::metrics::count_ops(body, &cfg, params)
                } else {
                    count_ops_licm(body, &cfg, params)
                },
            })
        })
        .collect();

    TimingInput {
        device: target.device.clone(),
        opencl: target.backend == hipacc_hwmodel::Backend::OpenCl,
        config: compiled.config,
        occupancy: compiled.occupancy.map(|o| o.occupancy).unwrap_or(0.1),
        regions,
        mem: mem_class(compiled.mem_path),
        halo: compiled.max_half,
        pixel_bytes: 4,
        launches,
        vector_width: compiled.vector_width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_codegen::{BoundarySpec, CompileSpec, Compiler};
    use hipacc_hwmodel::device::tesla_c2050;
    use hipacc_hwmodel::Backend;
    use hipacc_image::BoundaryMode;
    use hipacc_ir::{Expr, KernelBuilder, ScalarType};

    fn compiled() -> CompiledKernel {
        let mut b = KernelBuilder::new("blur", ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        let acc = b.let_("acc", ScalarType::F32, Expr::float(0.0));
        b.for_inclusive("xf", Expr::int(-1), Expr::int(1), |b, xf| {
            b.add_assign(&acc, b.read_at(&input, xf.get(), Expr::int(0)));
        });
        b.output(acc.get() / Expr::float(3.0));
        let spec = CompileSpec::new(tesla_c2050(), Backend::Cuda, 256, 256)
            .with_boundary("IN", BoundarySpec::new(BoundaryMode::Clamp, 3, 1));
        Compiler::new().compile(&b.finish(), &spec).unwrap()
    }

    #[test]
    fn timing_input_blocks_sum_to_grid() {
        let c = compiled();
        let t = timing_input(&c, &Target::cuda(tesla_c2050()), &HashMap::new(), 1);
        let total: u64 = t.regions.iter().map(|r| r.blocks).sum();
        assert_eq!(total, c.grid.0 as u64 * c.grid.1 as u64);
        assert!(t.occupancy > 0.0);
        assert_eq!(t.halo, (1, 0));
    }

    #[test]
    fn border_regions_cost_more_than_interior() {
        let c = compiled();
        let t = timing_input(&c, &Target::cuda(tesla_c2050()), &HashMap::new(), 1);
        // Find interior (largest block count) and compare to any border
        // region's per-thread ops.
        let interior = t.regions.iter().max_by_key(|r| r.blocks).unwrap();
        let border = t.regions.iter().min_by_key(|r| r.blocks).unwrap();
        assert!(
            border.ops.alu >= interior.ops.alu,
            "border body must carry the extra clamp ops"
        );
    }
}
