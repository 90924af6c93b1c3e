//! # hipacc-core
//!
//! The paper's framework, assembled: the DSL front-end classes (`Image`,
//! `IterationSpace`, `Accessor`, `BoundaryCondition`, `Mask`, `Kernel`) and
//! the pipeline that compiles a kernel for a target device, executes it on
//! the simulated GPU and reports both the functional result and the
//! modelled execution time.
//!
//! A filter author writes (compare Listings 1–3 of the paper):
//!
//! ```
//! use hipacc_core::prelude::*;
//!
//! // Derive a kernel: output() = 0.25 * (N + S + E + W).
//! let mut b = KernelBuilder::new("cross_blur", ScalarType::F32);
//! let input = b.accessor("Input", ScalarType::F32);
//! let sum = b.read(&input, -1, 0) + b.read(&input, 1, 0)
//!     + b.read(&input, 0, -1) + b.read(&input, 0, 1);
//! b.output(Expr::float(0.25) * sum);
//!
//! // Instantiate with access metadata and run on a simulated Tesla C2050.
//! let op = Operator::new(b.finish())
//!     .boundary("Input", BoundaryMode::Clamp, 3, 3);
//! let img = Image::from_fn(64, 64, |x, _| x as f32);
//! let target = Target::cuda(hipacc_hwmodel::device::tesla_c2050());
//! let result = op.execute(&[("Input", &img)], &target).unwrap();
//! assert_eq!(result.output.width(), 64);
//! assert!(result.time.total_ms > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod convolve;
pub mod errors;
pub mod fusion;
pub mod operator;
pub mod pipeline;
pub mod profile;
pub mod reduce;
pub mod supervisor;
pub mod target;

pub use cache::{CacheReport, CacheTally, KernelCache};
pub use errors::{diagnostic_registry, error_chain, explain, CodeInfo, FailureClass};
pub use fusion::{check_chain, fuse_operators, FusionError};
pub use hipacc_faults::{FaultPlan, FaultSession};
pub use hipacc_sim::Engine;
pub use operator::{Execution, Operator, OperatorError, PipelineOptions};
pub use profile::{LaunchProfile, RegionProfile};
pub use supervisor::{
    supervise, RecoveryAction, RecoveryEvent, RecoveryReport, RungOutcome, Supervised,
    SupervisedError, SupervisorConfig,
};
pub use target::Target;

/// Convenience prelude for filter authors and examples.
pub mod prelude {
    pub use crate::convolve::{convolve, Reduce};
    pub use crate::operator::{Execution, Operator, PipelineOptions};
    pub use crate::target::Target;
    pub use hipacc_codegen::MemVariant;
    pub use hipacc_hwmodel::Backend;
    pub use hipacc_image::{BoundaryMode, Image, Rect};
    pub use hipacc_ir::{Expr, KernelBuilder, ScalarType};
}
