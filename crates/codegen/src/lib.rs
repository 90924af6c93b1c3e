//! # hipacc-codegen
//!
//! The source-to-source compiler of Section IV: it consumes DSL-level
//! kernel IR plus access/execute metadata and produces device-level IR
//! together with CUDA and OpenCL source text.
//!
//! Pipeline (mirroring the paper):
//!
//! 1. [`options`] — the compile specification: target device, backend,
//!    boundary conditions per accessor, image geometry, variant overrides
//!    (the `+Tex` / `+Mask` / `+Smem` axes of the evaluation tables).
//! 2. Read/write analysis (from `hipacc-ir::access`) infers the window
//!    each accessor reads.
//! 3. [`lower`] — memory-space mapping (texture / scratchpad / constant
//!    memory) and boundary-handling index adjustment per image region.
//! 4. [`regions`] — the nine-region "one big kernel" of Section IV-B.
//! 5. Resource estimation + the Algorithm-2 heuristic (from
//!    `hipacc-hwmodel`) pick the launch configuration; the final kernel is
//!    re-generated with the region thresholds for that tiling, exactly as
//!    the paper describes ("the final kernel code is generated after the
//!    kernel configuration and tiling are determined").
//! 6. [`cuda`] / [`opencl`] — text emission; [`host`] — the host-side
//!    runtime code "to talk to the GPU accelerator"; [`lint`] — a
//!    token-level sanity checker over the emitted text.
//!
//! The [`compile::Compiler`] driver ties the steps together and returns a
//! [`compile::CompiledKernel`] that the simulator can execute and the
//! emitters have rendered.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compile;
pub mod cuda;
pub mod fallback;
pub mod funcmap;
pub mod fuse;
pub mod host;
pub mod index;
pub mod lint;
pub mod lower;
pub mod opencl;
pub mod optimize;
pub mod options;
pub mod regions;

pub use compile::{verify_compiled, CompileError, CompiledKernel, Compiler};
pub use fallback::{fallback_chain, FallbackStep};
pub use options::{BoundarySpec, CompileSpec, MemVariant};
pub use regions::Region;
