//! # hipacc-sim
//!
//! The GPU substrate of the reproduction: a software model of the graphics
//! cards the paper evaluates on.
//!
//! Two execution engines, the specification they are checked against,
//! and a timing model:
//!
//! * [`interp`] — the **semantic specification**: a functional SIMT
//!   interpreter that executes device-level kernel IR over a grid of
//!   thread blocks, with shared memory, barriers (phase-wise execution),
//!   texture samplers with hardware address modes, constant memory and
//!   per-launch statistics (including out-of-bounds reads, which
//!   reproduce the paper's "crash" table entries for *Undefined*
//!   handling). A direct, sequential tree walk over the IR, easy to
//!   audit. It is not a launch engine — no threads, pools, fault hooks or
//!   profiles — and defines what the engines must compute: outputs,
//!   per-block store order, [`ExecStats`] and error identity.
//!
//! * [`bytecode`] — the **tape compiler and scalar engine**: the same
//!   kernel IR lowered once per launch configuration into a flat
//!   register-machine program (variables become dense register slots,
//!   buffer references
//!   become binding-table indices, launch constants are folded,
//!   block-uniform subexpressions are hoisted into a once-per-block
//!   prologue, and in-range texel reads skip address-mode handling), run one
//!   thread at a time over dynamically typed registers. Semantics —
//!   outputs *and* [`ExecStats`] — are bit-identical to [`interp`] by
//!   construction and by differential test. Also the one owner of the
//!   whole-grid run: block loop, fault hook, execution profile.
//!
//! * [`simd`] — the **default execution engine**: the tape lowered once
//!   more, to a typed two-file warp program (register tags resolved by
//!   inference over the tape, uniform values in a scalar file), and run a
//!   whole block of lanes per instruction while the block's branches are
//!   unanimous, sixteen once they are not. Bit- and stat-identical to the
//!   scalar engine, which stays its oracle and its counted fallback.
//!
//! * [`timing`] — an **analytical timing model** in the spirit of
//!   first-order GPU performance models: per-region operation counts (with
//!   loop-invariant hoisting, as a real backend compiler would apply),
//!   special-function and divide costs, memory-system traffic with
//!   coalescing and cache-footprint reuse, occupancy-based latency hiding,
//!   scratchpad staging costs and kernel launch overhead. The absolute
//!   numbers are calibrated once per device against a single anchor cell
//!   of the paper's tables and then *frozen*; every other cell is a
//!   prediction.
//!
//! [`banks`] statically checks shared-memory accesses for bank conflicts
//! (validating the paper's +1-column pad); [`memory`] holds the simulated
//! device memory (buffers with strides and
//! texture geometry); [`launch`] wires compiled kernels, images and the
//! engines together. [`observer`] attaches a dynamic race and bounds
//! watcher to a run of the specification ([`execute_observed`]) — the
//! runtime cross-check of the static verifier in `hipacc-analysis`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod banks;
pub mod bytecode;
pub mod inject;
pub mod interp;
pub mod launch;
pub mod memory;
pub mod observer;
pub mod pool;
pub mod sched;
pub mod simd;
pub mod timing;
mod warp;

pub use bytecode::{compile, execute as execute_bytecode, CompiledKernel};
pub use inject::{BlockFault, BlockLedger, FaultHook, FaultedRun, RepairStore};
pub use interp::{execute_observed, ExecStats, SimError};
pub use launch::{
    repair_blocks, run_on_image, run_on_image_instrumented, run_on_image_with, Engine,
    LaunchResult, TapeCounters, TapeMemo, TapeRebuild, TapeReport, TapeSource,
};
pub use memory::{DeviceMemory, LaunchParams};
pub use observer::ObserverReport;
pub use pool::WorkerPool;
pub use sched::{BlockProfile, ExecProfile, FallbackCause, GridRun, SimdTelemetry};
pub use timing::{estimate_time, TimeBreakdown, TimingInput};
