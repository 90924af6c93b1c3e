//! The fault-injection seam of the simulator.
//!
//! The tape engines' whole-grid runner
//! ([`CompiledKernel::run_instrumented`](crate::bytecode::CompiledKernel::run_instrumented))
//! exposes three per-launch hook points to an optional [`FaultHook`]:
//!
//! 1. **memory corruption before launch** ([`FaultHook::corrupt_memory`]):
//!    bit flips in the constant banks (dynamically uploaded mask
//!    coefficients and their `_gmask*` global fallbacks), applied to the
//!    bound [`DeviceMemory`] before the first block runs;
//! 2. **a virtual latency per block** ([`FaultHook::block_latency_us`]):
//!    each worker accumulates the virtual cost of its blocks on a virtual
//!    clock (no wall-clock sleeps anywhere); a stalled block adds a
//!    latency spike, a hung block adds [`u64::MAX`]. When the hook sets a
//!    [`FaultHook::deadline_us`], a worker whose virtual clock passes it
//!    **cancels the launch** with [`SimError::DeadlineExceeded`] — the
//!    simulator's model of killing a hung kernel;
//! 3. **a per-block store fault** ([`FaultHook::block_fault`]): after a
//!    block executed, its buffered stores can be dropped wholesale,
//!    bit-flipped, or poisoned with NaN before they are committed to
//!    device memory.
//!
//! Faulted runs keep a [`BlockLedger`] per block: an order-independent
//! checksum of the stores the block *computed* (`expected`) and of the
//! stores that were actually *committed* (`committed`). The two differ
//! exactly when a store fault landed, which is what the launch
//! supervisor's output validation keys on. Because generated kernels
//! write disjoint output cells per block, a mismatched block can be
//! repaired by re-executing only that block (see
//! [`crate::launch::repair_blocks`]).
//!
//! With no hook attached (every plain `run` path) none of this exists:
//! the runner checks the `Option` once per launch and the hot per-thread
//! loops are untouched. The hook-facing code itself — the per-block
//! worker gate and the commit-time store fault with its ledger entry —
//! lives here (`ArmedHook`). The specification in [`crate::interp`] takes
//! no hook: which store a fault lands on follows from the per-block store
//! order, and that is what the engines are checked against it on.

use crate::bytecode::{GlobalBinding, StoreRec};
use crate::interp::SimError;
use crate::memory::DeviceMemory;

/// The store-level fault an injector chose for one block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockFault {
    /// Commit the block's stores unchanged.
    None,
    /// Discard every buffered store of the block (a lost block result).
    Drop,
    /// XOR `mask` into the bit pattern of the `nth % n_stores`-th store
    /// value (single- or multi-bit memory flip, depending on the mask's
    /// population count).
    FlipBits {
        /// Which store to corrupt (taken modulo the block's store count).
        nth: u32,
        /// Bit mask XORed into the value's IEEE-754 representation.
        mask: u32,
    },
    /// Replace every store value with a quiet NaN (poisoned
    /// boundary-region reads propagated to the block's outputs).
    Poison,
}

/// Canonical quiet-NaN bit pattern used by [`BlockFault::Poison`].
pub const POISON_BITS: u32 = 0x7fc0_0000;

/// A fault injector attached to one launch.
///
/// Implementations must be deterministic: decisions may depend only on
/// the hook's own state and the block coordinates, never on timing or
/// worker identity — the engines call [`FaultHook::block_latency_us`]
/// from worker threads (hence `Sync`) but commit store faults on the main
/// thread in linear block order.
pub trait FaultHook: Sync {
    /// Whether any fault can fire this launch. `false` makes the faulted
    /// entry points behave exactly like the plain ones.
    fn enabled(&self) -> bool;

    /// Corrupt launch memory before execution (constant-bank flips).
    fn corrupt_memory(&self, mem: &mut DeviceMemory);

    /// The store fault for block `(bx, by)`; `border` is true for blocks
    /// on the grid rim (where boundary handling runs).
    fn block_fault(&self, bx: u32, by: u32, border: bool) -> BlockFault;

    /// Virtual execution latency of block `(bx, by)` in microseconds.
    /// `u64::MAX` models a hung worker.
    fn block_latency_us(&self, bx: u32, by: u32) -> u64;

    /// Whether the worker executing block `(bx, by)` should **panic**
    /// (a driver abort / firmware assert). Unlike every other fault
    /// class this escapes the launch's result channel: the engines
    /// `panic!` on the worker and rely on the caller's panic isolation.
    /// Defaults to `false` so existing hooks are unaffected.
    fn block_panic(&self, _bx: u32, _by: u32) -> bool {
        false
    }

    /// Virtual launch deadline. A worker whose accumulated virtual time
    /// exceeds it cancels the launch with [`SimError::DeadlineExceeded`].
    ///
    /// [`SimError::DeadlineExceeded`]: crate::interp::SimError::DeadlineExceeded
    fn deadline_us(&self) -> Option<u64>;
}

/// Checksum record for one block of a faulted launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockLedger {
    /// Block index along x.
    pub bx: u32,
    /// Block index along y.
    pub by: u32,
    /// Whether the block sits on the grid rim.
    pub border: bool,
    /// Checksum over the stores the block computed.
    pub expected: u64,
    /// Checksum over the stores actually committed (differs from
    /// `expected` exactly when a store fault landed on this block).
    pub committed: u64,
    /// Virtual latency charged for the block.
    pub virtual_us: u64,
}

impl BlockLedger {
    /// Whether the committed stores match the computed ones.
    pub fn is_clean(&self) -> bool {
        self.expected == self.committed
    }
}

/// The fault-plane view of one faulted launch.
#[derive(Clone, Debug, Default)]
pub struct FaultedRun {
    /// One ledger entry per block, in linear block order.
    pub ledger: Vec<BlockLedger>,
    /// Virtual launch time: the maximum over all workers of the summed
    /// per-block virtual latencies (saturating).
    pub virtual_us: u64,
}

impl FaultedRun {
    /// An empty ledger for `n_blocks` blocks whose virtual launch time is
    /// the slowest worker's clock.
    pub(crate) fn with_clock(n_blocks: usize, worker_vtime: &[u64]) -> Self {
        Self {
            ledger: Vec::with_capacity(n_blocks),
            virtual_us: worker_vtime.iter().copied().max().unwrap_or(0),
        }
    }

    /// Blocks whose committed stores diverge from what they computed.
    pub fn corrupted_blocks(&self) -> Vec<(u32, u32)> {
        self.ledger
            .iter()
            .filter(|l| !l.is_clean())
            .map(|l| (l.bx, l.by))
            .collect()
    }
}

/// An enabled [`FaultHook`] with its deadline resolved once per launch.
///
/// [`Self::attach`] yields `None` for a missing *or disabled* hook, which
/// leaves such a launch byte-for-byte on the plain path. Memory corruption
/// is not applied here: the launch-level entry point owns that ordering
/// (it must land before the bytecode compile captures the constant banks).
#[derive(Clone, Copy)]
pub(crate) struct ArmedHook<'h> {
    hook: &'h dyn FaultHook,
    deadline: Option<u64>,
}

impl<'h> ArmedHook<'h> {
    pub(crate) fn attach(hook: Option<&'h dyn FaultHook>) -> Option<Self> {
        let hook = hook.filter(|h| h.enabled())?;
        Some(Self {
            hook,
            deadline: hook.deadline_us(),
        })
    }

    /// The worker-side gate, run before block `(bx, by)` executes: an
    /// injected panic unwinds from here, the block's virtual latency is
    /// charged to the worker's clock `vtime`, and a clock past the
    /// deadline cancels the launch. Returns the block's latency.
    pub(crate) fn admit(
        &self,
        worker: usize,
        vtime: &mut u64,
        bx: u32,
        by: u32,
    ) -> Result<u64, SimError> {
        if self.hook.block_panic(bx, by) {
            panic!("injected worker panic at block ({bx},{by})");
        }
        let lat = self.hook.block_latency_us(bx, by);
        *vtime = vtime.saturating_add(lat);
        match self.deadline {
            // A hung (or badly stalled) block: the supervisor's deadline
            // cancels the launch.
            Some(d) if *vtime > d => Err(SimError::DeadlineExceeded {
                worker,
                elapsed_us: *vtime,
                deadline_us: d,
            }),
            _ => Ok(lat),
        }
    }

    /// The commit-time step, run on the main thread in linear block
    /// order: checksum the stores the block computed (`globals` resolves
    /// their binding indices to buffer names), apply the hook's store
    /// fault to them in place, checksum what is left and append the
    /// block's ledger entry to `run`. Returns `false` when the stores
    /// were dropped and must not be committed.
    pub(crate) fn commit(
        &self,
        run: &mut FaultedRun,
        (bx, by): (u32, u32),
        grid: (u32, u32),
        virtual_us: u64,
        stores: &mut [StoreRec],
        globals: &[GlobalBinding],
    ) -> bool {
        let border = is_border_block(bx, by, grid);
        let checksum = |stores: &[StoreRec]| {
            stores.iter().fold(0, |acc, s| {
                let name = &globals[s.buf as usize].name;
                combine_hash(acc, store_hash(name, s.idx as usize, s.value))
            })
        };
        let expected = checksum(stores);
        let mut keep = true;
        match self.hook.block_fault(bx, by, border) {
            BlockFault::None => {}
            BlockFault::Drop => keep = false,
            BlockFault::FlipBits { nth, mask } => {
                if !stores.is_empty() {
                    let v = &mut stores[nth as usize % stores.len()].value;
                    *v = f32::from_bits(v.to_bits() ^ mask);
                }
            }
            BlockFault::Poison => {
                for s in stores.iter_mut() {
                    s.value = f32::from_bits(POISON_BITS);
                }
            }
        }
        run.ledger.push(BlockLedger {
            bx,
            by,
            border,
            expected,
            committed: if keep { checksum(stores) } else { 0 },
            virtual_us,
        });
        keep
    }
}

/// A committed (or re-computed) store with its buffer resolved by name —
/// the engine-neutral form used for selective block re-execution.
#[derive(Clone, Debug, PartialEq)]
pub struct RepairStore {
    /// Target buffer name.
    pub buf: String,
    /// Linear element index into the buffer.
    pub idx: usize,
    /// Stored value.
    pub value: f32,
}

/// Hash one store. Mixed with [`combine_hash`] into an order-independent
/// block checksum: a ledger entry depends on the store *set* of a block,
/// not on the order the engine journalled it in.
pub fn store_hash(buf: &str, idx: usize, value: f32) -> u64 {
    // FNV-1a over the buffer name, then a SplitMix64 finalizer over the
    // index and value bits.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in buf.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z =
        h ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((value.to_bits() as u64) << 27);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-independent accumulation of store hashes.
pub fn combine_hash(acc: u64, h: u64) -> u64 {
    acc.wrapping_add(h)
}

/// Whether block `(bx, by)` lies on the rim of a `grid`-sized launch.
pub fn is_border_block(bx: u32, by: u32, grid: (u32, u32)) -> bool {
    bx == 0 || by == 0 || bx + 1 >= grid.0 || by + 1 >= grid.1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_hash_is_order_independent_and_sensitive() {
        let a = store_hash("OUT", 3, 1.5);
        let b = store_hash("OUT", 7, -2.0);
        assert_eq!(
            combine_hash(combine_hash(0, a), b),
            combine_hash(combine_hash(0, b), a)
        );
        assert_ne!(a, store_hash("OUT", 3, 1.5000001));
        assert_ne!(a, store_hash("OUT", 4, 1.5));
        assert_ne!(a, store_hash("AUX", 3, 1.5));
    }

    #[test]
    fn border_classification_covers_the_rim() {
        assert!(is_border_block(0, 2, (4, 4)));
        assert!(is_border_block(3, 2, (4, 4)));
        assert!(is_border_block(2, 0, (4, 4)));
        assert!(is_border_block(2, 3, (4, 4)));
        assert!(!is_border_block(2, 2, (4, 4)));
        // Degenerate 1xN grids are all border.
        assert!(is_border_block(0, 0, (1, 1)));
    }
}
