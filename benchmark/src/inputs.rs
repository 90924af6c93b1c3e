//! Seeded input generation. Everything random in a run comes from
//! `--seed` through here; the program under test only ever sees the
//! generated frames, orders and fault plans.

use hipacc_core::FaultPlan;
use hipacc_image::phantom::{vessel_tree, VesselParams};
use hipacc_image::rng::Pcg32;
use hipacc_image::Image;
use std::collections::HashMap;

/// Independent stream of the root seed for one purpose.
fn rng(seed: u64, purpose: u64) -> Pcg32 {
    Pcg32::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ purpose)
}

/// `n` frames of a `size × size` angiography phantom whose vessel
/// geometry and noise follow the seed, each frame drifted by a small
/// seeded sawtooth so no two frames are equal.
pub fn frames(seed: u64, size: u32, n: usize) -> Vec<Image<f32>> {
    let mut r = rng(seed, 1);
    let base = vessel_tree(
        size,
        size,
        &VesselParams {
            seed: r.next_u64(),
            ..VesselParams::default()
        },
    );
    let phase = r.gen_below(17) as usize;
    (0..n)
        .map(|i| {
            let mut img = base.clone();
            for (j, px) in img.raw_mut().iter_mut().enumerate() {
                *px += ((i * 11 + j + phase) % 17) as f32 * 1e-3;
            }
            img
        })
        .collect()
}

/// Fisher–Yates shuffle of `items` in seeded order.
pub fn shuffle<T>(seed: u64, items: &mut [T]) {
    let mut r = rng(seed, 2);
    for i in (1..items.len()).rev() {
        items.swap(i, r.gen_below(i as u32 + 1) as usize);
    }
}

/// One transient fault on every 8th frame of `n_frames`, rotating drop /
/// flip / hang / corrupt-constants. The seed picks the phase of the
/// faulted frames within each group of eight, the target block and every
/// plan's own seed.
pub fn fault_plans(seed: u64, n_frames: usize) -> HashMap<u64, FaultPlan> {
    let mut r = rng(seed, 3);
    let phase = r.gen_below(8) as usize;
    let mut plans = HashMap::new();
    for (k, seq) in (phase..n_frames).step_by(8).enumerate() {
        let block = (r.gen_below(2), r.gen_below(4));
        let s = r.next_u64();
        let plan = match k % 4 {
            0 => FaultPlan::drop_block(s, block),
            1 => FaultPlan::flip_block(s, block, 1 << 22),
            2 => FaultPlan::hang_block(s, block, 10_000),
            _ => FaultPlan::corrupt_constants(s, 2),
        };
        plans.insert(seq as u64, plan);
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = frames(7, 16, 3);
        assert_eq!(a, frames(7, 16, 3));
        assert_ne!(a, frames(8, 16, 3));
        assert_ne!(a[0], a[1], "frames drift");

        let order = |seed| {
            let mut v: Vec<u32> = (0..50).collect();
            shuffle(seed, &mut v);
            v
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut sorted = order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());

        let plans = fault_plans(7, 96);
        assert_eq!(plans, fault_plans(7, 96));
        assert_eq!(plans.len(), 12);
        assert_ne!(plans, fault_plans(8, 96));
    }
}
