//! Simulated device memory.
//!
//! All buffers hold `f32` elements — the pixel format of every experiment
//! in the paper. Integer pixel formats are widened by the runtime before
//! upload, which preserves functional behaviour (the DSL's arithmetic is
//! float) at the cost of modelling a slightly larger memory footprint for
//! `u8`/`u16` images; the timing model accounts bytes from the declared
//! pixel type instead.

use hipacc_ir::kernel::AddressMode;
use hipacc_ir::ty::Const;
use std::collections::HashMap;

/// Geometry of a 2-D buffer (for texture sampling and bounds accounting).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BufferGeometry {
    /// Logical width in elements.
    pub width: u32,
    /// Height in rows.
    pub height: u32,
    /// Row pitch in elements.
    pub stride: u32,
}

impl BufferGeometry {
    /// Total allocation size in elements.
    pub fn len(&self) -> usize {
        self.stride as usize * self.height as usize
    }

    /// Whether the geometry covers zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One simulated device allocation.
#[derive(Clone, Debug)]
pub struct DeviceBuffer {
    /// Element storage (row-major with stride padding).
    pub data: Vec<f32>,
    /// Geometry.
    pub geom: BufferGeometry,
}

impl DeviceBuffer {
    /// Allocate a zeroed buffer.
    pub fn new(geom: BufferGeometry) -> Self {
        Self {
            data: vec![0.0; geom.len()],
            geom,
        }
    }

    /// Upload from a strided host image (`hipacc-image` raw layout).
    pub fn from_image(img: &hipacc_image::Image<f32>) -> Self {
        Self {
            data: img.raw().to_vec(),
            geom: BufferGeometry {
                width: img.width(),
                height: img.height(),
                stride: img.stride(),
            },
        }
    }

    /// Download into a host image of the same geometry.
    pub fn to_image(&self) -> hipacc_image::Image<f32> {
        let mut img = hipacc_image::Image::new(self.geom.width, self.geom.height);
        assert_eq!(
            img.stride(),
            self.geom.stride,
            "stride mismatch on download"
        );
        img.raw_mut().copy_from_slice(&self.data);
        img
    }
}

/// The full device memory for one launch.
#[derive(Clone, Debug, Default)]
pub struct DeviceMemory {
    buffers: HashMap<String, DeviceBuffer>,
    /// Per-texture hardware address mode (copied from the kernel's buffer
    /// params at launch).
    pub tex_modes: HashMap<String, AddressMode>,
    /// Dynamically initialized constant buffers (name -> coefficients).
    pub dynamic_const: HashMap<String, Vec<f32>>,
}

impl DeviceMemory {
    /// Empty device memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a buffer under a name.
    pub fn bind(&mut self, name: impl Into<String>, buf: DeviceBuffer) {
        self.buffers.insert(name.into(), buf);
    }

    /// Bind an image.
    pub fn bind_image(&mut self, name: impl Into<String>, img: &hipacc_image::Image<f32>) {
        self.bind(name, DeviceBuffer::from_image(img));
    }

    /// Look up a buffer.
    pub fn buffer(&self, name: &str) -> Option<&DeviceBuffer> {
        self.buffers.get(name)
    }

    /// Look up a buffer mutably.
    pub fn buffer_mut(&mut self, name: &str) -> Option<&mut DeviceBuffer> {
        self.buffers.get_mut(name)
    }

    /// Names of all bound buffers.
    pub fn buffer_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.buffers.keys().cloned().collect();
        names.sort();
        names
    }
}

/// Launch-time parameters: grid/block shape and scalar arguments.
#[derive(Clone, Debug)]
pub struct LaunchParams {
    /// Grid dimensions in blocks.
    pub grid: (u32, u32),
    /// Block dimensions in threads.
    pub block: (u32, u32),
    /// Scalar kernel arguments by parameter name.
    pub scalars: HashMap<String, Const>,
    /// Explicit host worker-thread count for the parallel block loop.
    /// `None` falls back to the pool's width, then to the machine's
    /// available parallelism (see [`crate::sched::effective_workers_pooled`]).
    pub sim_threads: Option<usize>,
    /// Shared worker pool for the block loop. `None` spawns per-launch
    /// scoped threads (the historical behaviour); `Some` multiplexes
    /// this launch's block work onto the pool's persistent threads so
    /// concurrent launches share one set of workers
    /// (see [`crate::pool::WorkerPool`]).
    pub pool: Option<std::sync::Arc<crate::pool::WorkerPool>>,
}

impl LaunchParams {
    /// Create launch parameters.
    pub fn new(grid: (u32, u32), block: (u32, u32)) -> Self {
        Self {
            grid,
            block,
            scalars: HashMap::new(),
            sim_threads: None,
            pool: None,
        }
    }

    /// Set an integer scalar argument.
    pub fn set_int(&mut self, name: &str, v: i64) -> &mut Self {
        self.scalars.insert(name.to_string(), Const::Int(v));
        self
    }

    /// Set a float scalar argument.
    pub fn set_float(&mut self, name: &str, v: f32) -> &mut Self {
        self.scalars.insert(name.to_string(), Const::Float(v));
        self
    }

    /// Total threads launched.
    pub fn total_threads(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64 * self.block.0 as u64 * self.block.1 as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_image::Image;

    #[test]
    fn image_roundtrip_through_device_buffer() {
        let img = Image::from_fn(100, 7, |x, y| (x + 100 * y) as f32);
        let buf = DeviceBuffer::from_image(&img);
        assert_eq!(buf.geom.width, 100);
        assert_eq!(buf.geom.stride, 128); // padded
        let back = buf.to_image();
        assert_eq!(back.max_abs_diff(&img), 0.0);
    }

    #[test]
    fn device_memory_binding() {
        let mut mem = DeviceMemory::new();
        let img = Image::from_fn(16, 16, |x, _| x as f32);
        mem.bind_image("IN", &img);
        mem.bind(
            "OUT",
            DeviceBuffer::new(BufferGeometry {
                width: 16,
                height: 16,
                stride: 64,
            }),
        );
        assert!(mem.buffer("IN").is_some());
        assert_eq!(mem.buffer("OUT").unwrap().data.len(), 64 * 16);
        assert_eq!(mem.buffer_names(), vec!["IN".to_string(), "OUT".into()]);
    }

    #[test]
    fn launch_params_scalars() {
        let mut p = LaunchParams::new((32, 32), (128, 1));
        p.set_int("width", 4096).set_float("sigma", 0.5);
        assert_eq!(p.scalars["width"], Const::Int(4096));
        assert_eq!(p.total_threads(), 32 * 32 * 128);
    }
}
