//! Kernel execution context: grid/block geometry and device-side memory
//! access for kernel closures.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::memory::{DeviceMemory, DevicePtr};

/// A three-dimensional extent, mirroring CUDA's `dim3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim {
    /// Extent along x.
    pub x: usize,
    /// Extent along y.
    pub y: usize,
    /// Extent along z.
    pub z: usize,
}

impl Dim {
    /// A one-dimensional extent.
    pub const fn d1(x: usize) -> Self {
        Dim { x, y: 1, z: 1 }
    }

    /// A two-dimensional extent.
    pub const fn d2(x: usize, y: usize) -> Self {
        Dim { x, y, z: 1 }
    }

    /// Total number of elements covered by this extent.
    pub const fn total(&self) -> usize {
        self.x * self.y * self.z
    }
}

impl From<usize> for Dim {
    fn from(x: usize) -> Self {
        Dim::d1(x)
    }
}

/// Execution context handed to a kernel closure, once per block.
///
/// A block is modelled as a single thread of control that may iterate over
/// its `block_dim().total()` logical threads with [`BlockCtx::for_each_thread`]
/// or [`BlockCtx::thread_range`].  Device-memory accessors fault (panic) on
/// out-of-bounds access, like a real device would.
pub struct BlockCtx {
    pub(crate) memory: Arc<DeviceMemory>,
    pub(crate) block_id: usize,
    pub(crate) grid_dim: Dim,
    pub(crate) block_dim: Dim,
    pub(crate) device_id: usize,
    pub(crate) shared: Mutex<Vec<u8>>,
}

impl BlockCtx {
    /// Identifier of the device executing this block.
    pub fn device_id(&self) -> usize {
        self.device_id
    }

    /// Linear index of this block within the grid.
    pub fn block_id(&self) -> usize {
        self.block_id
    }

    /// Grid extent of the launch.
    pub fn grid_dim(&self) -> Dim {
        self.grid_dim
    }

    /// Block (thread) extent of the launch.
    pub fn block_dim(&self) -> Dim {
        self.block_dim
    }

    /// Number of logical threads in this block.
    pub fn threads_per_block(&self) -> usize {
        self.block_dim.total()
    }

    /// Run `f` once per logical thread in this block.
    pub fn for_each_thread(&self, mut f: impl FnMut(usize)) {
        for tid in 0..self.threads_per_block() {
            f(tid);
        }
    }

    /// The contiguous slice of `total_items` owned by logical thread `tid`
    /// when work is block-partitioned across the block's threads.
    pub fn thread_range(&self, tid: usize, total_items: usize) -> std::ops::Range<usize> {
        let threads = self.threads_per_block();
        let per = total_items.div_ceil(threads);
        let start = (tid * per).min(total_items);
        let end = ((tid + 1) * per).min(total_items);
        start..end
    }

    /// Block-wide barrier.  Because a block executes as a single thread of
    /// control, this is a scheduling no-op kept for source fidelity with the
    /// CUDA kernels in the paper (`__syncthreads()`).
    pub fn syncthreads(&self) {}

    /// Sleep the block's thread for a fixed 50 µs.  For kernels that poll
    /// at their own pace between nonblocking `test()` calls; the runtime's
    /// own device-side waits use [`BlockCtx::wait_until`], which returns
    /// within microseconds of the awaited change instead of a nap later.
    pub fn nap(&self) {
        std::thread::sleep(Duration::from_micros(50));
    }

    /// Resize this block's shared-memory scratch area and zero it.
    pub fn shared_alloc(&self, bytes: usize) {
        let mut s = self.shared.lock();
        s.clear();
        s.resize(bytes, 0);
    }

    /// Run `f` with mutable access to the block's shared-memory scratch.
    pub fn with_shared<R>(&self, f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        f(&mut self.shared.lock())
    }

    // ---- device global memory access (no PCI-e cost: this is the device) ----

    /// Read `out.len()` bytes from device global memory.
    pub fn read(&self, ptr: DevicePtr, out: &mut [u8]) {
        self.memory
            .read(ptr, out)
            .unwrap_or_else(|e| panic!("device fault in block {}: {e}", self.block_id));
    }

    /// Read `len` bytes from device global memory into a new vector.
    pub fn read_vec(&self, ptr: DevicePtr, len: usize) -> Vec<u8> {
        self.memory
            .read_vec(ptr, len)
            .unwrap_or_else(|e| panic!("device fault in block {}: {e}", self.block_id))
    }

    /// Write bytes to device global memory.
    pub fn write(&self, ptr: DevicePtr, bytes: &[u8]) {
        self.memory
            .write(ptr, bytes)
            .unwrap_or_else(|e| panic!("device fault in block {}: {e}", self.block_id));
    }

    /// Read a little-endian `u32` from device global memory.
    pub fn read_u32(&self, ptr: DevicePtr) -> u32 {
        self.memory
            .read_u32(ptr)
            .unwrap_or_else(|e| panic!("device fault in block {}: {e}", self.block_id))
    }

    /// Write a little-endian `u32` to device global memory.
    pub fn write_u32(&self, ptr: DevicePtr, value: u32) {
        self.memory
            .write_u32(ptr, value)
            .unwrap_or_else(|e| panic!("device fault in block {}: {e}", self.block_id));
    }

    /// Read a little-endian `u64` from device global memory.
    pub fn read_u64(&self, ptr: DevicePtr) -> u64 {
        self.memory
            .read_u64(ptr)
            .unwrap_or_else(|e| panic!("device fault in block {}: {e}", self.block_id))
    }

    /// Write a little-endian `u64` to device global memory.
    pub fn write_u64(&self, ptr: DevicePtr, value: u64) {
        self.memory
            .write_u64(ptr, value)
            .unwrap_or_else(|e| panic!("device fault in block {}: {e}", self.block_id));
    }

    /// Read a vector of `f32` values from device global memory.
    pub fn read_f32_slice(&self, ptr: DevicePtr, count: usize) -> Vec<f32> {
        let bytes = self.read_vec(ptr, count * 4);
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Write a slice of `f32` values to device global memory.
    pub fn write_f32_slice(&self, ptr: DevicePtr, values: &[f32]) {
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write(ptr, &bytes);
    }

    /// Atomic compare-and-swap on a device word; returns the previous value.
    pub fn atomic_cas_u32(&self, ptr: DevicePtr, expected: u32, new: u32) -> u32 {
        self.memory
            .atomic_cas_u32(ptr, expected, new)
            .unwrap_or_else(|e| panic!("device fault in block {}: {e}", self.block_id))
    }

    /// Atomic fetch-add on a device word; returns the previous value.
    pub fn atomic_add_u32(&self, ptr: DevicePtr, delta: u32) -> u32 {
        self.memory
            .atomic_add_u32(ptr, delta)
            .unwrap_or_else(|e| panic!("device fault in block {}: {e}", self.block_id))
    }

    /// Spin until the `u32` at `ptr` equals `value` (a
    /// [`BlockCtx::wait_until`] on that word).
    pub fn wait_for_u32(&self, ptr: DevicePtr, value: u32) {
        self.wait_until(|| self.read_u32(ptr) == value);
    }

    /// Spin until `pred` returns true: the one device-side wait.  `pred` is
    /// tested first, then once after every back-off step, and may have side
    /// effects (a claim loop passes "this compare-and-swap succeeded").
    ///
    /// A real device block busy-waits in silicon at memory speed; modelling
    /// that with a fixed host sleep would quantise every mailbox hand-off to
    /// the sleep length.  Instead the wait yields the OS thread for the
    /// first 128 tests (near-instant wakeups while the host answers quickly)
    /// and only then decays to sleeping, doubling from 2 µs up to 50 µs, so
    /// long waits still leave the simulation host responsive.  The sleeps
    /// are as short as asked only on threads that lowered their timer slack
    /// ([`dcgn_simtime::sleep::fine_timer_slack`]), as every device
    /// multiprocessor worker does.
    pub fn wait_until(&self, mut pred: impl FnMut() -> bool) {
        const SPIN_YIELDS: u32 = 128;
        const MAX_SLEEP: Duration = Duration::from_micros(50);
        let mut polls = 0u32;
        let mut sleep = Duration::from_micros(2);
        while !pred() {
            polls += 1;
            if polls <= SPIN_YIELDS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(sleep);
                sleep = (sleep * 2).min(MAX_SLEEP);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(threads: usize) -> BlockCtx {
        block_on(Arc::new(DeviceMemory::new(1 << 16)), 0, threads)
    }

    fn block_on(memory: Arc<DeviceMemory>, block_id: usize, threads: usize) -> BlockCtx {
        BlockCtx {
            memory,
            block_id,
            grid_dim: Dim::d1(block_id + 1),
            block_dim: Dim::d1(threads),
            device_id: 0,
            shared: Mutex::new(Vec::new()),
        }
    }

    #[test]
    fn wait_until_on_a_true_predicate_tests_it_once() {
        let c = ctx(1);
        let mut tests = 0;
        c.wait_until(|| {
            tests += 1;
            true
        });
        assert_eq!(tests, 1, "no back-off step may run before returning");
    }

    #[test]
    fn wait_until_sees_a_host_flip_after_escalating_to_sleep() {
        let c = ctx(1);
        let flag = c.memory.malloc(4).unwrap();
        let memory = Arc::clone(&c.memory);
        let start = std::time::Instant::now();
        let host = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            memory.write_u32(flag, 1).unwrap();
        });
        let mut tests = 0u32;
        c.wait_until(|| {
            tests += 1;
            c.read_u32(flag) == 1
        });
        let waited = start.elapsed();
        host.join().unwrap();
        assert!(waited >= Duration::from_millis(20));
        // 1 initial test + 128 after yields; anything beyond came after a
        // sleep step ...
        assert!(
            tests > 129,
            "wait never escalated to sleeping ({tests} tests)"
        );
        // ... and every sleep lasts at least as asked (2, 4, ..., 32, then
        // 50 µs), so a wait that kept yielding would test far more often.
        let max_tests = 129 + 5 + waited.as_micros() / 50 + 1;
        assert!(
            u128::from(tests) <= max_tests,
            "{tests} tests in {waited:?}: the wait did not sleep"
        );
    }

    #[test]
    fn wait_until_cas_claim_admits_one_block_at_a_time() {
        const CLAIMS: usize = 300;
        let memory = Arc::new(DeviceMemory::new(1 << 16));
        let word = memory.malloc(4).unwrap();
        let holders = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let blocks: Vec<_> = (0..2)
            .map(|id| {
                let block = block_on(Arc::clone(&memory), id, 1);
                let holders = Arc::clone(&holders);
                std::thread::spawn(move || {
                    for _ in 0..CLAIMS {
                        block.wait_until(|| block.atomic_cas_u32(word, 0, 1) == 0);
                        let inside = holders.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        assert_eq!(inside, 0, "two blocks held the claim at once");
                        std::thread::yield_now();
                        holders.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                        block.write_u32(word, 0);
                    }
                })
            })
            .collect();
        for b in blocks {
            b.join().unwrap();
        }
        assert_eq!(memory.read_u32(word).unwrap(), 0);
    }

    #[test]
    fn dim_totals() {
        assert_eq!(Dim::d1(7).total(), 7);
        assert_eq!(Dim::d2(3, 4).total(), 12);
        assert_eq!(Dim { x: 2, y: 3, z: 4 }.total(), 24);
        let d: Dim = 5usize.into();
        assert_eq!(d, Dim::d1(5));
    }

    #[test]
    fn thread_range_partitions_exactly() {
        let c = ctx(4);
        let total = 10;
        let mut covered = Vec::new();
        for tid in 0..4 {
            covered.extend(c.thread_range(tid, total));
        }
        assert_eq!(covered, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn thread_range_handles_more_threads_than_items() {
        let c = ctx(8);
        let mut covered = Vec::new();
        for tid in 0..8 {
            covered.extend(c.thread_range(tid, 3));
        }
        assert_eq!(covered, vec![0, 1, 2]);
    }

    #[test]
    fn for_each_thread_visits_all() {
        let c = ctx(5);
        let mut seen = Vec::new();
        c.for_each_thread(|t| seen.push(t));
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn f32_slice_roundtrip() {
        let c = ctx(1);
        let ptr = c.memory.malloc(64).unwrap();
        let vals = [1.5f32, -2.25, 3.0, 0.0];
        c.write_f32_slice(ptr, &vals);
        assert_eq!(c.read_f32_slice(ptr, 4), vals.to_vec());
    }

    #[test]
    fn shared_memory_scratch() {
        let c = ctx(1);
        c.shared_alloc(128);
        c.with_shared(|s| {
            assert_eq!(s.len(), 128);
            s[0] = 42;
        });
        c.with_shared(|s| assert_eq!(s[0], 42));
    }

    #[test]
    #[should_panic(expected = "device fault")]
    fn out_of_bounds_device_access_faults() {
        let c = ctx(1);
        c.read_u32(DevicePtr((1 << 16) + 8));
    }
}
