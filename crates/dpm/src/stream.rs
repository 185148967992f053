//! Asynchronous copy streams.
//!
//! The paper's GPU-kernel thread retrieves communication requests from device
//! memory with `cudaMemcpyAsync`.  A [`Stream`] models the same facility: an
//! ordered queue of host↔device copies executed by a dedicated copy engine,
//! each paying the device's PCI-e cost, with completion observable through a
//! [`CopyHandle`].

use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use crate::device::Device;
use crate::memory::{DevicePtr, MemoryError};

/// Direction of an asynchronous copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyDirection {
    /// Host to device.
    HostToDevice,
    /// Device to host.
    DeviceToHost,
}

struct CopyResult {
    done: Mutex<Option<Result<Vec<u8>, MemoryError>>>,
    cv: Condvar,
}

/// Handle to an in-flight asynchronous copy.
pub struct CopyHandle {
    result: Arc<CopyResult>,
    direction: CopyDirection,
}

impl CopyHandle {
    /// Block until the copy has executed.  Device-to-host copies return the
    /// copied bytes; host-to-device copies return an empty vector.
    pub fn wait(self) -> Result<Vec<u8>, MemoryError> {
        let mut done = self.result.done.lock();
        while done.is_none() {
            self.result.cv.wait(&mut done);
        }
        done.take().expect("copy result present")
    }

    /// True once the copy has executed.
    pub fn is_done(&self) -> bool {
        self.result.done.lock().is_some()
    }

    /// Direction of the copy.
    pub fn direction(&self) -> CopyDirection {
        self.direction
    }
}

enum CopyJob {
    HtoD {
        dst: DevicePtr,
        data: Vec<u8>,
        result: Arc<CopyResult>,
    },
    DtoH {
        src: DevicePtr,
        len: usize,
        result: Arc<CopyResult>,
    },
    Shutdown,
}

/// An ordered asynchronous copy queue bound to one device.
pub struct Stream {
    tx: Sender<CopyJob>,
    engine: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Stream {
    /// Create a stream (and its copy engine thread) for `device`.
    pub fn new(device: &Arc<Device>) -> Self {
        let (tx, rx) = unbounded::<CopyJob>();
        let dev = Arc::clone(device);
        let engine = std::thread::Builder::new()
            .name(format!("dev{}-copy-engine", dev.id()))
            .spawn(move || {
                dcgn_simtime::sleep::fine_timer_slack();
                Self::engine_loop(dev, rx)
            })
            .expect("failed to spawn copy engine");
        Stream {
            tx,
            engine: Mutex::new(Some(engine)),
        }
    }

    fn engine_loop(device: Arc<Device>, rx: Receiver<CopyJob>) {
        let pcie = device.pcie();
        let memory = device.memory_arc();
        while let Ok(job) = rx.recv() {
            match job {
                CopyJob::Shutdown => break,
                CopyJob::HtoD { dst, data, result } => {
                    pcie.transfer(data.len());
                    let res = memory.write(dst, &data).map(|_| Vec::new());
                    let mut slot = result.done.lock();
                    *slot = Some(res);
                    result.cv.notify_all();
                }
                CopyJob::DtoH { src, len, result } => {
                    pcie.transfer(len);
                    let res = memory.read_vec(src, len);
                    let mut slot = result.done.lock();
                    *slot = Some(res);
                    result.cv.notify_all();
                }
            }
        }
    }

    fn new_result() -> Arc<CopyResult> {
        Arc::new(CopyResult {
            done: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    /// Enqueue an asynchronous host-to-device copy.
    pub fn memcpy_htod_async(&self, dst: DevicePtr, data: Vec<u8>) -> CopyHandle {
        let result = Self::new_result();
        self.tx
            .send(CopyJob::HtoD {
                dst,
                data,
                result: Arc::clone(&result),
            })
            .expect("copy engine is gone");
        CopyHandle {
            result,
            direction: CopyDirection::HostToDevice,
        }
    }

    /// Enqueue an asynchronous device-to-host copy of `len` bytes.
    pub fn memcpy_dtoh_async(&self, src: DevicePtr, len: usize) -> CopyHandle {
        let result = Self::new_result();
        self.tx
            .send(CopyJob::DtoH {
                src,
                len,
                result: Arc::clone(&result),
            })
            .expect("copy engine is gone");
        CopyHandle {
            result,
            direction: CopyDirection::DeviceToHost,
        }
    }

    /// Block until every previously enqueued copy has executed.
    pub fn synchronize(&self) {
        // A zero-length device read acts as a fence because the engine
        // executes jobs in order.
        let fence = self.memcpy_dtoh_async(DevicePtr::NULL, 0);
        let _ = fence.wait();
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        let _ = self.tx.send(CopyJob::Shutdown);
        if let Some(engine) = self.engine.lock().take() {
            let _ = engine.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;

    #[test]
    fn async_roundtrip() {
        let dev = Device::new_default(0);
        let stream = Stream::new(&dev);
        let ptr = dev.malloc(64).unwrap();
        let payload: Vec<u8> = (0..64u8).collect();
        stream
            .memcpy_htod_async(ptr, payload.clone())
            .wait()
            .unwrap();
        let back = stream.memcpy_dtoh_async(ptr, 64).wait().unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn copies_execute_in_order() {
        let dev = Device::new_default(0);
        let stream = Stream::new(&dev);
        let ptr = dev.malloc(4).unwrap();
        // Queue three writes; the last one must win.
        let h1 = stream.memcpy_htod_async(ptr, 1u32.to_le_bytes().to_vec());
        let h2 = stream.memcpy_htod_async(ptr, 2u32.to_le_bytes().to_vec());
        let h3 = stream.memcpy_htod_async(ptr, 3u32.to_le_bytes().to_vec());
        h1.wait().unwrap();
        h2.wait().unwrap();
        h3.wait().unwrap();
        assert_eq!(dev.read_u32(ptr).unwrap(), 3);
    }

    #[test]
    fn synchronize_acts_as_fence() {
        let dev = Device::new_default(0);
        let stream = Stream::new(&dev);
        let ptr = dev.malloc(4).unwrap();
        let _ = stream.memcpy_htod_async(ptr, 7u32.to_le_bytes().to_vec());
        stream.synchronize();
        assert_eq!(dev.read_u32(ptr).unwrap(), 7);
    }

    #[test]
    fn failed_copy_reports_error() {
        let dev = Device::new_default(0);
        let stream = Stream::new(&dev);
        let bad = DevicePtr::NULL.add(dev.memory_capacity());
        let err = stream.memcpy_dtoh_async(bad, 64).wait().unwrap_err();
        assert!(matches!(err, MemoryError::OutOfBounds { .. }));
    }

    #[test]
    fn handle_direction_and_done_flag() {
        let dev = Device::new_default(0);
        let stream = Stream::new(&dev);
        let ptr = dev.malloc(8).unwrap();
        let h = stream.memcpy_htod_async(ptr, vec![0u8; 8]);
        assert_eq!(h.direction(), CopyDirection::HostToDevice);
        h.wait().unwrap();
        let h = stream.memcpy_dtoh_async(ptr, 8);
        assert_eq!(h.direction(), CopyDirection::DeviceToHost);
        let _ = h.wait();
    }
}
