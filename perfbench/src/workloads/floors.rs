//! Layer floors measured from outside DCGN: the p2p schedule on raw
//! `dcgn_rmpi` and host/device copies on a bare `dcgn::Device`, both at
//! zero modelled cost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dcgn::{CostModel, Device, DeviceConfig};
use dcgn_rmpi::{MpiWorld, RankPlacement};

use crate::schedule::{Dir, P2pOp, Scratch, Stamped, BULK_SIZES, SMALL_MAX};
use crate::stats::{median, percentile};

/// What the rmpi floor measured.
#[derive(Debug, Default)]
pub struct RmpiFloor {
    /// Small-message one-way latency p50, µs.
    pub small_p50_us: Option<f64>,
    /// Bulk payload bytes per second of bulk round trips, MB/s.
    pub bulk_mbps: f64,
    /// Wrong or failed messages.
    pub failed: u64,
    /// Round trips run.
    pub attempted: u64,
}

/// Ping-pong `schedule` over two `MpiWorld` ranks on two nodes
/// (`Communicator::send`/`recv`) for `secs`.
pub fn rmpi(schedule: &[P2pOp], secs: f64) -> RmpiFloor {
    let mut comms = MpiWorld::create(&RankPlacement::block(2, 1), CostModel::zero());
    for c in &mut comms {
        c.set_progress_timeout(super::REQUEST_TIMEOUT);
    }
    let mut comms = comms.into_iter();
    let (mut c0, mut c1) = (comms.next().expect("rank 0"), comms.next().expect("rank 1"));
    let last_op = AtomicU64::new(u64::MAX);
    let budget = Duration::from_secs_f64(secs);
    let mut out = RmpiFloor::default();
    std::thread::scope(|s| {
        let pong = s.spawn(|| {
            let (ping, reply) = (Stamped::new(Dir::Ping), Stamped::new(Dir::Pong));
            let mut buf = Scratch::take();
            buf.copy_from_slice(reply.template());
            let mut failed = 0u64;
            for seq in 0u64.. {
                let op = schedule[seq as usize % schedule.len()];
                let Ok((got, _)) = c1.recv(Some(0), Some(0)) else {
                    return failed + 1;
                };
                if c1.send(0, 0, reply.fill(&mut buf, seq, op.size)).is_err() {
                    return failed + 1;
                }
                failed += u64::from(!ping.check(got.as_slice(), seq, op.size));
                if last_op.load(Ordering::SeqCst) == seq {
                    break;
                }
            }
            failed
        });
        let (ping, reply) = (Stamped::new(Dir::Ping), Stamped::new(Dir::Pong));
        let mut buf = Scratch::take();
        buf.copy_from_slice(ping.template());
        let mut small = Vec::new();
        let (mut bulk_bytes, mut bulk_secs) = (0u64, 0f64);
        let start = Instant::now();
        for seq in 0u64.. {
            let last = start.elapsed() >= budget;
            if last {
                last_op.store(seq, Ordering::SeqCst);
            }
            let op = schedule[seq as usize % schedule.len()];
            out.attempted += 1;
            let t0 = Instant::now();
            let sent = c0.send(1, 0, ping.fill(&mut buf, seq, op.size));
            let got = sent.and_then(|()| c0.recv(Some(1), Some(0)));
            let rtt = t0.elapsed().as_secs_f64();
            match got {
                Err(_) => {
                    out.failed += 1;
                    last_op.store(seq, Ordering::SeqCst);
                    break;
                }
                Ok((data, _)) => {
                    out.failed += u64::from(!reply.check(data.as_slice(), seq, op.size))
                }
            }
            if op.size <= SMALL_MAX {
                small.push(rtt * 1e6 / 2.0);
            } else {
                bulk_bytes += 2 * op.size as u64;
                bulk_secs += rtt;
            }
            if last {
                break;
            }
        }
        out.failed += pong.join().unwrap_or(1);
        out.small_p50_us = percentile(&small, 0.5);
        out.bulk_mbps = if bulk_secs > 0.0 {
            bulk_bytes as f64 / bulk_secs / 1e6
        } else {
            0.0
        };
    });
    out
}

/// Host→device plus device→host copy rate at the bulk sizes, MB/s: the
/// median over rounds of one copy each way per size, run for `secs`.
pub fn memcpy(secs: f64) -> f64 {
    let largest = BULK_SIZES[BULK_SIZES.len() - 1];
    let dev = Device::new(0, DeviceConfig::default(), CostModel::zero());
    let ptr = dev.malloc(largest).expect("device buffer");
    let host = vec![0xA5u8; largest];
    let mut back = vec![0u8; largest];
    let mut rates = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < secs || rates.is_empty() {
        let t0 = Instant::now();
        let mut bytes = 0;
        for size in BULK_SIZES {
            dev.memcpy_htod(ptr, &host[..size]).expect("htod copy");
            dev.memcpy_dtoh(&mut back[..size], ptr).expect("dtoh copy");
            bytes += 2 * size;
        }
        rates.push(bytes as f64 / t0.elapsed().as_secs_f64() / 1e6);
        std::hint::black_box(&back);
    }
    let _ = dev.free(ptr);
    median(&rates).unwrap_or(0.0)
}
