//! `p2p_cpu` / `p2p_gpu`: a seeded ping-pong between two ranks on two
//! nodes, one round trip outstanding at a time.
//!
//! Rank 0 times each round trip; a small op's latency is half of it.  The
//! receiver checks each message byte for byte after it has sent its own
//! part, so checking stays off the timed path.  Rank 0 ends the loop by
//! publishing the index of the last op in a shared atomic before sending
//! that op's ping; rank 1 stops after answering it.  The control channel
//! is the harness's, not the runtime's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dcgn::{CpuCtx, DcgnError, DevicePtr, GpuCtx, GpuSetupCtx, Runtime};

use super::{registry, Phase, Timing, Workload, REQUEST_TIMEOUT};
use crate::schedule::{Dir, P2pOp, Scratch, Stamped, P2P_MAX, SMALL_MAX};
use crate::trace::{Trace, Tracer};

/// The result of one p2p launch.
#[derive(Debug, Default)]
pub struct P2pRun {
    /// The timed phase (rank 0's view, with rank 1's failures).
    pub phase: Phase,
    /// Mean busy fraction of the GPU polling threads (GPU runs only).
    pub gpu_busy_fraction: Option<f64>,
}

/// One side of the ping-pong.
trait Endpoint {
    /// This side's part of round trip `seq`: rank 0 sends the ping and
    /// receives the pong, rank 1 the reverse.
    fn exchange(&mut self, seq: u64, op: P2pOp, tr: &mut Trace) -> dcgn::Result<()>;
    /// Whether the message received in `exchange` was exactly right.
    fn check(&mut self, seq: u64, op: P2pOp) -> bool;
}

/// The two message streams seen from one rank.
struct Streams {
    out: Stamped,
    expect: Stamped,
    pinger: bool,
}

impl Streams {
    fn new(rank: usize) -> Self {
        let (out, expect) = if rank == 0 {
            (Dir::Ping, Dir::Pong)
        } else {
            (Dir::Pong, Dir::Ping)
        };
        Streams {
            out: Stamped::new(out),
            expect: Stamped::new(expect),
            pinger: rank == 0,
        }
    }
}

fn into_recv(done: dcgn::Completion) -> dcgn::Result<Vec<u8>> {
    let (data, _) = done
        .into_recv()
        .ok_or_else(|| DcgnError::Internal("wait on a receive returned a send".into()))?;
    Ok(data)
}

struct CpuEnd<'a> {
    ctx: &'a CpuCtx,
    peer: usize,
    streams: Streams,
    buf: Scratch,
    got: Vec<u8>,
}

impl Endpoint for CpuEnd<'_> {
    fn exchange(&mut self, seq: u64, op: P2pOp, tr: &mut Trace) -> dcgn::Result<()> {
        let (ctx, peer, b) = (self.ctx, self.peer, op.size as u64);
        let msg = self.streams.out.fill(&mut self.buf, seq, op.size);
        self.got = match (self.streams.pinger, op.nonblocking) {
            (true, false) => {
                tr.span("cpu.send", seq, b, || ctx.send(peer, msg))?;
                tr.span("cpu.recv", seq, b, || ctx.recv(peer))?.0
            }
            (true, true) => {
                let r = tr.span("cpu.irecv", seq, b, || ctx.irecv(peer))?;
                let s = tr.span("cpu.isend", seq, b, || ctx.isend(peer, msg))?;
                tr.span("cpu.wait", seq, b, || ctx.wait(s))?;
                into_recv(tr.span("cpu.wait", seq, b, || ctx.wait(r))?)?
            }
            (false, false) => {
                let got = tr.span("cpu.recv", seq, b, || ctx.recv(peer))?.0;
                tr.span("cpu.send", seq, b, || ctx.send(peer, msg))?;
                got
            }
            (false, true) => {
                let r = tr.span("cpu.irecv", seq, b, || ctx.irecv(peer))?;
                let got = into_recv(tr.span("cpu.wait", seq, b, || ctx.wait(r))?)?;
                let s = tr.span("cpu.isend", seq, b, || ctx.isend(peer, msg))?;
                tr.span("cpu.wait", seq, b, || ctx.wait(s))?;
                got
            }
        };
        Ok(())
    }

    fn check(&mut self, seq: u64, op: P2pOp) -> bool {
        self.streams.expect.check(&self.got, seq, op.size)
    }
}

/// Device buffers of one GPU slot: outgoing template and receive area.
struct DeviceBufs {
    send: DevicePtr,
    recv: DevicePtr,
}

struct GpuEnd<'a> {
    ctx: &'a GpuCtx<'a>,
    peer: usize,
    streams: Streams,
    bufs: &'a DeviceBufs,
    got_from: usize,
    got_len: usize,
    got: Scratch,
}

impl Endpoint for GpuEnd<'_> {
    fn exchange(&mut self, seq: u64, op: P2pOp, tr: &mut Trace) -> dcgn::Result<()> {
        let (ctx, peer, b) = (self.ctx, self.peer, op.size as u64);
        let (send, recv) = (self.bufs.send, self.bufs.recv);
        let stamp = self.streams.out.stamp(seq);
        ctx.block().write(send, &stamp[..op.size.min(8)]);
        let st = match (self.streams.pinger, op.nonblocking) {
            (true, false) => {
                tr.span("gpu.send", seq, b, || ctx.send(0, peer, send, op.size));
                tr.span("gpu.recv", seq, b, || ctx.recv(0, peer, recv, P2P_MAX))
            }
            (true, true) => {
                let r = tr.span("gpu.irecv", seq, b, || ctx.irecv(0, peer, recv, P2P_MAX));
                let s = tr.span("gpu.isend", seq, b, || ctx.isend(0, peer, send, op.size));
                tr.span("gpu.wait", seq, b, || ctx.wait(s));
                tr.span("gpu.wait", seq, b, || ctx.wait(r))
            }
            (false, false) => {
                let st = tr.span("gpu.recv", seq, b, || ctx.recv(0, peer, recv, P2P_MAX));
                tr.span("gpu.send", seq, b, || ctx.send(0, peer, send, op.size));
                st
            }
            (false, true) => {
                let r = tr.span("gpu.irecv", seq, b, || ctx.irecv(0, peer, recv, P2P_MAX));
                let st = tr.span("gpu.wait", seq, b, || ctx.wait(r));
                let s = tr.span("gpu.isend", seq, b, || ctx.isend(0, peer, send, op.size));
                tr.span("gpu.wait", seq, b, || ctx.wait(s));
                st
            }
        };
        self.got_from = st.source;
        self.got_len = st.len;
        Ok(())
    }

    fn check(&mut self, seq: u64, op: P2pOp) -> bool {
        let got = &mut self.got[..self.got_len.min(P2P_MAX)];
        self.ctx.block().read(self.bufs.recv, got);
        self.got_from == self.peer && self.streams.expect.check(got, seq, op.size)
    }
}

/// Harness state shared by the two ranks of one launch.
struct Shared {
    schedule: Arc<Vec<P2pOp>>,
    timing: Timing,
    /// Index of the last op, once rank 0 has decided it.
    last_op: AtomicU64,
    /// Failures seen by rank 1.
    peer_failures: Mutex<Phase>,
    result: Mutex<Option<Phase>>,
    tracer: Option<Arc<Tracer>>,
}

fn drive(end: &mut impl Endpoint, rank: usize, sh: &Shared) {
    let mut tr = Trace::on(sh.tracer.as_ref(), format!("rank{rank}"));
    let sched = &sh.schedule;
    if rank != 0 {
        let mut seq = 0u64;
        loop {
            let op = sched[seq as usize % sched.len()];
            let root = tr.begin("op.p2p", seq, op.size as u64);
            let res = end.exchange(seq, op, &mut tr);
            tr.end(root);
            let mut fails = sh.peer_failures.lock().expect("harness lock poisoned");
            match res {
                Err(e) => {
                    fails.fail(format!("rank 1: {e}"));
                    return;
                }
                Ok(()) if !end.check(seq, op) => {
                    fails.fail(format!("rank 1: op {seq}: wrong ping"))
                }
                Ok(()) => {}
            }
            if sh.last_op.load(Ordering::SeqCst) == seq {
                return;
            }
            seq += 1;
        }
    }

    let mut phase = Phase::default();
    let start = Instant::now();
    let mut timed: Option<(Instant, dcgn::MetricsSnapshot)> = None;
    let mut seq = 0u64;
    loop {
        let now = Instant::now();
        if timed.is_none() && now - start >= sh.timing.warmup {
            timed = Some((now, registry()));
        }
        let last = timed
            .as_ref()
            .is_some_and(|(t, _)| now - *t >= sh.timing.measure);
        if last {
            sh.last_op.store(seq, Ordering::SeqCst);
        }
        let op = sched[seq as usize % sched.len()];
        let root = tr.begin("op.p2p", seq, op.size as u64);
        let t0 = Instant::now();
        let res = end.exchange(seq, op, &mut tr);
        let t1 = Instant::now();
        tr.end(root);
        phase.attempted += 1;
        if let Err(e) = res {
            phase.fail(format!("rank 0: {e}"));
            sh.last_op.store(seq, Ordering::SeqCst);
            break;
        }
        if !end.check(seq, op) {
            phase.fail(format!("rank 0: op {seq}: wrong pong"));
        }
        if let (Some((ts, _)), false) = (&timed, last) {
            if op.size <= SMALL_MAX {
                phase.small_us.push((t1 - t0).as_secs_f64() * 1e6 / 2.0);
                phase.small_at.push((t1 - *ts).as_secs_f64());
            }
            phase
                .done
                .push(((t1 - *ts).as_secs_f64(), 2 * op.size as u64));
        }
        if last {
            break;
        }
        seq += 1;
    }
    if let Some((ts, before)) = timed {
        phase.start = Some(ts);
        phase.secs = phase.done.last().map_or(0.0, |&(t, _)| t);
        phase.msgs = 2 * phase.ops();
        phase.delta = registry().delta_since(&before).aggregated();
    }
    *sh.result.lock().expect("harness lock poisoned") = Some(phase);
}

/// Run the ping-pong once on `workload`'s layout (`P2pCpu` or `P2pGpu`).
pub fn run(
    workload: Workload,
    schedule: Arc<Vec<P2pOp>>,
    timing: Timing,
    tracer: Option<&Arc<Tracer>>,
) -> P2pRun {
    let sh = Arc::new(Shared {
        schedule,
        timing,
        last_op: AtomicU64::new(u64::MAX),
        peer_failures: Mutex::new(Phase::default()),
        result: Mutex::new(None),
        tracer: tracer.cloned(),
    });
    let mut out = P2pRun::default();
    let launched = Runtime::new(workload.config()).and_then(|mut rt| {
        rt.set_request_timeout(REQUEST_TIMEOUT);
        let (cpu_sh, gpu_sh) = (Arc::clone(&sh), Arc::clone(&sh));
        rt.launch_with_gpu_setup(
            move |ctx: &CpuCtx| {
                let streams = Streams::new(ctx.rank());
                let mut buf = Scratch::take();
                buf.copy_from_slice(streams.out.template());
                let mut end = CpuEnd {
                    ctx,
                    peer: 1 - ctx.rank(),
                    streams,
                    buf,
                    got: Vec::new(),
                };
                drive(&mut end, ctx.rank(), &cpu_sh);
            },
            |setup: &GpuSetupCtx| {
                // Stage this slot's outgoing template once; each op then
                // writes only its 8-byte stamp.
                let dev = setup.device();
                let rank = setup.slot_rank(0);
                let bufs = DeviceBufs {
                    send: dev.malloc(P2P_MAX).expect("device send buffer"),
                    recv: dev.malloc(P2P_MAX).expect("device receive buffer"),
                };
                dev.memcpy_htod(bufs.send, Streams::new(rank).out.template())
                    .expect("stage template");
                bufs
            },
            move |ctx: &GpuCtx, bufs: &DeviceBufs| {
                if ctx.block().block_id() != 0 {
                    return;
                }
                let rank = ctx.rank(0);
                let mut end = GpuEnd {
                    ctx,
                    peer: 1 - rank,
                    streams: Streams::new(rank),
                    bufs,
                    got_from: 0,
                    got_len: 0,
                    got: Scratch::take(),
                };
                drive(&mut end, rank, &gpu_sh);
            },
            |setup: &GpuSetupCtx, bufs: &DeviceBufs| {
                let _ = setup.device().free(bufs.send);
                let _ = setup.device().free(bufs.recv);
            },
        )
    });
    out.phase = sh
        .result
        .lock()
        .expect("harness lock poisoned")
        .take()
        .unwrap_or_default();
    let peer = std::mem::take(&mut *sh.peer_failures.lock().expect("harness lock poisoned"));
    out.phase.failed += peer.failed;
    out.phase.errors.extend(peer.errors);
    match launched {
        Ok(report) if !report.gpu_poll_stats.is_empty() => {
            let stats = &report.gpu_poll_stats;
            out.gpu_busy_fraction =
                Some(stats.iter().map(|s| s.busy_fraction()).sum::<f64>() / stats.len() as f64);
        }
        Ok(_) => {}
        Err(e) => {
            out.phase.attempted = out.phase.attempted.max(1);
            out.phase.fail(format!("launch: {e}"));
        }
    }
    out
}
