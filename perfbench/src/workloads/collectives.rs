//! `collectives`: six CPU ranks run a seeded mix of barrier, broadcast,
//! allreduce and allgather over the world or their own parity subgroup.
//!
//! Ops run in batches of [`BATCH`].  After each batch rank 0 publishes
//! whether to keep warming up, time, or stop, and every rank reads that
//! decision after a world barrier, so all ranks run the same ops.  Results
//! are checked against their closed forms.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dcgn::{Comm, CpuCtx, ReduceOp, Runtime};

use super::{registry, Phase, Timing, Workload, REQUEST_TIMEOUT};
use crate::schedule::{
    allreduce_expected, allreduce_input, block_bytes, CollectiveKind, CollectiveOp, SMALL_MAX,
};
use crate::trace::{Trace, Tracer};

/// Ops between two control barriers.
pub const BATCH: usize = 64;

/// Ranks in the world.
const RANKS: usize = 6;

const WARMUP: u8 = 0;
const TIMED: u8 = 1;
const STOP: u8 = 2;

struct Shared {
    schedule: Arc<Vec<CollectiveOp>>,
    timing: Timing,
    state: AtomicU8,
    failures: Mutex<Phase>,
    result: Mutex<Option<Phase>>,
    tracer: Option<Arc<Tracer>>,
}

/// Run `op` (the `seq`-th) on `comm`: the call's duration and whether the
/// result matched its closed form.
fn run_op(
    ctx: &CpuCtx,
    comm: &Comm,
    op: CollectiveOp,
    seq: u64,
    tr: &mut Trace,
) -> dcgn::Result<(Duration, bool)> {
    let (me, m) = (comm.rank(), comm.size());
    let b = op.size as u64;
    let timed = |tr: &mut Trace, f: &mut dyn FnMut() -> dcgn::Result<()>| {
        let t0 = Instant::now();
        tr.span(op.kind.span(), seq, b, f)?;
        Ok::<_, dcgn::DcgnError>(t0.elapsed())
    };
    Ok(match op.kind {
        CollectiveKind::Barrier => (timed(tr, &mut || ctx.barrier_in(comm))?, true),
        CollectiveKind::Broadcast => {
            let root = op.root % m;
            let expect = block_bytes(root, seq, op.size);
            let mut buf = if me == root {
                expect.clone()
            } else {
                Vec::new()
            };
            let d = timed(tr, &mut || ctx.broadcast_in(comm, root, &mut buf))?;
            (d, buf == expect)
        }
        CollectiveKind::Allreduce => {
            let count = op.size / 8;
            let input = allreduce_input(me, seq, count);
            let mut out = Vec::new();
            let d = timed(tr, &mut || {
                out = ctx.allreduce_in(comm, &input, ReduceOp::Sum)?;
                Ok(())
            })?;
            (d, out == allreduce_expected(m, seq, count))
        }
        CollectiveKind::Allgather => {
            let mine = block_bytes(me, seq, op.size);
            let mut out = Vec::new();
            let d = timed(tr, &mut || {
                out = ctx.allgather_in(comm, &mine)?;
                Ok(())
            })?;
            let ok = out.len() == m
                && out
                    .iter()
                    .enumerate()
                    .all(|(r, got)| *got == block_bytes(r, seq, op.size));
            (d, ok)
        }
    })
}

/// Result bytes delivered to all six ranks by one op (both subgroups run a
/// subgroup op).
fn result_bytes(op: CollectiveOp) -> u64 {
    let m = if op.world { RANKS } else { RANKS / 2 };
    let per_rank = match op.kind {
        CollectiveKind::Barrier => 0,
        CollectiveKind::Broadcast | CollectiveKind::Allreduce => op.size,
        CollectiveKind::Allgather => op.size * m,
    };
    (RANKS * per_rank) as u64
}

fn rank_main(ctx: &CpuCtx, sh: &Shared) {
    let rank = ctx.rank();
    let mut tr = Trace::on(sh.tracer.as_ref(), format!("rank{rank}"));
    let mut phase = Phase::default();
    let world = ctx.world_comm();
    let sub = match tr.span("cpu.comm_split", u64::MAX, 0, || {
        ctx.comm_split((rank % 2) as u32, rank as u32)
    }) {
        Ok(sub) => sub,
        Err(e) => {
            sh.failures
                .lock()
                .expect("harness lock poisoned")
                .fail(format!("rank {rank}: comm_split: {e}"));
            return;
        }
    };
    let start = Instant::now();
    let mut timed: Option<(Instant, dcgn::MetricsSnapshot)> = None;
    let mut seq = 0u64;
    let mut failed = false;
    'run: loop {
        for _ in 0..BATCH {
            let op = sh.schedule[seq as usize % sh.schedule.len()];
            let comm = if op.world { &world } else { &sub };
            let root = tr.begin("op.collective", seq, op.size as u64);
            let res = run_op(ctx, comm, op, seq, &mut tr);
            tr.end(root);
            phase.attempted += 1;
            match res {
                Err(e) => {
                    phase.fail(format!("rank {rank}: op {seq} {:?}: {e}", op.kind));
                    failed = true;
                    break 'run;
                }
                Ok((_, false)) => {
                    phase.fail(format!("rank {rank}: op {seq} {:?}: wrong result", op.kind))
                }
                Ok((d, true)) => {
                    if let Some((ts, _)) = &timed {
                        if op.size <= SMALL_MAX {
                            phase.small_us.push(d.as_secs_f64() * 1e6);
                            phase.small_at.push(ts.elapsed().as_secs_f64());
                        }
                        phase
                            .done
                            .push((ts.elapsed().as_secs_f64(), result_bytes(op)));
                    }
                }
            }
            seq += 1;
        }
        if rank == 0 {
            let next = match &timed {
                None if start.elapsed() >= sh.timing.warmup => TIMED,
                None => WARMUP,
                Some((ts, _)) if ts.elapsed() >= sh.timing.measure => STOP,
                Some(_) => TIMED,
            };
            sh.state.store(next, Ordering::SeqCst);
        }
        if let Err(e) = ctx.barrier() {
            phase.fail(format!("rank {rank}: control barrier: {e}"));
            failed = true;
            break;
        }
        match sh.state.load(Ordering::SeqCst) {
            STOP => break,
            TIMED if timed.is_none() => timed = Some((Instant::now(), registry())),
            _ => {}
        }
    }
    if rank == 0 && !failed {
        if let Some((ts, before)) = timed {
            phase.start = Some(ts);
            phase.secs = phase.done.last().map_or(0.0, |&(t, _)| t);
            phase.msgs = phase.ops();
            phase.collectives = phase.ops();
            phase.delta = registry().delta_since(&before).aggregated();
        }
        *sh.result.lock().expect("harness lock poisoned") = Some(phase);
    } else {
        let mut fails = sh.failures.lock().expect("harness lock poisoned");
        fails.failed += phase.failed;
        fails.errors.extend(phase.errors);
    }
}

/// Run the collective mix once.
pub fn run(
    schedule: Arc<Vec<CollectiveOp>>,
    timing: Timing,
    tracer: Option<&Arc<Tracer>>,
) -> Phase {
    let sh = Arc::new(Shared {
        schedule,
        timing,
        state: AtomicU8::new(WARMUP),
        failures: Mutex::new(Phase::default()),
        result: Mutex::new(None),
        tracer: tracer.cloned(),
    });
    let rank_sh = Arc::clone(&sh);
    let launched = Runtime::new(Workload::Collectives.config()).and_then(|mut rt| {
        rt.set_request_timeout(REQUEST_TIMEOUT);
        rt.launch_cpu_only(move |ctx| rank_main(ctx, &rank_sh))
    });
    let mut phase = sh
        .result
        .lock()
        .expect("harness lock poisoned")
        .take()
        .unwrap_or_default();
    let others = std::mem::take(&mut *sh.failures.lock().expect("harness lock poisoned"));
    phase.failed += others.failed;
    phase.errors.extend(others.errors);
    if let Err(e) = launched {
        phase.attempted = phase.attempted.max(1);
        phase.fail(format!("launch: {e}"));
    }
    if phase.failed > 0 && phase.attempted == 0 {
        phase.attempted = phase.failed;
    }
    phase
}
