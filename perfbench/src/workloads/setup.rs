//! Set-up launches: `Runtime::new` until the first `barrier` has returned
//! on every rank, then teardown, repeated on the workload's layout.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dcgn::{CpuCtx, GpuCtx, Runtime};

use super::{Phase, Workload, REQUEST_TIMEOUT};
use crate::trace::{Trace, Tracer};

/// Set-up launches per run; `setup_s` is their median.
pub const SETUP_LAUNCHES: usize = 200;

/// What the set-up launches measured.
#[derive(Debug, Default)]
pub struct SetupStats {
    /// Set-up time per launch, s.
    pub setup_s: Vec<f64>,
    /// `Runtime::new`, µs per launch.
    pub new_us: Vec<f64>,
    /// `launch` start until the first barrier returned on every rank, µs.
    pub first_barrier_us: Vec<f64>,
    /// Last kernel return until `launch` returned, µs.
    pub teardown_us: Vec<f64>,
    /// Failure accounting (one op per launch).
    pub phase: Phase,
}

/// Latest event times of one launch, ns after its start.
struct Marks {
    start: Instant,
    barrier_ns: AtomicU64,
    done_ns: AtomicU64,
    passed: AtomicUsize,
}

impl Marks {
    fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// Run `launches` set-up launches of `workload`'s layout.  Collective
/// layouts also split the world by rank parity after the barrier, which
/// gives the `cpu.comm_split` spans of a traced run.
pub fn run(workload: Workload, launches: usize, tracer: Option<&Arc<Tracer>>) -> SetupStats {
    let mut stats = SetupStats::default();
    let mut tr = Trace::on(tracer, "setup");
    let split = workload == Workload::Collectives;
    for k in 0..launches as u64 {
        stats.phase.attempted += 1;
        let root = tr.begin("launch.setup", k, 0);
        let start = Instant::now();
        let runtime = Runtime::new(workload.config());
        let built = Instant::now();
        let mut runtime = match runtime {
            Ok(rt) => rt,
            Err(e) => {
                stats
                    .phase
                    .fail(format!("setup launch {k}: Runtime::new: {e}"));
                tr.end(root);
                continue;
            }
        };
        runtime.set_request_timeout(REQUEST_TIMEOUT);
        let marks = Arc::new(Marks {
            start,
            barrier_ns: AtomicU64::new(0),
            done_ns: AtomicU64::new(0),
            passed: AtomicUsize::new(0),
        });
        let (cpu_marks, gpu_marks) = (Arc::clone(&marks), Arc::clone(&marks));
        let rank_tracer = tracer.cloned();
        let cpu = move |ctx: &CpuCtx| {
            if ctx.barrier().is_ok() {
                cpu_marks
                    .barrier_ns
                    .fetch_max(cpu_marks.now(), Ordering::SeqCst);
                let mut t = Trace::on(rank_tracer.as_ref(), format!("setup rank{}", ctx.rank()));
                let rank = ctx.rank() as u32;
                let split_ok = !split
                    || t.span("cpu.comm_split", k, 0, || ctx.comm_split(rank % 2, rank))
                        .is_ok_and(|sub| sub.size() == 3);
                cpu_marks
                    .passed
                    .fetch_add(usize::from(split_ok), Ordering::SeqCst);
            }
            cpu_marks
                .done_ns
                .fetch_max(cpu_marks.now(), Ordering::SeqCst);
        };
        let gpu = move |ctx: &GpuCtx| {
            if ctx.block().block_id() >= ctx.slots() {
                return;
            }
            ctx.barrier(ctx.slot_for_block());
            gpu_marks
                .barrier_ns
                .fetch_max(gpu_marks.now(), Ordering::SeqCst);
            gpu_marks.passed.fetch_add(1, Ordering::SeqCst);
            gpu_marks
                .done_ns
                .fetch_max(gpu_marks.now(), Ordering::SeqCst);
        };
        let launched = runtime.launch(cpu, gpu);
        let end = Instant::now();
        let passed = marks.passed.load(Ordering::SeqCst);
        match launched {
            Err(e) => stats.phase.fail(format!("setup launch {k}: {e}")),
            Ok(_) if passed != workload.rank_threads() => stats.phase.fail(format!(
                "setup launch {k}: {passed} of {} ranks passed the barrier",
                workload.rank_threads()
            )),
            Ok(_) => {
                let at = |ns: &AtomicU64| {
                    start + std::time::Duration::from_nanos(ns.load(Ordering::SeqCst))
                };
                let (barrier, done) = (at(&marks.barrier_ns), at(&marks.done_ns));
                let us =
                    |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e6;
                stats
                    .setup_s
                    .push(barrier.duration_since(start).as_secs_f64());
                stats.new_us.push(us(start, built));
                stats.first_barrier_us.push(us(built, barrier));
                stats.teardown_us.push(us(done, end));
                tr.record("runtime.new", k, 0, start, built);
                tr.record("runtime.first_barrier", k, 0, built, barrier);
                tr.record("runtime.teardown", k, 0, done, end);
            }
        }
        tr.end(root);
    }
    stats
}
