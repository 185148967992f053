//! One invocation: the untraced run that gives the end-to-end metrics, or
//! the traced run that splits them by layer.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::schedule::{collective_schedule, p2p_schedule, SMALL_MAX};
use crate::stats::percentile;
use crate::trace::{self_times, Span, Tracer};
use crate::workloads::setup::{self, SETUP_LAUNCHES};
use crate::workloads::{
    collectives, floors, nbody, p2p, HostSampler, HostSamples, Opts, Outcome, Phase, Timing,
    Window, Workload, WINDOW_SECS,
};

/// Run `opts`.
pub fn run(opts: &Opts) -> Outcome {
    if opts.trace {
        traced(opts)
    } else {
        untraced(opts)
    }
}

fn timed_phase(opts: &Opts, secs: f64, tracer: Option<&Arc<Tracer>>) -> (Phase, Option<f64>) {
    let timing = Timing::of(secs);
    match opts.workload {
        w @ (Workload::P2pCpu | Workload::P2pGpu) => {
            let r = p2p::run(w, Arc::new(p2p_schedule(opts.seed)), timing, tracer);
            (r.phase, r.gpu_busy_fraction)
        }
        Workload::Collectives => {
            let sched = Arc::new(collective_schedule(opts.seed));
            (collectives::run(sched, timing, tracer), None)
        }
        Workload::NbodyJobs => (
            nbody::run(nbody::cost(), timing, &nbody::reference(), tracer),
            None,
        ),
    }
}

/// The untraced run alternates this many batches of set-up launches with
/// timed launches, so that both sample the whole run's wall time.
pub const ROUNDS: usize = 5;

/// Rounds the untraced run may add while fewer than half of its planned
/// windows were quiet (see [`crate::workloads::QUIET_STEAL_SHARE`]).
pub const EXTRA_ROUNDS: usize = 1;

fn untraced(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut phases = Vec::new();
    let mut host = HostSamples::default();
    let min_quiet = (opts.seconds / WINDOW_SECS / 2.0).ceil() as usize;
    for round in 1..=ROUNDS + EXTRA_ROUNDS {
        let sampler = HostSampler::start();
        let setup = setup::run(opts.workload, SETUP_LAUNCHES / ROUNDS, None);
        out.count(&setup.phase);
        setup_s.extend(setup.setup_s);
        let (phase, _) = timed_phase(opts, opts.seconds / ROUNDS as f64, None);
        out.count(&phase);
        phases.push(phase);
        sampler.finish(&mut host);
        let quiet = phases
            .iter()
            .flat_map(|p| p.windows(&host.steal))
            .filter(Window::quiet)
            .count();
        if round >= ROUNDS && quiet >= min_quiet {
            break;
        }
    }
    out.end_to_end(&setup_s, &phases, &host, min_quiet);
    out.notes.push(format!(
        "rounds: {}; peak RSS per round, MiB: {:.2?}",
        phases.len(),
        host.rss_mib
    ));
    out
}

/// p50 of the durations of spans named `name` (small ops only), µs.
fn span_p50(spans: &[Span], name: &str) -> Option<f64> {
    let durs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && s.bytes <= SMALL_MAX as u64)
        .map(Span::dur_us)
        .collect();
    percentile(&durs, 0.5)
}

fn traced(opts: &Opts) -> Outcome {
    let t = opts.seconds;
    let tracer = Tracer::new();
    let mut out = Outcome::default();
    let setup = setup::run(opts.workload, SETUP_LAUNCHES, Some(&tracer));
    out.count(&setup.phase);
    out.put_opt("runtime.new_us.p50", percentile(&setup.new_us, 0.5));
    out.put_opt(
        "runtime.first_barrier_us.p50",
        percentile(&setup.first_barrier_us, 0.5),
    );
    out.put_opt(
        "runtime.teardown_us.p50",
        percentile(&setup.teardown_us, 0.5),
    );

    let (plain_share, traced_share) = match opts.workload {
        Workload::P2pCpu => (0.35, 0.35),
        Workload::P2pGpu => (0.3, 0.3),
        Workload::Collectives => (0.5, 0.5),
        Workload::NbodyJobs => (0.4, 0.3),
    };
    let (plain, _) = timed_phase(opts, plain_share * t, None);
    let (phase, busy) = timed_phase(opts, traced_share * t, Some(&tracer));
    out.count(&plain);
    out.count(&phase);
    out.registry_layers(&phase);
    let p50 = |p: &Phase| p.latency(0.5);
    if let (Some(traced_p50), Some(plain_p50)) = (p50(&phase), p50(&plain)) {
        out.put("trace.overhead_frac", traced_p50 / plain_p50 - 1.0);
    }
    out.notes.push(format!(
        "untraced latency_us.p50 {:?} ({} samples), traced {:?} ({} samples)",
        p50(&plain),
        plain.small_us.len(),
        p50(&phase),
        phase.small_us.len()
    ));

    let spans = tracer.spans();
    let span_metrics: &[(&str, &'static str)] = match opts.workload {
        Workload::P2pCpu => &[
            ("cpu.send", "cpu.send_us.p50"),
            ("cpu.recv", "cpu.recv_us.p50"),
            ("cpu.isend", "cpu.isend_us.p50"),
            ("cpu.irecv", "cpu.irecv_us.p50"),
            ("cpu.wait", "cpu.wait_us.p50"),
        ],
        Workload::P2pGpu => &[
            ("gpu.send", "gpu.send_us.p50"),
            ("gpu.recv", "gpu.recv_us.p50"),
            ("gpu.isend", "gpu.isend_us.p50"),
            ("gpu.irecv", "gpu.irecv_us.p50"),
            ("gpu.wait", "gpu.wait_us.p50"),
        ],
        Workload::Collectives => &[
            ("cpu.barrier", "cpu.barrier_us.p50"),
            ("cpu.allreduce", "cpu.allreduce_us.p50"),
            ("cpu.broadcast", "cpu.broadcast_us.p50"),
            ("cpu.allgather", "cpu.allgather_us.p50"),
            ("cpu.comm_split", "cpu.comm_split_us.p50"),
        ],
        Workload::NbodyJobs => &[],
    };
    for &(span, metric) in span_metrics {
        out.put_opt(metric, span_p50(&spans, span));
    }

    match opts.workload {
        Workload::P2pCpu | Workload::P2pGpu => {
            let sched = p2p_schedule(opts.seed);
            let cpu_p50 = if opts.workload == Workload::P2pGpu {
                if let Some(b) = busy {
                    out.put("gpu.busy_fraction", b);
                }
                let twin = p2p::run(
                    Workload::P2pCpu,
                    Arc::new(sched.clone()),
                    Timing::of(0.2 * t),
                    None,
                )
                .phase;
                out.count(&twin);
                if let (Some(g), Some(c)) = (p50(&plain), p50(&twin)) {
                    out.put("gpu.overhead_us.p50", g - c);
                }
                p50(&twin)
            } else {
                p50(&plain)
            };
            let floor_share = if opts.workload == Workload::P2pCpu {
                0.2
            } else {
                0.1
            };
            let floor = floors::rmpi(&sched, floor_share * t);
            out.attempted += floor.attempted;
            out.failed += floor.failed;
            if floor.failed > 0 {
                out.errors
                    .push("rmpi floor: wrong or failed messages".into());
            }
            out.put_opt("rmpi.floor_us.p50", floor.small_p50_us);
            out.put("rmpi.floor_MBps", floor.bulk_mbps);
            if let (Some(c), Some(f)) = (cpu_p50, floor.small_p50_us) {
                out.put("cpu.overhead_us.p50", c - f);
            }
            out.put("dpm.memcpy_floor_MBps", floors::memcpy(0.05 * t));
        }
        Workload::NbodyJobs => {
            let twin = nbody::run(
                dcgn::CostModel::zero(),
                Timing::of(0.3 * t),
                &nbody::reference(),
                None,
            );
            out.count(&twin);
            out.put_opt("apps.nbody.job_us.p50", p50(&plain));
            out.put_opt("apps.nbody.job_zero_cost_us.p50", p50(&twin));
            if let (Some(job), Some(zero)) = (p50(&plain), p50(&twin)) {
                out.put("simtime.modelled_share", 1.0 - zero / job);
            }
        }
        Workload::Collectives => {}
    }

    out.notes.push(self_time_summary(&spans));
    out.tracer = Some(tracer);
    out
}

/// Self time by layer (the span name's first component), as shares.
fn self_time_summary(spans: &[Span]) -> String {
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, totals) in self_times(spans) {
        *by_layer
            .entry(name.split('.').next().unwrap_or(name))
            .or_default() += totals.self_ns;
    }
    let all: u64 = by_layer.values().sum();
    let parts: Vec<String> = by_layer
        .iter()
        .map(|(layer, ns)| {
            format!(
                "{layer} {:.1}% ({:.1} ms)",
                100.0 * *ns as f64 / all.max(1) as f64,
                *ns as f64 / 1e6
            )
        })
        .collect();
    format!("self time by layer: {}", parts.join(", "))
}
