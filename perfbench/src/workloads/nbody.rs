//! `nbody_jobs`: back-to-back whole jobs of
//! `dcgn_apps::nbody::run_dcgn_gpu`, each checked against
//! `nbody::simulate_reference`.  The job has no seeded input.

use std::sync::Arc;
use std::time::Instant;

use dcgn::CostModel;
use dcgn_apps::nbody::{run_dcgn_gpu, simulate_reference, Body, BODY_BYTES};

use super::{registry, Phase, Timing, NBODY, NBODY_COST_SCALE};
use crate::trace::{Trace, Tracer};

/// Body-state bytes broadcast by one job.
pub fn job_bytes() -> u64 {
    let (n, _, _, steps) = NBODY;
    (steps * n * BODY_BYTES) as u64
}

/// Run jobs under `cost` for `timing`.
pub fn run(
    cost: CostModel,
    timing: Timing,
    reference: &[Body],
    tracer: Option<&Arc<Tracer>>,
) -> Phase {
    let (n, p, nodes, steps) = NBODY;
    let mut tr = Trace::on(tracer, "jobs");
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut timed: Option<(Instant, dcgn::MetricsSnapshot)> = None;
    for job in 0u64.. {
        if timed.is_none() && start.elapsed() >= timing.warmup {
            timed = Some((Instant::now(), registry()));
        }
        if timed
            .as_ref()
            .is_some_and(|(ts, _)| ts.elapsed() >= timing.measure)
        {
            break;
        }
        phase.attempted += 1;
        let t0 = Instant::now();
        let res = tr.span("apps.nbody.job", job, job_bytes(), || {
            run_dcgn_gpu(n, p, nodes, steps, cost)
        });
        let took = t0.elapsed();
        match res {
            Err(e) => {
                phase.fail(format!("job {job}: {e}"));
                break;
            }
            Ok(run) if run.bodies != reference => phase.fail(format!(
                "job {job}: bodies differ from simulate_reference (max position error {})",
                run.max_position_error(steps)
            )),
            Ok(_) => {
                if let Some((ts, _)) = &timed {
                    phase.small_us.push(took.as_secs_f64() * 1e6);
                    phase.small_at.push(ts.elapsed().as_secs_f64());
                    phase.done.push((ts.elapsed().as_secs_f64(), job_bytes()));
                }
            }
        }
    }
    if let Some((ts, before)) = timed {
        phase.start = Some(ts);
        phase.secs = phase.done.last().map_or(0.0, |&(t, _)| t);
        // Each step broadcasts every worker's share once.
        phase.msgs = phase.ops() * (steps * p) as u64;
        phase.collectives = phase.msgs;
        phase.delta = registry().delta_since(&before).aggregated();
    }
    phase
}

/// The job's cost model.
pub fn cost() -> CostModel {
    CostModel::g92_scaled(NBODY_COST_SCALE)
}

/// The reference result every job must reproduce exactly.
pub fn reference() -> Vec<Body> {
    let (n, _, _, steps) = NBODY;
    simulate_reference(n, steps)
}
