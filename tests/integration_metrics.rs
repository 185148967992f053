//! Integration tests for the unified runtime metrics registry: end-to-end
//! runs must leave the counters, gauges and histograms a profiler would
//! expect — exchange frames on every participating node, per-communicator
//! collective latency histograms, plan-selection counts that reflect a
//! forced plan, and a `DCGN_METRICS` dump that parses back.
//!
//! Each test passes its own isolated [`MetricsHandle`] through
//! [`DcgnConfig::with_metrics`] so concurrently running tests cannot
//! contaminate the assertions; only the payload pool and fabric, which are
//! process-wide singletons, are checked through the global registry.

use std::collections::HashSet;
use std::time::Duration;

use dcgn::{DcgnConfig, ExchangePlan, MetricsHandle, MetricsSnapshot, ReduceOp, Runtime};

/// Total exchange frames node `node` sent, across every plan's frame kind.
fn node_exchange_frames(snap: &MetricsSnapshot, node: usize) -> u64 {
    ["up", "down", "rd", "ring"]
        .iter()
        .map(|dir| snap.counter(&format!("exchange.frames.{dir}.node{node}")))
        .sum()
}

/// A two-node allreduce must move at least one exchange frame *per node*
/// (nonzero work on both sides, not just the leader), bump each node's
/// request counter, and never push the payload pool past its capacity.
#[test]
fn two_node_allreduce_counts_frames_on_both_nodes() {
    let metrics = MetricsHandle::new();
    let config = DcgnConfig::homogeneous(2, 2, 0, 0).with_metrics(metrics.clone());
    let runtime = Runtime::new(config).unwrap();
    runtime
        .launch_cpu_only(|ctx| {
            let sum = ctx.allreduce(&[1.0, 2.0], ReduceOp::Sum).unwrap();
            assert_eq!(sum, vec![4.0, 8.0]);
        })
        .unwrap();

    let snap = metrics.snapshot();
    for node in 0..2 {
        assert!(
            snap.counter(&format!("comm.requests.node{node}")) > 0,
            "node {node} dispatched no requests: {snap:?}"
        );
        assert!(
            node_exchange_frames(&snap, node) > 0,
            "node {node} sent no exchange frames: {snap:?}"
        );
    }

    // The pool and fabric are process-wide, so their instruments live in the
    // global registry regardless of the per-job handle.
    let global = dcgn_metrics::global().snapshot();
    assert!(global.counter("fabric.frames") > 0, "no fabric traffic");
    let retained = global.gauge("pool.retained");
    assert!(
        retained.high_water <= dcgn_netsim::pool_capacity(),
        "pool retained {} buffers, capacity {}",
        retained.high_water,
        dcgn_netsim::pool_capacity()
    );
}

/// Collective latency histograms are keyed per communicator: after world
/// and subgroup allreduces, a kernel thread reading
/// [`dcgn::CpuCtx::metrics_snapshot`] must see distinct
/// `collective.latency.comm{C}...` histograms for the world and for each
/// split child, every one with samples.
#[test]
fn per_comm_latency_histograms_are_observable_from_kernels() {
    let metrics = MetricsHandle::new();
    let config = DcgnConfig::homogeneous(2, 2, 0, 0).with_metrics(metrics.clone());
    let runtime = Runtime::new(config).unwrap();
    runtime
        .launch_cpu_only(|ctx| {
            // Parity split: {0, 2} and {1, 3}, each spanning both nodes.
            let comm = ctx.comm_split((ctx.rank() % 2) as u32, 0).unwrap();
            let sub = ctx.allreduce_in(&comm, &[1.0], ReduceOp::Sum).unwrap();
            assert_eq!(sub, vec![2.0]);
            let world = ctx.allreduce(&[1.0], ReduceOp::Sum).unwrap();
            assert_eq!(world, vec![4.0]);
            // The barrier orders every rank's deliveries (latency is
            // recorded comm-thread-side before delivery) ahead of the reads.
            ctx.barrier().unwrap();

            if ctx.rank() == 0 {
                let snap = ctx.metrics_snapshot();
                let comms: HashSet<&str> = snap
                    .histograms
                    .iter()
                    .filter(|(name, stats)| {
                        name.starts_with("collective.latency.comm")
                            && name.contains(".allreduce.")
                            && stats.count > 0
                    })
                    .map(|(name, _)| name.split('.').nth(2).unwrap())
                    .collect();
                assert!(
                    comms.len() >= 3,
                    "expected world + two split children with allreduce \
                     latency samples, got {comms:?}"
                );
            }
        })
        .unwrap();
}

/// `with_exchange_plan` (the programmatic `DCGN_FORCE_PLAN`, and the one
/// that wins over the environment) must be visible in the plan-selection
/// counters, so CI's forced-plan runs can assert the override took effect.
#[test]
fn forced_plan_shows_up_in_selection_counters() {
    let metrics = MetricsHandle::new();
    let config = DcgnConfig::homogeneous(2, 1, 0, 0)
        .with_exchange_plan(ExchangePlan::Tree)
        .with_metrics(metrics.clone());
    let runtime = Runtime::new(config).unwrap();
    runtime
        .launch_cpu_only(|ctx| {
            let sum = ctx.allreduce(&[1.0], ReduceOp::Sum).unwrap();
            assert_eq!(sum, vec![2.0]);
        })
        .unwrap();

    let snap = metrics.snapshot();
    assert!(
        snap.counter_sum_by_prefix("exchange.plan.tree.") > 0,
        "forced tree plan never selected: {snap:?}"
    );
    for other in ["star", "recursive-doubling", "ring"] {
        assert_eq!(
            snap.counter_sum_by_prefix(&format!("exchange.plan.{other}.")),
            0,
            "plan {other} selected despite forced tree: {snap:?}"
        );
    }
}

/// A runtime's aggregate snapshot serializes to JSON and parses back to the
/// identical snapshot — the contract external tooling relies on.
#[test]
fn runtime_snapshot_json_roundtrips() {
    let metrics = MetricsHandle::new();
    let config = DcgnConfig::homogeneous(1, 2, 0, 0).with_metrics(metrics.clone());
    let runtime = Runtime::new(config).unwrap();
    runtime
        .launch_cpu_only(|ctx| {
            ctx.barrier().unwrap();
        })
        .unwrap();

    let snap = runtime.metrics_snapshot();
    assert!(!snap.counters.is_empty(), "barrier left no counters");
    let parsed = MetricsSnapshot::parse(&snap.to_json()).expect("dump must parse");
    assert_eq!(parsed, snap);
}

/// `DCGN_METRICS=<path>` writes a snapshot file at shutdown that
/// [`MetricsSnapshot::parse`] accepts.  A unique path keeps concurrent
/// tests (whose runtimes may also observe the variable at shutdown) from
/// clobbering anything but this file, and the read retries in case one of
/// them is mid-write.
#[test]
fn dcgn_metrics_env_file_parses() {
    let path = std::env::temp_dir().join(format!("dcgn_metrics_{}.json", std::process::id()));
    std::env::set_var("DCGN_METRICS", &path);
    let runtime = Runtime::new(DcgnConfig::homogeneous(1, 2, 0, 0)).unwrap();
    runtime
        .launch_cpu_only(|ctx| {
            let sum = ctx.allreduce(&[1.0], ReduceOp::Sum).unwrap();
            assert_eq!(sum, vec![2.0]);
        })
        .unwrap();
    std::env::remove_var("DCGN_METRICS");

    let mut parsed = None;
    for _ in 0..10 {
        if let Some(snap) = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| MetricsSnapshot::parse(&text))
        {
            parsed = Some(snap);
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let snap = parsed.expect("DCGN_METRICS file must exist and parse");
    assert!(
        !snap.counters.is_empty(),
        "metrics dump carries no counters"
    );
    let _ = std::fs::remove_file(&path);
}

/// Every `comm.idle_fallback_wakes.node{N}` counter must be registered and
/// read 0: a fabric delivery still waiting, with no `Wake` queued, when the
/// comm thread's 1 ms idle fallback fired means an event wake was lost.
fn assert_no_fallback_wakes(snap: &MetricsSnapshot, nodes: usize) {
    for node in 0..nodes {
        let name = format!("comm.idle_fallback_wakes.node{node}");
        assert_eq!(
            snap.counters.get(&name),
            Some(&0),
            "{name} missing or nonzero: {snap:?}"
        );
    }
}

/// A 2-node ping-pong burst, with pauses long enough for both comm threads
/// to run out their idle fallback between bursts, must be woken by event
/// every time.
#[test]
fn ping_pong_burst_needs_no_fallback_wakes() {
    let metrics = MetricsHandle::new();
    let config = DcgnConfig::homogeneous(2, 1, 0, 0).with_metrics(metrics.clone());
    let mut runtime = Runtime::new(config).unwrap();
    runtime.set_request_timeout(Duration::from_secs(20));
    runtime
        .launch_cpu_only(|ctx| {
            let peer = 1 - ctx.rank();
            for i in 0..300u32 {
                if i % 50 == 0 {
                    std::thread::sleep(Duration::from_millis(3));
                }
                let len = if i % 16 == 15 { 300_000 } else { 64 };
                if ctx.rank() == 0 {
                    ctx.send(peer, &vec![i as u8; len]).unwrap();
                    let (pong, _) = ctx.recv(peer).unwrap();
                    assert_eq!(pong.len(), len);
                } else {
                    let (ping, _) = ctx.recv(peer).unwrap();
                    ctx.send(peer, &ping).unwrap();
                }
            }
        })
        .unwrap();
    assert_no_fallback_wakes(&metrics.snapshot(), 2);
}

/// A 6-node mix of world and subgroup collectives (every exchange plan is
/// eligible at this size) must be woken by event every time too.
#[test]
fn collective_mix_needs_no_fallback_wakes() {
    let metrics = MetricsHandle::new();
    let config = DcgnConfig::homogeneous(6, 1, 0, 0).with_metrics(metrics.clone());
    let mut runtime = Runtime::new(config).unwrap();
    runtime.set_request_timeout(Duration::from_secs(20));
    runtime
        .launch_cpu_only(|ctx| {
            let half = ctx.comm_split((ctx.rank() % 2) as u32, 0).unwrap();
            for i in 0..40usize {
                if i % 10 == 0 {
                    std::thread::sleep(Duration::from_millis(3));
                }
                let len = if i % 8 == 7 { 64 * 1024 } else { 8 * (i + 1) };
                match i % 4 {
                    0 => ctx.barrier_in(&half).unwrap(),
                    1 => {
                        let mut data = if ctx.rank() == 0 {
                            vec![7u8; len]
                        } else {
                            Vec::new()
                        };
                        ctx.broadcast(0, &mut data).unwrap();
                        assert_eq!(data, vec![7u8; len]);
                    }
                    2 => {
                        let sum = ctx.allreduce(&[1.0; 4], ReduceOp::Sum).unwrap();
                        assert_eq!(sum, vec![6.0; 4]);
                    }
                    _ => {
                        let all = ctx.allgather(&vec![ctx.rank() as u8; len]).unwrap();
                        assert_eq!(all.len(), 6);
                    }
                }
            }
        })
        .unwrap();
    assert_no_fallback_wakes(&metrics.snapshot(), 6);
}
