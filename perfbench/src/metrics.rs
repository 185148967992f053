//! The metric catalogue: every name this benchmark prints, with its unit and
//! direction.  `BENCHMARK.json` lists the same names (a test checks it);
//! the layer map below records what `BENCHMARK.json` has no field for.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric (untraced runs).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Printed name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// A per-layer metric (traced runs), with the layer (module) it measures
/// and the end-to-end metric and workloads it should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Printed name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Module of the repository the metric measures.
    pub layer: &'static str,
    /// The end-to-end metric it should move, and on which workloads.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

/// End-to-end metrics, in output order.
#[rustfmt::skip]
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Lower },
    EndToEnd { name: "latency_us.p50", unit: "us", better: Lower },
    EndToEnd { name: "latency_us.p90", unit: "us", better: Lower },
    EndToEnd { name: "throughput_ops_s", unit: "1/s", better: Higher },
    EndToEnd { name: "goodput_MBps", unit: "MB/s", better: Higher },
    EndToEnd { name: "peak_rss_MiB", unit: "MiB", better: Lower },
];

const fn l(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

const P2P_CPU_P50: &str = "latency_us.p50 on p2p_cpu";
const P2P_GPU_P50: &str = "latency_us.p50 on p2p_gpu";
const COLL_P50_P90: &str = "latency_us.p50/p90 on collectives";
const COLL_LAT: &str = "latency_us.* on collectives";
const GPU_POLL: &str = "latency_us.p50 on p2p_gpu, throughput_ops_s on nbody_jobs";
const NETSIM_WIRE: &str = "goodput_MBps on p2p_*, latency_us.p50 on collectives";
const NETSIM_POOL: &str = "goodput_MBps on p2p_*, peak_rss_MiB on all workloads";
const RMPI_PROTO: &str = "goodput_MBps on p2p_cpu and p2p_gpu";

/// Per-layer metrics, in output order.
#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    l("runtime.new_us.p50", "us", Lower, "runtime", "setup_s on all workloads"),
    l("runtime.first_barrier_us.p50", "us", Lower, "runtime", "setup_s on all workloads"),
    l("runtime.teardown_us.p50", "us", Lower, "runtime", "latency_us.p50 on nbody_jobs"),
    l("cpu.send_us.p50", "us", Lower, "cpu", P2P_CPU_P50),
    l("cpu.recv_us.p50", "us", Lower, "cpu", P2P_CPU_P50),
    l("cpu.isend_us.p50", "us", Lower, "cpu", P2P_CPU_P50),
    l("cpu.irecv_us.p50", "us", Lower, "cpu", P2P_CPU_P50),
    l("cpu.wait_us.p50", "us", Lower, "cpu", P2P_CPU_P50),
    l("cpu.barrier_us.p50", "us", Lower, "cpu", COLL_P50_P90),
    l("cpu.allreduce_us.p50", "us", Lower, "cpu", COLL_P50_P90),
    l("cpu.broadcast_us.p50", "us", Lower, "cpu", COLL_P50_P90),
    l("cpu.allgather_us.p50", "us", Lower, "cpu", COLL_P50_P90),
    l("cpu.comm_split_us.p50", "us", Lower, "cpu", COLL_P50_P90),
    l("cpu.overhead_us.p50", "us", Lower, "cpu", P2P_CPU_P50),
    l("gpu.send_us.p50", "us", Lower, "gpu", P2P_GPU_P50),
    l("gpu.recv_us.p50", "us", Lower, "gpu", P2P_GPU_P50),
    l("gpu.isend_us.p50", "us", Lower, "gpu", P2P_GPU_P50),
    l("gpu.irecv_us.p50", "us", Lower, "gpu", P2P_GPU_P50),
    l("gpu.wait_us.p50", "us", Lower, "gpu", P2P_GPU_P50),
    l("gpu.polls_per_request", "count", Lower, "gpu", GPU_POLL),
    l("gpu.harvest_share", "ratio", Higher, "gpu", GPU_POLL),
    l("gpu.busy_fraction", "ratio", Lower, "gpu", GPU_POLL),
    l("gpu.overhead_us.p50", "us", Lower, "gpu", P2P_GPU_P50),
    l("comm.requests_per_op", "count", Lower, "comm_thread", "latency_us.p50 on p2p_cpu and collectives"),
    l("comm.queue_depth.max", "count", Lower, "comm_thread", "latency_us.p90 on collectives"),
    l("exchange.plan.star_per_op", "count", Lower, "comm_thread", COLL_LAT),
    l("exchange.plan.tree_per_op", "count", Lower, "comm_thread", COLL_LAT),
    l("exchange.plan.recursive-doubling_per_op", "count", Lower, "comm_thread", COLL_LAT),
    l("exchange.plan.ring_per_op", "count", Lower, "comm_thread", COLL_LAT),
    l("exchange.frames_per_collective", "count", Lower, "comm_thread", COLL_LAT),
    l("rmpi.floor_us.p50", "us", Lower, "rmpi", "lower bound of latency_us.p50 on p2p_cpu"),
    l("rmpi.floor_MBps", "MB/s", Higher, "rmpi", "upper bound of goodput_MBps on p2p_cpu"),
    l("rmpi.eager_share", "ratio", Higher, "rmpi", RMPI_PROTO),
    l("rmpi.chunks_per_rdv", "count", Lower, "rmpi", RMPI_PROTO),
    l("fabric.frames_per_msg", "count", Lower, "netsim", NETSIM_WIRE),
    l("fabric.wire_bytes_per_payload_byte", "ratio", Lower, "netsim", NETSIM_WIRE),
    l("pool.reuse_ratio", "ratio", Higher, "netsim", NETSIM_POOL),
    l("pool.retained.max", "count", Lower, "netsim", NETSIM_POOL),
    l("dma.transfers_per_msg", "count", Lower, "dpm", P2P_GPU_P50),
    l("dpm.memcpy_floor_MBps", "MB/s", Higher, "dpm", "upper bound of goodput_MBps on p2p_gpu"),
    l("simtime.modelled_share", "ratio", Higher, "simtime", "caps the software share of latency_us.p50 on nbody_jobs"),
    l("apps.nbody.job_us.p50", "us", Lower, "apps", "latency_us.p50 on nbody_jobs"),
    l("apps.nbody.job_zero_cost_us.p50", "us", Lower, "apps", "latency_us.p50 on nbody_jobs"),
    l("trace.overhead_frac", "ratio", Lower, "bench", "none: traced latency_us.p50 / untraced - 1"),
];
