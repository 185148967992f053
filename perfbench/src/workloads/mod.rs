//! The four workloads, their set-up launches, and the metrics derived from
//! one timed phase.

pub mod collectives;
pub mod floors;
pub mod nbody;
pub mod p2p;
pub mod setup;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcgn::{CostModel, DcgnConfig, DeviceConfig, MetricsSnapshot, NodeConfig};

use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Per-request timeout of every runtime the benchmark builds: a hang
/// becomes a counted failure instead of a two-minute stall.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Timed phases are cut into windows of about this many seconds; the
/// end-to-end figures are medians over windows, so a burst of contention
/// from outside the process moves a few windows rather than the result.
pub const WINDOW_SECS: f64 = 1.0;

/// A window is *quiet* when the hypervisor stole at most this share of the
/// host's CPU time during it.  On a shared virtual machine, steal comes in
/// bursts of tens of seconds that slow every op in the window by far more
/// than the stolen share, so figures come from quiet windows when there
/// are enough of them.
pub const QUIET_STEAL_SHARE: f64 = 0.025;

/// Kernel clock ticks per second per CPU in `/proc/stat`.
const TICKS_PER_SEC: f64 = 100.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2 nodes x 1 CPU rank, zero cost, seeded ping-pong.
    P2pCpu,
    /// The same schedule on 2 nodes x 1 GPU x 1 slot.
    P2pGpu,
    /// 6 nodes x 1 CPU rank, zero cost, seeded collective mix.
    Collectives,
    /// Back-to-back `dcgn_apps::nbody::run_dcgn_gpu` jobs.
    NbodyJobs,
}

/// n-body job parameters: bodies, GPU-slot workers, nodes, steps.
pub const NBODY: (usize, usize, usize, usize) = (256, 4, 2, 5);

/// Scale factor of the n-body job's `CostModel::g92_scaled`.
pub const NBODY_COST_SCALE: f64 = 20.0;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::P2pCpu,
        Workload::P2pGpu,
        Workload::Collectives,
        Workload::NbodyJobs,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::P2pCpu => "p2p_cpu",
            Workload::P2pGpu => "p2p_gpu",
            Workload::Collectives => "collectives",
            Workload::NbodyJobs => "nbody_jobs",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Node layout, for the run record.
    pub fn layout(self) -> &'static str {
        match self {
            Workload::P2pCpu => "2 nodes x 1 CPU rank",
            Workload::P2pGpu => "2 nodes x 1 GPU x 1 slot",
            Workload::Collectives => "6 nodes x 1 CPU rank; parity subgroups of 3 nodes",
            Workload::NbodyJobs => "2 nodes x 1 GPU x 2 slots + 1 CPU master rank on node 0",
        }
    }

    /// Cost model, for the run record.
    pub fn cost_name(self) -> &'static str {
        match self {
            Workload::NbodyJobs => "CostModel::g92_scaled(20.0)",
            _ => "CostModel::zero()",
        }
    }

    /// Ranks the runtime runs as threads.
    pub fn rank_threads(self) -> usize {
        match self {
            Workload::P2pCpu | Workload::P2pGpu => 2,
            Workload::Collectives => 6,
            Workload::NbodyJobs => 5,
        }
    }

    /// What the op is, for the run record.
    pub fn op(self) -> &'static str {
        match self {
            Workload::P2pCpu | Workload::P2pGpu => "one ping-pong round trip (latency: half of it)",
            Workload::Collectives => "one collective, timed at rank 0",
            Workload::NbodyJobs => "one whole n-body job",
        }
    }

    /// The configuration the runtime is built from.
    pub fn config(self) -> DcgnConfig {
        match self {
            Workload::P2pCpu => DcgnConfig::homogeneous(2, 1, 0, 0).with_cost(CostModel::zero()),
            Workload::P2pGpu => DcgnConfig::homogeneous(2, 0, 1, 1).with_cost(CostModel::zero()),
            Workload::Collectives => {
                DcgnConfig::homogeneous(6, 1, 0, 0).with_cost(CostModel::zero())
            }
            Workload::NbodyJobs => {
                // The layout `run_dcgn_gpu` builds for these parameters.
                let (n, p, nodes, _) = NBODY;
                let slots = p / nodes;
                let all_bytes = n * dcgn_apps::nbody::BODY_BYTES;
                let device = DeviceConfig::default()
                    .with_multiprocessors(slots.max(2))
                    .with_memory_bytes((2 * all_bytes * slots + (1 << 20)).max(8 << 20));
                let node_cfgs = (0..nodes)
                    .map(|node| {
                        NodeConfig::new(usize::from(node == 0), 1, slots)
                            .with_device(device.clone())
                    })
                    .collect();
                DcgnConfig::heterogeneous(node_cfgs)
                    .with_cost(CostModel::g92_scaled(NBODY_COST_SCALE))
            }
        }
    }
}

/// Warm-up and measured durations of one timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Ops run before timing starts.
    pub warmup: Duration,
    /// Length of the timed phase.
    pub measure: Duration,
}

impl Timing {
    /// A phase measuring `secs`, after a warm-up of a tenth of that
    /// (between 0.2 s and 1 s).
    pub fn of(secs: f64) -> Self {
        Timing {
            warmup: Duration::from_secs_f64((secs / 10.0).clamp(0.2, 1.0)),
            measure: Duration::from_secs_f64(secs),
        }
    }
}

/// What one timed phase measured.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Latency samples of small ops, µs.
    pub small_us: Vec<f64>,
    /// When each `small_us` sample completed, s since the phase began.
    pub small_at: Vec<f64>,
    /// Per timed op: completion time (s since the phase began) and payload
    /// bytes delivered to ranks.
    pub done: Vec<(f64, u64)>,
    /// Length of the timed phase, s.
    pub secs: f64,
    /// Ops attempted, warm-up included.
    pub attempted: u64,
    /// Ops that returned an error, timed out or gave a wrong result.
    pub failed: u64,
    /// First error messages.
    pub errors: Vec<String>,
    /// Messages (p2p) or collectives (collectives, n-body broadcasts) in
    /// the timed phase: the denominator of the per-message layer ratios.
    pub msgs: u64,
    /// Collectives in the timed phase.
    pub collectives: u64,
    /// Registry change over the timed phase, folded over nodes.
    pub delta: MetricsSnapshot,
    /// When the timed phase began.
    pub start: Option<Instant>,
}

impl Phase {
    /// Record a failure.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why.into());
        }
    }

    /// Ops timed.
    pub fn ops(&self) -> u64 {
        self.done.len() as u64
    }

    /// Payload bytes of the timed ops.
    pub fn bytes(&self) -> u64 {
        self.done.iter().map(|&(_, b)| b).sum()
    }

    /// Per window of about [`WINDOW_SECS`]: ops/s, MB/s, the small-op p50
    /// and p90 (µs) where the window has enough samples for them, and the
    /// host's stolen ticks during the window from `steal` samples.
    pub fn windows(&self, steal: &[(Instant, u64)]) -> Vec<Window> {
        if self.done.is_empty() || self.secs <= 0.0 {
            return Vec::new();
        }
        let n = ((self.secs / WINDOW_SECS).round() as usize).max(1);
        let width = self.secs / n as f64;
        let slot = |t: f64| ((t / width) as usize).min(n - 1);
        let mut out = vec![Window::default(); n];
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); n];
        for &(t, b) in &self.done {
            out[slot(t)].ops_s += 1.0 / width;
            out[slot(t)].mbps += b as f64 / width / 1e6;
        }
        for (&t, &us) in self.small_at.iter().zip(&self.small_us) {
            lat[slot(t)].push(us);
        }
        // Stolen ticks so far at `t` s into the phase: the last sample then.
        let ticks_at = |t: f64| {
            let at = self.start? + Duration::from_secs_f64(t);
            steal
                .iter()
                .rev()
                .find(|(when, _)| *when <= at)
                .map(|&(_, v)| v)
        };
        for (k, (w, l)) in out.iter_mut().zip(&lat).enumerate() {
            w.secs = width;
            w.p50 = percentile(l, 0.5);
            w.p90 = percentile(l, 0.9);
            let (a, b) = (ticks_at(k as f64 * width), ticks_at((k + 1) as f64 * width));
            w.steal = a.zip(b).map(|(a, b)| b.saturating_sub(a));
        }
        out
    }

    /// Small-op latency percentile, µs.
    pub fn latency(&self, q: f64) -> Option<f64> {
        percentile(&self.small_us, q)
    }
}

/// The figures of one window of a timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Length, s.
    pub secs: f64,
    /// Ops completed per second.
    pub ops_s: f64,
    /// Payload MB delivered per second.
    pub mbps: f64,
    /// Small-op latency p50, µs.
    pub p50: Option<f64>,
    /// Small-op latency p90, µs.
    pub p90: Option<f64>,
    /// Host CPU ticks stolen by the hypervisor during the window.
    pub steal: Option<u64>,
}

impl Window {
    /// Whether the hypervisor stole at most [`QUIET_STEAL_SHARE`] of the
    /// host's CPU time during the window (true where steal is unknown).
    pub fn quiet(&self) -> bool {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        self.steal
            .is_none_or(|t| t as f64 <= QUIET_STEAL_SHARE * self.secs * cpus * TICKS_PER_SEC)
    }
}

/// The current process-wide registry (every layer reports there).
pub fn registry() -> MetricsSnapshot {
    dcgn_metrics::global().snapshot()
}

/// Options of one invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload.
    pub workload: Workload,
    /// Schedule seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// The outcome of one invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable detail lines.
    pub notes: Vec<String>,
    /// Ops attempted (set-up launches included).
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// First error messages.
    pub errors: Vec<String>,
    /// The tracer of a traced run.
    pub tracer: Option<Arc<Tracer>>,
}

impl Outcome {
    /// Fold a phase's failure accounting into the outcome.
    pub fn count(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.errors.extend(phase.errors.iter().cloned());
    }

    /// The end-to-end metrics of untraced phases: medians over their quiet
    /// windows, topped up to `min_quiet` with the least-stolen others; the
    /// median set-up time; and the first round's peak RSS.
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        phases: &[Phase],
        host: &HostSamples,
        min_quiet: usize,
    ) {
        let all: Vec<Window> = phases.iter().flat_map(|p| p.windows(&host.steal)).collect();
        let mut by_steal = all.clone();
        by_steal.sort_by_key(|w| w.steal.unwrap_or(0));
        let quiet = by_steal.iter().filter(|w| w.quiet()).count();
        let windows = &by_steal[..quiet.max(min_quiet).min(by_steal.len())];
        self.notes.push(format!(
            "windows: {quiet} of {} quiet (at most {}% of host CPU time stolen); figures from the {} least stolen",
            all.len(),
            QUIET_STEAL_SHARE * 100.0,
            windows.len(),
        ));
        let med = |f: &dyn Fn(&Window) -> Option<f64>| {
            median(&windows.iter().filter_map(f).collect::<Vec<_>>())
        };
        self.put_opt("setup_s", percentile(setup_s, 0.5));
        self.put_opt("latency_us.p50", med(&|w| w.p50));
        self.put_opt("latency_us.p90", med(&|w| w.p90));
        self.put_opt("throughput_ops_s", med(&|w| Some(w.ops_s)));
        self.put_opt("goodput_MBps", med(&|w| Some(w.mbps)));
        self.put_opt("peak_rss_MiB", host.rss_mib.first().copied());
        let small: Vec<f64> = phases
            .iter()
            .flat_map(|p| p.small_us.iter().copied())
            .collect();
        let p99 = percentile(&small, 0.99)
            .map_or("n/a (< 1000 samples)".to_string(), |v| format!("{v:.3} us"));
        self.notes.push(format!(
            "latency: medians over {} windows of per-window percentiles; {} small-op samples of {} timed ops over {:.3} s; pooled p50 {:?} us, p99 {p99}",
            windows.len(),
            small.len(),
            phases.iter().map(Phase::ops).sum::<u64>(),
            phases.iter().map(|p| p.secs).sum::<f64>(),
            percentile(&small, 0.5),
        ));
        let series = |f: &dyn Fn(&Window) -> Option<f64>| {
            all.iter()
                .map(|w| f(w).map_or("-".into(), |v| format!("{v:.1}")))
                .collect::<Vec<_>>()
                .join(" ")
        };
        self.notes
            .push(format!("window p50, us: {}", series(&|w| w.p50)));
        self.notes
            .push(format!("window p90, us: {}", series(&|w| w.p90)));
        self.notes
            .push(format!("window ops/s: {}", series(&|w| Some(w.ops_s))));
        self.notes.push(format!(
            "window stolen ticks: {}",
            series(&|w| w.steal.map(|t| t as f64))
        ));
        self.notes.push(format!(
            "set-up: median of {} launches; medians per group of 40, us: {}",
            setup_s.len(),
            setup_s
                .chunks(40)
                .map(|c| format!("{:.1}", median(c).unwrap_or(0.0) * 1e6))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }

    /// The per-layer ratios read from the registry over a traced phase.
    pub fn registry_layers(&mut self, phase: &Phase) {
        let d = &phase.delta;
        let c = |name: &str| d.counter(name) as f64;
        let sum = |prefix: &str, names: &[&str]| -> f64 {
            names.iter().map(|n| c(&format!("{prefix}.{n}"))).sum()
        };
        let (ops, msgs) = (phase.ops() as f64, phase.msgs as f64);
        let (eager, rdv) = (c("rmpi.eager_sends"), c("rmpi.rdv_sends"));
        let (reuse, miss) = (c("pool.acquire_reuse"), c("pool.acquire_miss"));
        // (metric, numerator, denominator); with nothing to divide by, the
        // metric is left out and prints as n/a.
        let ratios = [
            ("comm.requests_per_op", c("comm.requests"), ops),
            ("exchange.plan.star_per_op", c("exchange.plan.star"), ops),
            ("exchange.plan.tree_per_op", c("exchange.plan.tree"), ops),
            (
                "exchange.plan.recursive-doubling_per_op",
                c("exchange.plan.recursive-doubling"),
                ops,
            ),
            ("exchange.plan.ring_per_op", c("exchange.plan.ring"), ops),
            (
                "exchange.frames_per_collective",
                sum("exchange.frames", &["up", "down", "rd", "ring"]),
                phase.collectives as f64,
            ),
            ("rmpi.eager_share", eager, eager + rdv),
            ("rmpi.chunks_per_rdv", c("rmpi.rdv.chunks"), rdv),
            ("fabric.frames_per_msg", c("fabric.frames"), msgs),
            (
                "fabric.wire_bytes_per_payload_byte",
                c("fabric.frame_bytes"),
                phase.bytes() as f64,
            ),
            ("pool.reuse_ratio", reuse, reuse + miss),
            (
                "dma.transfers_per_msg",
                sum("dma", &["dtoh", "htod", "scattered"]),
                msgs,
            ),
            ("gpu.polls_per_request", c("gpu.polls"), c("gpu.requests")),
            (
                "gpu.harvest_share",
                c("gpu.batched_entry_reads"),
                c("gpu.polls"),
            ),
        ];
        for (name, num, den) in ratios {
            if den > 0.0 {
                self.put(name, num / den);
            }
        }
        let high_water = |name: &str| d.gauge(name).high_water as f64;
        self.put("comm.queue_depth.max", high_water("comm.queue_depth"));
        self.put("pool.retained.max", high_water("pool.retained"));
    }

    /// Set a metric.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Set a metric that may lack samples.
    pub fn put_opt(&mut self, name: &'static str, value: Option<f64>) {
        match value {
            Some(v) => self.put(name, v),
            None => self.notes.push(format!("{name}: too few samples")),
        }
    }
}

/// A `/proc/self/status` field in kB, as MiB (0 where unavailable).
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The host CPU ticks stolen by the hypervisor so far (`steal` in
/// `/proc/stat`), where the kernel reports them.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// What a [`HostSampler`] saw.
#[derive(Debug, Default)]
pub struct HostSamples {
    /// Largest resident size of each sampled span, MiB.
    pub rss_mib: Vec<f64>,
    /// Stolen host ticks over time.
    pub steal: Vec<(Instant, u64)>,
}

/// Samples, on a thread of its own, this process's resident memory every
/// 5 ms and the host's stolen CPU ticks every 50 ms, from `start` until
/// `finish`.
pub struct HostSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<(f64, Vec<(Instant, u64)>)>,
}

impl HostSampler {
    /// Start sampling.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peak = status_mib("VmRSS:");
            let mut steal = Vec::new();
            for k in 0u64.. {
                if k % 10 == 0 {
                    steal.extend(steal_ticks().map(|v| (Instant::now(), v)));
                }
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
                peak = peak.max(status_mib("VmRSS:"));
            }
            (peak, steal)
        });
        HostSampler { stop, thread }
    }

    /// Stop sampling and add what was seen to `into`.
    pub fn finish(self, into: &mut HostSamples) {
        self.stop.store(true, Ordering::SeqCst);
        let (peak, steal) = self.thread.join().unwrap_or_default();
        into.rss_mib.push(peak);
        into.steal.extend(steal);
    }
}
