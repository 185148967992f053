//! The run record and the printed result.

use std::fmt::Write as _;
use std::path::Path;

use crate::json::quote;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::{Opts, Outcome};

/// What a run was: seed, host, layout, cost model and mode.
pub fn run_record(opts: &Opts) -> Vec<(&'static str, String)> {
    let w = opts.workload;
    vec![
        ("workload", w.name().to_string()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        (
            "mode",
            if opts.trace { "traced" } else { "untraced" }.to_string(),
        ),
        (
            "nproc",
            std::thread::available_parallelism().map_or("unknown".into(), |n| n.to_string()),
        ),
        ("cost_model", w.cost_name().to_string()),
        ("layout", w.layout().to_string()),
        ("rank_threads", w.rank_threads().to_string()),
        ("op", w.op().to_string()),
        ("commit", commit(Path::new("."))),
    ]
}

/// The commit checked out in `root`, read from `.git` without running git;
/// `unknown` outside a git checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// The metric list of a mode, in catalogue order: name, unit, and for a
/// per-layer metric its layer and what it should move.
pub fn metric_names(trace: bool) -> Vec<(&'static str, &'static str, String)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, format!("  [{}] {}", m.layer, m.moves)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, String::new()))
            .collect()
    }
}

/// The last line of output: one JSON object with `correct`, `attempted`,
/// `failed` and every metric of the mode.  A metric the workload has no
/// samples or no work for reads 0.
pub fn result_line(trace: bool, out: &Outcome) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, unit, _)) in metric_names(trace).into_iter().enumerate() {
        let v = out
            .values
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let _ = write!(
            line,
            "{}{}: {{\"value\": {v:?}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            quote(name),
            quote(unit)
        );
    }
    line.push_str("}}");
    line
}

/// Human-readable lines: the record, each metric with its unit, details.
pub fn human(opts: &Opts, out: &Outcome) -> Vec<String> {
    let mut lines: Vec<String> = run_record(opts)
        .into_iter()
        .map(|(k, v)| format!("# {k}: {v}"))
        .collect();
    lines.push(format!(
        "# ops attempted {} failed {} (error rate {})",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    for e in &out.errors {
        lines.push(format!("# error: {e}"));
    }
    for (name, unit, about) in metric_names(opts.trace) {
        lines.push(match out.values.get(name) {
            Some(v) if v.abs() < 1.0 => format!("{name:<42} {v:>16.6} {unit}{about}"),
            Some(v) => format!("{name:<42} {v:>16.3} {unit}{about}"),
            None => format!(
                "{name:<42} {:>16} {unit}{about} (n/a: no such work here)",
                "n/a"
            ),
        });
    }
    lines.extend(out.notes.iter().map(|n| format!("# {n}")));
    lines
}
