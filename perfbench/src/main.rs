//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run record and every metric with its unit, then, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.  Exits non-zero when any op failed or gave a wrong result.

use std::path::PathBuf;
use std::process::ExitCode;

use dcgn_perfbench::record::{human, result_line, run_record};
use dcgn_perfbench::runner;
use dcgn_perfbench::trace::validate_chrome_trace;
use dcgn_perfbench::workloads::{Opts, Workload};

const USAGE: &str = "usage: perfbench --workload <p2p_cpu|p2p_gpu|collectives|nbody_jobs> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::P2pCpu,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

/// Spans written to the trace file (about 160 bytes each); metrics use all.
const TRACE_FILE_SPANS: usize = 20_000;

/// Where a traced run writes its Trace Event JSON.
fn trace_path(opts: &Opts) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "trace-{}-seed{}.json",
            opts.workload.name(),
            opts.seed
        ))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = runner::run(&opts);
    if let Some(tracer) = out.tracer.take() {
        let path = trace_path(&opts);
        let text = tracer.to_chrome_json(&run_record(&opts), TRACE_FILE_SPANS);
        let written = std::fs::create_dir_all(path.parent().expect("trace dir"))
            .and_then(|()| std::fs::write(&path, &text))
            .map_err(|e| e.to_string())
            .and_then(|()| validate_chrome_trace(&text));
        match written {
            Ok(n) => out
                .notes
                .push(format!("trace: {n} spans in {}", path.display())),
            Err(e) => {
                out.failed += 1;
                out.errors
                    .push(format!("trace file {}: {e}", path.display()));
            }
        }
    }
    for line in human(&opts, &out) {
        println!("{line}");
    }
    println!("{}", result_line(opts.trace, &out));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
