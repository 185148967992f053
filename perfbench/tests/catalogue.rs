//! The benchmark's own contract: `BENCHMARK.json` names exactly what the
//! command prints, the README documents every metric, and a traced run's
//! trace file is valid Trace Event JSON.

use std::sync::Arc;
use std::time::Duration;

use dcgn_perfbench::json::{self, Value};
use dcgn_perfbench::metrics::{END_TO_END, PER_LAYER};
use dcgn_perfbench::record::result_line;
use dcgn_perfbench::schedule::p2p_schedule;
use dcgn_perfbench::trace::{validate_chrome_trace, Tracer};
use dcgn_perfbench::workloads::{p2p, Outcome, Timing, Workload};

fn repo_file(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn benchmark_json() -> Value {
    json::parse(&repo_file("../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing {key}"))
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let doc = benchmark_json();
    let Value::Obj(members) = &doc else {
        panic!("not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);

    let e2e = doc.get("end_to_end").unwrap().items();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (got, want) in e2e.iter().zip(END_TO_END) {
        assert_eq!(field(got, "name"), want.name);
        assert_eq!(field(got, "unit"), want.unit);
        assert_eq!(field(got, "better"), want.better.as_str());
        let bound = got.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let layers = doc.get("per_layer").unwrap().items();
    assert_eq!(layers.len(), PER_LAYER.len());
    for (got, want) in layers.iter().zip(PER_LAYER) {
        assert_eq!(field(got, "name"), want.name);
        assert_eq!(field(got, "unit"), want.unit);
        assert_eq!(field(got, "better"), want.better.as_str());
    }
}

#[test]
fn every_printed_metric_is_in_benchmark_json() {
    let doc = benchmark_json();
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let listed: Vec<&str> = doc
            .get(section)
            .unwrap()
            .items()
            .iter()
            .map(|m| field(m, "name"))
            .collect();
        let line =
            json::parse(&result_line(trace, &Outcome::default())).expect("result line parses");
        let Some(Value::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics")
        };
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(printed, listed, "{section}");
        for (_, m) in metrics {
            assert!(m.get("value").and_then(Value::as_f64).is_some());
        }
    }
}

#[test]
fn readme_documents_every_metric_and_workload() {
    let readme = repo_file("README.md");
    let names = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .chain(Workload::ALL.iter().map(|w| w.name()));
    for name in names {
        assert!(readme.contains(&format!("`{name}`")), "README lacks {name}");
    }
}

#[test]
fn traced_ping_pong_writes_valid_trace_event_json() {
    let tracer = Tracer::new();
    let timing = Timing {
        warmup: Duration::from_millis(20),
        measure: Duration::from_millis(150),
    };
    let run = p2p::run(
        Workload::P2pCpu,
        Arc::new(p2p_schedule(3)),
        timing,
        Some(&tracer),
    );
    assert_eq!(run.phase.failed, 0, "{:?}", run.phase.errors);
    assert!(run.phase.ops() > 0);
    let text = tracer.to_chrome_json(&[("seed", "3".into())], usize::MAX);
    let spans = validate_chrome_trace(&text).expect("valid trace");
    assert_eq!(spans, tracer.spans().len());
    assert!(tracer
        .spans()
        .iter()
        .any(|s| s.name == "cpu.send" && s.parent.is_some()));
}
