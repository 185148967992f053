//! Spans recorded from the benchmark's own code around each call into a
//! layer, kept in memory and written out as Chrome Trace Event JSON.
//!
//! A span has a name (`<layer>.<call>`), start and end, the span that was
//! open on the same thread when it began (its parent), and the id of the
//! benchmark op it belongs to.  A span's *self time* is its duration minus
//! the part covered by its children.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{self, Value};

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span open on this thread when this one began.
    pub parent: Option<u64>,
    /// `<layer>.<call>`, e.g. `cpu.send`.
    pub name: &'static str,
    /// Recording thread.
    pub tid: u32,
    /// Benchmark op (schedule index, job or launch number).
    pub op: u64,
    /// Payload bytes of the op.
    pub bytes: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The run-wide span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: Mutex<Store>,
}

#[derive(Debug, Default)]
struct Store {
    spans: Vec<Span>,
    /// Thread labels; a label's index + 1 is its trace `tid`.
    threads: Vec<String>,
    /// Recorders handed out; a span id is `recorder << 32 | index`.
    recorders: u64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            state: Mutex::new(Store::default()),
        })
    }

    /// A recorder for one thread, labelled `label` in the trace; recorders
    /// with equal labels share a trace thread.
    pub fn thread(self: &Arc<Self>, label: impl Into<String>) -> Trace {
        let label = label.into();
        let mut state = self.state.lock().expect("tracer lock poisoned");
        let tid = match state.threads.iter().position(|l| *l == label) {
            Some(i) => i + 1,
            None => {
                state.threads.push(label);
                state.threads.len()
            }
        };
        state.recorders += 1;
        Trace(Some(Recorder {
            tracer: Arc::clone(self),
            tid: tid as u32,
            id_base: state.recorders << 32,
            spans: Vec::new(),
            open: Vec::new(),
        }))
    }

    /// Every span flushed so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .state
            .lock()
            .expect("tracer lock poisoned")
            .spans
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.tid, s.id));
        spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The trace as Chrome Trace Event JSON (`ts`/`dur` in µs), with
    /// `other` as the `otherData` object.  Only the `limit` earliest spans
    /// are written; since a parent starts no later than its children, every
    /// written span's parent is written too.
    pub fn to_chrome_json(&self, other: &[(&str, String)], limit: usize) -> String {
        let spans = self.spans();
        let state = self.state.lock().expect("tracer lock poisoned");
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for (i, label) in state.threads.iter().enumerate() {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":{}}}}}",
                i + 1,
                json::quote(label)
            );
        }
        for s in spans.iter().take(limit) {
            sep(&mut out);
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"id\":{},\"parent\":{parent},\"op\":{},\"bytes\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns / 1000,
                s.start_ns % 1000,
                (s.end_ns - s.start_ns) / 1000,
                (s.end_ns - s.start_ns) % 1000,
                s.id,
                s.op,
                s.bytes
            );
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"spans_recorded\":\"{}\",\"spans_written\":\"{}\"",
            spans.len(),
            spans.len().min(limit)
        );
        for (k, v) in other {
            let _ = write!(out, ",{}:{}", json::quote(k), json::quote(v));
        }
        out.push_str("}}\n");
        out
    }
}

/// A thread's span recorder; [`Trace::off`] records nothing, so workload
/// code is the same in traced and untraced runs.  Spans reach the tracer
/// when the recorder is dropped.
#[derive(Debug)]
pub struct Trace(Option<Recorder>);

#[derive(Debug)]
struct Recorder {
    tracer: Arc<Tracer>,
    tid: u32,
    id_base: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

impl Trace {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Trace(None)
    }

    /// A recorder on `tracer`, or an inert one.
    pub fn on(tracer: Option<&Arc<Tracer>>, label: impl Into<String>) -> Self {
        tracer.map_or_else(Trace::off, |t| t.thread(label))
    }

    /// Open a span now, as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64, bytes: u64) -> Open {
        let Some(r) = &mut self.0 else {
            return Open(usize::MAX);
        };
        let now = r.tracer.ns(Instant::now());
        let id = r.id_base | r.spans.len() as u64;
        let parent = r.open.last().map(|&i| r.spans[i].id);
        r.spans.push(Span {
            id,
            parent,
            name,
            tid: r.tid,
            op,
            bytes,
            start_ns: now,
            end_ns: now,
        });
        r.open.push(r.spans.len() - 1);
        Open(r.spans.len() - 1)
    }

    /// Close `span` (and any span opened inside it and left open) now.
    pub fn end(&mut self, span: Open) {
        let Some(r) = &mut self.0 else { return };
        let now = r.tracer.ns(Instant::now());
        while let Some(i) = r.open.pop() {
            r.spans[i].end_ns = now;
            if i == span.0 {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, bytes: u64, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name, op, bytes);
        let r = f();
        self.end(s);
        r
    }

    /// Record a finished span `[start, end]` as a child of the innermost
    /// open span.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        bytes: u64,
        start: Instant,
        end: Instant,
    ) {
        let s = self.begin(name, op, bytes);
        if let Some(r) = &mut self.0 {
            r.open.pop();
            let span = &mut r.spans[s.0];
            span.start_ns = r.tracer.ns(start);
            span.end_ns = r.tracer.ns(end).max(span.start_ns);
        }
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        if let Some(r) = self.0.take() {
            if let Ok(mut state) = r.tracer.state.lock() {
                state.spans.extend(r.spans);
            }
        }
    }
}

/// Per span name: count, total time and self time, in ns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the parts their children cover.
    pub self_ns: u64,
}

/// Totals and self times by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
            let covered = s
                .end_ns
                .min(p.end_ns)
                .saturating_sub(s.start_ns.max(p.start_ns));
            *child_ns.entry(p.id).or_default() += covered;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Check `text` is Trace Event JSON of complete (`X`) and metadata (`M`)
/// events in which every span with a parent lies inside it.  Returns the
/// number of spans.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("no traceEvents array")?
        .items();
    let num = |e: &Value, k: &str| e.get(k).and_then(Value::as_f64);
    let mut spans: HashMap<u64, (f64, f64)> = HashMap::new();
    let mut parents = Vec::new();
    for e in events {
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or("event without ph")?;
        e.get("name")
            .and_then(Value::as_str)
            .ok_or("event without name")?;
        num(e, "pid").ok_or("event without pid")?;
        num(e, "tid").ok_or("event without tid")?;
        match ph {
            "M" => {}
            "X" => {
                let ts = num(e, "ts").ok_or("span without ts")?;
                let dur = num(e, "dur").ok_or("span without dur")?;
                if dur < 0.0 {
                    return Err("negative span duration".into());
                }
                let args = e.get("args").ok_or("span without args")?;
                let id = num(args, "id").ok_or("span without id")? as u64;
                if spans.insert(id, (ts, ts + dur)).is_some() {
                    return Err(format!("duplicate span id {id}"));
                }
                if let Some(p) = num(args, "parent") {
                    parents.push((id, p as u64));
                }
            }
            other => return Err(format!("unexpected event phase {other:?}")),
        }
    }
    // ts/dur carry whole nanoseconds as µs with three decimals.
    const SLACK_US: f64 = 1e-3;
    for (id, parent) in parents {
        let (s, e) = spans[&id];
        let (ps, pe) = *spans
            .get(&parent)
            .ok_or(format!("span {id} names missing parent {parent}"))?;
        if s + SLACK_US < ps || e > pe + SLACK_US {
            return Err(format!(
                "span {id} [{s}, {e}] lies outside parent {parent} [{ps}, {pe}]"
            ));
        }
    }
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_spans_round_trip_through_chrome_json() {
        let tracer = Tracer::new();
        {
            let mut tr = tracer.thread("rank0");
            let op = tr.begin("op.p2p", 1, 64);
            tr.span("cpu.send", 1, 64, || {
                std::thread::sleep(Duration::from_millis(2))
            });
            let t0 = Instant::now();
            std::thread::sleep(Duration::from_millis(1));
            tr.record("cpu.recv", 1, 64, t0, Instant::now());
            tr.end(op);
            Trace::off().span("cpu.send", 2, 0, || ());
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[2].parent, Some(spans[0].id));
        let text = tracer.to_chrome_json(&[("seed", "1".into())], usize::MAX);
        assert_eq!(validate_chrome_trace(&text), Ok(3));
        let cut = tracer.to_chrome_json(&[], 2);
        assert_eq!(validate_chrome_trace(&cut), Ok(2));

        let totals = self_times(&spans);
        let root = totals["op.p2p"];
        let children = totals["cpu.send"].total_ns + totals["cpu.recv"].total_ns;
        assert_eq!(root.self_ns, root.total_ns - children);
        assert_eq!(totals["cpu.send"].self_ns, totals["cpu.send"].total_ns);
    }

    #[test]
    fn a_child_outside_its_parent_is_rejected() {
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":1,"tid":1,"ts":10.0,"dur":5.0,"args":{"id":1,"parent":null}},
            {"name":"b","ph":"X","pid":1,"tid":1,"ts":12.0,"dur":5.0,"args":{"id":2,"parent":1}}]}"#;
        assert!(validate_chrome_trace(text).is_err());
    }
}
