//! In-memory span recorder for the traced pass.
//!
//! Spans are taken from outside the program under test: around every
//! `MdvSystem` call, around every layer-probe call, and inside [`SpanVfs`]
//! (crate::span_vfs) — the one place the benchmark sits *under* a layer.
//! They stay in memory until the run ends and are then written as JSON
//! lines. With the tracer off, [`Tracer::timed`] only reads the clock
//! twice, which the latency figures need anyway.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The enclosing span, i.e. the call that caused this one.
    pub parent: Option<u32>,
    /// Operation identifier shared by all spans of one driven operation.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

/// A cheap-clone handle; `Tracer::off()` records nothing.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<Recorder>>>);

impl Tracer {
    pub fn off() -> Self {
        Tracer(None)
    }

    pub fn on() -> Self {
        Tracer(Some(Arc::new(Mutex::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }))))
    }

    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Sets the operation id stamped on the spans that follow.
    pub fn set_op(&self, op: u64) {
        if let Some(rec) = &self.0 {
            rec.lock().expect("tracer lock poisoned").op = op;
        }
    }

    /// Runs `f`, returns its result and wall time, and records a span
    /// around it when tracing is on. Spans opened inside `f` become
    /// children.
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let Some(rec) = &self.0 else {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed());
        };
        let (id, epoch) = {
            let mut r = rec.lock().expect("tracer lock poisoned");
            let id = r.spans.len() as u32;
            let start_ns = r.epoch.elapsed().as_nanos() as u64;
            let span = Span {
                id,
                parent: r.open.last().copied(),
                op: r.op,
                name,
                start_ns,
                end_ns: start_ns,
            };
            r.spans.push(span);
            r.open.push(id);
            (id, r.epoch)
        };
        let out = f();
        let mut r = rec.lock().expect("tracer lock poisoned");
        let end_ns = epoch.elapsed().as_nanos() as u64;
        r.open.pop();
        let span = &mut r.spans[id as usize];
        span.end_ns = end_ns;
        let took = Duration::from_nanos(end_ns - span.start_ns);
        (out, took)
    }

    pub fn len(&self) -> usize {
        match &self.0 {
            Some(rec) => rec.lock().expect("tracer lock poisoned").spans.len(),
            None => 0,
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        match &self.0 {
            Some(rec) => rec.lock().expect("tracer lock poisoned").spans.clone(),
            None => Vec::new(),
        }
    }
}

/// Per span name: how many, their total time, and their self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time is its duration minus the part its child spans
/// cover. Children of one parent never overlap here (one thread, strict
/// nesting), so that part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns[s.id as usize]);
    }
    out
}

/// Writes `header` (one JSON object) and then one JSON object per span.
pub fn write_jsonl(out: &mut impl Write, header: &str, spans: &[Span]) -> std::io::Result<()> {
    writeln!(out, "{header}")?;
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(0, None, "system.register", 0, 100),
            span(1, Some(0), "vfs.append", 10, 30),
            span(2, Some(0), "vfs.sync", 30, 70),
            span(3, Some(2), "device", 40, 50),
            span(4, None, "system.register", 100, 150),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["system.register"],
            NameTotals {
                count: 2,
                total_ns: 150,
                self_ns: 40 + 50
            }
        );
        assert_eq!(t["vfs.sync"].self_ns, 30);
        assert_eq!(t["vfs.append"].self_ns, 20);
        assert_eq!(t["device"].total_ns, 10);
    }

    #[test]
    fn nesting_sets_parents_and_op_ids() {
        let tracer = Tracer::on();
        tracer.set_op(7);
        let (v, _) = tracer.timed("outer", || {
            let (x, _) = tracer.timed("inner", || 21);
            x * 2
        });
        assert_eq!(v, 42);
        tracer.set_op(8);
        tracer.timed("next", || ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("outer", None, 7)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!(
            (spans[2].name, spans[2].parent, spans[2].op),
            ("next", None, 8)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let tracer = Tracer::off();
        let (v, took) = tracer.timed("x", || 5);
        assert_eq!(v, 5);
        assert!(took.as_nanos() < 1_000_000_000);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn jsonl_has_a_header_and_one_line_per_span() {
        let mut buf = Vec::new();
        let spans = vec![span(0, None, "a", 1, 2), span(1, Some(0), "b", 1, 2)];
        write_jsonl(&mut buf, "{\"stamp\":1}", &spans).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"stamp\":1}");
        assert!(lines[1].contains("\"parent\":null"));
        assert!(lines[2].contains("\"parent\":0") && lines[2].contains("\"name\":\"b\""));
    }
}
