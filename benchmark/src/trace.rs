//! Spans recorded from the benchmark's own code around each public call
//! into the program. They stay in memory and are written as JSON lines when
//! the run ends. With tracing off `enter`/`exit` do nothing, so the same
//! workload code gives the untraced end-to-end numbers.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one build, segment, epoch or restart share an op id.
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. A span opened with
    /// nothing open is a root and starts a new op.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        if self.stack.is_empty() {
            self.op += 1;
        }
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now();
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its child spans cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Busy (self) time per span name, in seconds.
    pub fn busy_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e9)
            .collect()
    }

    /// Share of the traced end-to-end time not attributed to a layer. A root
    /// span is either a layer call itself or an `op.*` span that groups the
    /// layer calls of one operation; only the part of an `op.*` span that no
    /// child covers is unattributed.
    pub fn unattributed_share(&self) -> f64 {
        let own = self.self_ns();
        let (mut total, mut uncovered) = (0u64, 0u64);
        for (s, own) in self.spans.iter().zip(own) {
            if s.parent.is_none() {
                total += s.ns();
                if s.name.starts_with("op.") {
                    uncovered += own;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            uncovered as f64 / total as f64
        }
    }

    pub fn write_jsonl<W: Write>(&self, mut out: W) -> io::Result<()> {
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op\":{},\"self_ns\":{own}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ops_group_spans() {
        let mut tr = Tracer::new(true);
        let root = tr.enter("op.x");
        tr.span("layer.a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.span("layer.b", || ());
        tr.exit(root);
        let root2 = tr.enter("op.x");
        tr.exit(root2);

        let s = tr.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[1].parent, s[2].parent, s[3].parent),
            (Some(0), Some(0), None)
        );
        assert_eq!((s[0].op, s[1].op, s[3].op), (1, 1, 2));
        let busy = tr.busy_s();
        let total = (s[0].ns() + s[3].ns()) as f64 / 1e9;
        assert!((busy["op.x"] + busy["layer.a"] + busy["layer.b"] - total).abs() < 1e-9);
        assert!(tr.unattributed_share() < 0.5);

        let mut buf = Vec::new();
        tr.write_jsonl(&mut buf).unwrap();
        assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), 4);
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        let o = tr.enter("op");
        assert_eq!(tr.span("x", || 7), 7);
        tr.exit(o);
        assert!(tr.spans().is_empty());
    }
}
