//! Spans recorded by the benchmark's own code around calls into each
//! layer. Kept in memory, written as JSON lines when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one. A *shadow* span (an inner layer fed
    /// its parent's real input in isolation) names the stage it shadows,
    /// although it runs after that stage returned.
    pub parent: Option<SpanId>,
    /// Block the work belongs to, if any.
    pub block: Option<u64>,
    /// Transactions the span processed, for stages timed per transaction;
    /// 1 for everything else.
    pub units: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span now; close it with [`SpanLog::close`]. Children opened
    /// in between name the returned id as their parent.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        block: Option<u64>,
    ) -> SpanId {
        let now = self.now_ns();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            block,
            units: 1,
        })
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn set_units(&mut self, id: SpanId, units: u64) {
        self.spans[id as usize].units = units;
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        block: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let id = self.open(name, parent, block);
        let out = f();
        self.close(id);
        (id, out)
    }

    /// Self time of every span: its duration minus the durations of the
    /// spans naming it as parent, floored at zero. The staged driver is
    /// single-threaded, so siblings never overlap and the sum of their
    /// durations is the time they cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// One JSON object per line: id, name, start, end, parent, block, units.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Num(v as f64));
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("parent", opt(s.parent.map(u64::from))),
                ("block", opt(s.block)),
                ("units", Json::Num(s.units as f64)),
            ]);
            writeln!(out, "{}", line.to_line())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            block: None,
            units: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.push(span("root", 0, 100, None));
        let a = log.push(span("a", 10, 40, Some(root)));
        log.push(span("a.inner", 15, 25, Some(a)));
        log.push(span("b", 50, 90, Some(root)));
        // A shadow child runs outside its parent's interval and still counts.
        log.push(span("a.shadow", 200, 205, Some(a)));
        assert_eq!(log.self_ns(), vec![30, 15, 10, 40, 5]);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let mut log = SpanLog::new(Instant::now());
        let p = log.push(span("p", 0, 10, None));
        log.push(span("shadow", 20, 50, Some(p)));
        assert_eq!(log.self_ns()[p as usize], 0);
    }

    #[test]
    fn open_close_nest_and_dump() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.open("root", None, Some(7));
        let (child, v) = log.time("child", Some(root), Some(7), || 41 + 1);
        log.close(root);
        assert_eq!(v, 42);
        let spans = log.spans();
        assert!(spans[root as usize].start_ns <= spans[child as usize].start_ns);
        assert!(spans[child as usize].end_ns <= spans[root as usize].end_ns);

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out/tmp")
            .join(format!("span-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        log.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(lines[1].get("block").unwrap().as_f64(), Some(7.0));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
    }
}
