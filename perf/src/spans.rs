//! In-memory spans for the traced run.
//!
//! A span is one timed call into a layer: its name (`layer.what`),
//! start and end on a shared clock, the span that caused it, the run or
//! request it belongs to, and the thread it ran on. Spans are kept in
//! memory while the run is timed and only read out when it ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use zbp_support::json::Json;

/// Index of a span within its [`Recorder`].
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub run: u64,
    pub thread: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id so that calls it makes can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            run,
            thread: THREAD.with(|t| *t),
        };
        let id = {
            let mut spans = self.spans.lock().expect("span recorder lock poisoned");
            spans.push(span);
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("span recorder lock poisoned")[id].end_ns = end;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder lock poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may run on other threads and
/// overlap one another; overlapping time is subtracted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Writes every span as one JSON line: name, start and end in ns since
/// the recorder's epoch, parent index (`null` for a root), run and
/// thread. A span's index is its line number, counting from 0.
pub fn write_jsonl(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    for s in spans {
        let line = Json::Obj(vec![
            ("name".into(), Json::Str(s.name.into())),
            ("start_ns".into(), Json::Num(s.start_ns as f64)),
            ("end_ns".into(), Json::Num(s.end_ns as f64)),
            ("parent".into(), s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
            ("run".into(), Json::Num(s.run as f64)),
            ("thread".into(), Json::Num(s.thread as f64)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

/// Total seconds and number of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, n), s| (t + s.duration_ns() as f64 * 1e-9, n + 1))
}

/// Mean seconds of the spans named `name`; 0 when there are none.
pub fn mean(spans: &[Span], name: &str) -> f64 {
    let (t, n) = total(spans, name);
    if n == 0 {
        0.0
    } else {
        t / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent, run: 0, thread: 0 }
    }

    #[test]
    fn self_time_subtracts_children_across_two_threads() {
        let spans = vec![
            span("sim.grid", 0, 100, None),
            // Two rows on two worker threads, overlapping in [30, 60).
            span("sim.row", 10, 60, Some(0)),
            span("sim.row", 30, 90, Some(0)),
            // Inside the first row: replay, then a cell store.
            span("uarch.replay", 15, 40, Some(1)),
            span("sim.cache_store", 45, 50, Some(1)),
            // A child that outlives its parent is clipped to it.
            span("uarch.replay", 80, 120, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 25, 5, 40]);
        assert_eq!(total(&spans, "sim.row"), ((50 + 60) as f64 * 1e-9, 2));
        assert_eq!(mean(&spans, "sim.assemble"), 0.0);

        let mut out = Vec::new();
        write_jsonl(&spans, &mut out).expect("writing to memory");
        let lines: Vec<Json> = String::from_utf8(out)
            .expect("utf-8")
            .lines()
            .map(|l| Json::parse(l).expect("one JSON object a line"))
            .collect();
        assert_eq!(lines.len(), spans.len());
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[3].get("parent"), Some(&Json::Num(1.0)));
        assert_eq!(lines[5].get("end_ns"), Some(&Json::Num(120.0)));
    }

    #[test]
    fn recorder_nests_spans_across_threads() {
        let rec = Recorder::default();
        rec.span("sim.grid", None, 7, |grid| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| rec.span("sim.row", Some(grid), 7, |_| ()));
                }
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "sim.grid");
        for row in &spans[1..] {
            assert_eq!((row.parent, row.run), (Some(0), 7));
            assert!(row.start_ns >= spans[0].start_ns && row.end_ns <= spans[0].end_ns);
            assert_ne!(row.thread, spans[0].thread, "rows ran on worker threads");
        }
        assert_ne!(spans[1].thread, spans[2].thread, "each worker has its own thread id");
    }
}
