//! Wall-clock spans of the traced run, recorded from the benchmark's own
//! code around each call into a layer. Spans stay in memory and are
//! written once, when the run ends, through the workspace's JSON writer.

use std::path::Path;
use std::time::Instant;

use bltc_bench::json::Json;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Layer call or operation name.
    pub name: &'static str,
    /// Start, seconds since the recorder was created.
    pub start_s: f64,
    /// End, seconds since the recorder was created.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one sample (evaluation, step,
    /// job or probe round).
    pub sample: u64,
}

/// In-memory span store.
pub struct Spans {
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Spans {
    /// An empty store whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the store was created.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span now; returns its index for use as a parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, sample: u64) -> usize {
        let now = self.now_s();
        self.spans.push(SpanRec {
            name,
            start_s: now,
            end_s: now,
            parent,
            sample,
        });
        self.spans.len() - 1
    }

    /// Close span `idx` now; returns its duration in seconds.
    pub fn close(&mut self, idx: usize) -> f64 {
        self.close_at(idx, Instant::now())
    }

    /// Close span `idx` at `at`; returns its duration in seconds.
    pub fn close_at(&mut self, idx: usize, at: Instant) -> f64 {
        let end = at.duration_since(self.origin).as_secs_f64();
        let span = &mut self.spans[idx];
        span.end_s = end;
        end - span.start_s
    }

    /// Run `f` inside a span; returns its result and duration in seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        sample: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let idx = self.open(name, parent, sample);
        let out = f();
        (out, self.close(idx))
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON document.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let rows = self
            .spans
            .iter()
            .map(|s| {
                Json::obj()
                    .field("name", Json::s(s.name))
                    .field("start_s", Json::e(s.start_s, 9))
                    .field("end_s", Json::e(s.end_s, 9))
                    .field("parent", s.parent.map_or(Json::Null, |p| Json::u(p as u64)))
                    .field("sample", Json::u(s.sample))
            })
            .collect();
        let doc = Json::obj()
            .field("workload", Json::s(workload))
            .field("seed", Json::u(seed))
            .field("clock", Json::s("host wall time, seconds since run start"))
            .field("spans", Json::arr(rows));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render_bench())
    }
}

/// Median of `f`'s wall time over `reps` calls, recorded as spans.
pub fn median_time(
    spans: &mut Spans,
    name: &'static str,
    parent: Option<usize>,
    sample: u64,
    reps: usize,
    mut f: impl FnMut(),
) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| spans.time(name, parent, sample, &mut f).1)
        .collect();
    crate::stats::median(&times)
}
