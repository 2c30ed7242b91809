//! In-memory spans recorded around calls into each layer's public
//! functions, written out as a Chrome trace when the run ends.
//!
//! A span names the layer call it times (`sim.step`, `ckpt.restore`,
//! ...), the cell (one program under one configuration, or one RPC)
//! whose work it belongs to, and how many operations it covers: a tight
//! loop over one call is timed as one span with its operation count, so
//! the clock is read twice per batch rather than twice per call.

use fac_sim::obs::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call, `<layer>.<call>`.
    pub name: &'static str,
    /// Index into [`Tracer::cells`]: the request this span served.
    pub cell: usize,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Operations the span covers.
    pub count: u64,
    /// `true` for the layer probe that follows the workload's own pass.
    pub probe: bool,
}

/// The span store, plus counters recorded at the same layer boundaries.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    /// Every span, in completion order.
    pub spans: Vec<Span>,
    /// Cell labels; a span's `cell` indexes this.
    pub cells: Vec<String>,
    /// Deterministic work counts by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Median served hit latency not accounted for by the replayed calls,
    /// microseconds.
    pub server_other_us: Option<f64>,
    /// Sampled-tier CPI error against the detailed CPI, percent, one per
    /// sampled cell.
    pub cpi_errs: Vec<f64>,
    /// Whether new spans belong to the layer probe.
    pub probe: bool,
    /// Whether anything is recorded. An off tracer runs the same traced
    /// loops without keeping spans, cells or counters: the base the trace
    /// overhead is measured against.
    pub on: bool,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            cells: Vec::new(),
            counters: BTreeMap::new(),
            server_other_us: None,
            cpi_errs: Vec::new(),
            probe: false,
            on: true,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    /// Opens a new cell (request) and returns its id.
    pub fn cell(&mut self, label: String) -> usize {
        if !self.on {
            return 0;
        }
        self.cells.push(label);
        self.cells.len() - 1
    }

    /// Records a span from `start` to now covering `count` operations;
    /// returns its duration in nanoseconds.
    pub fn span(&mut self, name: &'static str, cell: usize, start: Instant, count: u64) -> f64 {
        let dur_ns = start.elapsed().as_nanos() as u64;
        if !self.on {
            return dur_ns as f64;
        }
        self.spans.push(Span {
            name,
            cell,
            start_ns: start.duration_since(self.t0).as_nanos() as u64,
            dur_ns,
            count,
            probe: self.probe,
        });
        dur_ns as f64
    }

    /// Adds `n` to a counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if !self.on {
            return;
        }
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Total nanoseconds and operations over every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(d, c), s| (d + s.dur_ns, c + s.count))
    }

    /// Nanoseconds spent in the workload's own pass (not the probe) in
    /// spans named any of `names`.
    pub fn pass_ns(&self, names: &[&str]) -> u64 {
        self.spans
            .iter()
            .filter(|s| !s.probe && names.contains(&s.name))
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Whether any span named `name` was recorded.
    pub fn has(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name)
    }

    /// Mean nanoseconds per operation over the spans named `name`.
    pub fn ns_per_op(&self, name: &str) -> f64 {
        let (ns, ops) = self.total(name);
        if ops == 0 {
            f64::NAN
        } else {
            ns as f64 / ops as f64
        }
    }

    /// Writes every span as a Chrome trace (`chrome://tracing`, Perfetto)
    /// with `stamp` attached, creating the parent directory if needed.
    pub fn write(&self, path: &Path, stamp: Json) -> std::io::Result<()> {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = Json::obj();
                args.set("cell", Json::Str(self.cells[s.cell].clone()));
                args.set("count", Json::U64(s.count));
                let mut e = Json::obj();
                e.set("name", Json::Str(s.name.to_string()));
                e.set(
                    "cat",
                    Json::Str(s.name.split('.').next().unwrap_or("").to_string()),
                );
                e.set("ph", Json::Str("X".to_string()));
                e.set("ts", Json::F64(s.start_ns as f64 / 1e3));
                e.set("dur", Json::F64(s.dur_ns as f64 / 1e3));
                e.set("pid", Json::U64(1));
                e.set("tid", Json::U64(if s.probe { 2 } else { 1 }));
                e.set("args", args);
                e
            })
            .collect();
        let mut doc = Json::obj();
        doc.set("traceEvents", Json::Arr(events));
        doc.set("stamp", stamp);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.to_string())
    }
}
