//! Host-time spans recorded by the benchmark around its own calls into
//! each crate's public functions.
//!
//! A span has a name, a start, an end, the span that was open when it
//! began, and the id of the workload run it belongs to. Functions the
//! simulator calls once per event (the service-model closures) would
//! drown the trace in spans, so they are recorded as one aggregate per
//! call site instead: a call count and a total time, charged to the span
//! that was open around them. Everything stays in memory until the run
//! ends and is then written out in one piece.
//!
//! A disabled tracer records nothing and only runs the wrapped closures,
//! so untraced runs pay one branch per wrapped call.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

use vfpga_sim::Json;

/// One closed span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub run: u32,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// Calls made from inside a span, folded into one count and total time.
#[derive(Debug, Clone)]
pub struct Aggregate {
    pub name: &'static str,
    pub run: u32,
    pub parent: usize,
    pub calls: u64,
    pub nanos: u64,
}

/// The in-memory span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    aggregates: Vec<Aggregate>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new workload run: later spans carry its id.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start: self.now(),
            end: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Charges the calls counted by `counter` to the innermost open span.
    pub fn aggregate(&mut self, name: &'static str, counter: &CallCounter) {
        let Some(&parent) = self.open.last() else {
            return;
        };
        if self.enabled {
            self.aggregates.push(Aggregate {
                name,
                run: self.run,
                parent,
                calls: counter.calls.get(),
                nanos: counter.nanos.get(),
            });
        }
    }

    /// Duration in seconds of every span called `name` in run `run`.
    pub fn total_s(&self, name: &str, run: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.run == run)
            .map(|s| s.nanos() as f64 * 1e-9)
            .sum()
    }

    /// Self time in seconds per span name for run `run`: each span's
    /// duration minus the time covered by its child spans and the
    /// aggregated calls charged to it. Aggregates appear under their own
    /// names with their total time.
    pub fn self_times(&self, run: u32) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.nanos();
            }
        }
        for a in &self.aggregates {
            covered[a.parent] += a.nanos;
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.run == run {
                let own = s.nanos().saturating_sub(covered[i]);
                *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
            }
        }
        for a in self.aggregates.iter().filter(|a| a.run == run) {
            *out.entry(a.name).or_insert(0.0) += a.nanos as f64 * 1e-9;
        }
        out
    }

    /// Every span and aggregate, plus per-run self times, as one JSON
    /// document.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj()
                    .with("id", id as u64)
                    .with("name", s.name)
                    .with("run", u64::from(s.run))
                    .with("parent", s.parent.map(|p| p as f64))
                    .with("start_ns", s.start)
                    .with("end_ns", s.end)
            })
            .collect();
        let aggregates = self
            .aggregates
            .iter()
            .map(|a| {
                Json::obj()
                    .with("name", a.name)
                    .with("run", u64::from(a.run))
                    .with("parent", a.parent as u64)
                    .with("calls", a.calls)
                    .with("total_ns", a.nanos)
            })
            .collect();
        let mut runs: Vec<u32> = self.spans.iter().map(|s| s.run).collect();
        runs.dedup();
        let self_times = runs
            .into_iter()
            .map(|run| {
                let table = self
                    .self_times(run)
                    .into_iter()
                    .fold(Json::obj(), |o, (name, s)| o.with(name, s));
                Json::obj()
                    .with("run", u64::from(run))
                    .with("self_s", table)
            })
            .collect();
        Json::obj()
            .with("spans", Json::Arr(spans))
            .with("aggregates", Json::Arr(aggregates))
            .with("self_times", Json::Arr(self_times))
    }
}

/// Counts and times the calls of one closure the simulator invokes per
/// event. Timing happens only when the tracer that made it is enabled.
pub struct CallCounter {
    timed: bool,
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

impl CallCounter {
    pub fn new(tracer: &Tracer) -> Self {
        CallCounter {
            timed: tracer.enabled(),
            calls: Cell::new(0),
            nanos: Cell::new(0),
        }
    }

    /// Runs `f`, counting it and adding its duration when timed.
    #[inline]
    pub fn call<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self.timed {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.nanos
            .set(self.nanos.get() + start.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_aggregates() {
        let mut t = Tracer::new(true);
        t.set_run(1);
        let counter = CallCounter::new(&t);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            counter.call(|| std::thread::sleep(std::time::Duration::from_millis(5)));
            t.aggregate("agg", &counter);
        });
        let selfs = t.self_times(1);
        let total = t.total_s("outer", 1);
        let sum: f64 = selfs.values().sum();
        assert!((sum - total).abs() < 1e-6, "{sum} vs {total}");
        assert!(selfs["inner"] >= 0.005 && selfs["agg"] >= 0.005);
        assert!(selfs["outer"] < selfs["inner"]);
        assert_eq!(counter.calls(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let counter = CallCounter::new(&t);
        let v = t.span("x", |_| counter.call(|| 7));
        assert_eq!(v, 7);
        assert_eq!(counter.calls(), 0);
        assert!(t.self_times(0).is_empty());
    }
}
