//! Client-side spans around the calls into each layer.
//!
//! A span records its name, start, end, parent span and query id. Spans are
//! kept in memory and written out when the run ends. A layer's self time is
//! its span's duration minus the time its child spans cover. When the tracer
//! is off, [`Tracer::span`] only calls the closure.

use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    query: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            query: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off; spans opened while on still close.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts a new query id; spans opened from here on carry it.
    pub fn next_query(&mut self) -> u64 {
        self.query += 1;
        self.query
    }

    /// Runs `f` inside a span named `name` (a plain call when off).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            query: self.query,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Per span name, the median over queries of the per-query total
    /// duration (`self_time == false`) or self time (`self_time == true`),
    /// in milliseconds. Only queries in which the name occurs count.
    pub fn per_query_ms(&self, self_time: bool) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let ns = if self_time {
                dur.saturating_sub(child_ns[i])
            } else {
                dur
            };
            *totals.entry((s.name, s.query)).or_default() += ns;
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _q), ns) in totals {
            by_name.entry(name).or_default().push(ns as f64 / 1e6);
        }
        by_name
            .into_iter()
            .map(|(name, v)| (name, crate::measure::median(&v)))
            .collect()
    }

    /// The spans as JSON lines, each tagged with `tracer` (ids and parents
    /// are indices within one tracer).
    pub fn to_json_lines(&self, tracer: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"tracer\": \"{tracer}\", \"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"query\": {}}}\n",
                s.name, s.start_ns, s.end_ns, s.query
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.set_on(true);
        t.next_query();
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let total = t.per_query_ms(false);
        let own = t.per_query_ms(true);
        assert!(total["outer"] >= total["inner"] + 2.0);
        assert!((own["outer"] - (total["outer"] - total["inner"])).abs() < 1e-6);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new();
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}
