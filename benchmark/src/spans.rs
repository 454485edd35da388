//! In-memory span recorder for the staged replay.
//!
//! A span is opened around every call into a layer's public functions;
//! counts (rounds, messages, slots, ...) are attached at the same boundary.
//! Spans stay in memory and are written as JSONL when the run ends. A
//! disabled recorder does nothing, which is how the timed repetitions run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `request` is the instance index within the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub request: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    request: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn enabled() -> Spans {
        Spans {
            enabled: true,
            epoch: Instant::now(),
            request: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn disabled() -> Spans {
        Spans {
            enabled: false,
            ..Spans::enabled()
        }
    }

    /// Spans recorded from now on belong to instance `request`.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. `f` receives the recorder so it can nest spans and attach
    /// counts.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request: self.request,
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        r
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: u64) {
        if let Some(&id) = self.open.last() {
            self.spans[id as usize].counts.push((key, value));
        }
    }

    /// The current request's last span named `name`, if any.
    fn find(&self, name: &str) -> Option<u32> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.request == self.request && s.name == name)
            .map(|s| s.id)
    }

    /// [`Spans::find`] for a span the caller recorded itself: the root the
    /// queries below are relative to.
    ///
    /// # Panics
    ///
    /// Panics when there is no such span.
    pub fn root(&self, name: &str) -> u32 {
        self.find(name)
            .unwrap_or_else(|| panic!("no `{name}` span in request {}", self.request))
    }

    /// Spans named `name` strictly below `root`.
    fn below<'a>(&'a self, root: u32, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans[root as usize + 1..].iter().filter(move |s| {
            let mut up = s.parent;
            while let Some(p) = up {
                if p == root {
                    return s.name == name;
                }
                up = self.spans[p as usize].parent;
            }
            false
        })
    }

    /// Total duration, in ms, of the spans named `name` below `root`.
    pub fn ms_in(&self, root: u32, name: &str) -> f64 {
        self.below(root, name).map(Span::duration_ns).sum::<u64>() as f64 / 1e6
    }

    /// Sum of count `key` over the spans named `name` below `root`.
    pub fn sum_in(&self, root: u32, name: &str, key: &str) -> u64 {
        self.below(root, name)
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .sum()
    }

    /// Duration of span `id` in ms.
    pub fn duration_ms(&self, id: u32) -> f64 {
        self.spans[id as usize].duration_ns() as f64 / 1e6
    }

    /// Self time of span `id`: its duration minus its direct children's.
    pub fn self_ns(&self, id: u32) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id as usize]
            .duration_ns()
            .saturating_sub(children)
    }

    /// Share of span `id` that its direct children cover (1.0 when the
    /// span has zero duration).
    pub fn coverage(&self, id: u32) -> f64 {
        let total = self.spans[id as usize].duration_ns();
        if total == 0 {
            return 1.0;
        }
        (total - self.self_ns(id)) as f64 / total as f64
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"workload\":\"{workload}\",\"request\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}",
                s.request,
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(s.id)
            )?;
            for (k, v) in &s.counts {
                write!(out, ",\"{k}\":{v}")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tree with explicit times: root [0,100] with children
    /// [10,40] and [50,90]; the second child has a grandchild [60,70].
    fn tree() -> Spans {
        let mut s = Spans::enabled();
        let mk = |id, parent, name, start_ns, end_ns| Span {
            request: 0,
            id,
            parent,
            name,
            start_ns,
            end_ns,
            counts: Vec::new(),
        };
        s.spans = vec![
            mk(0, None, "pipeline", 0, 100),
            mk(1, Some(0), "a", 10, 40),
            mk(2, Some(0), "b", 50, 90),
            mk(3, Some(2), "a", 60, 70),
        ];
        s
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let s = tree();
        assert_eq!(s.self_ns(0), 100 - 30 - 40);
        assert_eq!(s.self_ns(1), 30);
        assert_eq!(s.self_ns(2), 40 - 10);
        assert_eq!(s.self_ns(3), 10);
        // self times partition the root
        assert_eq!((0..4).map(|i| s.self_ns(i)).sum::<u64>(), 100);
    }

    #[test]
    fn coverage_counts_direct_children_only() {
        let s = tree();
        assert_eq!(s.find("pipeline"), Some(0));
        assert!((s.coverage(0) - 0.70).abs() < 1e-12);
        assert_eq!(s.coverage(3), 0.0);
        assert_eq!(s.find("missing"), None);
    }

    #[test]
    fn totals_and_counts_are_per_request() {
        let mut s = tree();
        // both `a` spans are below the root, only the grandchild is below `b`
        assert!((s.ms_in(0, "a") - (30.0 + 10.0) / 1e6).abs() < 1e-15);
        assert!((s.ms_in(2, "a") - 10.0 / 1e6).abs() < 1e-15);
        assert_eq!(s.ms_in(1, "a"), 0.0);
        assert_eq!(s.find("a"), Some(3));
        s.set_request(1);
        assert_eq!(s.find("a"), None);
        let v = s.scope("outer", |s| {
            s.count("rounds", 3);
            s.scope("inner", |s| s.count("rounds", 4));
            s.count("rounds", 5);
            7
        });
        assert_eq!(v, 7);
        let outer = s.find("outer").unwrap();
        assert_eq!(
            s.spans[outer as usize].counts,
            vec![("rounds", 3), ("rounds", 5)]
        );
        assert_eq!(s.sum_in(outer, "inner", "rounds"), 4);
        let inner = s.spans.last().unwrap();
        assert_eq!(inner.parent, Some(4));
        assert_eq!(inner.request, 1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::disabled();
        let v = s.scope("x", |s| {
            s.count("k", 1);
            2
        });
        assert_eq!(v, 2);
        assert!(s.spans.is_empty());
    }
}
