//! An in-memory span recorder for the traced runs.
//!
//! Spans are opened and closed around calls into the program's public
//! functions from the benchmark's own code; they are kept in a vector and
//! written out when the run ends. A span with no children is a leaf: the
//! sum of leaf durations is the time the trace attributes to named work.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    /// Number of spans.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
}

impl NameTotal {
    /// Summed duration in seconds.
    pub fn secs(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Mean duration per span in milliseconds (0 when none).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 * 1e-6 / self.count as f64
        }
    }
}

/// The recorder. One per traced run; not shared across threads.
pub struct Tracer {
    t0: Instant,
    names: Vec<String>,
    ids: HashMap<String, u32>,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            names: Vec::new(),
            ids: HashMap::new(),
            spans: Vec::with_capacity(1 << 14),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Tracer::end`].
    pub fn begin(&mut self, name: &str) -> usize {
        let name = self.intern(name);
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len();
        self.stack.push(idx as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        idx
    }

    /// Closes span `idx` and any span still open inside it (an error
    /// path may return before closing its own).
    pub fn end(&mut self, idx: usize) {
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = now;
            if top as usize == idx {
                return;
            }
        }
        panic!("span {idx} is not open");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(name);
        let out = f();
        self.end(idx);
        out
    }

    /// Duration of one span in seconds.
    pub fn secs(&self, idx: usize) -> f64 {
        let s = self.spans[idx];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Count and summed duration of the spans called `name`.
    pub fn total(&self, name: &str) -> NameTotal {
        let Some(&id) = self.ids.get(name) else { return NameTotal::default() };
        self.spans.iter().filter(|s| s.name == id).fold(NameTotal::default(), |acc, s| NameTotal {
            count: acc.count + 1,
            total_ns: acc.total_ns + (s.end_ns - s.start_ns),
        })
    }

    /// Every name with its totals, in first-seen order.
    pub fn totals(&self) -> Vec<(&str, NameTotal)> {
        self.names.iter().map(|n| (n.as_str(), self.total(n))).collect()
    }

    /// Share of span `root`'s duration covered by leaf spans inside it.
    pub fn attributed_frac(&self, root: usize) -> f64 {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                has_child[s.parent as usize] = true;
            }
        }
        let r = self.spans[root];
        let leaf_ns: u64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|&(i, s)| {
                !has_child[i] && i != root && s.start_ns >= r.start_ns && s.end_ns <= r.end_ns
            })
            .map(|(_, s)| s.end_ns - s.start_ns)
            .sum();
        leaf_ns as f64 / (r.end_ns - r.start_ns).max(1) as f64
    }

    /// Per-name totals and self time (duration minus the part covered by
    /// child spans) as a JSON array, followed by every span.
    pub fn to_json(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut self_ns = vec![0u64; self.names.len()];
        for (i, s) in self.spans.iter().enumerate() {
            self_ns[s.name as usize] += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        }
        let mut out = String::from("{\"names\":[");
        for (i, (name, t)) in self.totals().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, self_ns[i]
            );
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            let _ = write!(out, "{sep}[{},{},{},{}]", s.name, parent, s.start_ns, s.end_ns);
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn nested_spans_total_and_attribute() {
        let mut tr = Tracer::new();
        let root = tr.begin("root");
        tr.span("leaf.a", || busy(3));
        let mid = tr.begin("mid");
        tr.span("leaf.b", || busy(3));
        tr.span("leaf.b", || busy(3));
        tr.end(mid);
        tr.end(root);
        assert_eq!(tr.total("leaf.b").count, 2);
        assert_eq!(tr.total("missing"), NameTotal::default());
        let frac = tr.attributed_frac(root);
        assert!(frac > 0.9 && frac <= 1.0, "{frac}");
        let json = tr.to_json();
        assert!(json.starts_with("{\"names\":[{\"name\":\"root\",\"count\":1"));
        assert!(json.contains("[2,0,"), "mid's parent is root: {json}");
    }

    #[test]
    fn closing_an_outer_span_closes_the_open_inner_ones() {
        let mut tr = Tracer::new();
        let a = tr.begin("a");
        let b = tr.begin("b");
        tr.end(a);
        assert_eq!(tr.spans[b].end_ns, tr.spans[a].end_ns);
        assert!(tr.stack.is_empty());
    }

    #[test]
    #[should_panic(expected = "is not open")]
    fn closing_a_closed_span_panics() {
        let mut tr = Tracer::new();
        let b = tr.begin("b");
        tr.end(b);
        tr.end(b);
    }
}
