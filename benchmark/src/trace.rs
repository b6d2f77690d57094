//! Benchmark-side span recorder.
//!
//! Spans are taken around the calls *into* each library layer, from this
//! package's own files; nothing inside the library is instrumented (that is
//! a later change). They stay in memory and are written out once, when the
//! traced run ends.

use crate::json::Json;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<usize>,
    /// Repetition the span belongs to; spans of one rep share it.
    pub rep: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store. While disabled, `enter`/`exit` do nothing, so one
/// code path serves traced and untraced repetitions.
pub struct Recorder {
    origin: Instant,
    pub enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; the handle goes to [`exit`](Self::exit) and, as
    /// `parent`, to the spans it causes.
    pub fn enter(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        rep: usize,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            rep,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Some(id)
    }

    /// Close a span opened by [`enter`](Self::enter).
    pub fn exit(&mut self, id: Option<usize>) {
        let now = self.now_ns();
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = now;
        }
    }

    /// Record an interval measured elsewhere (a ticket's submit → retire).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        rep: usize,
        start: Instant,
        end: Instant,
    ) {
        if let Some(id) = self.enter(name, parent, rep) {
            let span = &mut self.spans[id];
            span.start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
            span.end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        }
    }

    /// Durations in seconds of every span called `name`, in recording order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: every span, plus per-name totals of duration and
    /// self time.
    pub fn to_json(&self, workload: &str) -> Json {
        let selfs = self_times_ns(&self.spans);
        let mut layers: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (span, &self_ns) in self.spans.iter().zip(&selfs) {
            let dur = span.end_ns - span.start_ns;
            match layers.iter_mut().find(|l| l.0 == span.name) {
                Some(l) => {
                    l.1 += 1;
                    l.2 += dur;
                    l.3 += self_ns;
                }
                None => layers.push((span.name, 1, dur, self_ns)),
            }
        }
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "layers",
                Json::Arr(
                    layers
                        .iter()
                        .map(|&(name, count, total, self_ns)| {
                            Json::obj([
                                ("name", Json::str(name)),
                                ("count", Json::Num(count as f64)),
                                ("total_s", Json::Num(total as f64 * 1e-9)),
                                ("self_s", Json::Num(self_ns as f64 * 1e-9)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("id", Json::Num(s.id as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("workload", Json::str(workload)),
                                ("rep", Json::Num(s.rep as f64)),
                                ("name", Json::str(s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time per span: its duration minus the part of its interval that its
/// child spans cover. Overlapping children (concurrent tickets of one
/// session) are counted once; a child reaching outside its parent is
/// clipped to it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| spans.get(p)) {
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[parent.id].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            rep: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 90),
            span(3, Some(2), 60, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        let spans = [
            span(0, None, 100, 200),
            span(1, Some(0), 110, 150),
            span(2, Some(0), 130, 170), // overlaps 1
            span(3, Some(0), 140, 145), // inside 1 and 2
            span(4, Some(0), 190, 250), // runs past the parent's end
            span(5, Some(0), 50, 90),   // entirely before the parent
        ];
        // covered: [110,170) = 60, [190,200) = 10
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let id = rec.enter("x", None, 0);
        rec.exit(id);
        assert!(id.is_none() && rec.spans().is_empty());
    }

    #[test]
    fn spans_nest_through_their_handles() {
        let mut rec = Recorder::new(true);
        let root = rec.enter("e2e", None, 2);
        let child = rec.enter("read", root, 2);
        rec.exit(child);
        rec.exit(root);
        let s = rec.spans();
        assert_eq!((s[1].parent, s[1].rep, s[1].name), (Some(0), 2, "read"));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(rec.durations_s("read").len(), 1);
        let back = Json::parse(&rec.to_json("w").pretty()).unwrap();
        assert_eq!(back.get("spans").unwrap().as_arr().unwrap().len(), 2);
    }
}
