//! In-memory spans recorded by the benchmark around its calls into each
//! layer (the program itself carries no wall-clock spans yet). A span is
//! a name, a start, an end and the span that caused it; spans of one
//! ledger share its sequence number. They are kept in memory and written
//! out once, when the run ends.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;
use stellar_telemetry::Json;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`crate.module.function`).
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Ledger sequence (or batch number) the span belongs to.
    pub group: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    group: u64,
    enabled: bool,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            group: 0,
            enabled: true,
        }
    }

    /// A recorder that records nothing and reads no clock, for code
    /// shared with untraced runs.
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    /// Sets the group (ledger sequence) stamped on spans opened from now.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            group: self.group,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, for the trace file.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj()
                        .set("id", id as u64)
                        .set("name", s.name)
                        .set("start_ns", s.start_ns)
                        .set("end_ns", s.end_ns)
                        .set("parent", s.parent.map_or(Json::Null, |p| (p as u64).into()))
                        .set("group", s.group)
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per-group self time of every span name, in microseconds: one sample
/// per group in which the name occurs (occurrences within a group add).
pub fn self_us_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let own = self_times_ns(spans);
    let mut per_group: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *per_group.entry((s.name, s.group)).or_default() += ns;
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in per_group {
        out.entry(name).or_default().push(ns as f64 / 1000.0);
    }
    out
}

/// Median per-group self time of `name`, µs; 0 when it never ran.
pub fn median_self_us(by_name: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    by_name.get(name).map_or(0.0, |v| stats::median(v))
}

/// Σ self time of the spans directly under each `root` span ÷ Σ duration
/// of the `root` spans: 1 when the stages account for the whole.
pub fn stage_sum_ratio(spans: &[Span], root: &str) -> f64 {
    let own = self_times_ns(spans);
    let mut total = 0u64;
    let mut staged = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.name == root {
            total += s.duration_ns();
        } else {
            // Walk up to the enclosing root, if any.
            let mut p = s.parent;
            while let Some(q) = p {
                if spans[q].name == root {
                    staged += own[i];
                    break;
                }
                p = spans[q].parent;
            }
        }
    }
    stats::ratio(staged as f64, total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, group: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            group,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("ledger", 0, 100, None, 1),
            span("apply", 10, 60, Some(0), 1),
            span("sig", 20, 30, Some(1), 1),
            span("hash", 60, 95, Some(0), 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 40, 10, 35]);
    }

    #[test]
    fn stage_sum_ratio_is_staged_share_of_root() {
        let spans = vec![
            span("ledger", 0, 100, None, 1),
            span("apply", 10, 60, Some(0), 1),
            span("sig", 20, 30, Some(1), 1),
            span("hash", 60, 95, Some(0), 1),
            span("query", 100, 150, None, 1),
        ];
        // 40 + 10 + 35 of 100; the query span is outside every ledger.
        assert!((stage_sum_ratio(&spans, "ledger") - 0.85).abs() < 1e-12);
        assert_eq!(stage_sum_ratio(&spans, "absent"), 0.0);
    }

    #[test]
    fn per_group_samples_add_repeats_and_take_medians() {
        let spans = vec![
            span("flush", 0, 2000, None, 1),
            span("flush", 3000, 4000, None, 1),
            span("flush", 0, 5000, None, 2),
            span("flush", 0, 9000, None, 3),
        ];
        let by = self_us_by_name(&spans);
        assert_eq!(by["flush"], vec![3.0, 5.0, 9.0]);
        assert_eq!(median_self_us(&by, "flush"), 5.0);
        assert_eq!(median_self_us(&by, "absent"), 0.0);
    }

    #[test]
    fn recorder_nests_and_stamps_groups() {
        let mut r = Recorder::new();
        r.set_group(7);
        let a = r.enter("ledger");
        r.span("apply", || std::hint::black_box(1 + 1));
        r.exit(a);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].group, 7);
        assert!(s[0].end_ns >= s[1].end_ns && s[1].end_ns >= s[1].start_ns);
    }
}
