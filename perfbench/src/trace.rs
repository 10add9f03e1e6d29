//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around calls the benchmark itself makes into a
//! layer's public API. Each span has a name, a start and an end (ns since
//! the recorder was created), the index of the span that caused it, and the
//! id of the loop or request it belongs to. Spans stay in memory until the
//! run ends and are written out once.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Root span of one loop's or request's layer probes, the calls a traced
/// run makes beside the workload's own; the workload's calls are under
/// [`ITEM`] roots.
pub const PROBE: &str = "probe";
/// Root span of the workload's own calls for one loop or request.
pub const ITEM: &str = "item";

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Loop or request id shared by every span of that item.
    pub item: u32,
    /// Index of the parent span among the recorder's spans.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. A disabled tracer records nothing and costs one branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span and return its index (`None` when disabled).
    pub fn open(&mut self, name: &'static str, item: u32, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            item,
            parent,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        item: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, item, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Seconds of a closed span (0 for a disabled tracer's `None`).
    pub fn span_s(&self, span: Option<usize>) -> f64 {
        span.map_or(0.0, |i| self.spans[i].duration_ns() as f64 / 1e9)
    }

    /// Total and self time per span name. A span's self time is its
    /// duration minus the part of its interval its child spans cover.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        // A parent is opened before its children, so its root is known.
        let mut root: Vec<usize> = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
            root.push(s.parent.map_or(i, |p| root[p]));
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let layer = out.entry(s.name).or_default();
            layer.calls += 1;
            layer.total_ns += s.duration_ns();
            layer.self_ns += s.duration_ns() - covered;
            layer.in_item |= self.spans[root[i]].name == ITEM;
        }
        out
    }

    /// Write every span as one tab-separated line:
    /// `span item parent name start_ns end_ns` (`-` for a root's parent).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\titem\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.item, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Aggregated time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Recorded under an [`ITEM`] root: one of the workload's own calls,
    /// not a probe or the set-up.
    pub in_item: bool,
}

impl LayerTime {
    /// Mean self time per call in microseconds (0 when never called).
    pub fn mean_self_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_cover() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "item",
                item: 0,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "a",
                item: 0,
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "b",
                item: 0,
                parent: Some(0),
                start_ns: 30,
                end_ns: 60,
            },
        ];
        let layers = t.layers();
        assert_eq!(layers["item"].total_ns, 100);
        assert_eq!(layers["item"].self_ns, 50);
        assert_eq!(layers["a"].self_ns, 30);
        assert_eq!(layers["b"].self_ns, 30);
        assert!(layers["a"].in_item);
    }

    #[test]
    fn item_roots_mark_their_descendants() {
        let mut t = Tracer::new(true);
        let item = t.open(ITEM, 0, None);
        t.time("a", 0, item, || ());
        t.close(item);
        let probe = t.open(PROBE, 0, None);
        t.time("b", 0, probe, || ());
        t.close(probe);
        let layers = t.layers();
        assert!(layers[ITEM].in_item && layers["a"].in_item);
        assert!(!layers[PROBE].in_item && !layers["b"].in_item);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.time("x", 0, None, || 7);
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
    }
}
