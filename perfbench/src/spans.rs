//! The traced run's span buffer, its output file and the self-time
//! reducer.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions, kept in memory, and written out once the run ends.
//! A span's **self time** is its duration minus the part of it that its
//! child spans cover, so a layer's self times add up to its share of the
//! run without double counting the layers it calls.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; children name their parent by it.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `player.step` or `algo.choose.cava`.
    pub name: &'static str,
    /// The session (or request) the call served; spans of one session
    /// share it.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Nanoseconds from the buffer's base instant.
    pub start_ns: u64,
    /// Nanoseconds from the buffer's base instant; `>= start_ns`.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span buffer.
pub struct SpanBuf {
    base: Instant,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// An empty buffer timing from now.
    pub fn new() -> SpanBuf {
        SpanBuf {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Record a finished call timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`SpanBuf::end`]. Used for parents
    /// whose children are recorded before the parent ends.
    pub fn begin(&mut self, name: &'static str, id: u64, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, id, parent, now, now)
    }

    /// Close a span opened with [`SpanBuf::begin`].
    pub fn end(&mut self, span: SpanId) {
        let now = self.ns(Instant::now());
        let s = &mut self.spans[span];
        s.end_ns = now.max(s.start_ns);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for SpanBuf {
    fn default() -> SpanBuf {
        SpanBuf::new()
    }
}

/// Per-name totals from [`reduce`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed wall durations.
    pub total_ns: u64,
    /// Summed self times (durations minus child coverage).
    pub self_ns: u64,
}

/// Sum wall and self time per span name. A child's interval counts
/// toward its parent's coverage only where it lies inside the parent, and
/// overlapping children are counted once.
pub fn reduce(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for ((_, name), t) in reduce_by_root(spans) {
        let sum = out.entry(name).or_default();
        sum.count += t.count;
        sum.total_ns += t.total_ns;
        sum.self_ns += t.self_ns;
    }
    out
}

/// [`reduce`], keyed by (name of the span's root, span name), so each
/// tree of calls — a session, a replayed session, a served request — can
/// be read on its own.
pub fn reduce_by_root(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut root: Vec<&'static str> = Vec::with_capacity(spans.len());
    for s in spans {
        match s.parent {
            Some(p) => {
                children[p].push((s.start_ns, s.end_ns));
                root.push(root[p]);
            }
            None => root.push(s.name),
        }
    }
    let mut out = BTreeMap::new();
    for ((s, kids), root) in spans.iter().zip(children.iter_mut()).zip(root) {
        let covered = covered_ns(s.start_ns, s.end_ns, kids);
        let t: &mut LayerTime = out.entry((root, s.name)).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns() - covered;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

const HEADER: &str = "name\tid\tparent\tstart_ns\tend_ns";

/// Write `spans` as tab-separated text (one span per line, `parent` is a
/// line index or `-`).
pub fn write_tsv(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut text = String::with_capacity(48 * spans.len() + HEADER.len() + 1);
    text.push_str(HEADER);
    text.push('\n');
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{}\t{}\t{}\t{}\t{}",
            s.name, s.id, parent, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, text)
}

/// Read a file written by [`write_tsv`]. Span names are interned against
/// `names`; a line naming anything else is an error.
pub fn read_tsv(path: &Path, names: &[&'static str]) -> io::Result<Vec<Span>> {
    let bad = |line: usize, what: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}:{}: {what}", path.display(), line + 1),
        )
    };
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.lines().enumerate();
    if lines.next().map(|(_, l)| l) != Some(HEADER) {
        return Err(bad(0, "missing header"));
    }
    let mut spans = Vec::new();
    for (n, line) in lines {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 5 {
            return Err(bad(n, "expected 5 fields"));
        }
        let name = names
            .iter()
            .copied()
            .find(|known| *known == f[0])
            .ok_or_else(|| bad(n, "unknown span name"))?;
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad(n, "bad number"));
        let parent = match f[2] {
            "-" => None,
            p => Some(num(p)? as usize),
        };
        if parent.is_some_and(|p| p >= spans.len()) {
            // Also what lets the reducers find every root in one pass.
            return Err(bad(n, "parent must precede its child"));
        }
        spans.push(Span {
            name,
            id: num(f[1])?,
            parent,
            start_ns: num(f[3])?,
            end_ns: num(f[4])?,
        });
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // session [0, 100): two player steps and a choose in between, the
        // choose itself containing a nested store call.
        let spans = vec![
            span("session", None, 0, 100),
            span("player.step", Some(0), 10, 20),
            span("algo.choose", Some(0), 20, 50),
            span("store.decide", Some(2), 30, 40),
            span("player.step", Some(0), 50, 55),
        ];
        let r = reduce(&spans);
        assert_eq!(
            r["session"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 55
            }
        );
        assert_eq!(
            r["player.step"],
            LayerTime {
                count: 2,
                total_ns: 15,
                self_ns: 15
            }
        );
        assert_eq!(
            r["algo.choose"],
            LayerTime {
                count: 1,
                total_ns: 30,
                self_ns: 20
            }
        );
        assert_eq!(
            r["store.decide"],
            LayerTime {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        // Self times partition the root's wall time.
        let self_sum: u64 = r.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, 100);
        let by_root = reduce_by_root(&spans);
        assert_eq!(by_root.len(), r.len());
        assert!(by_root.keys().all(|(root, _)| *root == "session"));
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = vec![
            span("parent", None, 100, 200),
            span("child", Some(0), 90, 130),  // overhangs the start
            span("child", Some(0), 120, 150), // overlaps the first
            span("child", Some(0), 190, 260), // overhangs the end
        ];
        // Covered: [100, 150) + [190, 200) = 60.
        assert_eq!(reduce(&spans)["parent"].self_ns, 40);
    }

    #[test]
    fn tsv_round_trips() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("test-spans-{}.tsv", std::process::id()));
        let spans = vec![span("a", None, 0, 9), span("b", Some(0), 2, 3)];
        write_tsv(&path, &spans).unwrap();
        assert_eq!(read_tsv(&path, &["a", "b"]).unwrap(), spans);
        assert!(read_tsv(&path, &["a"]).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
