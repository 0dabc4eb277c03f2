//! Spans around the benchmark's own calls into each layer.
//!
//! One span `(layer, op, start, end, parent)` per timed batch, kept in
//! memory and written out when the run ends. A span opened while another
//! is open is its child; a span's *self* time is its duration minus the
//! part its children cover, so `phy.plan` does not get billed for the
//! `mobility.candidates` calls the planner's caller has to make.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span. Times are nanoseconds since the
/// recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub layer: &'static str,
    pub op: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Calls into the layer this span covers (the batch size).
    pub calls: u64,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an entered span must be exited"]
pub struct SpanId(usize);

/// The in-memory span log.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, layer: &'static str, op: &'static str) -> SpanId {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(id);
        // The clock is read last so bookkeeping lands outside the span.
        let start_ns = self.now_ns();
        self.spans.push(Span { layer, op, start_ns, end_ns: start_ns, parent, calls: 0 });
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span, noting how many
    /// calls it covered.
    pub fn exit(&mut self, id: SpanId, calls: u64) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        span.calls = calls;
    }

    /// Duration of span `idx` minus the time its direct children cover.
    fn self_ns_at(&self, idx: usize) -> u64 {
        let span = &self.spans[idx];
        // Children are recorded after their parent and start inside it, so
        // the scan stops at the first span that starts after this one ends.
        let children: u64 = self.spans[idx + 1..]
            .iter()
            .take_while(|s| s.start_ns <= span.end_ns)
            .filter(|s| s.parent == Some(idx))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// Per-call self time of every closed `(layer, op)` span, one value per
    /// batch, in recording order.
    pub fn per_call_ns(&self, layer: &str, op: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| {
                let s = &self.spans[i];
                s.layer == layer && s.op == op && s.calls > 0
            })
            .map(|i| self.self_ns_at(i) as f64 / self.spans[i].calls as f64)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one tab-separated line:
    /// `id layer op start_ns end_ns parent calls self_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tlayer\top\tstart_ns\tend_ns\tparent\tcalls\tself_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.layer,
                s.op,
                s.start_ns,
                s.end_ns,
                s.calls,
                self.self_ns_at(i)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let started = Instant::now();
        while (started.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new();
        let parent = r.enter("phy", "plan");
        spin(200_000);
        let child = r.enter("mobility", "candidates");
        spin(300_000);
        r.exit(child, 10);
        spin(100_000);
        r.exit(parent, 10);
        let total = r.spans[0].end_ns - r.spans[0].start_ns;
        let child_ns = r.spans[1].end_ns - r.spans[1].start_ns;
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[0].parent, None);
        assert!(child_ns >= 300_000);
        assert_eq!(r.self_ns_at(0), total - child_ns);
        assert!(r.self_ns_at(0) >= 300_000);
        assert_eq!(r.self_ns_at(1), child_ns);
        assert_eq!(r.per_call_ns("phy", "plan"), vec![(total - child_ns) as f64 / 10.0]);
    }

    #[test]
    fn siblings_do_not_nest() {
        let mut r = Recorder::new();
        let a = r.enter("mac", "exchange");
        r.exit(a, 1);
        let b = r.enter("mac", "exchange");
        r.exit(b, 1);
        assert_eq!(r.spans[1].parent, None);
        assert_eq!(r.per_call_ns("mac", "exchange").len(), 2);
        assert!(r.per_call_ns("mac", "other").is_empty());
    }

    #[test]
    fn tsv_has_one_line_per_span_plus_header() {
        let mut r = Recorder::new();
        let a = r.enter("sim-core", "queue");
        let b = r.enter("sim-core", "inner");
        r.exit(b, 5);
        r.exit(a, 7);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("t.spans.tsv");
        r.write_tsv(&path).expect("written");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("id\tlayer\top"));
        let inner: Vec<&str> = lines[2].split('\t').collect();
        assert_eq!(&inner[..3], &["1", "sim-core", "inner"]);
        assert_eq!(inner[5], "0", "parent id");
        assert_eq!(inner[6], "5");
    }
}
