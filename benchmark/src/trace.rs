//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The benchmark times the crates from outside: a span is opened before a
//! call into a public function and closed after it returns. Spans are kept
//! in a pre-sized `Vec` and written out when the workload ends. With
//! recording off `begin`/`end` read no clock and push nothing; they still
//! add up the simulated cost of the op, which the untraced run reports.

use crate::stats::Samples;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Simulated CONGEST cost billed by one call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cost {
    pub rounds: u64,
    pub messages: u64,
    pub bits: u64,
}

impl Cost {
    pub fn new(rounds: u64, messages: u64, bits: u64) -> Self {
        Cost {
            rounds,
            messages,
            bits,
        }
    }

    pub fn add(&mut self, other: Cost) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bits += other.bits;
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Index of the op (cycle or request) this span belongs to; set-up
    /// and probe spans carry the index of the op that follows them.
    pub op: u32,
    /// The caller that issued the op (0 unless the workload has clients).
    pub client: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cost: Cost,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `end` it in LIFO order.
#[must_use]
pub struct Open(Option<u32>);

pub struct Tracer {
    epoch: Instant,
    client: u32,
    recording: bool,
    op: u32,
    op_cost: Cost,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// `epoch` is shared by the tracers of one run so their spans merge
    /// onto one time line.
    pub fn new(epoch: Instant, client: u32, capacity: usize) -> Self {
        Tracer {
            epoch,
            client,
            recording: false,
            op: 0,
            op_cost: Cost::default(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(4),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn set_recording(&mut self, on: bool) {
        assert!(self.open.is_empty(), "recording toggled inside a span");
        self.recording = on;
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.recording {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
            client: self.client,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            cost: Cost::default(),
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes the span and bills `cost` to it and to the current op.
    pub fn end(&mut self, span: Open, cost: Cost) {
        self.op_cost.add(cost);
        self.close(span, cost);
    }

    fn close(&mut self, span: Open, cost: Cost) {
        if let Some(id) = span.0 {
            let end_ns = self.now_ns();
            assert_eq!(self.open.pop(), Some(id), "spans must close in LIFO order");
            let s = &mut self.spans[id as usize];
            s.end_ns = end_ns;
            s.cost = cost;
        }
    }

    /// Opens the root span of the next op and resets its cost account.
    pub fn begin_op(&mut self, name: &'static str) -> Open {
        self.op_cost = Cost::default();
        self.begin(crate::BENCH, name)
    }

    /// Closes the op's root span, billing it the sum of its calls' costs,
    /// and returns that sum.
    pub fn end_op(&mut self, root: Open) -> Cost {
        let cost = self.op_cost;
        self.close(root, cost);
        self.op += 1;
        cost
    }

    /// Moves another tracer's spans (same epoch) behind this one's.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            if s.parent != NO_PARENT {
                s.parent += offset;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are not counted twice,
/// and a child is clipped to its parent's interval).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (start, end) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if start < end {
                children[s.parent as usize].push((start, end));
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
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// What recording one span costs on this host: the mean over a batch of
/// empty spans, clock reads and the push included.
pub fn span_cost_ns() -> f64 {
    const BATCH: usize = 10_000;
    let mut tr = Tracer::new(Instant::now(), 0, BATCH);
    tr.set_recording(true);
    let started = Instant::now();
    for _ in 0..BATCH {
        let s = tr.begin(crate::BENCH, "calibration");
        tr.end(s, Cost::default());
    }
    started.elapsed().as_nanos() as f64 / BATCH as f64
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Samples {
    let mut out = Samples::default();
    for s in spans.iter().filter(|s| s.name == name) {
        out.push(s.duration_ns() as f64 / 1e6);
    }
    out
}

/// Cost billed to the first span called `name` (zero if there is none).
/// Workloads whose inputs change from op to op change them in a seeded
/// order, so the first span's counts repeat for a seed.
pub fn first_cost(spans: &[Span], name: &str) -> Cost {
    spans
        .iter()
        .find(|s| s.name == name)
        .map_or_else(Cost::default, |s| s.cost)
}

/// Writes `{"header": <header>, "spans": [...]}`; `header` is a rendered
/// JSON object.
pub fn write_json(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"header\": {header},\n\"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let sep = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            w,
            "{{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"client\": {}, \
             \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"rounds\": {}, \"messages\": {}, \"bits\": {}}}{sep}",
            s.id,
            s.op,
            s.client,
            s.layer,
            s.name,
            s.start_ns,
            s.end_ns,
            s.cost.rounds,
            s.cost.messages,
            s.cost.bits
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            client: 0,
            layer: "l",
            name: "n",
            start_ns,
            end_ns,
            cost: Cost::default(),
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 40),
            span(2, 0, 50, 90),
            span(3, 2, 60, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
        // Root self time plus its children's durations is the op's wall.
        let kids: u64 = spans[1..3].iter().map(Span::duration_ns).sum();
        assert_eq!(self_times_ns(&spans)[0] + kids, spans[0].duration_ns());
    }

    #[test]
    fn self_time_counts_overlapping_and_overhanging_children_once() {
        let spans = [
            span(0, NO_PARENT, 100, 200),
            span(1, 0, 110, 150),
            span(2, 0, 140, 160),
            span(3, 0, 120, 130),
            span(4, 0, 190, 250),
        ];
        // Covered: [110, 160) and [190, 200).
        assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn tracer_nests_spans_and_bills_the_op() {
        let mut tr = Tracer::new(Instant::now(), 3, 8);
        tr.set_recording(true);
        let root = tr.begin_op("cycle");
        let a = tr.begin("x", "a");
        tr.end(a, Cost::new(2, 10, 100));
        let b = tr.begin("x", "b");
        tr.end(b, Cost::new(3, 5, 50));
        assert_eq!(tr.end_op(root), Cost::new(5, 15, 150));
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (NO_PARENT, 0, 0)
        );
        assert_eq!(spans[0].cost, Cost::new(5, 15, 150));
        assert!(spans.iter().all(|s| s.client == 3 && s.op == 0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(first_cost(spans, "b"), Cost::new(3, 5, 50));
        assert_eq!(durations_ms(spans, "a").count(), 1);
    }

    #[test]
    fn a_silent_tracer_still_accounts_cost() {
        let mut tr = Tracer::new(Instant::now(), 0, 0);
        let root = tr.begin_op("cycle");
        let a = tr.begin("x", "a");
        tr.end(a, Cost::new(1, 2, 3));
        assert_eq!(tr.end_op(root), Cost::new(1, 2, 3));
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 0, 4);
        let mut b = Tracer::new(epoch, 1, 4);
        for tr in [&mut a, &mut b] {
            tr.set_recording(true);
            let root = tr.begin_op("request");
            let call = tr.begin("x", "call");
            tr.end(call, Cost::default());
            tr.end_op(root);
        }
        a.absorb(b);
        let ids: Vec<(u32, u32)> = a.spans().iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, vec![(0, NO_PARENT), (1, 0), (2, NO_PARENT), (3, 2)]);
        assert_eq!(a.spans()[3].client, 1);
    }
}
