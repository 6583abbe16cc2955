//! Spans around the calls the benchmark makes into the program, and the
//! arithmetic that turns them into a per-layer budget.
//!
//! A request's spans are pushed contiguously, root first. Three kinds
//! are told apart by name:
//!
//! * live spans (`engine.wait`, `client.recv`, …) time a call the
//!   workload made while it was measured;
//! * `replay.*` spans time one layer's public call on the same request,
//!   replayed alone after the measured phase;
//! * `reported.*` spans carry a duration the program reported about
//!   itself (the server's `RouteReply.latency_ns`, a unit's latency),
//!   placed to end where their parent ends.
//!
//! A span's self time is its duration minus its direct children's. The
//! request's residual is its end-to-end time minus the self times of
//! every replayed or reported descendant: the time no layer measured in
//! isolation explains.

use std::io::{BufWriter, Write};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds on the benchmark's monotonic clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One timed interval of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub req_id: u64,
    /// Index of the parent span; `None` for a request's root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> i64 {
        self.end_ns as i64 - self.start_ns as i64
    }

    fn is_layer_work(&self) -> bool {
        self.name.starts_with("replay.") || self.name.starts_with("reported.")
    }
}

/// A preallocated span store.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    pub fn with_capacity(n: usize) -> Self {
        Self { spans: Vec::with_capacity(n) }
    }

    /// Appends a span and returns its index (the handle children use as
    /// their parent).
    pub fn push(
        &mut self,
        name: &'static str,
        req_id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span { name, req_id, parent, start_ns, end_ns });
        self.spans.len() - 1
    }

    /// A `reported.*` span of `dur_ns` under `parent`, ending where the
    /// parent ends.
    pub fn push_reported(
        &mut self,
        name: &'static str,
        parent: usize,
        dur_ns: u64,
    ) -> usize {
        let p = self.spans[parent];
        let start = p.end_ns.saturating_sub(dur_ns);
        self.push(name, p.req_id, Some(parent), start, p.end_ns)
    }

    /// The spans of the request rooted at `root`: the root and every
    /// span pushed after it up to the next root.
    fn request(&self, root: usize) -> std::ops::Range<usize> {
        let end = self.spans[root + 1..]
            .iter()
            .position(|s| s.parent.is_none())
            .map_or(self.spans.len(), |k| root + 1 + k);
        root..end
    }

    /// Span `i`'s duration minus its direct children's, in ns.
    pub fn self_time(&self, i: usize) -> i64 {
        let root = (0..=i).rev().find(|&k| self.spans[k].parent.is_none()).unwrap_or(0);
        let children: i64 = self.spans[self.request(root)]
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(Span::dur)
            .sum();
        self.spans[i].dur() - children
    }

    /// The request's end-to-end time minus the self times of its
    /// replayed and reported descendants, in ns.
    pub fn residual(&self, root: usize) -> i64 {
        let explained: i64 = self
            .request(root)
            .skip(1)
            .filter(|&k| self.spans[k].is_layer_work())
            .map(|k| self.self_time(k))
            .sum();
        self.spans[root].dur() - explained
    }

    /// Indices of every root span.
    pub fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.spans.len()).filter(|&k| self.spans[k].parent.is_none())
    }

    pub fn get(&self, i: usize) -> &Span {
        &self.spans[i]
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span: `name`, `req_id`, `parent`
    /// (span index or null), `start_ns`, `end_ns`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"req_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req_id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An engine request: 100 ns end to end, submit 10, wait 90; the
    /// replayed service inside the wait is get 5 + plan 20 + execute 15.
    fn engine_request(spans: &mut Spans, req: u64, t: u64) -> usize {
        let root = spans.push("request", req, None, t, t + 100);
        spans.push("engine.submit", req, Some(root), t, t + 10);
        let wait = spans.push("engine.wait", req, Some(root), t + 10, t + 100);
        spans.push("replay.cache.get", req, Some(wait), 1_000, 1_005);
        spans.push("replay.plan.plan", req, Some(wait), 1_005, 1_025);
        spans.push("replay.plan.execute", req, Some(wait), 1_025, 1_040);
        root
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut s = Spans::default();
        let root = engine_request(&mut s, 1, 0);
        // Root: 100 − (10 + 90); the wait span keeps its handoff, 90 − 40.
        assert_eq!(s.self_time(root), 0);
        assert_eq!(s.self_time(root + 2), 50);
        assert_eq!(s.self_time(root + 3), 5);
    }

    #[test]
    fn residual_is_what_no_layer_explains() {
        let mut s = Spans::default();
        let a = engine_request(&mut s, 1, 0);
        let b = engine_request(&mut s, 2, 500);
        // 100 − (5 + 20 + 15): submit and handoff stay unexplained.
        assert_eq!(s.residual(a), 60);
        assert_eq!(s.residual(b), 60, "requests do not see each other's spans");
        assert_eq!(s.roots().collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn reported_spans_count_once_with_their_children() {
        // A wire request: rtt 1000; the server reports 300 ns, of which
        // the replayed engine service is 100; codecs add 20 + 30.
        let mut s = Spans::default();
        let root = s.push("request", 7, None, 0, 1_000);
        let recv = s.push("client.recv", 7, Some(root), 50, 1_000);
        let server = s.push_reported("reported.serve.server", recv, 300);
        assert_eq!((s.get(server).start_ns, s.get(server).end_ns), (700, 1_000));
        s.push("replay.plan.execute", 7, Some(server), 5_000, 5_100);
        s.push("replay.proto.decode_route", 7, Some(recv), 6_000, 6_020);
        s.push("replay.proto.decode_reply", 7, Some(recv), 6_020, 6_050);
        assert_eq!(s.self_time(server), 200);
        assert_eq!(s.residual(root), 1_000 - 300 - 20 - 30);
    }

    #[test]
    fn a_flat_round_keeps_its_coordinator_time_as_residual() {
        let mut s = Spans::default();
        let root = s.push("round", 3, None, 0, 10_000);
        s.push("replay.shard.decompose", 3, Some(root), 20_000, 21_000);
        s.push_reported("reported.shard.units", root, 6_000);
        s.push("replay.shard.recombine_check", 3, Some(root), 21_000, 21_500);
        assert_eq!(s.residual(root), 10_000 - 1_000 - 6_000 - 500);
        assert_eq!(s.self_time(root), s.residual(root));
    }
}
