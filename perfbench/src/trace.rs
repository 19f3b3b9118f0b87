//! The traced run's storage spans, recorded from outside the program.
//!
//! [`TracedLog`] wraps a node's real [`LogStore`] and times every mutating
//! call into it — append, sync, snapshot save, compaction — recording one
//! [`StoreSpan`] per call in a shared in-memory [`SpanSink`]. Reads are
//! served from memory by every backend and are passed through untimed. The
//! wrapper is the only difference between a traced and an untraced node.
//!
//! The state machine's snapshot *build* happens inside `Node` and cannot be
//! timed from here; the `save_snapshot` and `compact_to` spans mark when it
//! happens.

use recraft_cluster::HarnessStore;
use recraft_storage::{LogEntry, LogStore, NodeMeta, Snapshot};
use recraft_types::{ClusterConfig, EpochTerm, LogIndex, NodeId, Result};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call into a node's log store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSpan {
    /// The node whose store was called.
    pub node: u64,
    /// The `LogStore` method.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start: u64,
    /// End, ns since the run's epoch.
    pub end: u64,
    /// Entries the call carried (appends only).
    pub entries: u32,
}

impl StoreSpan {
    /// Duration in ns.
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether this span is a snapshot save or a log compaction — the
    /// calls that mark the state machine's snapshot build.
    #[must_use]
    pub fn is_snapshot_work(&self) -> bool {
        matches!(self.name, "save_snapshot" | "compact_to")
    }
}

/// Every storage span of a run, kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanSink {
    epoch: Instant,
    spans: Mutex<Vec<StoreSpan>>,
}

impl SpanSink {
    /// A sink timing against `epoch` (the run's clock origin).
    #[must_use]
    pub fn new(epoch: Instant) -> Arc<SpanSink> {
        Arc::new(SpanSink {
            epoch,
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        })
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn record(&self, node: NodeId, name: &'static str, start: Instant, entries: usize) {
        let end = Instant::now();
        let span = StoreSpan {
            node: node.0,
            name,
            start: self.ns(start),
            end: self.ns(end),
            entries: u32::try_from(entries).unwrap_or(u32::MAX),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> Vec<StoreSpan> {
        self.spans.lock().expect("span sink poisoned").clone()
    }
}

/// A [`LogStore`] that times every mutating call into the store it wraps.
#[derive(Debug)]
pub struct TracedLog {
    inner: HarnessStore,
    node: NodeId,
    sink: Arc<SpanSink>,
}

impl TracedLog {
    /// Wraps `inner`, recording spans for `node` into `sink`.
    #[must_use]
    pub fn new(inner: HarnessStore, node: NodeId, sink: Arc<SpanSink>) -> TracedLog {
        TracedLog { inner, node, sink }
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        entries: usize,
        f: impl FnOnce(&mut HarnessStore) -> T,
    ) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.sink.record(self.node, name, start, entries);
        out
    }
}

impl LogStore for TracedLog {
    fn base_index(&self) -> LogIndex {
        self.inner.base_index()
    }
    fn base_eterm(&self) -> EpochTerm {
        self.inner.base_eterm()
    }
    fn first_index(&self) -> LogIndex {
        self.inner.first_index()
    }
    fn last_index(&self) -> LogIndex {
        self.inner.last_index()
    }
    fn last_eterm(&self) -> EpochTerm {
        self.inner.last_eterm()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn entry(&self, index: LogIndex) -> Option<LogEntry> {
        self.inner.entry(index)
    }
    fn eterm_at(&self, index: LogIndex) -> Option<EpochTerm> {
        self.inner.eterm_at(index)
    }
    fn matches(&self, index: LogIndex, eterm: EpochTerm) -> bool {
        self.inner.matches(index, eterm)
    }
    fn slice(&self, from: LogIndex, to: LogIndex) -> Vec<LogEntry> {
        self.inner.slice(from, to)
    }
    fn tail(&self, from: LogIndex) -> Vec<LogEntry> {
        self.inner.tail(from)
    }
    fn append(&mut self, entry: LogEntry) {
        self.timed("append", 1, |s| s.append(entry));
    }
    fn append_batch(&mut self, entries: Vec<LogEntry>) {
        let n = entries.len();
        self.timed("append_batch", n, |s| s.append_batch(entries));
    }
    fn truncate_from(&mut self, index: LogIndex) -> Result<usize> {
        self.timed("truncate_from", 0, |s| s.truncate_from(index))
    }
    fn compact_to(&mut self, index: LogIndex, eterm: EpochTerm) -> Result<()> {
        self.timed("compact_to", 0, |s| s.compact_to(index, eterm))
    }
    fn reset(&mut self, base_index: LogIndex, base_eterm: EpochTerm) {
        self.timed("reset", 0, |s| s.reset(base_index, base_eterm));
    }
    fn save_meta(&mut self, meta: &NodeMeta) {
        self.timed("save_meta", 0, |s| s.save_meta(meta));
    }
    fn load_meta(&self) -> Option<NodeMeta> {
        self.inner.load_meta()
    }
    fn save_snapshot(&mut self, snapshot: &Snapshot, config: &ClusterConfig) {
        self.timed("save_snapshot", 0, |s| s.save_snapshot(snapshot, config));
    }
    fn load_snapshot(&self) -> Option<(Snapshot, ClusterConfig)> {
        self.inner.load_snapshot()
    }
    fn sync(&mut self) {
        self.timed("sync", 0, LogStore::sync);
    }
    fn sync_count(&self) -> u64 {
        self.inner.sync_count()
    }
    fn persistent(&self) -> bool {
        self.inner.persistent()
    }
    fn power_cut(&mut self, keep_unsynced: usize) {
        self.inner.power_cut(keep_unsynced);
    }
}

/// Attributes the put tail to snapshot work: of the puts whose latency is
/// at or above `threshold`, how many had their due→reply interval overlap
/// a `save_snapshot`/`compact_to` span on any node. Returns
/// `(overlapping, tail puts)`.
#[must_use]
pub fn tail_overlap(puts: &[(u64, u64)], spans: &[StoreSpan], threshold: u64) -> (usize, usize) {
    let mut marks: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.is_snapshot_work())
        .map(|s| (s.start, s.end))
        .collect();
    marks.sort_unstable();
    let mut hits = 0;
    let mut total = 0;
    for &(due, done) in puts {
        if done.saturating_sub(due) < threshold {
            continue;
        }
        total += 1;
        // Spans starting after the reply cannot overlap; of the rest, one
        // that ends at or after the due time does.
        let upto = marks.partition_point(|&(start, _)| start <= done);
        if marks[..upto].iter().any(|&(_, end)| end >= due) {
            hits += 1;
        }
    }
    (hits, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64) -> StoreSpan {
        StoreSpan {
            node: 1,
            name,
            start,
            end,
            entries: 0,
        }
    }

    #[test]
    fn tail_overlap_counts_only_tail_puts_overlapping_snapshot_work() {
        let spans = [
            span("save_snapshot", 1_000, 1_100),
            span("compact_to", 5_000, 5_010),
            // Sync spans never explain the tail, however long.
            span("sync", 8_000, 9_000),
        ];
        let puts = [
            (900, 1_200),   // tail, spans the snapshot save → hit
            (1_050, 1_060), // short: not in the tail, ignored
            (4_000, 5_005), // tail, reply lands inside the compaction → hit
            (8_100, 8_600), // tail, overlaps only a sync → miss
            (2_000, 2_400), // tail, between spans → miss
            (5_011, 5_400), // tail, due right after compaction ended → miss
        ];
        assert_eq!(tail_overlap(&puts, &spans, 300), (2, 5));
    }

    #[test]
    fn tail_overlap_handles_no_spans_and_no_tail() {
        assert_eq!(tail_overlap(&[(0, 10)], &[], 5), (0, 1));
        assert_eq!(
            tail_overlap(&[(0, 10)], &[span("compact_to", 0, 1)], 50),
            (0, 0)
        );
    }
}
