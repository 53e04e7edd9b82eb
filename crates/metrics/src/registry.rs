//! The live metrics registry: typed counters, gauges and histograms.
//!
//! A [`MetricsRecorder`] is the per-rank write handle. It mirrors the
//! tracer's enable model: `disabled()` handles make every operation a
//! single-branch no-op, `for_rank()` handles own a shard that the rank's
//! thread drains with [`MetricsRecorder::finish`] when it joins. Shards
//! are strictly rank-local (`Rc`, not `Arc`), so the hot path — bumping a
//! counter on every message — is an unsynchronized `Cell` update; the
//! merge across ranks happens once, in plain data, after the join.
//!
//! Metric handles ([`Counter`], [`Gauge`], [`HistogramHandle`]) are
//! find-or-registered by `(name, phase)` and can be cached by callers so
//! steady-state recording never touches the registry again.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use nbody_trace::Phase;

/// Upper bucket bounds (inclusive) of every [`Histogram`], in bytes.
///
/// Powers of four from 64 B to 64 MiB — wide enough to separate the
/// paper's regimes (single-particle trickles vs. whole-replica shifts)
/// while keeping the array small enough to merge and export cheaply.
pub const BUCKET_BOUNDS: [u64; 11] = [
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216, 67108864,
];

/// Bucket count of every [`Histogram`]: the bounds plus the +Inf bucket.
pub const NUM_BUCKETS: usize = BUCKET_BOUNDS.len() + 1;

/// A fixed-bucket histogram of `u64` observations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Histogram {
    /// Per-bucket observation counts; the last bucket is unbounded.
    pub counts: [u64; NUM_BUCKETS],
    /// Sum of all observed values.
    pub sum: u64,
}

impl Histogram {
    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.counts[idx] += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean observation, or 0 if empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Add another histogram's observations into this one. Saturating,
    /// like the counter merge: long accumulation sweeps pin at `u64::MAX`
    /// instead of wrapping.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// One exported metric value: `(name, optional phase, optional peer,
/// value)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample<T> {
    /// Metric name (e.g. `comm_send_bytes`).
    pub name: String,
    /// Phase label, if the metric is phase-bucketed.
    pub phase: Option<Phase>,
    /// Peer world rank, if the metric is counted per channel (the
    /// destination of `comm_send_messages` / `comm_send_elements`).
    pub peer: Option<u32>,
    /// The recorded value.
    pub value: T,
}

/// The drained, plain-data metrics of one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankMetrics {
    /// The rank the shard belonged to.
    pub rank: u32,
    /// Monotone counters (sum-aggregated across ranks).
    pub counters: Vec<Sample<u64>>,
    /// High-water-mark gauges (max-aggregated across ranks).
    pub gauges: Vec<Sample<u64>>,
    /// Fixed-bucket histograms (bucket-wise merged across ranks).
    pub histograms: Vec<Sample<Histogram>>,
}

fn sort_key<T>(s: &Sample<T>) -> (String, usize, Option<u32>) {
    let phase = s.phase.map_or(usize::MAX, |p| p.index());
    (s.name.clone(), phase, s.peer)
}

impl RankMetrics {
    /// Sort all samples by `(name, phase, peer)` so exports are
    /// deterministic.
    pub fn normalize(&mut self) {
        self.counters.sort_by_key(sort_key);
        self.gauges.sort_by_key(sort_key);
        self.histograms.sort_by_key(sort_key);
    }

    /// Value of a counter summed over its peers, 0 if never recorded.
    pub fn counter(&self, name: &str, phase: Option<Phase>) -> u64 {
        self.counters
            .iter()
            .filter(|s| s.name == name && s.phase == phase)
            .map(|s| s.value)
            .sum()
    }

    /// Value of a gauge, 0 if never recorded.
    pub fn gauge(&self, name: &str, phase: Option<Phase>) -> u64 {
        self.gauges
            .iter()
            .find(|s| s.name == name && s.phase == phase)
            .map_or(0, |s| s.value)
    }

    /// A histogram, if it recorded anything.
    pub fn histogram(&self, name: &str, phase: Option<Phase>) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|s| s.name == name && s.phase == phase)
            .map(|s| &s.value)
    }
}

enum Slot {
    Counter(Rc<Cell<u64>>),
    Gauge(Rc<Cell<u64>>),
    Histogram(Rc<RefCell<Histogram>>),
}

struct Entry {
    name: &'static str,
    phase: Option<Phase>,
    peer: Option<u32>,
    slot: Slot,
}

struct Shard {
    rank: u32,
    entries: Vec<Entry>,
}

/// The per-rank metrics write handle. See the module docs.
#[derive(Clone)]
pub struct MetricsRecorder {
    inner: Option<Rc<RefCell<Shard>>>,
}

impl MetricsRecorder {
    /// The no-op handle used when metrics are off.
    pub fn disabled() -> MetricsRecorder {
        MetricsRecorder { inner: None }
    }

    /// An enabled handle owning a fresh shard for `rank`.
    pub fn for_rank(rank: usize) -> MetricsRecorder {
        MetricsRecorder {
            inner: Some(Rc::new(RefCell::new(Shard {
                rank: rank as u32,
                entries: Vec::new(),
            }))),
        }
    }

    /// Whether values are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn find_or_insert(
        &self,
        name: &'static str,
        phase: Option<Phase>,
        peer: Option<u32>,
        make: fn() -> Slot,
    ) -> Option<Slot> {
        let inner = self.inner.as_ref()?;
        let mut shard = inner.borrow_mut();
        if let Some(e) = shard
            .entries
            .iter()
            .find(|e| e.name == name && e.phase == phase && e.peer == peer)
        {
            return Some(match &e.slot {
                Slot::Counter(c) => Slot::Counter(Rc::clone(c)),
                Slot::Gauge(g) => Slot::Gauge(Rc::clone(g)),
                Slot::Histogram(h) => Slot::Histogram(Rc::clone(h)),
            });
        }
        let slot = make();
        let clone = match &slot {
            Slot::Counter(c) => Slot::Counter(Rc::clone(c)),
            Slot::Gauge(g) => Slot::Gauge(Rc::clone(g)),
            Slot::Histogram(h) => Slot::Histogram(Rc::clone(h)),
        };
        shard.entries.push(Entry {
            name,
            phase,
            peer,
            slot,
        });
        Some(clone)
    }

    /// Find or register a counter and return its handle.
    pub fn counter(&self, name: &'static str, phase: Option<Phase>) -> Counter {
        self.counter_to(name, phase, None)
    }

    /// Find or register the counter of one channel, `name` counted per
    /// `peer` world rank, and return its handle.
    pub fn counter_to(
        &self,
        name: &'static str,
        phase: Option<Phase>,
        peer: Option<u32>,
    ) -> Counter {
        let slot = self.find_or_insert(name, phase, peer, || Slot::Counter(Rc::new(Cell::new(0))));
        match slot {
            Some(Slot::Counter(c)) => Counter { cell: Some(c) },
            Some(_) => panic!("metric {name} already registered with a different type"),
            None => Counter { cell: None },
        }
    }

    /// Find or register a gauge and return its handle.
    pub fn gauge(&self, name: &'static str, phase: Option<Phase>) -> Gauge {
        let slot = self.find_or_insert(name, phase, None, || Slot::Gauge(Rc::new(Cell::new(0))));
        match slot {
            Some(Slot::Gauge(g)) => Gauge { cell: Some(g) },
            Some(_) => panic!("metric {name} already registered with a different type"),
            None => Gauge { cell: None },
        }
    }

    /// Find or register a histogram and return its handle.
    pub fn histogram(&self, name: &'static str, phase: Option<Phase>) -> HistogramHandle {
        let slot = self.find_or_insert(name, phase, None, || {
            Slot::Histogram(Rc::new(RefCell::new(Histogram::default())))
        });
        match slot {
            Some(Slot::Histogram(h)) => HistogramHandle { hist: Some(h) },
            Some(_) => panic!("metric {name} already registered with a different type"),
            None => HistogramHandle { hist: None },
        }
    }

    /// One-shot convenience: raise the high-water-mark gauge `name` to at
    /// least `value`. No-op when disabled.
    pub fn gauge_max(&self, name: &'static str, value: u64) {
        if self.is_enabled() {
            self.gauge(name, None).record_max(value);
        }
    }

    /// Drain the shard into plain data (`None` when disabled). Samples
    /// that never moved off zero are dropped; the recorder stays usable.
    pub fn finish(&self) -> Option<RankMetrics> {
        let inner = self.inner.as_ref()?;
        let shard = inner.borrow();
        let mut out = RankMetrics {
            rank: shard.rank,
            ..RankMetrics::default()
        };
        for e in &shard.entries {
            let name = e.name.to_string();
            match &e.slot {
                Slot::Counter(c) if c.get() > 0 => out.counters.push(Sample {
                    name,
                    phase: e.phase,
                    peer: e.peer,
                    value: c.get(),
                }),
                Slot::Gauge(g) if g.get() > 0 => out.gauges.push(Sample {
                    name,
                    phase: e.phase,
                    peer: None,
                    value: g.get(),
                }),
                Slot::Histogram(h) if h.borrow().count() > 0 => out.histograms.push(Sample {
                    name,
                    phase: e.phase,
                    peer: None,
                    value: *h.borrow(),
                }),
                _ => {}
            }
        }
        out.normalize();
        Some(out)
    }
}

/// A monotone counter handle. Cheap to clone; no-op when disabled.
#[derive(Clone)]
pub struct Counter {
    cell: Option<Rc<Cell<u64>>>,
}

impl Counter {
    /// Add `v` to the counter.
    #[inline]
    pub fn add(&self, v: u64) {
        if let Some(c) = &self.cell {
            c.set(c.get() + v);
        }
    }

    /// Add 1 to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled). Handles to the same registered
    /// name share storage, so this reads everything recorded so far —
    /// the step-timeline probe uses it to take per-step deltas.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.get())
    }
}

/// A high-water-mark gauge handle. Cheap to clone; no-op when disabled.
#[derive(Clone)]
pub struct Gauge {
    cell: Option<Rc<Cell<u64>>>,
}

impl Gauge {
    /// Raise the gauge to at least `v`.
    #[inline]
    pub fn record_max(&self, v: u64) {
        if let Some(c) = &self.cell {
            if v > c.get() {
                c.set(v);
            }
        }
    }
}

/// A histogram handle. Cheap to clone; no-op when disabled.
#[derive(Clone)]
pub struct HistogramHandle {
    hist: Option<Rc<RefCell<Histogram>>>,
}

impl HistogramHandle {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.hist {
            h.borrow_mut().record(v);
        }
    }

    /// Add every observation of `other`.
    pub fn merge(&self, other: &Histogram) {
        if let Some(h) = &self.hist {
            h.borrow_mut().merge(other);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let rec = MetricsRecorder::disabled();
        assert!(!rec.is_enabled());
        rec.counter("x", None).add(5);
        rec.gauge("y", None).record_max(7);
        rec.histogram("z", Some(Phase::Shift)).observe(100);
        rec.gauge_max("w", 3);
        assert!(rec.finish().is_none());
    }

    #[test]
    fn counters_accumulate_and_zero_samples_are_dropped() {
        let rec = MetricsRecorder::for_rank(3);
        let c = rec.counter("msgs", Some(Phase::Shift));
        c.add(2);
        c.inc();
        // Registered but never bumped: must not appear in the drain.
        let _idle = rec.counter("idle", Some(Phase::Reduce));
        let m = rec.finish().unwrap();
        assert_eq!(m.rank, 3);
        assert_eq!(m.counter("msgs", Some(Phase::Shift)), 3);
        assert_eq!(m.counters.len(), 1);
        assert_eq!(m.counter("idle", Some(Phase::Reduce)), 0);
    }

    #[test]
    fn a_counter_read_sums_its_peers() {
        let rec = MetricsRecorder::for_rank(0);
        rec.counter_to("sent", Some(Phase::Shift), Some(3)).add(5);
        rec.counter_to("sent", Some(Phase::Shift), Some(1)).add(2);
        rec.counter_to("sent", Some(Phase::Shift), Some(1)).inc();
        let m = rec.finish().unwrap();
        let peers: Vec<_> = m.counters.iter().map(|s| (s.peer, s.value)).collect();
        assert_eq!(peers, vec![(Some(1), 3), (Some(3), 5)]);
        assert_eq!(m.counter("sent", Some(Phase::Shift)), 8);
    }

    #[test]
    fn handles_alias_the_same_slot() {
        let rec = MetricsRecorder::for_rank(0);
        let a = rec.counter("n", None);
        let b = rec.counter("n", None);
        a.add(1);
        b.add(1);
        assert_eq!(rec.finish().unwrap().counter("n", None), 2);
    }

    #[test]
    fn gauge_keeps_the_maximum() {
        let rec = MetricsRecorder::for_rank(0);
        let g = rec.gauge("hwm", None);
        g.record_max(10);
        g.record_max(4);
        g.record_max(12);
        rec.gauge_max("hwm", 11);
        assert_eq!(rec.finish().unwrap().gauge("hwm", None), 12);
    }

    #[test]
    fn histogram_buckets_and_merges() {
        let mut h = Histogram::default();
        h.record(64); // first bucket is inclusive
        h.record(65);
        h.record(u64::MAX / 2); // overflow bucket
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[NUM_BUCKETS - 1], 1);
        assert_eq!(h.count(), 3);

        let mut other = Histogram::default();
        other.record(64);
        h.merge(&other);
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum, 64 + 65 + u64::MAX / 2 + 64);
    }

    #[test]
    fn histogram_mean() {
        let mut h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        h.record(10);
        h.record(30);
        assert_eq!(h.mean(), 20.0);
    }

    #[test]
    fn finish_output_is_sorted() {
        let rec = MetricsRecorder::for_rank(0);
        rec.counter("b", Some(Phase::Shift)).inc();
        rec.counter("a", Some(Phase::Reduce)).inc();
        rec.counter("a", Some(Phase::Broadcast)).inc();
        let m = rec.finish().unwrap();
        let order: Vec<(String, Option<Phase>)> = m
            .counters
            .iter()
            .map(|s| (s.name.clone(), s.phase))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a".to_string(), Some(Phase::Broadcast)),
                ("a".to_string(), Some(Phase::Reduce)),
                ("b".to_string(), Some(Phase::Shift)),
            ]
        );
    }
}
