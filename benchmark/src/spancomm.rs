//! `SpanComm`: a `Communicator` that records one span per call and
//! otherwise is the communicator it wraps.
//!
//! Every required method and every hook delegates to the wrapped
//! communicator. The composed operations (`sendrecv`, `allreduce`,
//! `allgather`, `alltoallv`) are deliberately *not* overridden: the
//! transport does not override them either, so the trait defaults issue the
//! same primitive calls in the same order on both, and here each primitive
//! passes through a span. Only the traced binary's mirrored loop ever
//! builds one; the timed path runs the program's own `ThreadComm`.

use std::mem::size_of;
use std::time::Duration;

use nbody_comm::{
    CommData, CommError, CommStats, Communicator, MetricsRecorder, Phase, ProbeRecorder,
    TimelineRecorder, Tracer,
};

use crate::spans::Sink;

/// Span names of point-to-point sends, whose bytes `CommStats` counts.
pub const SEND: &str = "send";
/// Span name of point-to-point receives.
pub const RECV: &str = "recv";
/// Every span name `SpanComm` records.
pub const COMM_SPANS: [&str; 7] = [SEND, RECV, "bcast", "reduce", "gather", "barrier", "split"];

/// The world communicator is borrowed from `run_ranks`; communicators made
/// by `split` are owned.
enum Inner<'a, C> {
    World(&'a C),
    Child(C),
}

/// A span-recording view of a communicator.
pub struct SpanComm<'a, C: Communicator> {
    inner: Inner<'a, C>,
    sink: &'a Sink,
}

impl<'a, C: Communicator> SpanComm<'a, C> {
    /// Wrap the world communicator of one rank, recording into `sink`.
    pub fn world(world: &'a C, sink: &'a Sink) -> Self {
        SpanComm {
            inner: Inner::World(world),
            sink,
        }
    }

    fn inner(&self) -> &C {
        match &self.inner {
            Inner::World(c) => c,
            Inner::Child(c) => c,
        }
    }

    /// Run `f` as a span; `f` returns its result and the payload elements
    /// of type `T` it moved.
    fn call<T, R>(&self, name: &'static str, f: impl FnOnce(&C) -> (R, usize)) -> R {
        let idx = self.sink.open(name);
        let (r, elements) = f(self.inner());
        self.sink.close(idx, (elements * size_of::<T>()) as u64);
        r
    }
}

impl<C: Communicator> Communicator for SpanComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner().rank()
    }

    fn size(&self) -> usize {
        self.inner().size()
    }

    fn set_phase(&self, phase: Phase) {
        self.inner().set_phase(phase);
    }

    fn stats(&self) -> CommStats {
        self.inner().stats()
    }

    fn tracer(&self) -> Tracer {
        self.inner().tracer()
    }

    fn metrics(&self) -> MetricsRecorder {
        self.inner().metrics()
    }

    fn timeline(&self) -> TimelineRecorder {
        self.inner().timeline()
    }

    fn wire(&self) -> ProbeRecorder {
        self.inner().wire()
    }

    fn send<T: CommData>(&self, dst: usize, tag: u64, data: &[T]) {
        self.call::<T, _>(SEND, |c| (c.send(dst, tag, data), data.len()));
    }

    fn recv<T: CommData>(&self, src: usize, tag: u64) -> Vec<T> {
        self.call::<T, _>(RECV, |c| {
            let got = c.recv::<T>(src, tag);
            let len = got.len();
            (got, len)
        })
    }

    fn try_send<T: CommData>(&self, dst: usize, tag: u64, data: &[T]) -> Result<(), CommError> {
        self.call::<T, _>(SEND, |c| (c.try_send(dst, tag, data), data.len()))
    }

    fn try_recv_timeout<T: CommData>(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<T>, CommError> {
        self.call::<T, _>(RECV, |c| {
            let got = c.try_recv_timeout::<T>(src, tag, timeout);
            let len = got.as_ref().map_or(0, Vec::len);
            (got, len)
        })
    }

    fn fault_step(&self, step: usize) -> Result<(), CommError> {
        self.inner().fault_step(step)
    }

    fn fault_revive(&self) {
        self.inner().fault_revive();
    }

    fn bcast<T: CommData>(&self, root: usize, buf: &mut Vec<T>) {
        self.call::<T, _>("bcast", |c| {
            c.bcast(root, buf);
            ((), buf.len())
        });
    }

    fn reduce<T: CommData>(&self, root: usize, buf: &mut Vec<T>, combine: fn(&mut T, &T)) {
        self.call::<T, _>("reduce", |c| {
            c.reduce(root, buf, combine);
            ((), buf.len())
        });
    }

    fn gather<T: CommData>(&self, root: usize, data: &[T]) -> Option<Vec<Vec<T>>> {
        self.call::<T, _>("gather", |c| (c.gather(root, data), data.len()))
    }

    fn barrier(&self) {
        self.call::<u8, _>("barrier", |c| (c.barrier(), 0));
    }

    fn split(&self, color: usize, key: usize) -> Self {
        let child = self.call::<u8, _>("split", |c| (c.split(color, key), 0));
        SpanComm {
            inner: Inner::Child(child),
            sink: self.sink,
        }
    }
}
