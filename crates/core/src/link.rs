//! The link policy of the shift pipeline.
//!
//! Algorithms 1 and 2 share one skew/shift body
//! ([`cutoff`](crate::cutoff)); *how* that body talks to its row
//! neighbours is a [`Link`], chosen by type at the entry point:
//!
//! * [`Strict`] — buffered `send_vec` and blocking `recv` under the
//!   protocol's own tags. Its error type is uninhabited, so in the plain
//!   drivers the `Result`, every `?` and every recovery branch compile away.
//! * [`Deadline`] — announces each pipeline step to the fault injector and
//!   bounds every receive, under a per-attempt tag namespace. This is what
//!   the recovery protocol ([`recovery`](crate::recovery)) runs the same
//!   body with.

use std::convert::Infallible;
use std::time::Duration;

use nbody_comm::{CommData, CommError, Communicator};

/// How a shift pipeline announces its steps and moves exchange buffers
/// along the row communicator. A buffer is a block of sources — with the
/// reactions it gathered, on a half window — or a block's returned
/// reactions, and changes hands whole: `send` takes it, `recv` returns the
/// sender's.
pub(crate) trait Link {
    /// What a step or a receive can fail with.
    type Error;

    /// Announce pipeline step `s` (0 = skew, then the 1-based shift steps)
    /// before communicating in it.
    fn step<C: Communicator>(&self, comm: &C, s: usize) -> Result<(), Self::Error>;

    /// Buffered send of an exchange buffer to row rank `dst`.
    fn send<C: Communicator, T: CommData>(&self, row: &C, dst: usize, tag: u64, data: Vec<T>);

    /// Receive the exchange buffer row rank `src` sent under `tag`.
    fn recv<C: Communicator, T: CommData>(
        &self,
        row: &C,
        src: usize,
        tag: u64,
    ) -> Result<Vec<T>, Self::Error>;
}

/// The failure-free link of the paper's algorithms.
pub(crate) struct Strict;

impl Strict {
    /// Unwrap a result of the strict link. Compiles only while
    /// [`Strict`]'s error type is uninhabited — the proof that the plain
    /// drivers carry no failure path.
    pub(crate) fn infallible<T>(r: Result<T, <Strict as Link>::Error>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => match e {},
        }
    }
}

impl Link for Strict {
    type Error = Infallible;

    #[inline]
    fn step<C: Communicator>(&self, _comm: &C, _s: usize) -> Result<(), Infallible> {
        Ok(())
    }

    #[inline]
    fn send<C: Communicator, T: CommData>(&self, row: &C, dst: usize, tag: u64, data: Vec<T>) {
        row.send_vec(dst, tag, data);
    }

    #[inline]
    fn recv<C: Communicator, T: CommData>(
        &self,
        row: &C,
        src: usize,
        tag: u64,
    ) -> Result<Vec<T>, Infallible> {
        Ok(row.recv(src, tag))
    }
}

/// The link of one recovery attempt: every receive is bounded by
/// `deadline`, and every tag is offset by `tag_base` so a message a dead
/// attempt left in flight can never satisfy a later attempt's receive.
pub(crate) struct Deadline {
    pub(crate) tag_base: u64,
    pub(crate) deadline: Duration,
}

impl Link for Deadline {
    type Error = CommError;

    fn step<C: Communicator>(&self, comm: &C, s: usize) -> Result<(), CommError> {
        comm.fault_step(s)
    }

    fn send<C: Communicator, T: CommData>(&self, row: &C, dst: usize, tag: u64, data: Vec<T>) {
        row.send_vec(dst, tag + self.tag_base, data);
    }

    fn recv<C: Communicator, T: CommData>(
        &self,
        row: &C,
        src: usize,
        tag: u64,
    ) -> Result<Vec<T>, CommError> {
        row.try_recv_timeout(src, tag + self.tag_base, self.deadline)
    }
}
