//! Per-step timeline sampling for the simulation drivers.
//!
//! [`StepProbe`] sits at the end of each driver's timestep loop and turns
//! the rank's cumulative telemetry (communication statistics, compute
//! counters) into *per-step deltas* pushed into the rank's
//! [`TimelineRecorder`]. Two tiers of recording:
//!
//! * A [`step_mark`](TimelineRecorder::step_mark) lands in the bounded
//!   flight ring on **every** run (a couple of `Cell` reads and an
//!   `Instant::elapsed` per step) so a postmortem always knows the last
//!   steps each rank completed.
//! * A full [`StepSample`] (bytes moved, blocked seconds, flops, compute
//!   nanos, resident particles) is pushed only when the execution was
//!   started with step sampling on (instrumented runs), feeding the
//!   `--record-timeline` bundle and the drift detector.

use nbody_comm::{CommStats, Communicator, StepSample, TimelineRecorder};
use nbody_metrics::Counter;

/// Turns cumulative per-rank telemetry into per-step deltas.
pub struct StepProbe {
    tl: TimelineRecorder,
    flops: Counter,
    nanos: Counter,
    prev_send: u64,
    prev_coll: u64,
    prev_blocked: f64,
    prev_flops: u64,
    prev_nanos: u64,
    prev_t: f64,
}

impl StepProbe {
    /// A probe bound to `world`'s rank-local recorders. Counter handles
    /// share storage with the force kernels' meters, so reading them here
    /// sees everything the step recorded.
    pub fn new<C: Communicator>(world: &C) -> StepProbe {
        let tl = world.timeline();
        let rec = world.metrics();
        let prev_t = tl.now_secs();
        StepProbe {
            flops: rec.counter("compute_flops", None),
            nanos: rec.counter("compute_nanos", None),
            tl,
            prev_send: 0,
            prev_coll: 0,
            prev_blocked: 0.0,
            prev_flops: 0,
            prev_nanos: 0,
            prev_t,
        }
    }

    /// Record the step boundary: always marks the flight ring; when step
    /// sampling is on, also snapshots the deltas since the previous call.
    /// `particles` is the rank's resident particle count after the step
    /// (the imbalance input); `energy` and `momentum` are the health
    /// monitors' globally reduced invariants after it — total energy and
    /// total-momentum norm, `0.0` for both on uninstrumented steps (zero is
    /// the series' "unmeasured" sentinel).
    pub fn sample_with<C: Communicator>(
        &mut self,
        world: &C,
        step: usize,
        particles: usize,
        energy: f64,
        momentum: f64,
    ) {
        self.tl.step_mark(step as u64);
        if !self.tl.wants_samples() {
            return;
        }
        let stats: CommStats = world.stats();
        let send = stats.total_bytes();
        let coll = stats.total_collective_bytes();
        let blocked = stats.total_blocked_secs();
        let flops = self.flops.get();
        let nanos = self.nanos.get();
        let t = self.tl.now_secs();
        self.tl.push_sample(StepSample {
            step: step as u32,
            t_secs: t,
            dt_secs: t - self.prev_t,
            send_bytes: send - self.prev_send,
            coll_bytes: coll - self.prev_coll,
            blocked_secs: blocked - self.prev_blocked,
            flops: flops - self.prev_flops,
            compute_nanos: nanos - self.prev_nanos,
            particles: particles as u64,
            energy,
            momentum,
        });
        self.prev_send = send;
        self.prev_coll = coll;
        self.prev_blocked = blocked;
        self.prev_flops = flops;
        self.prev_nanos = nanos;
        self.prev_t = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_comm::{run_ranks, run_ranks_with, Lenses, Phase};

    #[test]
    fn probe_samples_deltas_per_step_on_traced_runs() {
        let traced = Lenses {
            trace: true,
            ..Lenses::default()
        };
        let (_, artifacts) = run_ranks_with(2, traced, |world| {
            let mut probe = StepProbe::new(world);
            for step in 0..3 {
                let other = 1 - world.rank();
                world.set_phase(Phase::Shift);
                // Each step ships one more element than the last.
                let payload = vec![7u64; step + 1];
                world.send(other, step as u64, &payload);
                world.recv::<u64>(other, step as u64);
                probe.sample_with(world, step, 10 * (step + 1), 0.0, 0.0);
            }
        });
        let timeline = artifacts.timeline;
        assert_eq!(timeline.ranks.len(), 2);
        for rt in &timeline.ranks {
            assert_eq!(rt.samples.len(), 3, "one sample per step");
            for (i, s) in rt.samples.iter().enumerate() {
                assert_eq!(s.step as usize, i);
                // Deltas, not cumulative totals: step i moved i+1 elements.
                assert_eq!(s.send_bytes, 8 * (i as u64 + 1));
                assert_eq!(s.particles, 10 * (i as u64 + 1));
                assert!(s.dt_secs >= 0.0 && s.t_secs >= s.dt_secs);
            }
            // The flight ring got a mark per step as well.
            assert_eq!(rt.events.len(), 3);
        }
    }

    #[test]
    fn probe_is_mark_only_on_plain_runs() {
        let out = run_ranks(1, |world| {
            let mut probe = StepProbe::new(world);
            probe.sample_with(world, 0, 5, 0.0, 0.0);
            world.timeline().finish().expect("flight ring is always on")
        });
        assert!(out[0].samples.is_empty(), "no series without sampling");
        assert_eq!(out[0].events.len(), 1, "step mark still lands");
    }
}
