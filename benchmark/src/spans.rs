//! Spans recorded by the harness around calls into the program's layers.
//!
//! A span is one call: name, start, end, the span that caused it, the rank
//! it ran on and the `(rep, step)` it belongs to. Spans stay in a per-rank
//! `Vec` while the run is measured and are written out when it ends. A
//! layer's self time is its span minus the part its children cover.

use std::cell::RefCell;
use std::time::Instant;

/// Parent index of a span nothing in the trace caused.
pub const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Start, ns since the run's shared epoch.
    pub start_ns: u64,
    /// End, ns since the run's shared epoch.
    pub end_ns: u64,
    /// Index of the causing span in the same rank's list, or [`ROOT`].
    pub parent: u32,
    /// World rank the call ran on.
    pub rank: u32,
    /// Traced repetition.
    pub rep: u32,
    /// Timestep.
    pub step: u32,
    /// Payload bytes (`len × size_of`) for communicator calls, else 0.
    pub bytes: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Where the mirrored driver loop reports its sections. Two
/// implementations so the bare loop carries no recording code at all:
/// [`NoProbe`] compiles to the plain calls, [`Sink`] records spans.
pub trait Probe {
    /// Later spans belong to timestep `step`.
    fn set_step(&self, step: usize);
    /// Run `f` as a span called `name`.
    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R;
}

/// The probe that records nothing.
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn set_step(&self, _step: usize) {}

    #[inline(always)]
    fn span<R>(&self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One rank's span recorder.
pub struct Sink {
    epoch: Instant,
    rank: u32,
    rep: u32,
    state: RefCell<State>,
}

struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
    step: u32,
}

impl Sink {
    /// A recorder for `rank` in repetition `rep`, timing against `epoch`
    /// (shared by all ranks so spans of different ranks are comparable).
    /// `capacity` spans are reserved up front so the measured loop does not
    /// grow the buffer.
    pub fn new(epoch: Instant, rank: usize, rep: usize, capacity: usize) -> Sink {
        Sink {
            epoch,
            rank: rank as u32,
            rep: rep as u32,
            state: RefCell::new(State {
                spans: Vec::with_capacity(capacity),
                open: Vec::with_capacity(8),
                step: 0,
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn open(&self, name: &'static str) -> u32 {
        let start_ns = self.now_ns();
        let mut st = self.state.borrow_mut();
        let idx = st.spans.len() as u32;
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: st.open.last().copied().unwrap_or(ROOT),
            rank: self.rank,
            rep: self.rep,
            step: st.step,
            bytes: 0,
        };
        st.spans.push(span);
        st.open.push(idx);
        idx
    }

    /// Close span `idx` (the innermost open one), noting its payload size.
    pub fn close(&self, idx: u32, bytes: u64) {
        let end_ns = self.now_ns();
        let mut st = self.state.borrow_mut();
        let top = st.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
        let span = &mut st.spans[idx as usize];
        span.end_ns = end_ns;
        span.bytes = bytes;
    }

    /// The recorded spans, in opening order.
    pub fn finish(self) -> Vec<Span> {
        self.state.into_inner().spans
    }
}

impl Probe for Sink {
    fn set_step(&self, step: usize) {
        self.state.borrow_mut().step = step as u32;
    }

    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.open(name);
        let r = f();
        self.close(idx, 0);
        r
    }
}

/// Indices of the direct children of every span of one rank's list
/// (`children[i]` in opening order), plus the root spans.
pub fn children(spans: &[Span]) -> (Vec<Vec<u32>>, Vec<u32>) {
    let mut kids = vec![Vec::new(); spans.len()];
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent == ROOT {
            roots.push(i as u32);
        } else {
            kids[s.parent as usize].push(i as u32);
        }
    }
    (kids, roots)
}

/// Self time of span `idx` in ns: its duration minus the part of its
/// interval that the spans in `covering` (indices into `spans`) cover.
/// Overlapping or out-of-range cover is clipped, so it is subtracted once.
pub fn self_ns(spans: &[Span], idx: u32, covering: &[u32]) -> u64 {
    let me = &spans[idx as usize];
    let mut cover: Vec<(u64, u64)> = covering
        .iter()
        .map(|&k| {
            let s = &spans[k as usize];
            (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns))
        })
        .filter(|(a, b)| a < b)
        .collect();
    cover.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in cover {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_ns - me.start_ns) - covered
}

/// Structural check that driver sections tile their timestep: every `step`
/// span's children are named from `sections`, lie inside it, and follow
/// one another without overlap; nothing but `step` spans and the set-up
/// calls named in `setup` sits at the root. No wall-clock ratio is involved.
pub fn check_step_tiling(spans: &[Span], sections: &[&str], setup: &[&str]) -> Result<(), String> {
    let (kids, roots) = children(spans);
    for &r in &roots {
        let step = &spans[r as usize];
        if setup.contains(&step.name) {
            continue;
        }
        if step.name != "step" {
            return Err(format!("root span `{}` is not a step", step.name));
        }
        if kids[r as usize].is_empty() {
            return Err(format!("step {} has no sections", step.step));
        }
        let mut reach = step.start_ns;
        for &k in &kids[r as usize] {
            let s = &spans[k as usize];
            if !sections.contains(&s.name) {
                return Err(format!("step {} holds a `{}` span", step.step, s.name));
            }
            if s.start_ns < reach || s.end_ns < s.start_ns || s.end_ns > step.end_ns {
                return Err(format!(
                    "`{}` of step {} does not follow its sibling inside the step",
                    s.name, step.step
                ));
            }
            reach = s.end_ns;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rank: 0,
            rep: 0,
            step: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        // step 0..100 { integrate 0..10, force 10..90 { send 20..30,
        // recv 25..50 (overlaps send), recv 80..95 (runs past force) } }
        let spans = vec![
            span("step", 0, 100, ROOT),
            span("integrate", 0, 10, 0),
            span("force", 10, 90, 0),
            span("send", 20, 30, 2),
            span("recv", 25, 50, 2),
            span("recv", 80, 95, 2),
        ];
        let (kids, roots) = children(&spans);
        assert_eq!(roots, [0]);
        assert_eq!(kids[0], [1, 2]);
        assert_eq!(kids[2], [3, 4, 5]);
        // step: 100 - (10 + 80); force: 80 - (30 merged + 10 clipped).
        assert_eq!(self_ns(&spans, 0, &kids[0]), 10);
        assert_eq!(self_ns(&spans, 2, &kids[2]), 40);
        assert_eq!(self_ns(&spans, 1, &kids[1]), 10);
    }

    #[test]
    fn tiling_accepts_ordered_sections_and_rejects_strays() {
        let good = vec![
            span("split", 0, 0, ROOT),
            span("step", 0, 100, ROOT),
            span("integrate", 1, 10, 1),
            span("force", 10, 90, 1),
            span("send", 20, 30, 3),
            span("integrate", 91, 99, 1),
        ];
        let check = |spans: &[Span]| {
            check_step_tiling(spans, &["integrate", "force", "reassign"], &["split"])
        };
        assert_eq!(check(&good), Ok(()));

        let mut overlapping = good.clone();
        overlapping[3].start_ns = 5;
        assert!(check(&overlapping).is_err());

        let mut stray = good.clone();
        stray[4].parent = 1;
        assert!(check(&stray).is_err());

        let mut rootless = good;
        rootless.push(span("send", 100, 101, ROOT));
        assert!(check(&rootless).is_err());
    }

    #[test]
    fn sink_nests_and_stamps_spans() {
        let sink = Sink::new(Instant::now(), 3, 2, 4);
        sink.set_step(5);
        let v = sink.span("step", || {
            let i = sink.open("send");
            sink.close(i, 64);
            7
        });
        assert_eq!(v, 7);
        let spans = sink.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("step", ROOT));
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].bytes),
            ("send", 0, 64)
        );
        assert!(spans.iter().all(|s| (s.rank, s.rep, s.step) == (3, 2, 5)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
