//! Set-up and gather in O(n) copies, made of counts, not timings: a run
//! with no timestep — what the benchmark times as `setup_s` — spawns the
//! ranks, deals the leaders their blocks and gathers them back, and of
//! all its allocations exactly one is as large as the whole particle set:
//! the output. A gather that sorts the concatenated blocks instead of
//! merging the ranks' id-sorted blocks allocates a second one for the
//! sort's scratch (about 165 page faults a call on the benchmark's
//! cutoff configuration).
//!
//! The deal that gives a leader its block reserves it once at an even
//! share: at most two allocations per block, where collecting it grew it
//! by doubling (a dozen on this configuration).
//!
//! The counting allocator sees every thread of this test binary, so the
//! file holds this one test. The output half counts every thread's
//! allocations, the ranks' included; the deal runs on the test's thread,
//! and its half counts that thread's alone, so that a rank-pool worker
//! still polling from the run before cannot land in its window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use ca_nbody::dist::spatial_subset;
use ca_nbody::sim::{run_distributed, Method, SimConfig};
use nbody_physics::{init, Boundary, Cutoff, Domain, LennardJones, Particle, SemiImplicitEuler};

/// Counts allocations (and growths) of at least `LARGE` bytes while
/// `COUNTING` is set, on any thread, or while `MINE` is set on the thread
/// that allocates.
struct CountLarge;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LARGE: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Constant-initialised and without a destructor: the allocator reads
    /// it without allocating, on every thread, at any point of its life.
    static MINE: Cell<bool> = const { Cell::new(false) };
}

impl CountLarge {
    fn see(size: usize) {
        let counting =
            COUNTING.load(Ordering::Relaxed) || MINE.try_with(Cell::get).unwrap_or(false);
        if counting && size >= LARGE.load(Ordering::Relaxed) {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountLarge {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::see(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::see(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::see(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountLarge = CountLarge;

/// The `cutoff1d_lj_periodic` benchmark workload's configuration at
/// `steps = 0`: 8192 Lennard-Jones particles on a thermalised lattice,
/// Algorithm 2 in 1-D on 4 ranks.
#[test]
fn a_run_with_no_step_allocates_the_whole_set_once_the_output() {
    let n = 8192;
    let domain = Domain::square((n as f64).sqrt() * 1.2);
    let cfg = SimConfig {
        law: Cutoff::new(LennardJones::default(), 2.5),
        integrator: SemiImplicitEuler,
        domain,
        boundary: Boundary::Periodic,
        dt: 0.005,
        steps: 0,
    };
    let mut initial = init::lattice(n, &domain);
    init::thermalize(&mut initial, 0.5, 42);
    let method = Method::Ca1dCutoff { c: 1 };

    LARGE.store(n * std::mem::size_of::<Particle>(), Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let run = run_distributed(&cfg, method, 4, &initial);
    COUNTING.store(false, Ordering::Relaxed);

    assert_eq!(run.particles.len(), n);
    assert!(run.particles.windows(2).all(|w| w[0].id < w[1].id));
    let mut want = initial.clone();
    want.sort_by_key(|q| q.id);
    assert_eq!(
        run.particles, want,
        "no step: the particles come back as dealt"
    );
    assert_eq!(
        LARGE_ALLOCS.load(Ordering::Relaxed),
        1,
        "allocations of at least n particles: the output and nothing else"
    );

    // Every allocation of the deal, per leader's block, on slabs and on
    // the 2-D grid: this thread's.
    LARGE.store(1, Ordering::Relaxed);
    for (tx, ty) in [(4, 1), (2, 2), (4, 2)] {
        for team in 0..tx * ty {
            LARGE_ALLOCS.store(0, Ordering::Relaxed);
            MINE.set(true);
            let block = spatial_subset(&initial, &domain, (tx, ty), cfg.boundary, team);
            MINE.set(false);
            assert!(!block.is_empty());
            let allocs = LARGE_ALLOCS.load(Ordering::Relaxed);
            assert!(allocs <= 2, "{tx} x {ty} team {team}: {allocs} allocations");
        }
    }
}
