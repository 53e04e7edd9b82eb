//! A warm Algorithm 2 force evaluation allocates what it sends away and
//! little else, counted, not timed: a ratchet. On the half window of eight
//! periodic Lennard-Jones slabs narrower than `r_c` (two teams in reach
//! each way), a rank's copy of its block leaves home cut to what its
//! readers reach, gathers reactions on the next slab, is carried on with
//! them to the slab after and returns them home. A carried buffer is zipped
//! into the one message that leaves and unzipped into the buffers the
//! receiver keeps, and the reactions gather into the vector the last
//! buffer left, so the allocations are the messages' and the transport's
//! envelopes, the line-3 copy of the block and the few vectors the shift
//! body keeps for the evaluation. [`PINNED`] is their count summed over
//! the ranks; lower it when it falls.
//!
//! The counting allocator sees every thread of this test binary, so the
//! file holds this one test. Each rank counts its own thread's allocations
//! inside its warm evaluation only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use ca_nbody::cutoff::walked_window;
use ca_nbody::dist::spatial_subset_1d;
use ca_nbody::{ca_cutoff_forces, GridComms, ProcGrid, TeamWindow, Window};
use nbody_comm::{run_ranks, Communicator};
use nbody_physics::{init, Boundary, Cutoff, Domain, LennardJones};

/// Allocations and growths, summed over the ranks, of one warm evaluation.
const PINNED: usize = 34;

/// Counts allocations and growths on a thread while its `MINE` is set.
struct Counted;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Constant-initialised and without a destructor: the allocator reads
    /// it without allocating, on every thread, at any point of its life.
    static MINE: Cell<bool> = const { Cell::new(false) };
}

impl Counted {
    fn see() {
        if MINE.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for Counted {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::see();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::see();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::see();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counted = Counted;

#[test]
fn a_warm_algorithm_2_evaluation_allocates_what_it_sends_and_little_else() {
    let (n, p, r_c) = (128, 8, 2.5);
    let domain = Domain::square((n as f64).sqrt() * 1.2);
    let law = Cutoff::new(LennardJones::default(), r_c);
    let boundary = Boundary::Periodic;
    let mut all = init::lattice(n, &domain);
    init::thermalize(&mut all, 0.5, 42);
    let grid = ProcGrid::new(p, 1).unwrap();
    let window = TeamWindow::from_cutoff(&domain, (p, 1), true, r_c);
    assert_eq!(window.len(), 5, "two slabs in reach each way");
    assert!(walked_window(window, 1, true).is_half());

    // The fewest of four warm evaluations: the transport stashes a message
    // that arrives before its receive is posted, and its stash grows with
    // the order messages happen to arrive in, a few times in some runs.
    let counts = run_ranks(p, |world| {
        let gc = GridComms::new(world, grid);
        let block = spatial_subset_1d(&all, &domain, p, gc.team());
        let mut fewest = usize::MAX;
        for warm in [false, false, true, true, true, true] {
            let mut st = block.clone();
            world.barrier();
            ALLOCS.store(0, Ordering::Relaxed);
            world.barrier();
            MINE.set(warm);
            ca_cutoff_forces(&gc, &window, &mut st, &law, &domain, boundary);
            MINE.set(false);
            world.barrier();
            if warm {
                fewest = fewest.min(ALLOCS.load(Ordering::Relaxed));
            }
            world.barrier();
        }
        fewest
    });
    let allocs = counts[0];
    assert!(
        allocs <= PINNED,
        "{allocs} allocations in a warm evaluation, pinned at {PINNED}"
    );
}
