//! A warm cutoff kernel call allocates nothing, counted, not timed: on the
//! `cutoff1d_lj_periodic` benchmark geometry a rank's three kernel calls of
//! a step — its own block, the next slab's and the slab across the periodic
//! seam — the half window's call on the next slab that asks each pair once
//! for both ways, into the block's return buffer, and the first step's
//! `cell_order` of a freshly dealt slab refill thread-local scratch once it
//! has grown to their size.
//!
//! The counting allocator sees every thread of this test binary, so the
//! file holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use ca_nbody::dist::spatial_subset_1d;
use ca_nbody::kernel::{accumulate_block, cell_order, update};
use nbody_physics::{init, Boundary, Cutoff, Domain, LennardJones, Particle, Vec2};

/// Counts allocations and growths while `COUNTING` is set.
struct Counted;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

impl Counted {
    fn see() {
        if COUNTING.load(Ordering::Relaxed) {
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
fn warm_cutoff_kernel_calls_and_a_first_cell_order_allocate_nothing() {
    // The 8192-particle lattice on 4 slabs, thermalised and eight steps
    // adrift, as the drivers hand it to the kernel mid-run; and one slab as
    // it is dealt, in id order, before its first step.
    let n = 8192;
    let domain = Domain::square((n as f64).sqrt() * 1.2);
    let law = Cutoff::new(LennardJones::default(), 2.5);
    let boundary = Boundary::Periodic;
    let lattice = init::lattice(n, &domain);
    let dealt = spatial_subset_1d(&lattice, &domain, 4, 0);
    let mut adrift = lattice;
    init::thermalize(&mut adrift, 0.5, 42);
    for p in &mut adrift {
        p.pos = boundary
            .apply(&domain, p.pos + p.vel * (8.0 * 0.005), p.vel)
            .0;
    }
    let [own, next, seam] = [0, 1, 3].map(|team| {
        let mut block = spatial_subset_1d(&adrift, &domain, 4, team);
        cell_order(&mut block, &law, &domain);
        block
    });
    let step = |targets: &mut [Particle], ordered: &mut [Particle], returned: &mut [Vec2]| {
        for sources in [&own, &next, &seam] {
            targets.copy_from_slice(&own);
            accumulate_block(targets, sources, &law, &domain, boundary);
        }
        returned.fill(Vec2::zero());
        update(
            targets,
            &next,
            &law,
            &domain,
            boundary,
            Some(returned),
            None,
        );
        ordered.copy_from_slice(&dealt);
        cell_order(ordered, &law, &domain);
    };
    let (mut targets, mut ordered) = (own.clone(), dealt.clone());
    let mut returned = vec![Vec2::zero(); next.len()];
    step(&mut targets, &mut ordered, &mut returned);

    COUNTING.store(true, Ordering::Relaxed);
    step(&mut targets, &mut ordered, &mut returned);
    COUNTING.store(false, Ordering::Relaxed);

    assert_eq!(
        ALLOCS.load(Ordering::Relaxed),
        0,
        "allocations in a warm step"
    );
    // Not vacuous: the calls found forces, and the dealt slab did move.
    assert!(targets.iter().any(|t| t.force.x != 0.0));
    assert!(returned.iter().any(|r| r.x != 0.0));
    assert!(ordered.iter().zip(&dealt).any(|(a, b)| a.id != b.id));
}
