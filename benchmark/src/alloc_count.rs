//! A counting allocator for the traced binary.
//!
//! Only `src/bin/nbody-benchmark-traced.rs` installs it as the
//! `#[global_allocator]`; the untraced binary and the tests run on the
//! system allocator, where [`thread_totals`] stays at zero. Counters are
//! per thread (one rank is one thread), so counting never shares a cache
//! line between ranks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers and no destructor: safe to touch from inside the
    // allocator, even while a thread starts up or winds down.
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: after thread-local teardown there is nothing to count into.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
}

/// The system allocator, counting allocations and bytes per thread.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `alloc`; `ptr` and `layout` come from this allocator,
        // which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes)` this thread has requested so far; `(0, 0)` when
/// [`CountingAlloc`] is not the global allocator.
pub fn thread_totals() -> (u64, u64) {
    (COUNT.with(Cell::get), BYTES.with(Cell::get))
}
