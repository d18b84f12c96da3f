//! A global allocator that records the largest single allocation each
//! thread makes — shared by the test binaries that bound what a call may
//! reserve (`#[path]`-included; not a test target of its own).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct LargestAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it from inside
    // the allocator neither allocates nor runs after teardown.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only a
// thread-local `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// Run `f` and return its result with the size of the largest single
/// allocation the calling thread made meanwhile.
pub fn largest_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}
