//! Naming an object that is already interned costs no heap allocation
//! (ISSUE 23): `ObjectId::new` and `ObjectId::from_fmt` format the path
//! into a per-thread scratch buffer and probe the interner with it.
//!
//! This file is the only `unsafe` in the workspace outside `benchmark/`: a
//! counting `#[global_allocator]` cannot be written without it. It lives
//! here, not under `crates/objstore/tests/`, so that `ofc-intern` and
//! `ofc-objstore` stay free of the keyword altogether.

use ofc::objstore::ObjectId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Per thread, so the test harness's
    /// own threads cannot disturb the count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `Cell<u64>` with no
// destructor, so touching it allocates nothing and cannot re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    f();
    ALLOCS.get() - before
}

#[test]
fn naming_an_interned_object_allocates_nothing() {
    // First sight interns the paths and grows this thread's scratch buffer.
    let seed = 1_234_567_890_123_u64;
    let made = ObjectId::new("intermediate", "wc_map-1234567890123-7");
    let formatted = ObjectId::from_fmt("intermediate", format_args!("wc_map-{seed}-{}", 7));
    assert_eq!(made, formatted);

    let count = allocations(|| {
        for _ in 0..100 {
            assert_eq!(
                ObjectId::new("intermediate", "wc_map-1234567890123-7"),
                made
            );
            assert_eq!(
                ObjectId::from_fmt("intermediate", format_args!("wc_map-{seed}-{}", 7)),
                made
            );
            assert_eq!(made.path().as_str(), "intermediate/wc_map-1234567890123-7");
            assert_eq!(made.bucket(), "intermediate");
        }
    });
    assert_eq!(count, 0, "allocations while naming an interned object");

    // The counter does count.
    assert!(allocations(|| drop(std::hint::black_box(String::from("x")))) > 0);
}
