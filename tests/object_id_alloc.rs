//! Naming an object that is already interned costs no heap allocation:
//! `ObjectId::new` and `ObjectId::from_fmt` format the path into a
//! per-thread scratch buffer and probe the interner with it. Naming a
//! fresh output costs none either: `ObjectId::with_tail` puts a numeric
//! tail behind an interned stem and interns nothing. Reading an object
//! back (`ObjectStore::get` / `head`) allocates nothing either: its
//! metadata is `Copy`. Staging a prepared input (`Catalog::stage`: a put,
//! then a catalog insert) allocates nothing when both maps have room.
//!
//! This file is the only `unsafe` in the workspace outside `benchmark/`: a
//! counting `#[global_allocator]` cannot be written without it. It lives
//! here, not under `crates/objstore/tests/`, so that `ofc-intern` and
//! `ofc-objstore` stay free of the keyword altogether.

use ofc::objstore::store::ObjectStore;
use ofc::objstore::{Istr, ObjectId, Payload};
use ofc::workloads::catalog::{gen_audio, gen_image, gen_text, gen_video, Catalog};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

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
            assert_eq!(made.path(), "intermediate/wc_map-1234567890123-7");
            assert_eq!(made.bucket(), "intermediate");
        }
    });
    assert_eq!(count, 0, "allocations while naming an interned object");

    // The counter does count.
    assert!(allocations(|| drop(std::hint::black_box(String::from("x")))) > 0);
}

#[test]
fn naming_fresh_outputs_allocates_nothing() {
    // A stage model interns its stem once, when it is made.
    let stem = Istr::intern("intermediate/wc_map-");
    let seed_of = |n: u64| n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut last = None;
    let count = allocations(|| {
        for n in 0..100_000u64 {
            let id = ObjectId::with_tail(stem, seed_of(n), Some((n % 8) as u32));
            last = Some(std::hint::black_box(id));
        }
    });
    assert_eq!(count, 0, "allocations while naming 100 000 fresh outputs");
    let n = 99_999u64;
    let whole = ObjectId::new("intermediate", format!("wc_map-{}-{}", seed_of(n), n % 8));
    assert_eq!(last, Some(whole));
    assert_eq!(whole.bucket(), "intermediate");
}

#[test]
fn reading_an_object_allocates_nothing() {
    let mut store = ObjectStore::swift();
    let id = ObjectId::new("images", "cat.png");
    store.put(&id, Payload::Synthetic(640 * 1024), HashMap::new(), false);

    let count = allocations(|| {
        for _ in 0..100 {
            let (meta, payload) = store.get(&id).0.expect("stored");
            assert_eq!(meta.version, 1);
            assert_eq!(payload.len(), 640 * 1024);
            let meta = store.head(&id).0.expect("stored");
            assert_eq!(meta.size, 640 * 1024);
        }
    });
    assert_eq!(count, 0, "allocations while reading an object");
}

#[test]
fn staging_an_input_allocates_nothing() {
    let mut store = ObjectStore::swift();
    let catalog = Catalog::new();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    // 100 objects grow both maps to 128 slots, room for 112: the stagings
    // below do not grow them.
    let ids: Vec<ObjectId> = (0..104)
        .map(|i| ObjectId::from_fmt("inputs", format_args!("in{i:03}")))
        .collect();
    let filler = gen_image(&mut rng);
    for id in &ids[..100] {
        catalog.stage(&mut store, *id, filler.clone());
    }
    let inputs = [
        gen_image(&mut rng),
        gen_audio(&mut rng),
        gen_video(&mut rng),
        gen_text(None, &mut rng),
    ];

    for (id, meta) in ids[100..].iter().zip(inputs) {
        let (kind, bytes) = (meta.kind, meta.bytes);
        let mut staged = None;
        let count = allocations(|| staged = Some(catalog.stage(&mut store, *id, meta)));
        assert_eq!(count, 0, "allocations while staging a {kind:?} input");
        let staged = staged.expect("staged");
        assert_eq!((staged.id, staged.size), (*id, bytes));
        assert_eq!(store.head(id).0.expect("stored").size, bytes);
        assert_eq!(catalog.get(id).map(|m| m.bytes), Some(bytes));
    }
}
