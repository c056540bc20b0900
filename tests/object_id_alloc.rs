//! Naming an object that is already interned costs no heap allocation:
//! `ObjectId::new` and `ObjectId::from_fmt` format the path into a
//! per-thread scratch buffer and probe the interner with it. Naming a
//! fresh output costs none either: `ObjectId::with_tail` puts a numeric
//! tail behind an interned stem and interns nothing. Reading a
//! tagged object back (`ObjectStore::get` / `head`) allocates nothing
//! either: the metadata shares the stored tag block. Tagging an input
//! costs two allocations: the tags are written straight into one block.
//!
//! This file is the only `unsafe` in the workspace outside `benchmark/`: a
//! counting `#[global_allocator]` cannot be written without it. It lives
//! here, not under `crates/objstore/tests/`, so that `ofc-intern` and
//! `ofc-objstore` stay free of the keyword altogether.

use ofc::objstore::store::ObjectStore;
use ofc::objstore::{Istr, ObjectId, Payload, Tags};
use ofc::workloads::catalog::{gen_audio, gen_image, gen_text, gen_video};
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
fn reading_a_tagged_object_allocates_nothing() {
    let mut store = ObjectStore::swift();
    let id = ObjectId::new("images", "cat.png");
    let tags: HashMap<String, String> = ["width", "height", "channels", "format", "bytes"]
        .iter()
        .map(|k| (k.to_string(), "1".to_string()))
        .collect();
    store.put(&id, Payload::Synthetic(640 * 1024), tags, false);

    let count = allocations(|| {
        for _ in 0..100 {
            let (meta, payload) = store.get(&id).0.expect("stored");
            assert_eq!(meta.tags.len(), 5);
            assert_eq!(payload.len(), 640 * 1024);
            let meta = store.head(&id).0.expect("stored");
            assert_eq!(meta.tags.get("width"), Some("1"));
        }
    });
    assert_eq!(count, 0, "allocations while reading a tagged object");
}

#[test]
fn tagging_an_input_costs_two_allocations() {
    let mut store = ObjectStore::swift();
    // 100 objects grow the map to 128 slots, room for 112: the puts below
    // do not grow it.
    let ids: Vec<ObjectId> = (0..110)
        .map(|i| ObjectId::from_fmt("inputs", format_args!("in{i:03}")))
        .collect();
    for id in &ids[..100] {
        store.put(id, Payload::Synthetic(1), Tags::default(), false);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let inputs = [
        gen_image(&mut rng),
        gen_audio(&mut rng),
        gen_video(&mut rng),
        gen_text(None, &mut rng),
    ];

    let untagged = allocations(|| {
        store.put(&ids[100], Payload::Synthetic(1), Tags::default(), false);
    });
    for (id, meta) in ids[101..].iter().zip(&inputs) {
        let tagged = allocations(|| {
            store.put(id, Payload::Synthetic(meta.bytes), meta.tags(), false);
        });
        assert!(
            tagged <= untagged + 2,
            "{:?} input: {tagged} allocations against {untagged} untagged",
            meta.kind
        );
        let stored = store.head(id).0.expect("stored").tags;
        assert_eq!(stored.get("bytes"), Some(meta.bytes.to_string().as_str()));
    }
}
