//! `ObjectId` is its interned `bucket/key` path, but it must still behave
//! like the `(bucket, key)` pair it names: these properties pin equality,
//! ordering, the accessors and `list_bucket` against plain `String` tuples.

use ofc_objstore::latency::LatencyModel;
use ofc_objstore::store::ObjectStore;
use ofc_objstore::{ObjectId, Payload};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// Characters on either side of `/` in byte order: `-` and `.` sort before
/// it, `0` and `a` after. The path's order and the pair's order disagree
/// exactly when a bucket continues with one of the former.
const BUCKET_CHARS: [char; 4] = ['-', '.', '0', 'a'];
const KEY_CHARS: [char; 5] = ['-', '.', '/', '0', 'a'];

fn string_of(chars: &'static [char], max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0..chars.len(), 0..max_len + 1)
        .prop_map(move |picks| picks.into_iter().map(|i| chars[i]).collect())
}

fn pair() -> impl Strategy<Value = (String, String)> {
    (string_of(&BUCKET_CHARS, 3), string_of(&KEY_CHARS, 4))
}

#[test]
fn ord_is_pair_order_not_path_order() {
    let (dash, plain) = (ObjectId::new("a-b", "x"), ObjectId::new("a", "x"));
    assert!(dash.path() < plain.path(), "`-` sorts before `/`");
    assert!(dash > plain, "but bucket \"a-b\" sorts after bucket \"a\"");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn id_behaves_like_its_pair(a in pair(), b in pair()) {
        let (ia, ib) = (ObjectId::new(&a.0, &a.1), ObjectId::new(&b.0, &b.1));
        prop_assert_eq!(ia == ib, a == b);
        prop_assert_eq!(ia.cmp(&ib), a.cmp(&b));
        prop_assert_eq!(ia.partial_cmp(&ib), Some(a.cmp(&b)));

        prop_assert_eq!(ia.bucket(), a.0.as_str());
        prop_assert_eq!(ia.key(), a.1.as_str());
        let path = format!("{}/{}", a.0, a.1);
        prop_assert_eq!(ia.path().as_str(), path.as_str());
        prop_assert_eq!(ia.to_string(), path);
        // Both constructors name the same object.
        prop_assert_eq!(ObjectId::from_fmt(&a.0, format_args!("{}", a.1)), ia);
    }

    #[test]
    fn list_bucket_is_the_sorted_live_keys_of_that_bucket(
        ops in prop::collection::vec((0..4usize, string_of(&KEY_CHARS, 2), 0..3u8), 1..40),
    ) {
        // "bkt" is a prefix of two of the others.
        const BUCKETS: [&str; 4] = ["bkt", "bkt2", "bkt-", "b"];
        let mut store = ObjectStore::new(LatencyModel::instant());
        let mut live: BTreeSet<(String, String)> = BTreeSet::new();
        for (b, key, op) in &ops {
            let id = ObjectId::new(BUCKETS[*b], key);
            let entry = (BUCKETS[*b].to_string(), key.clone());
            match op {
                0 => {
                    store.put(&id, Payload::Synthetic(1), HashMap::new(), false);
                    live.insert(entry);
                }
                1 => {
                    store.put_shadow(&id, 1);
                    live.insert(entry);
                }
                _ => {
                    prop_assert_eq!(store.delete(&id).0.is_ok(), live.remove(&entry));
                }
            }
        }
        for bucket in BUCKETS {
            let listed: Vec<(String, String)> = store
                .list_bucket(bucket)
                .0
                .iter()
                .map(|id| (id.bucket().to_string(), id.key().to_string()))
                .collect();
            let expected: Vec<(String, String)> =
                live.iter().filter(|(b, _)| b == bucket).cloned().collect();
            prop_assert_eq!(listed, expected);
        }
    }
}
