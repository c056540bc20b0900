//! A structural [`Name`] — an interned stem plus a numeric tail that is
//! never interned — must be indistinguishable from the plain interned name
//! of the same text: `Eq`, hash-map placement, `Ord`, `Display` and
//! `Debug` all follow the rendered string, across mixed forms. The same
//! holds for an [`ObjectId`] made with a tail against one made whole.
//!
//! Stems are drawn as prefixes of each other, ending in `-`, `/` or a
//! digit (so `"a-1"` + `2` and `"a-"` + `12` render alike), and tails
//! include the decimal-width edges 0, 9, 10, 99, 100 and `u64::MAX`.

use ofc::objstore::{IdHashMap, Istr, Name, ObjectId};
use proptest::prelude::*;
use std::hash::BuildHasher;

/// Stem heads; a drawn stem is one of these plus up to three more
/// characters, so stems are often prefixes of one another.
const HEADS: [&str; 8] = [
    "",
    "a",
    "a-",
    "a-1",
    "in/",
    "in/x-",
    "intermediate/wc_map-",
    "outputs/wand_blur-in0001-",
];
const CHARS: [char; 6] = ['a', '-', '/', '0', '1', '9'];

/// A name as drawn: a stem and, for a structural name, its tail.
type Drawn = (String, Option<(u64, Option<u32>)>);

fn stem() -> impl Strategy<Value = String> {
    (0..HEADS.len(), prop::collection::vec(0..CHARS.len(), 0..4)).prop_map(|(h, cs)| {
        let mut s = HEADS[h].to_string();
        s.extend(cs.into_iter().map(|c| CHARS[c]));
        s
    })
}

fn seed() -> impl Strategy<Value = u64> {
    prop_oneof![
        prop_oneof![Just(0u64), Just(9), Just(10), Just(99), Just(100)],
        Just(u64::MAX),
        0..1000u64,
        any::<u64>(),
    ]
}

fn index() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![
        Just(None),
        prop_oneof![Just(0u32), Just(9), Just(10), Just(99), Just(100)].prop_map(Some),
        (0..u32::MAX - 1).prop_map(Some),
    ]
}

fn drawn() -> impl Strategy<Value = Drawn> {
    prop_oneof![
        stem().prop_map(|s| (s, None)),
        (stem(), seed(), index()).prop_map(|(s, n, i)| (s, Some((n, i)))),
    ]
}

fn text(d: &Drawn) -> String {
    match d.1 {
        None => d.0.clone(),
        Some((n, None)) => format!("{}{n}", d.0),
        Some((n, Some(i))) => format!("{}{n}-{i}", d.0),
    }
}

/// Every form `d` can take: the plain name of its text, and the
/// structural name when it has a tail.
fn forms(d: &Drawn) -> Vec<Name> {
    let mut out = vec![Name::new(&text(d))];
    if let Some((n, i)) = d.1 {
        out.push(Name::with_tail(Istr::intern(&d.0), n, i));
    }
    out
}

fn placement(name: &Name) -> u64 {
    IdHashMap::<Name, ()>::default().hasher().hash_one(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn structural_names_behave_like_their_text(a in drawn(), b in drawn()) {
        let (ta, tb) = (text(&a), text(&b));
        for x in forms(&a) {
            prop_assert_eq!(x.to_string(), ta.as_str());
            prop_assert_eq!(format!("{x:?}"), format!("{ta:?}"));
            prop_assert!(x == ta.as_str(), "{:?} != its own text", x);
            prop_assert_eq!(placement(&x), placement(&Name::new(&ta)));
            for y in forms(&b) {
                prop_assert_eq!(x == y, ta == tb, "{:?} == {:?}", x, y);
                prop_assert_eq!(x.cmp(&y), ta.cmp(&tb), "{:?} cmp {:?}", x, y);
                prop_assert_eq!(x.partial_cmp(&y), Some(ta.cmp(&tb)));
                prop_assert_eq!(x == tb.as_str(), ta == tb);
            }
        }
    }

    #[test]
    fn tails_on_one_stem_order_as_their_text(
        s in stem(),
        x in (seed(), index()),
        y in (seed(), index()),
    ) {
        let stem = Istr::intern(&s);
        let (a, b) = (Name::with_tail(stem, x.0, x.1), Name::with_tail(stem, y.0, y.1));
        let (ta, tb) = (a.to_string(), b.to_string());
        prop_assert_eq!(a.cmp(&b), ta.cmp(&tb), "{} cmp {}", ta, tb);
        prop_assert_eq!(a == b, ta == tb);
    }

    #[test]
    fn maps_lay_out_both_forms_alike(names in prop::collection::vec(drawn(), 1..40)) {
        // The same insertions, once in plain and once in the last
        // (structural, where there is one) form: the maps iterate alike.
        let mut plain: IdHashMap<Name, usize> = IdHashMap::default();
        let mut mixed: IdHashMap<Name, usize> = IdHashMap::default();
        for (i, d) in names.iter().enumerate() {
            let f = forms(d);
            plain.insert(f[0], i);
            mixed.insert(*f.last().expect("a plain form"), i);
        }
        let walk = |m: &IdHashMap<Name, usize>| -> Vec<(String, usize)> {
            m.iter().map(|(k, &v)| (k.to_string(), v)).collect()
        };
        prop_assert_eq!(walk(&plain), walk(&mixed));
        for (i, d) in names.iter().enumerate() {
            // Either form finds the last insertion of its text.
            let last = names.iter().rposition(|e| text(e) == text(d)).expect("itself");
            for f in forms(d) {
                prop_assert_eq!(plain.get(&f), Some(&last), "entry {} {:?}", i, f);
                prop_assert_eq!(mixed.get(&f), Some(&last), "entry {} {:?}", i, f);
            }
        }
    }

    #[test]
    fn object_ids_with_a_tail_are_the_ids_of_their_path(
        a in (stem(), seed(), index()),
        b in (stem(), seed(), index()),
    ) {
        // Put each stem behind a bucket, so the bucket lies in the stem.
        let id = |(s, n, i): &(String, u64, Option<u32>)| {
            let stem = format!("bkt{}/{s}", s.len() % 2);
            let tail = match i {
                None => format!("{n}"),
                Some(i) => format!("{n}-{i}"),
            };
            let (bucket, key) = stem.split_once('/').expect("a bucket");
            let key = format!("{key}{tail}");
            (
                ObjectId::with_tail(Istr::intern(&stem), *n, *i),
                ObjectId::new(bucket, &key),
                (bucket.to_string(), key),
            )
        };
        let (sa, pa, pair_a) = id(&a);
        let (sb, pb, pair_b) = id(&b);
        prop_assert_eq!(sa, pa);
        prop_assert_eq!(sa.bucket(), pair_a.0.as_str());
        prop_assert_eq!(sa.key(), pair_a.1.as_str());
        prop_assert_eq!(sa.key().to_string(), pair_a.1.as_str());
        prop_assert_eq!(sa.to_string(), pa.to_string());
        prop_assert_eq!(format!("{sa:?}"), format!("{pa:?}"));
        prop_assert_eq!(placement(&sa.path()), placement(&pa.path()));
        for (x, y) in [(sa, sb), (sa, pb), (pa, sb)] {
            prop_assert_eq!(x == y, pair_a == pair_b);
            prop_assert_eq!(x.cmp(&y), pair_a.cmp(&pair_b));
            prop_assert_eq!(x.key().cmp(&y.key()), pair_a.1.cmp(&pair_b.1));
        }
    }
}

#[test]
fn names_of_one_text_meet_across_the_forms() {
    // `"a-1"` + `2` and `"a-"` + `12` and the plain `"a-12"` are one name.
    let plain = Name::new("a-12");
    let long_stem = Name::with_tail(Istr::intern("a-1"), 2, None);
    let short_stem = Name::with_tail(Istr::intern("a-"), 12, None);
    assert_eq!(long_stem, plain);
    assert_eq!(short_stem, plain);
    assert_eq!(long_stem, short_stem);
    // Byte order, not numeric order: `"10"` sorts before `"9"`.
    let stem = Istr::intern("s-");
    assert!(Name::with_tail(stem, 10, None) < Name::with_tail(stem, 9, None));
    assert!(Name::with_tail(stem, 9, None) < Name::with_tail(stem, 9, Some(0)));
    assert_eq!(
        Name::with_tail(stem, u64::MAX, Some(u32::MAX - 2)).to_string(),
        format!("s-{}-{}", u64::MAX, u32::MAX - 2)
    );
}
