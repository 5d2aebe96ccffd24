//! The snapshot format's building blocks, independent of any machine:
//! containers write in sorted order and never trust a hostile count,
//! the fingerprint folds exactly what `save` writes, `snap_fields!`
//! saves the listed fields and checks shapes, nested payloads are
//! length-prefixed, and byte blocks check their length.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use svt::sim::snap_fields;
use svt::sim::snapshot::{
    fingerprint, from_bytes, load_nested, save_nested, to_bytes, ByteBlock, Fingerprint,
    SnapReader, SnapWriter,
};
use svt::sim::{FnvHashMap, SimTime, SnapError};

#[test]
fn containers_round_trip_in_sorted_order() {
    let mut map = FnvHashMap::default();
    map.insert(9u64, vec![1u16, 2]);
    map.insert(3, vec![]);
    let set: BTreeSet<u32> = [5, 1].into_iter().collect();
    let q: VecDeque<(SimTime, u8)> = [(SimTime::from_ps(1), 2)].into_iter().collect();
    let bytes = to_bytes(&(map.clone(), (set.clone(), q.clone())));
    let mut back = <(
        FnvHashMap<u64, Vec<u16>>,
        (BTreeSet<u32>, VecDeque<(SimTime, u8)>),
    )>::default();
    from_bytes(&mut back, &bytes).unwrap();
    assert_eq!(back, (map, (set, q)));
    // Key 3 (empty vec) is written before key 9.
    assert_eq!(&bytes[8..16], &3u64.to_le_bytes());
}

#[test]
fn hostile_counts_are_typed_not_aborts() {
    // A vector that claims 2^50 elements with none following.
    let bytes = to_bytes(&(1u64 << 50));
    let mut v: Vec<u16> = Vec::new();
    assert!(matches!(
        from_bytes(&mut v, &bytes),
        Err(SnapError::UnexpectedEof { .. })
    ));
    let mut m: BTreeMap<u64, u64> = BTreeMap::new();
    assert!(from_bytes(&mut m, &bytes).is_err());
    let mut o: Option<u8> = None;
    assert_eq!(
        from_bytes(&mut o, &[2]),
        Err(SnapError::BadValue {
            what: "option tag",
            got: 2
        })
    );
}

#[test]
fn fingerprint_folds_what_save_writes() {
    let v = (7u8, ("ab", 1.5f64));
    let mut fp = Fingerprint::new();
    fp.fold(7).fold(2).fold_bytes(b"ab").fold(1.5f64.to_bits());
    assert_eq!(fingerprint(&v), fp.value());
    assert_ne!(fingerprint(&v), fingerprint(&(7u8, ("ab", 2.5f64))));
}

#[derive(Debug, Default, PartialEq)]
struct Listed {
    id: u32,
    hits: Vec<u64>,
    cache: u64,
}
snap_fields! { Listed { #[shape = "listed id"] id, hits } skip { cache } }

#[test]
fn field_list_saves_listed_fields_and_checks_shapes() {
    let live = Listed {
        id: 4,
        hits: vec![9],
        cache: 77,
    };
    let bytes = to_bytes(&live);
    assert_eq!(bytes.len(), 4 + 8 + 8);
    let mut back = Listed {
        id: 4,
        ..Listed::default()
    };
    from_bytes(&mut back, &bytes).unwrap();
    assert_eq!((back.hits, back.cache), (vec![9], 0));
    let mut other = Listed {
        id: 5,
        ..Listed::default()
    };
    assert_eq!(
        from_bytes(&mut other, &bytes),
        Err(SnapError::ShapeMismatch {
            what: "listed id",
            snapshot: 4,
            live: 5
        })
    );
}

#[test]
fn nested_payloads_are_length_prefixed() {
    let mut w = SnapWriter::new();
    save_nested(Some(&5u32), &mut w);
    save_nested(None, &mut w);
    let bytes = w.into_vec();
    assert_eq!(bytes.len(), 8 + 4 + 8);
    let mut r = SnapReader::new(&bytes);
    let mut v = 0u32;
    load_nested(Some(&mut v), &mut r).unwrap();
    load_nested(None, &mut r).unwrap();
    r.finish().unwrap();
    assert_eq!(v, 5);
    // A sub-payload with bytes its owner does not consume is rejected.
    let mut r = SnapReader::new(&bytes);
    assert_eq!(
        load_nested(None, &mut r),
        Err(SnapError::TrailingBytes { count: 4 })
    );
}

#[test]
fn byte_blocks_check_their_length() {
    let mut blk = ByteBlock::<4>::default();
    blk.0[1] = 9;
    let bytes = to_bytes(&blk);
    let mut back = ByteBlock::<4>::default();
    from_bytes(&mut back, &bytes).unwrap();
    assert_eq!(back, blk);
    let mut wide = ByteBlock::<8>::default();
    assert!(matches!(
        from_bytes(&mut wide, &bytes),
        Err(SnapError::BadValue { .. })
    ));
}
