//! Property tests of the RLE sequence encoding against a Vec<u32> model.

use cods_bitmap::RleSeq;
use proptest::prelude::*;

fn small_ids() -> impl Strategy<Value = Vec<u32>> {
    // Low-cardinality with runs: realistic for sorted/clustered columns.
    prop::collection::vec((0u32..6, 1u64..20), 0..30).prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n as usize))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn round_trip(ids in small_ids()) {
        let seq: RleSeq = ids.iter().copied().collect();
        let expanded: Vec<u32> = seq
            .iter_runs()
            .flat_map(|(v, _, n)| std::iter::repeat_n(v, n as usize))
            .collect();
        prop_assert_eq!(expanded, ids.clone());
        prop_assert_eq!(seq.len(), ids.len() as u64);
        // Runs never exceed the number of value changes + 1.
        let changes = ids.windows(2).filter(|w| w[0] != w[1]).count();
        prop_assert!(seq.num_runs() <= changes + 1);
    }

    #[test]
    fn get_matches_model(ids in small_ids()) {
        prop_assume!(!ids.is_empty());
        let seq: RleSeq = ids.iter().copied().collect();
        for (i, &v) in ids.iter().enumerate() {
            prop_assert_eq!(seq.get(i as u64), v);
        }
    }

    #[test]
    fn codec_round_trip(ids in small_ids()) {
        let seq: RleSeq = ids.iter().copied().collect();
        let mut buf = bytes::BytesMut::new();
        seq.encode(&mut buf);
        let back = RleSeq::decode(&mut buf.freeze()).unwrap();
        prop_assert_eq!(back, seq);
    }
}
