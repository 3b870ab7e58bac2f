//! The one seal (`SegmentEnc::seal`) takes a segment's ids, one per row.
//! WAH is canonical and the other payloads are functions of the rows, so
//! the same rows must seal to the same stats and bytes whatever the
//! writer holds: these tests pin the bytes and hold every encoding to the
//! rows it was sealed from.

use cods_bitmap::Wah;
use cods_storage::store::{decode_payload, encode_payload, read_bitmaps};
use cods_storage::{Dictionary, EncodedColumn, Encoding, Present, SealScratch, SegMeta, SegSlot};
use cods_storage::{SegmentEnc, ValueType};
use proptest::prelude::*;

/// A small deterministic generator, so the pinned sequences never move.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, below: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % below
    }
}

/// `rows` ids in runs whose lengths cycle through `lens`, each run's id
/// drawn from `0..ids`.
fn runs_of(rng: &mut Lcg, rows: usize, ids: u64, lens: &[u64]) -> Vec<u32> {
    let mut out = Vec::with_capacity(rows);
    let mut k = 0;
    while out.len() < rows {
        let id = rng.next(ids) as u32;
        let n = lens[k % lens.len()] as usize;
        k += 1;
        out.extend(std::iter::repeat_n(id, n.min(rows - out.len())));
    }
    out
}

/// The pinned sequences: long runs, runs that end on, before and after a
/// 63-row group, near-unique ids, a range, the benchmark cycle's scattered
/// 64 Ki-row shape, two values, one row, and one value throughout.
fn sequences() -> Vec<(&'static str, Vec<u32>)> {
    let mut rng = Lcg(1);
    let clustered_lens: Vec<u64> = (0..64).map(|_| 1 + rng.next(300)).collect();
    vec![
        ("clustered", runs_of(&mut rng, 5_000, 20, &clustered_lens)),
        (
            "group_crossing",
            runs_of(&mut rng, 3_000, 4, &[1, 62, 63, 64, 125, 126, 127, 189]),
        ),
        (
            "near_unique",
            (0..4_000).map(|_| rng.next(1_000_000) as u32).collect(),
        ),
        ("range", (700..3_700).collect()),
        (
            "scattered",
            (0..65_536).map(|_| rng.next(1_000) as u32).collect(),
        ),
        (
            "two_valued",
            (0..1_000).map(|_| rng.next(2) as u32).collect(),
        ),
        ("single", vec![5]),
        ("fill", vec![3; 200]),
    ]
}

fn meta_text(m: &SegMeta) -> String {
    let present = match &m.present {
        Present::Range { first, count } => format!("range {first}+{count}"),
        Present::List { ids, ones } => format!("list {ids:?} {ones:?}"),
    };
    format!(
        "{} rows {} runs {} bytes {} {present}",
        m.encoding, m.rows, m.runs, m.bytes
    )
}

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a over the meta's fields, then the payload's bytes.
fn digest(slot: &SegSlot) -> u64 {
    let mut raw = Vec::new();
    encode_payload(&slot.enc(), &mut raw);
    let h = fnv(0xcbf2_9ce4_8422_2325, meta_text(slot.meta()).as_bytes());
    fnv(h, &raw)
}

/// Each sequence sealed in each encoding, digested. Recorded from the seal
/// that took run sequences, before it took ids.
const SEALED: &[&str] = &[
    "clustered bitmap fb17d3c83fdd5990",
    "clustered rle b7899ee0a1c7ae43",
    "clustered packed 5dd41cd93da6a896",
    "group_crossing bitmap fdc00aba2cdc87a5",
    "group_crossing rle 1b04d6a1da24b1f1",
    "group_crossing packed e9d6f3fb66fa458f",
    "near_unique bitmap f320a798f84fbfce",
    "near_unique rle 008c1a049a5d6628",
    "near_unique packed f396447386098c2d",
    "range bitmap b1644115b660c592",
    "range rle 674a579f639cd426",
    "range packed 9392f23309129a73",
    "scattered bitmap 7fd6d15ed7a5924d",
    "scattered rle 38239ecc0689eb06",
    "scattered packed 018e7c5e499f3e29",
    "two_valued bitmap 07480d38bbbd97cb",
    "two_valued rle a588da70b9f9996e",
    "two_valued packed 1b9ba94a0e5ec725",
    "single bitmap 4ac1f131cf7b7284",
    "single rle 548587a23dd60cdf",
    "single packed 5205ec10f5c56b4b",
    "fill bitmap 9747b4c34a9e9234",
    "fill rle e8186f2ae6b00587",
    "fill packed 8e93211038ec2d60",
];

#[test]
fn sealed_meta_and_payload_bytes_are_pinned() {
    // One scratch for every seal, so a slot one seal leaves dirty shows in
    // the next.
    let mut scratch = SealScratch::default();
    let mut got = Vec::new();
    for (name, ids) in sequences() {
        for e in Encoding::ALL {
            let slot = SegmentEnc::seal(&ids, e, &mut scratch);
            got.push(format!("{name} {e} {:016x}", digest(&slot)));
        }
    }
    assert_eq!(got, SEALED, "\nall digests:\n{got:#?}");
}

/// The ids of a seeded sequence of `shape`: 0 long runs, 1 runs crossing
/// 63-row groups, 2 near-unique ids, 3 a range.
fn shaped(shape: u8, seed: u64, rows: usize) -> Vec<u32> {
    let mut rng = Lcg(seed);
    match shape {
        0 => {
            let lens: Vec<u64> = (0..16).map(|_| 1 + rng.next(400)).collect();
            runs_of(&mut rng, rows, 8, &lens)
        }
        1 => runs_of(&mut rng, rows, 4, &[62, 63, 64, 126, 127, 1]),
        2 => (0..rows).map(|_| rng.next(1 << 20) as u32).collect(),
        _ => {
            let first = rng.next(1_000) as u32;
            (first..first + rows as u32).collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Every sealed slot decodes back to its ids, passes the payload check
    // (`SegMeta::check_payload`, through a payload round trip), and in a
    // bitmap payload holds for each id exactly the words
    // `Wah::from_sorted_positions` writes for its rows.
    #[test]
    fn sealed_slots_hold_their_ids(
        shape in 0u8..4,
        seed in any::<u64>(),
        rows in 1usize..3_000,
    ) {
        let ids = shaped(shape, seed, rows);
        let n = ids.len() as u64;
        let width = ids.iter().max().map_or(0, |&m| m as usize + 1);
        // Rows holding `first..first + n` in order seal packed as a range.
        let range = ids.iter().zip(ids[0]..).all(|(&id, want)| id == want);
        prop_assert!(range || shape != 3);
        let mut scratch = SealScratch::default();
        for e in Encoding::ALL {
            let slot = SegmentEnc::seal(&ids, e, &mut scratch);
            prop_assert_eq!(slot.meta().encoding, e);
            prop_assert_eq!(slot.meta().is_range(), e == Encoding::Packed && range);
            let recounted = slot.enc().recount().unwrap();
            prop_assert_eq!(slot.meta().check_payload(&recounted), Ok(()));
            let mut raw = Vec::new();
            encode_payload(&slot.enc(), &mut raw);
            let back = decode_payload(slot.meta(), &raw).unwrap();
            prop_assert_eq!(&back, &slot.enc());
            let col = EncodedColumn::from_segments(
                ValueType::Int,
                Dictionary::dense(0, width),
                vec![slot.clone()],
                n,
            );
            prop_assert_eq!(col.try_value_ids().unwrap(), ids.clone());
            if e == Encoding::Bitmap {
                let present: Vec<u32> = slot.meta().present.ids().collect();
                let at: Vec<usize> = (0..present.len()).collect();
                let bitmaps = read_bitmaps(slot.meta(), &raw, &at).unwrap();
                for (id, bm) in present.iter().zip(bitmaps) {
                    let rows = (0..n).filter(|&r| ids[r as usize] == *id);
                    prop_assert_eq!(bm, Wah::from_sorted_positions(rows, n));
                }
            }
        }
    }
}
