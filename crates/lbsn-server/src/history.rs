//! Packed append-only check-in history.
//!
//! At paper scale (1.89 M users, §3.2) the per-user history is the
//! single biggest state item, and the boxed
//! `Vec<CheckinRecord>` layout spends most of its bytes on padding and
//! per-record `Vec<CheatFlag>` headers. This module replaces it with a
//! byte-packed, append-only encoding:
//!
//! * **flags** as a [`FlagSet`] `u8` bitset (one bit per [`CheatFlag`]);
//! * **timestamps** delta-encoded against the previous record
//!   (zigzag varint, so out-of-order test streams still round-trip);
//! * **coordinates** quantized to 1e-7 degrees (~1.1 cm) when that is
//!   bit-for-bit lossless for the value, falling back to the raw `f64`
//!   bit pattern otherwise — decoding always reproduces the original
//!   [`GeoPoint`] exactly, which is what keeps detector verdicts
//!   unchanged on the golden corpus;
//! * a **trailing length byte** per record, so newest-first scans can
//!   walk backwards without an offset table: the detectors' full
//!   decodes ([`HistoryIter`] via `.rev()`) and the reward ladder's
//!   [`PackedHistory::brief_rev`], which skips the coordinates.
//!
//! Record layout: `[venue varint][Δt zigzag varint][meta u8][coords][len u8]`,
//! where `coords` is either two zigzag varints (quantized) or 16 raw
//! little-endian bytes, as the meta byte says. A typical record is
//! 10–27 bytes against the previous layout's 64-byte inline struct plus
//! flag-vector heap — comfortably past the ≥2× bytes-per-user target at
//! the 1 M rung.

use lbsn_geo::GeoPoint;
use lbsn_obs::MemFootprint;
use lbsn_sim::Timestamp;
use serde::{Deserialize, Serialize};

use crate::checkin::{CheatFlag, CheckinRecord, CheckinSource};
use crate::VenueId;

/// All cheat flags, in bit order. Bit `i` of a [`FlagSet`] is
/// `ALL_FLAGS[i]`.
const ALL_FLAGS: [CheatFlag; 5] = [
    CheatFlag::GpsMismatch,
    CheatFlag::TooFrequent,
    CheatFlag::SuperhumanSpeed,
    CheatFlag::RapidFire,
    CheatFlag::AccountFlagged,
];

/// A set of [`CheatFlag`]s packed into one byte.
///
/// Iteration yields flags in declaration order, which is also the order
/// the default detector chain raises them in — so a round-trip through
/// the packed history preserves the flag sequence the pipeline produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FlagSet(u8);

impl FlagSet {
    /// The empty set.
    pub const EMPTY: FlagSet = FlagSet(0);

    fn bit(flag: CheatFlag) -> u8 {
        // Positions mirror ALL_FLAGS / the enum declaration order.
        match flag {
            CheatFlag::GpsMismatch => 1 << 0,
            CheatFlag::TooFrequent => 1 << 1,
            CheatFlag::SuperhumanSpeed => 1 << 2,
            CheatFlag::RapidFire => 1 << 3,
            CheatFlag::AccountFlagged => 1 << 4,
        }
    }

    /// Builds a set from a flag slice (duplicates collapse).
    pub fn from_slice(flags: &[CheatFlag]) -> Self {
        FlagSet(flags.iter().fold(0, |acc, f| acc | Self::bit(*f)))
    }

    /// Raw bits (low 5 bits used).
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Rebuilds a set from raw bits (extra bits are masked off).
    pub fn from_bits(bits: u8) -> Self {
        FlagSet(bits & 0x1f)
    }

    /// Whether `flag` is in the set.
    pub fn contains(self, flag: CheatFlag) -> bool {
        self.0 & Self::bit(flag) != 0
    }

    /// Number of flags in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Flags in declaration (bit) order.
    pub fn iter(self) -> impl Iterator<Item = CheatFlag> {
        ALL_FLAGS
            .into_iter()
            .enumerate()
            .filter(move |(i, _)| self.0 & (1 << i) != 0)
            .map(|(_, f)| f)
    }

    /// The set as a plain vector, in bit order.
    pub fn to_vec(self) -> Vec<CheatFlag> {
        self.iter().collect()
    }
}

lbsn_obs::mem_footprint_inline!(FlagSet);

/// A decoded history record. Field-compatible with
/// [`CheckinRecord`] except that `flags` is the packed
/// [`FlagSet`] instead of a `Vec<CheatFlag>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackedRecord {
    /// Venue checked into.
    pub venue: VenueId,
    /// When.
    pub at: Timestamp,
    /// The GPS position the client reported.
    pub location: GeoPoint,
    /// Entry point.
    pub source: CheckinSource,
    /// Whether the check-in passed verification and earned rewards.
    pub rewarded: bool,
    /// Flags raised, empty iff `rewarded` on server-produced records.
    pub flags: FlagSet,
}

/// The three fields the reward ladder reads from a record, as
/// [`PackedHistory::brief_rev`] yields them: no coordinates, source or
/// flags are decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BriefRecord {
    /// Venue checked into.
    pub venue: VenueId,
    /// When.
    pub at: Timestamp,
    /// Whether the check-in passed verification and earned rewards.
    pub rewarded: bool,
}

impl PackedRecord {
    /// Expands back into the wire-format record.
    pub fn to_record(&self) -> CheckinRecord {
        CheckinRecord {
            venue: self.venue,
            at: self.at,
            location: self.location,
            source: self.source,
            rewarded: self.rewarded,
            flags: self.flags.to_vec(),
        }
    }
}

// Record meta-byte layout.
const META_FLAG_MASK: u8 = 0x1f;
const META_SOURCE_API: u8 = 1 << 5;
const META_COORDS_RAW: u8 = 1 << 6;
const META_REWARDED: u8 = 1 << 7;

/// Degrees-to-fixed-point scale for the lossless-when-possible
/// coordinate quantization (1e-7° ≈ 1.1 cm).
const COORD_SCALE: f64 = 1e7;

fn varint_push(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            break;
        }
        buf.push(byte | 0x80);
    }
}

fn varint_read(buf: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = buf[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The 1e-7° fixed-point value for `deg` if converting back is
/// bit-for-bit lossless, else `None`.
fn quantize_exact(deg: f64) -> Option<i64> {
    let q = (deg * COORD_SCALE).round();
    if !q.is_finite() || q.abs() > i32::MAX as f64 {
        return None;
    }
    let q = q as i64;
    ((q as f64 / COORD_SCALE).to_bits() == deg.to_bits()).then_some(q)
}

/// A user's check-in history in the packed encoding.
///
/// Append-only: records go in through [`PackedHistory::push`] and come
/// back out through the double-ended [`PackedHistory::iter`], newest
/// first via `.rev()` / `.next_back()`, or, venue, time and reward bit
/// only, through [`PackedHistory::brief_rev`]. The byte offset `push`
/// returns lets the owner keep O(1) handles to individual records (the
/// user's latest-rewarded check-in).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PackedHistory {
    buf: Vec<u8>,
    count: u32,
    last_at: u64,
}

impl PackedHistory {
    /// An empty history.
    pub fn new() -> Self {
        PackedHistory::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Encoded size in bytes (`len`, not capacity).
    pub fn encoded_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Drops excess buffer capacity (post-bulk-load compaction).
    pub fn shrink_to_fit(&mut self) {
        self.buf.shrink_to_fit();
    }

    /// Appends a record; returns the byte offset it was encoded at,
    /// usable with [`PackedHistory::decode_at`].
    pub fn push(&mut self, record: &CheckinRecord) -> u32 {
        let start = self.buf.len() as u32;
        let dt = zigzag((record.at.0 as i64).wrapping_sub(self.last_at as i64));
        varint_push(&mut self.buf, record.venue.value());
        varint_push(&mut self.buf, dt);
        let (lat, lon) = (record.location.lat(), record.location.lon());
        let quantized = match (quantize_exact(lat), quantize_exact(lon)) {
            (Some(qlat), Some(qlon)) => Some((qlat, qlon)),
            _ => None,
        };
        let mut meta = FlagSet::from_slice(&record.flags).bits();
        if record.source == CheckinSource::ServerApi {
            meta |= META_SOURCE_API;
        }
        if quantized.is_none() {
            meta |= META_COORDS_RAW;
        }
        if record.rewarded {
            meta |= META_REWARDED;
        }
        self.buf.push(meta);
        match quantized {
            Some((qlat, qlon)) => {
                varint_push(&mut self.buf, zigzag(qlat));
                varint_push(&mut self.buf, zigzag(qlon));
            }
            None => {
                self.buf.extend_from_slice(&lat.to_bits().to_le_bytes());
                self.buf.extend_from_slice(&lon.to_bits().to_le_bytes());
            }
        }
        let rec_len = self.buf.len() as u32 - start;
        debug_assert!(rec_len <= u8::MAX as u32, "record fits one length byte");
        self.buf.push(rec_len as u8);
        self.count += 1;
        self.last_at = record.at.0;
        start
    }

    /// Decodes the record starting at byte offset `off`. The caller
    /// supplies the record's absolute timestamp (the stream only stores
    /// the delta to its predecessor); [`PackedHistory::push`] returned
    /// the offset, and the owner tracked the timestamp alongside it.
    pub fn decode_at(&self, off: u32, at: Timestamp) -> PackedRecord {
        let mut pos = off as usize;
        let (record, _) = self.decode_with_abs_time(&mut pos, at.0);
        record
    }

    /// Decodes the record at `*pos` whose absolute timestamp is `at`,
    /// advancing `*pos` past the trailer byte. Returns the record and
    /// the zigzag delta it stored (needed by backward iteration).
    fn decode_with_abs_time(&self, pos: &mut usize, at: u64) -> (PackedRecord, i64) {
        let venue = VenueId(varint_read(&self.buf, pos));
        let dt = unzigzag(varint_read(&self.buf, pos));
        let meta = self.buf[*pos];
        *pos += 1;
        let location = if meta & META_COORDS_RAW != 0 {
            let lat = f64::from_bits(u64::from_le_bytes(
                self.buf[*pos..*pos + 8].try_into().expect("8-byte slice"), // lint:allow(no-unwrap-hot-path): fixed-width slice
            ));
            let lon = f64::from_bits(u64::from_le_bytes(
                self.buf[*pos + 8..*pos + 16]
                    .try_into()
                    .expect("8-byte slice"), // lint:allow(no-unwrap-hot-path): fixed-width slice
            ));
            *pos += 16;
            GeoPoint::new(lat, lon).expect("encoded from a valid GeoPoint") // lint:allow(no-unwrap-hot-path): encoder invariant
        } else {
            let qlat = unzigzag(varint_read(&self.buf, pos));
            let qlon = unzigzag(varint_read(&self.buf, pos));
            GeoPoint::new(qlat as f64 / COORD_SCALE, qlon as f64 / COORD_SCALE)
                .expect("encoded from a valid GeoPoint") // lint:allow(no-unwrap-hot-path): encoder invariant
        };
        *pos += 1; // trailer length byte
        let record = PackedRecord {
            venue,
            at: Timestamp(at),
            location,
            source: if meta & META_SOURCE_API != 0 {
                CheckinSource::ServerApi
            } else {
                CheckinSource::MobileApp
            },
            rewarded: meta & META_REWARDED != 0,
            flags: FlagSet::from_bits(meta & META_FLAG_MASK),
        };
        (record, dt)
    }

    /// Iterates all records, oldest first; double-ended, so `.rev()`
    /// gives the newest-first order the detectors scan in.
    pub fn iter(&self) -> HistoryIter<'_> {
        HistoryIter {
            history: self,
            front_pos: 0,
            front_prev_at: 0,
            back_pos: self.buf.len(),
            back_at: self.last_at,
            remaining: self.count as usize,
        }
    }

    /// Iterates all records newest first, reading only each record's
    /// venue varint, Δt varint and meta byte, then jumping to the
    /// previous record by its trailer byte: the coordinates are never
    /// decoded. The reward ladder's windowed counts use this; the
    /// detectors, which need coordinates, use `iter().rev()`.
    pub fn brief_rev(&self) -> BriefRev<'_> {
        BriefRev {
            buf: &self.buf,
            end: self.buf.len(),
            at: self.last_at,
        }
    }
}

impl MemFootprint for PackedHistory {
    fn heap_bytes(&self) -> usize {
        let PackedHistory {
            buf,
            count: _,
            last_at: _,
        } = self;
        buf.heap_bytes()
    }
}

/// Double-ended iterator over a [`PackedHistory`], yielding decoded
/// [`PackedRecord`]s.
pub struct HistoryIter<'a> {
    history: &'a PackedHistory,
    /// Next record's start offset (forward end).
    front_pos: usize,
    /// Absolute timestamp of the record *before* `front_pos`.
    front_prev_at: u64,
    /// One past the trailer byte of the next record from the back.
    back_pos: usize,
    /// Absolute timestamp of the next record from the back.
    back_at: u64,
    remaining: usize,
}

impl Iterator for HistoryIter<'_> {
    type Item = PackedRecord;

    fn next(&mut self) -> Option<PackedRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let mut pos = self.front_pos;
        // Forward decode: the record's absolute time comes from the
        // previous record's time plus the stored delta, so peek the
        // delta first by decoding with a provisional time, then fix up.
        let (mut record, dt) = self
            .history
            .decode_with_abs_time(&mut pos, self.front_prev_at);
        let at = self.front_prev_at.wrapping_add(dt as u64);
        record.at = Timestamp(at);
        self.front_pos = pos;
        self.front_prev_at = at;
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl DoubleEndedIterator for HistoryIter<'_> {
    fn next_back(&mut self) -> Option<PackedRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let trailer = self.history.buf[self.back_pos - 1];
        let rec_start = self.back_pos - 1 - usize::from(trailer);
        let mut pos = rec_start;
        let (record, dt) = self.history.decode_with_abs_time(&mut pos, self.back_at);
        self.back_pos = rec_start;
        self.back_at = self.back_at.wrapping_sub(dt as u64);
        Some(record)
    }
}

impl ExactSizeIterator for HistoryIter<'_> {}

/// Newest-first iterator over a [`PackedHistory`], yielding
/// [`BriefRecord`]s (see [`PackedHistory::brief_rev`]).
pub struct BriefRev<'a> {
    buf: &'a [u8],
    /// One past the trailer byte of the next record; 0 when done.
    end: usize,
    /// Absolute timestamp of the next record.
    at: u64,
}

impl Iterator for BriefRev<'_> {
    type Item = BriefRecord;

    fn next(&mut self) -> Option<BriefRecord> {
        let trailer = self.end.checked_sub(1)?;
        #[cfg(test)]
        brief_reads::bump();
        let start = trailer - usize::from(self.buf[trailer]);
        let mut pos = start;
        let venue = VenueId(varint_read(self.buf, &mut pos));
        let dt = unzigzag(varint_read(self.buf, &mut pos));
        let rewarded = self.buf[pos] & META_REWARDED != 0;
        let at = self.at;
        self.end = start;
        self.at = at.wrapping_sub(dt as u64);
        Some(BriefRecord {
            venue,
            at: Timestamp(at),
            rewarded,
        })
    }
}

/// The test build's per-thread tally of records read by [`BriefRev`].
#[cfg(test)]
pub(crate) mod brief_reads {
    use std::cell::Cell;

    thread_local! {
        static READS: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn bump() {
        READS.with(|r| r.set(r.get() + 1));
    }

    /// The calling thread's brief reads since the last `take`.
    pub(crate) fn take() -> u64 {
        READS.with(|r| r.replace(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(venue: u64, at: u64, lat: f64, lon: f64, rewarded: bool) -> CheckinRecord {
        CheckinRecord {
            venue: VenueId(venue),
            at: Timestamp(at),
            location: GeoPoint::new(lat, lon).unwrap(),
            source: CheckinSource::MobileApp,
            rewarded,
            flags: if rewarded {
                vec![]
            } else {
                vec![CheatFlag::GpsMismatch, CheatFlag::SuperhumanSpeed]
            },
        }
    }

    #[test]
    fn flagset_round_trips_all_subsets() {
        for bits in 0u8..32 {
            let set = FlagSet::from_bits(bits);
            assert_eq!(FlagSet::from_slice(&set.to_vec()), set);
            assert_eq!(set.len(), bits.count_ones() as usize);
        }
        let dup = FlagSet::from_slice(&[CheatFlag::RapidFire, CheatFlag::RapidFire]);
        assert_eq!(dup.len(), 1);
        assert!(dup.contains(CheatFlag::RapidFire));
        assert!(!dup.contains(CheatFlag::GpsMismatch));
        assert!(FlagSet::EMPTY.is_empty());
    }

    #[test]
    fn push_and_iter_round_trip_forward_and_backward() {
        let records = vec![
            rec(1, 100, 35.0844, -106.6504, true),
            rec(5_600_000, 4_000, 37.7749, -122.4194, false),
            rec(2, 4_001, -35.5, 150.25, true),
        ];
        let mut h = PackedHistory::new();
        for r in &records {
            h.push(r);
        }
        assert_eq!(h.len(), 3);
        let fwd: Vec<CheckinRecord> = h.iter().map(|r| r.to_record()).collect();
        assert_eq!(fwd, records);
        let mut rev: Vec<CheckinRecord> = h.iter().rev().map(|r| r.to_record()).collect();
        rev.reverse();
        assert_eq!(rev, records);
    }

    #[test]
    fn non_decimal_coordinates_survive_exactly() {
        // destination()-style outputs are arbitrary f64s that do not
        // quantize losslessly; the raw fallback must keep them exact.
        let p = lbsn_geo::destination(GeoPoint::new(35.0844, -106.6504).unwrap(), 37.3, 812.7);
        let r = CheckinRecord {
            venue: VenueId(9),
            at: Timestamp(77),
            location: p,
            source: CheckinSource::ServerApi,
            rewarded: true,
            flags: vec![],
        };
        let mut h = PackedHistory::new();
        h.push(&r);
        let out = h.iter().next().unwrap();
        assert_eq!(out.location.lat().to_bits(), p.lat().to_bits());
        assert_eq!(out.location.lon().to_bits(), p.lon().to_bits());
        assert_eq!(out.source, CheckinSource::ServerApi);
    }

    #[test]
    fn decimal_coordinates_use_compact_form() {
        let mut quantized = PackedHistory::new();
        quantized.push(&rec(1, 100, 35.0844, -106.6504, true));
        let mut raw = PackedHistory::new();
        raw.push(&CheckinRecord {
            location: GeoPoint::new(35.0844 + 1e-12, -106.6504).unwrap(),
            ..rec(1, 100, 35.0, -106.0, true)
        });
        assert!(
            quantized.encoded_bytes() < raw.encoded_bytes(),
            "decimal coords should take the varint path ({} vs {})",
            quantized.encoded_bytes(),
            raw.encoded_bytes()
        );
        // Exactness either way.
        assert_eq!(
            quantized.iter().next().unwrap().location.lat().to_bits(),
            35.0844f64.to_bits()
        );
    }

    #[test]
    fn decode_at_returns_the_pushed_record() {
        let mut h = PackedHistory::new();
        let r0 = rec(3, 50, 10.0, 20.0, false);
        let r1 = rec(4, 60, 30.0, 40.0, true);
        let off0 = h.push(&r0);
        let off1 = h.push(&r1);
        assert_eq!(h.decode_at(off0, Timestamp(50)).to_record(), r0);
        assert_eq!(h.decode_at(off1, Timestamp(60)).to_record(), r1);
    }

    #[test]
    fn out_of_order_timestamps_round_trip() {
        // Arbitrary (test-constructed) streams may go backwards in time;
        // zigzag deltas must not care.
        let records = vec![
            rec(1, 1_000, 35.0, -106.0, true),
            rec(2, 10, 35.1, -106.1, false),
            rec(3, u64::MAX, 35.2, -106.2, true),
            rec(4, 0, 35.3, -106.3, true),
        ];
        let mut h = PackedHistory::new();
        for r in &records {
            h.push(r);
        }
        let fwd: Vec<u64> = h.iter().map(|r| r.at.0).collect();
        assert_eq!(fwd, vec![1_000, 10, u64::MAX, 0]);
        let rev: Vec<u64> = h.iter().rev().map(|r| r.at.0).collect();
        assert_eq!(rev, vec![0, u64::MAX, 10, 1_000]);
    }

    #[test]
    fn mixed_direction_iteration_meets_in_the_middle() {
        let records: Vec<CheckinRecord> = (0..7)
            .map(|i| rec(i + 1, 100 * (i + 1), 35.0, -106.0, i % 2 == 0))
            .collect();
        let mut h = PackedHistory::new();
        for r in &records {
            h.push(r);
        }
        let mut it = h.iter();
        assert_eq!(it.next().unwrap().venue, VenueId(1));
        assert_eq!(it.next_back().unwrap().venue, VenueId(7));
        assert_eq!(it.next_back().unwrap().venue, VenueId(6));
        assert_eq!(it.next().unwrap().venue, VenueId(2));
        let rest: Vec<u64> = it.map(|r| r.venue.value()).collect();
        assert_eq!(rest, vec![3, 4, 5]);
    }

    #[test]
    fn packed_is_at_least_2x_smaller_than_boxed_records() {
        let mut h = PackedHistory::new();
        let mut boxed = Vec::new();
        for i in 0..100u64 {
            // Worst case for the packing: raw (non-decimal) coordinates.
            let p = lbsn_geo::destination(
                GeoPoint::new(35.0844, -106.6504).unwrap(),
                (i % 360) as f64,
                50.0 + i as f64,
            );
            let r = CheckinRecord {
                venue: VenueId(1 + i % 7),
                at: Timestamp(1_000 + i),
                location: p,
                source: CheckinSource::MobileApp,
                rewarded: i % 3 != 0,
                flags: if i % 3 == 0 {
                    vec![CheatFlag::TooFrequent]
                } else {
                    vec![]
                },
            };
            h.push(&r);
            boxed.push(r);
        }
        let packed_bytes = h.deep_bytes();
        let boxed_bytes = boxed.deep_bytes();
        assert!(
            packed_bytes * 2 <= boxed_bytes,
            "packed {packed_bytes} vs boxed {boxed_bytes}"
        );
    }
}
