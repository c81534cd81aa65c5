//! Compact collection types for paper-scale entity storage.
//!
//! At 1.89 M users / 5.6 M venues (§3.2) the dominant memory cost is not
//! data but *container headers on empty collections*: a `HashSet` is
//! 48 bytes before it holds anything, and the old entity structs carried
//! five of them per user. These replacements keep the same call-site
//! surface (`insert` / `contains` / `len` / `iter`) at a fraction of the
//! inline size:
//!
//! * [`IdSet`] — a sorted-`Vec` set (24 bytes empty, exact-capacity
//!   after [`IdSet::shrink_to_fit`], cache-linear iteration);
//! * [`BadgeSet`] — the 15 badge kinds as a `u16` bitset;
//! * [`CategoryCounts`] — per-category distinct-venue counters as a
//!   fixed `[u16; 11]` array (no hashing, no heap);
//! * [`ArenaStr`] / [`StrArena`] — shard-local string interning for
//!   venue names and addresses: bulk-loaded venues share large sealed
//!   chunks (one allocation per ~64 KiB of text instead of one `String`
//!   per field — ~11 M small allocations saved at full scale), and the
//!   chunk bytes are accounted once per shard in `side_maps_bytes`
//!   rather than per entity.

use std::ops::Deref;
use std::sync::Arc;

use lbsn_obs::MemFootprint;
use serde::{Deserialize, Serialize, Value};

use crate::rewards::Badge;
use crate::venue::VenueCategory;

/// A set of IDs stored as a sorted vector.
///
/// 24 bytes when empty (vs 48 for a `HashSet`), exact heap after
/// compaction, and ordered iteration for free. Inserts are
/// `O(log n)` search + `O(n)` shift — fine for the entity sets this
/// backs (friend lists, visited venues, mayorships), which see a few
/// thousand elements at most and are read far more than written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdSet<T> {
    items: Vec<T>,
}

// Manual impl: the derive would needlessly bound `T: Default`.
impl<T> Default for IdSet<T> {
    fn default() -> Self {
        IdSet { items: Vec::new() }
    }
}

// The vendored serde derive doesn't handle generics; serialize
// transparently as the sorted element array.
impl<T: Serialize> Serialize for IdSet<T> {
    fn to_value(&self) -> Value {
        self.items.to_value()
    }
}

impl<T: Deserialize + Ord + Copy> Deserialize for IdSet<T> {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        Vec::<T>::deserialize(value).map(IdSet::from_vec)
    }
}

impl<T: Ord + Copy> IdSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        IdSet { items: Vec::new() }
    }

    /// Builds a set from any vector (sorts and dedups).
    pub fn from_vec(mut items: Vec<T>) -> Self {
        items.sort_unstable();
        items.dedup();
        IdSet { items }
    }

    /// Inserts `item`; returns whether it was newly added.
    pub fn insert(&mut self, item: T) -> bool {
        match self.items.binary_search(&item) {
            Ok(_) => false,
            Err(pos) => {
                self.items.insert(pos, item);
                true
            }
        }
    }

    /// Removes `item`; returns whether it was present.
    pub fn remove(&mut self, item: &T) -> bool {
        match self.items.binary_search(item) {
            Ok(pos) => {
                self.items.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Whether `item` is in the set.
    pub fn contains(&self, item: &T) -> bool {
        self.items.binary_search(item).is_ok()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates elements in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// The elements as a sorted slice.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Removes and yields every element (ascending order).
    pub fn drain(&mut self) -> std::vec::Drain<'_, T> {
        self.items.drain(..)
    }

    /// Drops excess capacity (post-bulk-load compaction).
    pub fn shrink_to_fit(&mut self) {
        self.items.shrink_to_fit();
    }
}

impl<'a, T> IntoIterator for &'a IdSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl<T: MemFootprint> MemFootprint for IdSet<T> {
    fn heap_bytes(&self) -> usize {
        let IdSet { items } = self;
        items.heap_bytes()
    }
}

/// The badge kinds a user holds, as a bitset over [`Badge::ALL`].
///
/// Two bytes instead of a 48-byte `HashSet` header — the single biggest
/// per-user saving of the flat layout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BadgeSet(u16);

impl BadgeSet {
    fn bit(badge: Badge) -> u16 {
        let idx = Badge::ALL
            .iter()
            .position(|b| *b == badge)
            .expect("Badge::ALL is exhaustive"); // lint:allow(no-unwrap-hot-path): exhaustive table
        1 << idx
    }

    /// An empty set.
    pub fn new() -> Self {
        BadgeSet(0)
    }

    /// Grants `badge`; returns whether it was newly added.
    pub fn insert(&mut self, badge: Badge) -> bool {
        let bit = Self::bit(badge);
        let added = self.0 & bit == 0;
        self.0 |= bit;
        added
    }

    /// Whether `badge` is held.
    pub fn contains(&self, badge: &Badge) -> bool {
        self.0 & Self::bit(*badge) != 0
    }

    /// Number of badges held.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether no badge is held.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates held badges in [`Badge::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = Badge> + '_ {
        Badge::ALL
            .into_iter()
            .enumerate()
            .filter(move |(i, _)| self.0 & (1 << i) != 0)
            .map(|(_, b)| b)
    }
}

lbsn_obs::mem_footprint_inline!(BadgeSet);

/// Number of [`VenueCategory`] variants.
const CATEGORY_COUNT: usize = 11;

fn category_index(c: VenueCategory) -> usize {
    match c {
        VenueCategory::Coffee => 0,
        VenueCategory::Restaurant => 1,
        VenueCategory::Bar => 2,
        VenueCategory::Gym => 3,
        VenueCategory::Hotel => 4,
        VenueCategory::Airport => 5,
        VenueCategory::Landmark => 6,
        VenueCategory::Shop => 7,
        VenueCategory::Office => 8,
        VenueCategory::Park => 9,
        VenueCategory::Other => 10,
    }
}

/// Distinct-venue counters per category, as a fixed array.
///
/// Replaces a `HashMap<VenueCategory, u32>`: no heap, no hashing, and
/// 22 inline bytes. `u16` per category is ample — the heaviest
/// workload archetype visits ~12 k venues across all categories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoryCounts([u16; CATEGORY_COUNT]);

impl CategoryCounts {
    /// All-zero counters.
    pub fn new() -> Self {
        CategoryCounts::default()
    }

    /// Increments the counter for `category` (saturating).
    pub fn bump(&mut self, category: VenueCategory) {
        let c = &mut self.0[category_index(category)];
        *c = c.saturating_add(1);
    }

    /// The counter for `category`.
    pub fn count(&self, category: VenueCategory) -> u32 {
        u32::from(self.0[category_index(category)])
    }

    /// Sets the counter for `category` (test/builder convenience).
    pub fn set(&mut self, category: VenueCategory, count: u16) {
        self.0[category_index(category)] = count;
    }
}

lbsn_obs::mem_footprint_inline!(CategoryCounts);

/// A string slice handle into a shared arena chunk.
///
/// Cheap to clone (bumps the chunk's refcount); dereferences to `&str`.
/// Charges zero [`MemFootprint`] heap bytes — chunk storage is
/// accounted once by the owning [`StrArena`], which feeds the server's
/// `side_maps_bytes` gauge.
#[derive(Debug, Clone)]
pub struct ArenaStr {
    chunk: Arc<str>,
    off: u32,
    len: u32,
}

impl ArenaStr {
    /// A handle covering `[off, off+len)` of `chunk`.
    pub fn slice(chunk: &Arc<str>, off: u32, len: u32) -> Self {
        debug_assert!((off + len) as usize <= chunk.len());
        ArenaStr {
            chunk: Arc::clone(chunk),
            off,
            len,
        }
    }

    /// The referenced text.
    pub fn as_str(&self) -> &str {
        &self.chunk[self.off as usize..(self.off + self.len) as usize]
    }
}

impl Deref for ArenaStr {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for ArenaStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Serialize for ArenaStr {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_string())
    }
}

impl Deserialize for ArenaStr {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        // A deserialized handle gets its own solo chunk — arenas are a
        // registration-time optimization, not a wire concept.
        let s = String::deserialize(value)?;
        let len = s.len() as u32;
        Ok(ArenaStr {
            chunk: Arc::from(s.as_str()),
            off: 0,
            len,
        })
    }
}

impl MemFootprint for ArenaStr {
    fn heap_bytes(&self) -> usize {
        // Chunk bytes are shared and accounted by the owning StrArena;
        // double-charging them per handle would overstate the world by
        // the sharing factor.
        let ArenaStr {
            chunk: _,
            off: _,
            len: _,
        } = self;
        0
    }
}

/// Estimated allocation overhead of one `Arc<str>` chunk (strong +
/// weak refcounts).
const ARC_HEADER_BYTES: usize = 16;

/// A shard-local string arena: [`StrArena::stage`] a batch of
/// strings, then one [`StrArena::seal`] turns the batch into a single
/// shared chunk and hands back an `Arc` to slice handles out of.
#[derive(Debug, Default)]
pub struct StrArena {
    chunks: Vec<Arc<str>>,
    staging: String,
    sealed_bytes: usize,
}

impl StrArena {
    /// An empty arena.
    pub fn new() -> Self {
        StrArena::default()
    }

    /// Appends `text` to the staging buffer; returns `(off, len)` for
    /// slicing out of the chunk the next [`StrArena::seal`] produces.
    pub fn stage(&mut self, text: &str) -> (u32, u32) {
        let off = self.staging.len() as u32;
        self.staging.push_str(text);
        (off, text.len() as u32)
    }

    /// Seals the staged text into one shared chunk and returns it.
    /// Offsets from [`StrArena::stage`] since the previous seal index
    /// into this chunk. The staging buffer is released with the seal,
    /// so an arena owns only its chunks between batches.
    pub fn seal(&mut self) -> Arc<str> {
        let chunk: Arc<str> = Arc::from(std::mem::take(&mut self.staging));
        self.sealed_bytes += chunk.len() + ARC_HEADER_BYTES;
        self.chunks.push(Arc::clone(&chunk));
        chunk
    }

    /// Estimated owned bytes: sealed chunk text (plus per-chunk `Arc`
    /// headers), the chunk registry, and any staging buffer.
    pub fn bytes(&self) -> usize {
        let StrArena {
            chunks,
            staging,
            sealed_bytes,
        } = self;
        sealed_bytes + chunks.capacity() * std::mem::size_of::<Arc<str>>() + staging.heap_bytes()
    }

    /// Drops excess registry/staging capacity (post-bulk-load
    /// compaction).
    pub fn shrink_to_fit(&mut self) {
        self.chunks.shrink_to_fit();
        self.staging.shrink_to_fit();
    }
}

impl MemFootprint for StrArena {
    fn heap_bytes(&self) -> usize {
        self.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{UserId, VenueId};

    #[test]
    fn idset_insert_remove_contains() {
        let mut s: IdSet<UserId> = IdSet::new();
        assert!(s.insert(UserId(5)));
        assert!(s.insert(UserId(1)));
        assert!(!s.insert(UserId(5)), "duplicate insert reports false");
        assert!(s.contains(&UserId(1)));
        assert!(!s.contains(&UserId(2)));
        assert_eq!(s.len(), 2);
        let ordered: Vec<u64> = s.iter().map(|u| u.value()).collect();
        assert_eq!(ordered, vec![1, 5], "iteration is sorted");
        assert!(s.remove(&UserId(1)));
        assert!(!s.remove(&UserId(1)));
        assert_eq!(s.len(), 1);
        let drained: Vec<UserId> = s.drain().collect();
        assert_eq!(drained, vec![UserId(5)]);
        assert!(s.is_empty());
    }

    #[test]
    fn idset_from_vec_sorts_and_dedups() {
        let s = IdSet::from_vec(vec![VenueId(3), VenueId(1), VenueId(3), VenueId(2)]);
        assert_eq!(s.as_slice(), &[VenueId(1), VenueId(2), VenueId(3)]);
    }

    #[test]
    fn badgeset_tracks_all_kinds() {
        let mut b = BadgeSet::new();
        assert!(b.is_empty());
        for (i, badge) in Badge::ALL.into_iter().enumerate() {
            assert!(!b.contains(&badge));
            assert!(b.insert(badge));
            assert!(!b.insert(badge), "re-award reports false");
            assert_eq!(b.len(), i + 1);
        }
        let listed: Vec<Badge> = b.iter().collect();
        assert_eq!(listed, Badge::ALL.to_vec());
    }

    #[test]
    fn category_counts_bump_and_read() {
        let mut c = CategoryCounts::new();
        assert_eq!(c.count(VenueCategory::Coffee), 0);
        c.bump(VenueCategory::Coffee);
        c.bump(VenueCategory::Coffee);
        c.bump(VenueCategory::Gym);
        assert_eq!(c.count(VenueCategory::Coffee), 2);
        assert_eq!(c.count(VenueCategory::Gym), 1);
        assert_eq!(c.count(VenueCategory::Bar), 0);
        c.set(VenueCategory::Airport, 5);
        assert_eq!(c.count(VenueCategory::Airport), 5);
    }

    #[test]
    fn arena_bulk_seal_shares_one_chunk() {
        let mut arena = StrArena::new();
        let spans: Vec<(u32, u32)> = ["Old Town Plaza", "123 Central Ave", "Tiny Bar"]
            .iter()
            .map(|t| arena.stage(t))
            .collect();
        let chunk = arena.seal();
        let handles: Vec<ArenaStr> = spans
            .iter()
            .map(|(off, len)| ArenaStr::slice(&chunk, *off, *len))
            .collect();
        assert_eq!(&*handles[0], "Old Town Plaza");
        assert_eq!(&*handles[1], "123 Central Ave");
        assert_eq!(&*handles[2], "Tiny Bar");
        assert_eq!(arena.chunks.len(), 1, "one allocation for the batch");
        assert!(arena.bytes() >= chunk.len());
    }

    #[test]
    fn arena_batch_of_one_costs_its_text_and_one_header() {
        let mut arena = StrArena::new();
        let (off, len) = arena.stage("Starbucks Reserve");
        let h = ArenaStr::slice(&arena.seal(), off, len);
        assert_eq!(&*h, "Starbucks Reserve");
        assert_eq!(h.heap_bytes(), 0, "handles charge nothing");
        assert_eq!(
            arena.bytes(),
            "Starbucks Reserve".len()
                + ARC_HEADER_BYTES
                + arena.chunks.capacity() * std::mem::size_of::<Arc<str>>(),
            "no staging capacity outlives the seal"
        );
    }

    #[test]
    fn arena_str_serde_round_trip() {
        let mut arena = StrArena::new();
        let (off, len) = arena.stage("Pioneer Cafe");
        let h = ArenaStr::slice(&arena.seal(), off, len);
        let json = serde_json::to_string(&h).unwrap();
        assert_eq!(json, "\"Pioneer Cafe\"");
        let back: ArenaStr = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }
}
