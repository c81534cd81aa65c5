//! Venues: places users check into, with specials and a mayor.
//!
//! Like [`crate::user`], the struct is split hot/cold (DESIGN.md §13):
//! the check-in hot path reads only location, category, mayor and the
//! valid-check-in counter, which sit inline in [`Venue`]; name/address
//! text (arena-interned), the special, and the visitor-activity block
//! live behind one cold pointer. At paper scale ~97 % of venues never
//! see a check-in, so [`VenueActivity`] is lazily allocated — an idle
//! venue owns no collection headers at all.

use lbsn_geo::GeoPoint;
use lbsn_obs::MemFootprint;
use lbsn_sim::Timestamp;
use serde::{Deserialize, Serialize};

use crate::compact::{ArenaStr, IdSet, StrArena};
use crate::{UserId, VenueId};

/// Coarse venue category, used by category badges (Fresh Brew, Gym Rat…)
/// and by the workload generator's chain synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VenueCategory {
    /// Coffee shops (the paper's Starbucks free-coffee example).
    Coffee,
    /// Restaurants.
    Restaurant,
    /// Bars and nightlife.
    Bar,
    /// Gyms.
    Gym,
    /// Hotels.
    Hotel,
    /// Airports.
    Airport,
    /// Tourist landmarks (e.g. "Fisherman's Wharf Sign").
    Landmark,
    /// Retail.
    Shop,
    /// Offices.
    Office,
    /// Parks.
    Park,
    /// Anything else.
    Other,
}

impl VenueCategory {
    /// Human-readable label, as the web frontend prints it.
    pub fn label(self) -> &'static str {
        match self {
            VenueCategory::Coffee => "Coffee Shop",
            VenueCategory::Restaurant => "Restaurant",
            VenueCategory::Bar => "Bar",
            VenueCategory::Gym => "Gym",
            VenueCategory::Hotel => "Hotel",
            VenueCategory::Airport => "Airport",
            VenueCategory::Landmark => "Landmark",
            VenueCategory::Shop => "Shop",
            VenueCategory::Office => "Office",
            VenueCategory::Park => "Park",
            VenueCategory::Other => "Other",
        }
    }
}

/// Who qualifies for a venue's real-world special.
///
/// The paper found that "more than 90 % of the rewards were only for
/// mayors", and §3.4 notes some specials "do not require mayorship which
/// are much easier to obtain".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpecialKind {
    /// Only the current mayor gets the special.
    MayorOnly,
    /// Every valid check-in gets the special.
    EveryCheckin,
    /// Unlocks after `visits` valid check-ins by the same user.
    Loyalty {
        /// Check-ins needed to unlock.
        visits: u32,
    },
}

/// A real-world reward offered by a partner venue (§2.1's "free cup of
/// coffee from Starbucks").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Special {
    /// What the business offers ("Free coffee for the mayor!").
    pub description: String,
    /// Eligibility rule.
    pub kind: SpecialKind,
}

/// A user-left tip/comment on a venue — the medium of §2.2's
/// badmouthing scenario: "A business owner may use location cheating to
/// check into a competing business, and badmouth that business by
/// leaving negative comments."
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tip {
    /// The author.
    pub user: UserId,
    /// The comment text.
    pub text: String,
    /// When it was left.
    pub at: Timestamp,
}

/// Parameters for registering a venue.
#[derive(Debug, Clone)]
pub struct VenueSpec {
    /// Venue display name.
    pub name: String,
    /// Street address shown on the profile page.
    pub address: String,
    /// Geographic location.
    pub location: GeoPoint,
    /// Category.
    pub category: VenueCategory,
    /// Partner special, if any.
    pub special: Option<Special>,
}

impl VenueSpec {
    /// A minimal spec: name and location, `Other` category, no special.
    pub fn new(name: impl Into<String>, location: GeoPoint) -> Self {
        VenueSpec {
            name: name.into(),
            address: String::new(),
            location,
            category: VenueCategory::Other,
            special: None,
        }
    }

    /// Sets the category.
    pub fn category(mut self, category: VenueCategory) -> Self {
        self.category = category;
        self
    }

    /// Sets the street address.
    pub fn address(mut self, address: impl Into<String>) -> Self {
        self.address = address.into();
        self
    }

    /// Attaches a special.
    pub fn special(mut self, special: Special) -> Self {
        self.special = Some(special);
        self
    }
}

/// Server-side venue state: the hot half.
///
/// The public profile page (crate [`crate::web`]) exposes the name,
/// address, coordinates, `checkins_here`, unique visitors, the
/// special, the mayor link, and the recent-visitor list — the exact
/// fields the paper's `VenueInfo` table stores (Fig 3.3). Only what
/// the admission pipeline reads per check-in sits inline; the rest is
/// one hop away in [`VenueCold`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Venue {
    /// Venue ID (dense, incrementing).
    pub id: VenueId,
    /// Location.
    pub location: GeoPoint,
    /// Category.
    pub category: VenueCategory,
    /// Current mayor, if any.
    pub mayor: Option<UserId>,
    /// Total *valid* check-ins here.
    pub checkins_here: u64,
    /// Registration time.
    pub created_at: Timestamp,
    /// Cold state (profile text, special, visitor activity).
    cold: Box<VenueCold>,
}

/// Server-side venue state: the cold half. Reached by web-page,
/// reward (specials) and forensics paths.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VenueCold {
    /// Name + address, concatenated and arena-interned; `name_len`
    /// splits the two (see [`Venue::name`] / [`Venue::address`]).
    text: ArenaStr,
    /// Byte length of the name prefix of `text`.
    name_len: u16,
    /// Partner special, if any (boxed: >99 % of synthesized venues have
    /// none, so only the `Option` niche is resident).
    pub special: Option<Box<Special>>,
    /// Visitor activity, allocated on the first valid check-in or tip.
    activity: Option<Box<VenueActivity>>,
}

/// The per-venue state that only exists once somebody actually checks
/// in (or leaves a tip). At rung scale ~97 % of venues never do.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct VenueActivity {
    /// Distinct users who have validly checked in here.
    pub unique_visitors: IdSet<UserId>,
    /// The "Who's been here" list: most recent distinct visitors,
    /// newest first, capped at the server's configured length.
    pub recent_visitors: Vec<UserId>,
    /// User-left tips, newest first.
    pub tips: Vec<Tip>,
}

impl std::ops::Deref for Venue {
    type Target = VenueCold;
    fn deref(&self) -> &VenueCold {
        &self.cold
    }
}

impl std::ops::DerefMut for Venue {
    fn deref_mut(&mut self) -> &mut VenueCold {
        &mut self.cold
    }
}

static EMPTY_USERS: [UserId; 0] = [];
static EMPTY_TIPS: [Tip; 0] = [];

impl Venue {
    /// Builds one shard's batch of venues into `out`, draining `batch`
    /// in order. Every venue's name and address text is staged into
    /// `arena` and sealed once, so the whole batch shares one chunk.
    pub(crate) fn seal_batch(
        batch: &mut Vec<(VenueId, VenueSpec)>,
        now: Timestamp,
        arena: &mut StrArena,
        out: &mut Vec<Venue>,
    ) {
        let spans: Vec<(u32, u32)> = batch
            .iter()
            .map(|(_, spec)| {
                let (off, name_len) = arena.stage(&spec.name);
                let (_, addr_len) = arena.stage(&spec.address);
                (off, name_len + addr_len)
            })
            .collect();
        let chunk = arena.seal();
        out.extend(
            batch
                .drain(..)
                .zip(spans)
                .map(|((id, spec), (off, len))| Venue {
                    id,
                    location: spec.location,
                    category: spec.category,
                    mayor: None,
                    checkins_here: 0,
                    created_at: now,
                    cold: Box::new(VenueCold {
                        text: ArenaStr::slice(&chunk, off, len),
                        name_len: spec.name.len() as u16,
                        special: spec.special.map(Box::new),
                        activity: None,
                    }),
                }),
        );
    }

    /// One venue sealed alone: a batch of one through
    /// [`Venue::seal_batch`].
    #[cfg(test)]
    pub(crate) fn sealed(id: VenueId, spec: VenueSpec) -> Venue {
        let mut out = Vec::with_capacity(1);
        Venue::seal_batch(
            &mut vec![(id, spec)],
            Timestamp(0),
            &mut StrArena::new(),
            &mut out,
        );
        out.remove(0)
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.cold.text[..self.cold.name_len as usize]
    }

    /// Street address.
    pub fn address(&self) -> &str {
        &self.cold.text[self.cold.name_len as usize..]
    }

    /// Distinct users who have validly checked in here, ascending by ID.
    pub fn unique_visitors(&self) -> &[UserId] {
        self.cold
            .activity
            .as_ref()
            .map_or(&EMPTY_USERS, |a| a.unique_visitors.as_slice())
    }

    /// The "Who's been here" list, newest first.
    pub fn recent_visitors(&self) -> &[UserId] {
        self.cold
            .activity
            .as_ref()
            .map_or(&EMPTY_USERS, |a| &a.recent_visitors)
    }

    /// User-left tips, newest first.
    pub fn tips(&self) -> &[Tip] {
        self.cold.activity.as_ref().map_or(&EMPTY_TIPS, |a| &a.tips)
    }

    /// The activity block, allocated on first use.
    pub(crate) fn activity_mut(&mut self) -> &mut VenueActivity {
        self.cold.activity.get_or_insert_with(Default::default)
    }

    /// Records a valid check-in's effect on venue counters and the
    /// recent-visitor list. A visitor already on the list is moved to the
    /// front rather than duplicated (the paper's list diffing relies on
    /// presence, not multiplicity).
    pub(crate) fn record_valid_checkin(&mut self, user: UserId, recent_cap: usize) {
        self.checkins_here += 1;
        let activity = self.activity_mut();
        activity.unique_visitors.insert(user);
        if let Some(pos) = activity.recent_visitors.iter().position(|u| *u == user) {
            activity.recent_visitors.remove(pos);
        }
        activity.recent_visitors.insert(0, user);
        activity.recent_visitors.truncate(recent_cap);
    }

    /// Whether this venue currently has a mayor-only special with no
    /// mayor — the §3.4 "easy win" target class.
    pub fn is_unclaimed_special(&self) -> bool {
        self.mayor.is_none()
            && matches!(
                self.special.as_deref(),
                Some(Special {
                    kind: SpecialKind::MayorOnly,
                    ..
                })
            )
    }

    /// Drops excess collection capacity (post-bulk-load compaction).
    pub fn shrink_to_fit(&mut self) {
        if let Some(activity) = &mut self.cold.activity {
            activity.unique_visitors.shrink_to_fit();
            activity.recent_visitors.shrink_to_fit();
            activity.tips.shrink_to_fit();
        }
    }
}

// Inline leaves of venue state: no owned heap.
lbsn_obs::mem_footprint_inline!(VenueCategory, SpecialKind);

impl MemFootprint for Special {
    fn heap_bytes(&self) -> usize {
        let Special {
            description,
            kind: _,
        } = self;
        description.heap_bytes()
    }
}

impl MemFootprint for Tip {
    fn heap_bytes(&self) -> usize {
        let Tip {
            user: _,
            text,
            at: _,
        } = self;
        text.heap_bytes()
    }
}

impl MemFootprint for Venue {
    fn heap_bytes(&self) -> usize {
        // Exhaustive destructure so the `mem-footprint-field-missing`
        // lint sees every field; inline fields contribute nothing.
        let Venue {
            id: _,
            location: _,
            category: _,
            mayor: _,
            checkins_here: _,
            created_at: _,
            cold,
        } = self;
        cold.heap_bytes()
    }
}

impl MemFootprint for VenueCold {
    fn heap_bytes(&self) -> usize {
        // `text` charges nothing here: arena chunk bytes are accounted
        // once per shard (side_maps_bytes), not per venue.
        let VenueCold {
            text,
            name_len: _,
            special,
            activity,
        } = self;
        text.heap_bytes() + special.heap_bytes() + activity.heap_bytes()
    }
}

impl MemFootprint for VenueActivity {
    fn heap_bytes(&self) -> usize {
        let VenueActivity {
            unique_visitors,
            recent_visitors,
            tips,
        } = self;
        unique_visitors.heap_bytes() + recent_visitors.heap_bytes() + tips.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn venue() -> Venue {
        let spec = VenueSpec::new("Test Cafe", GeoPoint::new(35.0, -106.0).unwrap())
            .category(VenueCategory::Coffee)
            .address("123 Central Ave")
            .special(Special {
                description: "Free coffee for the mayor!".into(),
                kind: SpecialKind::MayorOnly,
            });
        Venue::sealed(VenueId(1), spec)
    }

    #[test]
    fn sealed_venue_initialises_counters() {
        let v = venue();
        assert_eq!(v.checkins_here, 0);
        assert!(v.unique_visitors().is_empty());
        assert!(v.recent_visitors().is_empty());
        assert_eq!(v.mayor, None);
        assert_eq!(v.category.label(), "Coffee Shop");
        assert_eq!(v.name(), "Test Cafe");
        assert_eq!(v.address(), "123 Central Ave");
    }

    #[test]
    fn idle_venue_owns_no_activity_heap() {
        let v = venue();
        // The special is boxed; everything else an idle venue holds is
        // the cold block itself. No collection headers.
        let expected = std::mem::size_of::<VenueCold>()
            + std::mem::size_of::<Special>()
            + "Free coffee for the mayor!".len();
        assert_eq!(v.heap_bytes(), expected);
    }

    #[test]
    fn recent_list_dedupes_and_caps() {
        let mut v = venue();
        for i in 1..=5 {
            v.record_valid_checkin(UserId(i), 3);
        }
        // Cap 3: only the 3 most recent remain, newest first.
        assert_eq!(v.recent_visitors(), &[UserId(5), UserId(4), UserId(3)]);
        // Revisit by user 3 moves them to the front without duplication.
        v.record_valid_checkin(UserId(3), 3);
        assert_eq!(v.recent_visitors(), &[UserId(3), UserId(5), UserId(4)]);
        assert_eq!(v.checkins_here, 6);
        assert_eq!(v.unique_visitors().len(), 5);
    }

    #[test]
    fn unclaimed_special_detection() {
        let mut v = venue();
        assert!(v.is_unclaimed_special());
        v.mayor = Some(UserId(9));
        assert!(!v.is_unclaimed_special());
        v.mayor = None;
        v.special = Some(Box::new(Special {
            description: "10% off any check-in".into(),
            kind: SpecialKind::EveryCheckin,
        }));
        assert!(!v.is_unclaimed_special(), "non-mayor specials don't count");
        v.special = None;
        assert!(!v.is_unclaimed_special());
    }
}
