//! The reward ladder: points, badges, mayorships, specials.
//!
//! §2.1 of the paper: "Listed from the easiest to the hardest to obtain,
//! they are: points, badges, mayorships, and real world rewards." This
//! module implements all four tiers. Exact 2010 point values were never
//! published; [`PointsPolicy`]'s defaults are documented approximations,
//! and every experiment conclusion depends only on *relative* reward
//! levels (Fig 4.2 compares badge counts across users under the same
//! policy).

use lbsn_obs::MemFootprint;
use lbsn_sim::{Duration, Timestamp, DAY, HOUR};
use serde::{Deserialize, Serialize};

use crate::compact::BadgeSet;
use crate::history::BriefRecord;
use crate::user::User;
use crate::venue::{Venue, VenueCategory};
use crate::VenueId;

/// Point values for check-in events. Serde-round-trippable so a whole
/// reward policy can live in a JSON scenario file (see
/// [`crate::policy`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointsPolicy {
    /// Base points for any valid check-in.
    pub per_checkin: u64,
    /// Bonus for the first-ever check-in at a venue ("first stop").
    pub first_visit_bonus: u64,
    /// Bonus for the first check-in of a virtual day.
    pub first_of_day_bonus: u64,
    /// Bonus for taking (not retaining) a mayorship.
    pub new_mayor_bonus: u64,
}

impl Default for PointsPolicy {
    fn default() -> Self {
        PointsPolicy {
            per_checkin: 1,
            first_visit_bonus: 4,
            first_of_day_bonus: 2,
            new_mayor_bonus: 5,
        }
    }
}

impl PointsPolicy {
    /// Points for a valid check-in with the given attributes.
    pub fn award(&self, first_visit: bool, first_of_day: bool, became_mayor: bool) -> u64 {
        self.per_checkin
            + if first_visit {
                self.first_visit_bonus
            } else {
                0
            }
            + if first_of_day {
                self.first_of_day_bonus
            } else {
                0
            }
            + if became_mayor {
                self.new_mayor_bonus
            } else {
                0
            }
    }
}

/// Achievement badges, modelled on the 2010 Foursquare set.
///
/// The paper's test account earned "Adventurer: You've checked into 10
/// different venues!"; §2.1 cites "30 check-ins in a month" (Super User)
/// and "checked into 10 different venues" as canonical examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Badge {
    /// First check-in ever.
    Newbie,
    /// 10 distinct venues.
    Adventurer,
    /// 25 distinct venues.
    Explorer,
    /// 50 distinct venues.
    Superstar,
    /// 100 distinct venues.
    Warhol,
    /// Check-ins on 4 consecutive days.
    Bender,
    /// 3 valid check-ins at the same venue within 7 days.
    Local,
    /// 30 valid check-ins within 30 days.
    SuperUser,
    /// 4 valid check-ins within 12 hours.
    Crunked,
    /// 10 valid check-ins within 12 hours.
    Overshare,
    /// A valid check-in between 01:00 and 04:00.
    SchoolNight,
    /// 5 distinct coffee venues.
    FreshBrew,
    /// 10 gym check-ins within 30 days.
    GymRat,
    /// 5 distinct airport venues.
    JetSetter,
    /// Hold 10 mayorships at once.
    SuperMayor,
}

// Fieldless achievement enum: no owned heap.
lbsn_obs::mem_footprint_inline!(Badge);

impl Badge {
    /// All badge kinds, in award-evaluation order.
    pub const ALL: [Badge; 15] = [
        Badge::Newbie,
        Badge::Adventurer,
        Badge::Explorer,
        Badge::Superstar,
        Badge::Warhol,
        Badge::Bender,
        Badge::Local,
        Badge::SuperUser,
        Badge::Crunked,
        Badge::Overshare,
        Badge::SchoolNight,
        Badge::FreshBrew,
        Badge::GymRat,
        Badge::JetSetter,
        Badge::SuperMayor,
    ];

    /// The unlock message shown to the user.
    pub fn message(self) -> &'static str {
        match self {
            Badge::Newbie => "Newbie: Your first check-in!",
            Badge::Adventurer => "Adventurer: You've checked into 10 different venues!",
            Badge::Explorer => "Explorer: You've checked into 25 different venues!",
            Badge::Superstar => "Superstar: You've checked into 50 different venues!",
            Badge::Warhol => "Warhol: You've checked into 100 different venues!",
            Badge::Bender => "Bender: Four days in a row!",
            Badge::Local => "Local: Three times at one place in a week!",
            Badge::SuperUser => "Super User: 30 check-ins in a month!",
            Badge::Crunked => "Crunked: Four stops in one night!",
            Badge::Overshare => "Overshare: Ten check-ins in twelve hours!",
            Badge::SchoolNight => "School Night: Out past 1am on a school night!",
            Badge::FreshBrew => "Fresh Brew: Five different coffee shops!",
            Badge::GymRat => "Gym Rat: Ten gym check-ins in a month!",
            Badge::JetSetter => "JetSetter: Five different airports!",
            Badge::SuperMayor => "Super Mayor: Ten simultaneous mayorships!",
        }
    }
}

/// A venue-attribute lookup the badge engine needs (category per venue).
pub trait VenueLookup {
    /// The category of a venue, if the venue exists.
    fn category_of(&self, venue: VenueId) -> Option<VenueCategory>;
}

impl VenueLookup for [Venue] {
    fn category_of(&self, venue: VenueId) -> Option<VenueCategory> {
        let idx = venue.value().checked_sub(1)? as usize;
        self.get(idx).map(|v| v.category)
    }
}

/// Evaluates which badges a user newly qualifies for, given that their
/// latest valid check-in (already appended to `user.history`) was at
/// `venue` at time `now`.
///
/// Badges already held are never re-awarded. Every windowed criterion
/// is answered from the user's reward windows (`RewardWindows`), which
/// [`User::push_record`] keeps current, so no history record is read.
/// Gym Rat counts the current check-in when `venue` is a gym, plus the
/// earlier gym check-ins `pipeline::reward` noted; `venues` is not read.
/// `now` must be no earlier than the user's newest rewarded check-in.
pub fn evaluate_badges(
    user: &User,
    venue: &Venue,
    now: Timestamp,
    _venues: &(impl VenueLookup + ?Sized),
) -> Vec<Badge> {
    earned_badges(user, venue, now)
}

/// [`evaluate_badges`] without the unread category lookup.
pub(crate) fn earned_badges(user: &User, venue: &Venue, now: Timestamp) -> Vec<Badge> {
    let mut earned = Vec::new();
    let mut check = |badge: Badge, achieved: &dyn Fn() -> bool| {
        if !user.badges.contains(&badge) && achieved() {
            earned.push(badge);
        }
    };
    let windows = user.reward_windows();
    let within = |k: usize, span: u64| {
        let since = Timestamp(now.secs().saturating_sub(span));
        windows.is_some_and(|w| w.recent_since(k, since))
    };

    let distinct = user.visited_venues.len();
    check(Badge::Newbie, &|| user.valid_checkins >= 1);
    check(Badge::Adventurer, &|| distinct >= 10);
    check(Badge::Explorer, &|| distinct >= 25);
    check(Badge::Superstar, &|| distinct >= 50);
    check(Badge::Warhol, &|| distinct >= 100);
    check(Badge::Bender, &|| {
        let today = Timestamp::at_day(now.day());
        user.has_valid_checkin_since(today) && windows.is_some_and(RewardWindows::bender)
    });
    check(Badge::Local, &|| {
        let week_ago = Timestamp(now.secs().saturating_sub(LOCAL_WINDOW));
        windows.is_some_and(|w| w.local(venue.id, week_ago))
    });
    check(Badge::SuperUser, &|| within(30, 30 * DAY));
    check(Badge::Crunked, &|| within(4, 12 * HOUR));
    check(Badge::Overshare, &|| within(10, 12 * HOUR));

    // School Night: the triggering check-in landed between 01:00–04:00.
    let hour_of_day = (now.secs() % DAY) / HOUR;
    check(Badge::SchoolNight, &|| (1..4).contains(&hour_of_day));

    // Category badges.
    check(Badge::FreshBrew, &|| {
        user.venues_by_category.count(VenueCategory::Coffee) >= 5
    });
    check(Badge::JetSetter, &|| {
        user.venues_by_category.count(VenueCategory::Airport) >= 5
    });

    // Gym Rat: 10 gym check-ins in the trailing 30 days (check-ins, not
    // distinct venues — loyalty to one gym counts), this one included
    // when it is at a gym.
    check(Badge::GymRat, &|| {
        let month_ago = Timestamp(now.secs().saturating_sub(30 * DAY));
        let at_gym = venue.category == VenueCategory::Gym;
        windows.is_some_and(|w| w.gym_since(at_gym, month_ago))
    });

    check(Badge::SuperMayor, &|| user.mayorships.len() >= 10);

    earned
}

/// The badge rules as windowed history scans, newest first, each
/// stopping at its window or threshold: the oracle `pipeline::reward`
/// checks [`evaluate_badges`] against in debug builds.
pub(crate) fn evaluate_badges_by_scan(
    user: &User,
    venue: &Venue,
    now: Timestamp,
    venues: &(impl VenueLookup + ?Sized),
) -> Vec<Badge> {
    let mut earned = Vec::new();
    let mut check = |badge: Badge, achieved: &dyn Fn() -> bool| {
        if !user.badges.contains(&badge) && achieved() {
            earned.push(badge);
        }
    };
    // Whether at least `n` valid check-ins since `since` satisfy `keep`.
    let at_least = |since: Timestamp, n: usize, keep: &dyn Fn(&BriefRecord) -> bool| {
        user.rewarded_since(since)
            .filter(|r| keep(r))
            .take(n)
            .count()
            == n
    };

    let distinct = user.visited_venues.len();
    check(Badge::Newbie, &|| user.valid_checkins >= 1);
    check(Badge::Adventurer, &|| distinct >= 10);
    check(Badge::Explorer, &|| distinct >= 25);
    check(Badge::Superstar, &|| distinct >= 50);
    check(Badge::Warhol, &|| distinct >= 100);
    // Bender: bit `k` of the mask is "a check-in `k` days before today".
    check(Badge::Bender, &|| {
        let today = now.day();
        today.checked_sub(3).is_some_and(|first| {
            let seen = user
                .rewarded_since(Timestamp::at_day(first))
                .filter_map(|r| today.checked_sub(r.at.day()))
                .fold(0u8, |seen, back| seen | 1 << back);
            seen & 0b1111 == 0b1111
        })
    });
    let week_ago = Timestamp(now.secs().saturating_sub(7 * DAY));
    check(Badge::Local, &|| {
        at_least(week_ago, 3, &|r| r.venue == venue.id)
    });
    let month_ago = Timestamp(now.secs().saturating_sub(30 * DAY));
    check(Badge::SuperUser, &|| at_least(month_ago, 30, &|_| true));
    let half_day_ago = Timestamp(now.secs().saturating_sub(12 * HOUR));
    check(Badge::Crunked, &|| at_least(half_day_ago, 4, &|_| true));
    check(Badge::Overshare, &|| at_least(half_day_ago, 10, &|_| true));
    let hour_of_day = (now.secs() % DAY) / HOUR;
    check(Badge::SchoolNight, &|| (1..4).contains(&hour_of_day));
    check(Badge::FreshBrew, &|| {
        user.venues_by_category.count(VenueCategory::Coffee) >= 5
    });
    check(Badge::JetSetter, &|| {
        user.venues_by_category.count(VenueCategory::Airport) >= 5
    });
    check(Badge::GymRat, &|| {
        at_least(month_ago, 10, &|r| {
            venues.category_of(r.venue) == Some(VenueCategory::Gym)
        })
    });
    check(Badge::SuperMayor, &|| user.mayorships.len() >= 10);
    earned
}

/// The mayorship window: "the user who checked in to that venue the most
/// days in the past 60 days" (§2.1).
pub const MAYOR_WINDOW: Duration = Duration(60 * DAY);

/// The start of the mayorship window ending at `now`.
fn window_start(now: Timestamp) -> Timestamp {
    Timestamp(now.secs().saturating_sub(MAYOR_WINDOW.as_secs()))
}

/// Rewarded times Super User (30th newest), Crunked (4th) and Overshare
/// (10th) look back over.
const RECENT: usize = 30;
/// The badges the recent times serve: once all three are held they are
/// dropped.
const RECENT_BADGES: [Badge; 3] = [Badge::SuperUser, Badge::Crunked, Badge::Overshare];
/// Earlier gym check-ins Gym Rat looks back over: nine when the current
/// check-in is at a gym, ten when it is not.
const GYM_LOOKBACK: usize = 10;
/// Local's window.
const LOCAL_WINDOW: u64 = 7 * DAY;
/// How far before the newest time a re-based origin lands: past every
/// window the rules ask about, so the times it clamps are never asked.
const REBASE_MARGIN: u64 = MAYOR_WINDOW.0 + DAY;

/// A user's rewarded check-ins, reduced to what §2.1's windowed rules
/// ask: the running state behind [`decide_mayor`] and
/// [`evaluate_badges`]. [`User::push_record`] notes every rewarded
/// check-in and `pipeline::reward` every rewarded gym check-in, so the
/// state is current whenever the ladder runs; it is serialized with the
/// user. Allocated on the user's first rewarded check-in.
///
/// Times are stored as `u32` offsets from `base`: offset `v > 0` is the
/// time `base + v - 1`, and 0 means "before `base`" (or none). When a
/// time no longer fits, `base` moves up to [`REBASE_MARGIN`] before it
/// and older times clamp to 0: by then they lie outside every window.
/// Timestamps must not decrease from one note to the next.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct RewardWindows {
    /// The origin of every stored offset.
    base: u64,
    /// Mayorship: one entry per (venue, day) with a rewarded check-in,
    /// sorted by venue and then time. Entries older than the mayorship
    /// window are dropped when their venue is touched and by a
    /// whole-list pass on the first rewarded check-in of each day, so
    /// none is 61 days old.
    days: Vec<DayEntry>,
    /// Local: per venue, the two rewarded times before the newest there,
    /// sorted by venue. Kept only while the newer one is less than a
    /// week old (else no third check-in can fall in one week with them)
    /// and until Local is held.
    local: Vec<LocalEntry>,
    /// Two runs of times, each oldest first: the last [`GYM_LOOKBACK`]
    /// rewarded gym check-ins (`..gym`), noted after the badges of each
    /// were evaluated, then the last [`RECENT`] rewarded check-ins, kept
    /// until the three [`RECENT_BADGES`] are held.
    times: Vec<u32>,
    /// The length of the gym run.
    gym: u8,
    /// Bender: bit `k` is set iff there is a rewarded check-in `k` days
    /// before the newest one's day.
    bender: u8,
}

/// A venue's rewarded check-ins on one day: the latest one's offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct DayEntry {
    /// The venue's [`venue_key`].
    venue: u32,
    /// The day's latest rewarded time here.
    latest: u32,
}

/// The two rewarded times at a venue before the newest there, newest
/// first, as offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct LocalEntry {
    venue: u32,
    before: [u32; 2],
}

/// Inserts `entry` at `at`, growing `list` by a quarter when it is full:
/// inserts into a sorted list shift its tail anyway, and a small step
/// keeps the spare capacity of many short lists small.
fn insert<T>(list: &mut Vec<T>, at: usize, entry: T) {
    if list.len() == list.capacity() {
        list.reserve_exact(list.len() / 4 + 4);
    }
    list.insert(at, entry);
}

/// Appends `at` to the run `times[start..]` of at most `cap` times,
/// dropping its oldest when full.
fn note_time(times: &mut Vec<u32>, start: usize, at: u32, cap: usize) {
    if times.len() - start == cap {
        times.copy_within(start + 1.., start);
        times.pop();
    }
    insert(times, times.len(), at);
}

/// Whether the `k`-th newest time (`k` ≥ 1) of the run `run` is at
/// least `floor`.
fn kth_newest_from(run: &[u32], k: usize, floor: u64) -> bool {
    k <= run.len() && u64::from(run[run.len() - k]) >= floor
}

/// The key a venue's entries sort by. Ids are dense from 1, so every
/// venue a server can hold fits in 32 bits.
fn venue_key(venue: VenueId) -> u32 {
    venue.value() as u32
}

impl RewardWindows {
    /// Empty state whose offsets start at `at`.
    pub(crate) fn new(at: Timestamp) -> Self {
        RewardWindows {
            base: at.secs(),
            days: Vec::new(),
            local: Vec::new(),
            times: Vec::new(),
            gym: 0,
            bender: 0,
        }
    }

    /// The smallest offset at or after `since`: a stored offset `v` is
    /// in the window starting at `since` iff `v >= floor(since)`.
    fn floor(&self, since: Timestamp) -> u64 {
        since.secs().saturating_sub(self.base) + 1
    }

    /// The day of a nonzero offset.
    fn day_of(&self, offset: u32) -> u64 {
        (self.base + u64::from(offset).saturating_sub(1)) / DAY
    }

    /// The offset of `at`, moving `base` up first when `at` lies past
    /// the offsets' reach.
    fn encode(&mut self, at: Timestamp) -> u32 {
        if at.secs().saturating_sub(self.base) >= u64::from(u32::MAX) {
            self.rebase(at.secs() - REBASE_MARGIN);
        }
        (at.secs().saturating_sub(self.base) + 1) as u32
    }

    /// Moves the origin up to `base`, clamping earlier times to 0 and
    /// dropping the entries they leave stale.
    fn rebase(&mut self, base: u64) {
        let old = self.base;
        let shift = move |v: &mut u32| {
            *v = match (old + u64::from(*v)).checked_sub(base) {
                Some(from_base) if *v > 0 => from_base as u32,
                _ => 0,
            }
        };
        self.days.iter_mut().for_each(|e| shift(&mut e.latest));
        self.days.retain(|e| e.latest > 0);
        self.local
            .iter_mut()
            .for_each(|e| e.before.iter_mut().for_each(shift));
        self.local.retain(|e| e.before[0] > 0);
        self.times.iter_mut().for_each(shift);
        self.base = base;
    }

    /// Notes a rewarded check-in at `venue` at `at`. `last_day` is the
    /// day of the user's previous rewarded check-in; `held` their
    /// badges before this one.
    pub(crate) fn note(
        &mut self,
        venue: VenueId,
        at: Timestamp,
        last_day: Option<u64>,
        held: &BadgeSet,
    ) {
        let now = self.encode(at);
        let new_day = last_day != Some(at.day());
        self.bender = match last_day.map(|d| at.day().saturating_sub(d)) {
            Some(0) => self.bender | 1,
            Some(gap) if gap < 4 => (self.bender << gap | 1) & 0b1111,
            _ => 1,
        };
        let gym = usize::from(self.gym);
        if !RECENT_BADGES.iter().all(|b| held.contains(b)) {
            note_time(&mut self.times, gym, now, RECENT);
        } else if self.times.len() > gym {
            self.times.truncate(gym);
            self.times.shrink_to_fit();
        }

        // This venue's day run: drop its stale prefix, then extend
        // today's entry or append one after it.
        let stale = self.floor(window_start(at));
        let week = self.floor(Timestamp(at.secs().saturating_sub(LOCAL_WINDOW)));
        let key = venue_key(venue);
        let lo = self.days.partition_point(|e| e.venue < key);
        let run = self.days[lo..].partition_point(|e| e.venue == key);
        let dead = self.days[lo..lo + run].partition_point(|e| u64::from(e.latest) < stale);
        self.days.drain(lo..lo + dead);
        let end = lo + run - dead;
        let newest = self.days[lo..end].last().map(|e| e.latest);
        match newest {
            Some(latest) if self.day_of(latest) == at.day() => self.days[end - 1].latest = now,
            _ => insert(
                &mut self.days,
                end,
                DayEntry {
                    venue: key,
                    latest: now,
                },
            ),
        }

        // Local's look-back: the previous newest time here and the one
        // before it, while the former is within a week.
        if held.contains(&Badge::Local) {
            self.local = Vec::new();
        } else {
            let slot = self.local.binary_search_by_key(&key, |e| e.venue);
            let older = slot.map_or(0, |i| self.local[i].before[0]);
            match (newest.filter(|&n| u64::from(n) >= week), slot) {
                (Some(n), Ok(i)) => self.local[i].before = [n, older],
                (Some(n), Err(i)) => insert(
                    &mut self.local,
                    i,
                    LocalEntry {
                        venue: key,
                        before: [n, older],
                    },
                ),
                (None, Ok(i)) => {
                    self.local.remove(i);
                }
                (None, Err(_)) => {}
            }
        }

        if new_day {
            self.days.retain(|e| u64::from(e.latest) >= stale);
            self.local.retain(|e| u64::from(e.before[0]) >= week);
        }
    }

    /// Notes a rewarded gym check-in at `at`, after the badges it may
    /// earn were evaluated.
    pub(crate) fn note_gym(&mut self, at: Timestamp) {
        let now = self.encode(at);
        let gym = usize::from(self.gym);
        if gym == GYM_LOOKBACK {
            self.times.copy_within(1..gym, 0);
            self.times[gym - 1] = now;
        } else {
            insert(&mut self.times, gym, now);
            self.gym += 1;
        }
    }

    /// Days with a rewarded check-in at `venue` in the mayorship window
    /// ending `now`. Exact: a day counts iff its latest check-in there
    /// is in the window, the window's mid-day first day included.
    pub(crate) fn mayor_days(&self, venue: VenueId, now: Timestamp) -> u32 {
        let key = venue_key(venue);
        let lo = self.days.partition_point(|e| e.venue < key);
        let hi = self.days.partition_point(|e| e.venue <= key);
        let floor = self.floor(window_start(now));
        (hi - lo - self.days[lo..hi].partition_point(|e| u64::from(e.latest) < floor)) as u32
    }

    /// Local: whether the two rewarded check-ins at `venue` before the
    /// newest there are at or after `since`.
    fn local(&self, venue: VenueId, since: Timestamp) -> bool {
        let floor = self.floor(since);
        self.local
            .binary_search_by_key(&venue_key(venue), |e| e.venue)
            .is_ok_and(|i| u64::from(self.local[i].before[1]) >= floor)
    }

    /// Whether the `k`-th newest rewarded check-in is at or after
    /// `since`. Asked only while one of [`RECENT_BADGES`] is not held.
    fn recent_since(&self, k: usize, since: Timestamp) -> bool {
        let recent = &self.times[usize::from(self.gym)..];
        kth_newest_from(recent, k, self.floor(since))
    }

    /// Whether ten gym check-ins are at or after `since`: the current
    /// one, when `at_gym`, and the earlier ones noted.
    fn gym_since(&self, at_gym: bool, since: Timestamp) -> bool {
        let gym = &self.times[..usize::from(self.gym)];
        kth_newest_from(gym, GYM_LOOKBACK - usize::from(at_gym), self.floor(since))
    }

    /// Whether the newest rewarded check-in's day and the three before
    /// it all have one.
    fn bender(&self) -> bool {
        self.bender == 0b1111
    }
}

// `u32` offsets and ids, inline.
lbsn_obs::mem_footprint_inline!(DayEntry, LocalEntry);

impl MemFootprint for RewardWindows {
    fn heap_bytes(&self) -> usize {
        let RewardWindows {
            base: _,
            days,
            local,
            times,
            gym: _,
            bender: _,
        } = self;
        days.heap_bytes() + local.heap_bytes() + times.heap_bytes()
    }
}

/// Decides whether `challenger` takes the mayorship of `venue` at `now`,
/// given read access to the incumbent's user record.
///
/// Rules reproduced from §2.1:
/// * only distinct *days with check-ins* in the trailing 60 days count —
///   "without consideration of how many check-ins occurred per day";
/// * there is exactly one mayor per venue;
/// * a challenger must strictly exceed the incumbent's day count (ties
///   keep the incumbent — this is what makes the §2.2 squatting attack
///   work: an attacker checking in daily can never be dethroned by an
///   equally diligent newcomer);
/// * a venue with no mayor is claimed by a single valid check-in — the
///   §3.4 observation that "only one check-in is enough" on dormant
///   venues.
///
/// Both day counts come from the users' reward windows
/// (`RewardWindows`): no history record is read. `now` must be no
/// earlier than either user's newest rewarded check-in.
pub fn decide_mayor(
    venue: &Venue,
    challenger: &User,
    incumbent: Option<&User>,
    now: Timestamp,
) -> bool {
    if venue.mayor == Some(challenger.id) {
        return false; // already mayor; nothing to transfer
    }
    let days = |u: &User| {
        u.reward_windows()
            .map_or(0, |w| w.mayor_days(venue.id, now))
    };
    days(challenger) > incumbent.map_or(0, days)
}

/// [`decide_mayor`] by history scans: the incumbent's day count by a
/// scan of their window, then the challenger's walk up to one day more.
/// The oracle `pipeline::reward` checks [`decide_mayor`] against in
/// debug builds.
pub(crate) fn decide_by_scan(
    venue: &Venue,
    challenger: &User,
    incumbent: Option<&User>,
    now: Timestamp,
) -> bool {
    if venue.mayor == Some(challenger.id) {
        return false; // already mayor; nothing to transfer
    }
    let window_start = window_start(now);
    let incumbent_days = incumbent.map_or(0, |inc| inc.distinct_days_at(venue.id, window_start));
    let to_win = incumbent_days.saturating_add(1);
    challenger.distinct_days_at_capped(venue.id, window_start, to_win) == to_win
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkin::{CheatFlag, CheckinRecord, CheckinSource};
    use crate::user::UserSpec;
    use crate::venue::VenueSpec;
    use crate::UserId;
    use lbsn_geo::GeoPoint;
    use proptest::prelude::*;

    fn loc() -> GeoPoint {
        GeoPoint::new(35.0, -106.0).unwrap()
    }

    fn venue(id: u64) -> Venue {
        venue_in(id, VenueCategory::Other)
    }

    fn venue_in(id: u64, category: VenueCategory) -> Venue {
        Venue::sealed(VenueId(id), VenueSpec::new("V", loc()).category(category))
    }

    fn user(id: u64) -> User {
        User::from_spec(UserId(id), UserSpec::anonymous(), Timestamp(0))
    }

    /// Appends a valid check-in directly to the user's state (test
    /// shortcut bypassing the server pipeline).
    fn add_valid(u: &mut User, venue: u64, at: u64) {
        u.push_record(CheckinRecord {
            venue: VenueId(venue),
            at: Timestamp(at),
            location: loc(),
            source: CheckinSource::MobileApp,
            rewarded: true,
            flags: vec![],
        });
        u.valid_checkins += 1;
        u.visited_venues.insert(VenueId(venue));
    }

    struct NoVenues;
    impl VenueLookup for NoVenues {
        fn category_of(&self, _: VenueId) -> Option<VenueCategory> {
            None
        }
    }

    #[test]
    fn points_policy_composes_bonuses() {
        let p = PointsPolicy::default();
        assert_eq!(p.award(false, false, false), 1);
        assert_eq!(p.award(true, false, false), 5);
        assert_eq!(p.award(true, true, false), 7);
        assert_eq!(p.award(true, true, true), 12);
    }

    #[test]
    fn newbie_and_adventurer() {
        let mut u = user(1);
        add_valid(&mut u, 1, 100);
        let v = venue(1);
        let badges = evaluate_badges(&u, &v, Timestamp(100), &NoVenues);
        assert!(badges.contains(&Badge::Newbie));
        assert!(!badges.contains(&Badge::Adventurer));

        for i in 2..=10 {
            add_valid(&mut u, i, 100 + i * 7200);
        }
        let badges = evaluate_badges(&u, &venue(10), Timestamp(100 + 10 * 7200), &NoVenues);
        assert!(badges.contains(&Badge::Adventurer));
    }

    #[test]
    fn badges_not_reawarded() {
        let mut u = user(1);
        add_valid(&mut u, 1, 100);
        u.badges.insert(Badge::Newbie);
        let badges = evaluate_badges(&u, &venue(1), Timestamp(100), &NoVenues);
        assert!(!badges.contains(&Badge::Newbie));
    }

    #[test]
    fn bender_needs_four_consecutive_days() {
        let mut u = user(1);
        for d in 10..14 {
            add_valid(&mut u, 1, d * DAY + 100 + (d - 10) * HOUR * 2);
        }
        let now = Timestamp(13 * DAY + 100 + 6 * HOUR);
        let badges = evaluate_badges(&u, &venue(1), now, &NoVenues);
        assert!(badges.contains(&Badge::Bender));

        // A gap breaks the streak.
        let mut v = user(2);
        for d in [10u64, 11, 13, 14] {
            add_valid(&mut v, 1, d * DAY + 100);
        }
        let badges = evaluate_badges(&v, &venue(1), Timestamp(14 * DAY + 100), &NoVenues);
        assert!(!badges.contains(&Badge::Bender));
    }

    #[test]
    fn local_same_venue_in_week() {
        let mut u = user(1);
        add_valid(&mut u, 5, 0);
        add_valid(&mut u, 5, 2 * DAY);
        add_valid(&mut u, 5, 4 * DAY);
        let badges = evaluate_badges(&u, &venue(5), Timestamp(4 * DAY), &NoVenues);
        assert!(badges.contains(&Badge::Local));

        // Spread over more than a week: no badge.
        let mut v = user(2);
        add_valid(&mut v, 5, 0);
        add_valid(&mut v, 5, 5 * DAY);
        add_valid(&mut v, 5, 10 * DAY);
        let badges = evaluate_badges(&v, &venue(5), Timestamp(10 * DAY), &NoVenues);
        assert!(!badges.contains(&Badge::Local));
    }

    #[test]
    fn super_user_thirty_in_month() {
        let mut u = user(1);
        for i in 0..30 {
            add_valid(&mut u, (i % 5) + 1, i * DAY / 2);
        }
        let now = Timestamp(29 * DAY / 2);
        let badges = evaluate_badges(&u, &venue(1), now, &NoVenues);
        assert!(badges.contains(&Badge::SuperUser));
    }

    #[test]
    fn crunked_and_overshare_bursts() {
        let mut u = user(1);
        for i in 0..10 {
            add_valid(&mut u, i + 1, 1000 + i * 1800);
        }
        let now = Timestamp(1000 + 9 * 1800);
        let badges = evaluate_badges(&u, &venue(10), now, &NoVenues);
        assert!(badges.contains(&Badge::Crunked));
        assert!(badges.contains(&Badge::Overshare));
    }

    #[test]
    fn school_night_hour_window() {
        let mut u = user(1);
        add_valid(&mut u, 1, 2 * HOUR); // 02:00
        let badges = evaluate_badges(&u, &venue(1), Timestamp(2 * HOUR), &NoVenues);
        assert!(badges.contains(&Badge::SchoolNight));
        let mut v = user(2);
        add_valid(&mut v, 1, 12 * HOUR); // noon
        let badges = evaluate_badges(&v, &venue(1), Timestamp(12 * HOUR), &NoVenues);
        assert!(!badges.contains(&Badge::SchoolNight));
    }

    #[test]
    fn category_badges_use_user_state() {
        // Gym Rat: nine noted gym check-ins plus this one, at a gym.
        let gym = venue_in(1, VenueCategory::Gym);
        let mut u = user(1);
        for i in 0..10 {
            add_valid(&mut u, 1, i * DAY + i * HOUR);
            if i < 9 {
                u.note_gym_checkin(Timestamp(i * DAY + i * HOUR));
            }
        }
        let now = Timestamp(9 * DAY + 9 * HOUR);
        let badges = evaluate_badges(&u, &gym, now, &NoVenues);
        assert!(badges.contains(&Badge::GymRat));
        // The same check-in anywhere but a gym is the ninth, not the tenth.
        let badges = evaluate_badges(&u, &venue(1), now, &NoVenues);
        assert!(!badges.contains(&Badge::GymRat));

        // FreshBrew counts distinct venues per category from user state.
        let mut c = user(2);
        add_valid(&mut c, 1, 0);
        c.venues_by_category.set(VenueCategory::Coffee, 5);
        let badges = evaluate_badges(&c, &venue(1), Timestamp(0), &NoVenues);
        assert!(badges.contains(&Badge::FreshBrew));
    }

    #[test]
    fn super_mayor_at_ten() {
        let mut u = user(1);
        add_valid(&mut u, 1, 0);
        for i in 0..10 {
            u.mayorships.insert(VenueId(i + 1));
        }
        let badges = evaluate_badges(&u, &venue(1), Timestamp(0), &NoVenues);
        assert!(badges.contains(&Badge::SuperMayor));
    }

    #[test]
    fn mayor_claims_vacant_venue_with_one_checkin() {
        let v = venue(1);
        let mut challenger = user(1);
        add_valid(&mut challenger, 1, 100 * DAY);
        assert!(decide_mayor(&v, &challenger, None, Timestamp(100 * DAY)));
    }

    #[test]
    fn mayor_requires_strictly_more_days() {
        let mut v = venue(1);
        let mut incumbent = user(1);
        for d in 0..4 {
            add_valid(&mut incumbent, 1, (100 + d) * DAY);
        }
        v.mayor = Some(incumbent.id);
        let now = Timestamp(104 * DAY);

        let mut tied = user(2);
        for d in 0..4 {
            add_valid(&mut tied, 1, (100 + d) * DAY + HOUR);
        }
        assert!(
            !decide_mayor(&v, &tied, Some(&incumbent), now),
            "tie keeps the incumbent"
        );

        let mut stronger = user(3);
        for d in 0..5 {
            add_valid(&mut stronger, 1, (99 + d) * DAY + HOUR);
        }
        assert!(decide_mayor(&v, &stronger, Some(&incumbent), now));
    }

    #[test]
    fn mayor_window_expires_old_days() {
        // The incumbent's check-ins have aged out of the 60-day window;
        // a single fresh day takes the crown.
        let mut v = venue(1);
        let mut incumbent = user(1);
        for d in 0..10 {
            add_valid(&mut incumbent, 1, d * DAY);
        }
        v.mayor = Some(incumbent.id);
        let mut challenger = user(2);
        let now = Timestamp(200 * DAY);
        add_valid(&mut challenger, 1, 200 * DAY);
        assert!(decide_mayor(&v, &challenger, Some(&incumbent), now));
    }

    #[test]
    fn many_checkins_one_day_count_once() {
        // "without consideration of how many check-ins occurred per day"
        let mut v = venue(1);
        let mut incumbent = user(1);
        add_valid(&mut incumbent, 1, 100 * DAY);
        add_valid(&mut incumbent, 1, 101 * DAY);
        v.mayor = Some(incumbent.id);

        let mut spammer = user(2);
        for i in 0..20 {
            add_valid(&mut spammer, 1, 102 * DAY + i * HOUR / 2);
        }
        // 20 check-ins but one day: 1 < 2, incumbent holds.
        assert!(!decide_mayor(
            &v,
            &spammer,
            Some(&incumbent),
            Timestamp(102 * DAY + 10 * HOUR)
        ));
    }

    #[test]
    fn existing_mayor_does_not_retransfer() {
        let mut v = venue(1);
        let mut mayor = user(1);
        add_valid(&mut mayor, 1, 100 * DAY);
        v.mayor = Some(mayor.id);
        assert!(!decide_mayor(
            &v,
            &mayor,
            Some(&mayor),
            Timestamp(100 * DAY)
        ));
    }

    /// The ladder as one full-decode scan per criterion: a `HashSet` of
    /// days, every window counted to its end, held badges dropped only
    /// after their count. The production functions must agree with it.
    mod reference {
        use super::super::*;
        use std::collections::HashSet;

        pub fn distinct_days_at(user: &User, venue: VenueId, since: Timestamp) -> u32 {
            let days: HashSet<u64> = user
                .valid_checkins_since(since)
                .filter(|r| r.venue == venue)
                .map(|r| r.at.day())
                .collect();
            days.len() as u32
        }

        pub fn evaluate_badges(
            user: &User,
            venue: &Venue,
            now: Timestamp,
            venues: &(impl VenueLookup + ?Sized),
        ) -> Vec<Badge> {
            let mut earned = Vec::new();
            let mut check = |badge: Badge, achieved: bool| {
                if achieved && !user.badges.contains(&badge) {
                    earned.push(badge);
                }
            };
            let distinct = user.visited_venues.len();
            check(Badge::Newbie, user.valid_checkins >= 1);
            check(Badge::Adventurer, distinct >= 10);
            check(Badge::Explorer, distinct >= 25);
            check(Badge::Superstar, distinct >= 50);
            check(Badge::Warhol, distinct >= 100);
            let today = now.day();
            if today >= 3 {
                let days: HashSet<u64> = user
                    .valid_checkins_since(Timestamp::at_day(today - 3))
                    .map(|r| r.at.day())
                    .collect();
                check(
                    Badge::Bender,
                    (today - 3..=today).all(|d| days.contains(&d)),
                );
            }
            let week_ago = Timestamp(now.secs().saturating_sub(7 * DAY));
            let local = user
                .valid_checkins_since(week_ago)
                .filter(|r| r.venue == venue.id)
                .count();
            check(Badge::Local, local >= 3);
            let month_ago = Timestamp(now.secs().saturating_sub(30 * DAY));
            check(
                Badge::SuperUser,
                user.valid_checkins_since(month_ago).count() >= 30,
            );
            let half_day_ago = Timestamp(now.secs().saturating_sub(12 * HOUR));
            let burst = user.valid_checkins_since(half_day_ago).count();
            check(Badge::Crunked, burst >= 4);
            check(Badge::Overshare, burst >= 10);
            let hour_of_day = (now.secs() % DAY) / HOUR;
            check(Badge::SchoolNight, (1..4).contains(&hour_of_day));
            let coffee = user.venues_by_category.count(VenueCategory::Coffee);
            check(Badge::FreshBrew, coffee >= 5);
            let airports = user.venues_by_category.count(VenueCategory::Airport);
            check(Badge::JetSetter, airports >= 5);
            let gym_visits = user
                .valid_checkins_since(month_ago)
                .filter(|r| venues.category_of(r.venue) == Some(VenueCategory::Gym))
                .count();
            check(Badge::GymRat, gym_visits >= 10);
            check(Badge::SuperMayor, user.mayorships.len() >= 10);
            earned
        }

        pub fn decide_mayor(
            venue: &Venue,
            challenger: &User,
            incumbent: Option<&User>,
            now: Timestamp,
        ) -> bool {
            if venue.mayor == Some(challenger.id) {
                return false;
            }
            let window_start = Timestamp(now.secs().saturating_sub(MAYOR_WINDOW.as_secs()));
            let challenger_days = distinct_days_at(challenger, venue.id, window_start);
            if challenger_days == 0 {
                return false;
            }
            match incumbent {
                None => true,
                Some(inc) => challenger_days > distinct_days_at(inc, venue.id, window_start),
            }
        }
    }

    /// Venue `i` (1-based) is a gym when bit `i - 1` of the mask is set.
    struct GymMask(u64);
    impl VenueLookup for GymMask {
        fn category_of(&self, venue: VenueId) -> Option<VenueCategory> {
            let gym = self.0 >> (venue.value() - 1) & 1 == 1;
            Some(if gym {
                VenueCategory::Gym
            } else {
                VenueCategory::Other
            })
        }
    }

    /// One generated check-in, decoded by [`replay_and_compare`]: a roll
    /// whose bit fields pick the submitter (bits 0–1), the reward bit
    /// (2–5), the venue (8–15), the gap class (16–19), a seat strip
    /// (20–23) and, for the edge and jump classes, a window (24–25) and
    /// an offset (26–27); then three gap draws (seconds, hours, up to 20
    /// days).
    type Step = (u32, u64, u64, u64);

    fn step() -> impl Strategy<Value = Step> {
        (any::<u32>(), 1u64..=600, 1u64..=12, 1u64..=20 * DAY)
    }

    /// Short histories, and long ones past 2 000 records.
    fn history() -> impl Strategy<Value = Vec<Step>> {
        prop_oneof![
            prop::collection::vec(step(), 1..300),
            prop::collection::vec(step(), 2_000..2_400),
        ]
    }

    /// A first timestamp near the clock's origin, or past `u32::MAX`
    /// seconds.
    fn start() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..=5 * DAY, (1u64 << 32)..=(1u64 << 32) + 5 * DAY]
    }

    /// The windows the rules ask about, which edge steps land on.
    const WINDOWS: [u64; 4] = [60 * DAY, 30 * DAY, 7 * DAY, 12 * HOUR];

    /// The next clock reading after `now` for `step`, given every
    /// earlier check-in's time in `stamps`. Edge steps land exactly one
    /// rule window (±1 s) after an earlier check-in, so records sit on
    /// every window's first second; rare jumps move the clock by about
    /// `u32::MAX` seconds, past the reach of the windows' offsets.
    fn advance(now: u64, (roll, secs, hours, spread): Step, sparse: bool, stamps: &[u64]) -> u64 {
        let window = WINDOWS[(roll >> 24 & 3) as usize];
        match roll >> 16 & 15 {
            0..=3 => now + secs,
            4 => {
                let edge = stamps
                    .get(spread as usize % stamps.len().max(1))
                    .map_or(0, |at| at + window + u64::from(roll >> 26 & 3) - 1);
                edge.max(now + secs)
            }
            5 if roll >> 24 == 0 => now + u64::from(u32::MAX) - secs,
            6..=10 => now + hours * HOUR,
            11..=13 => now + spread % (2 * DAY) + 1,
            14..=15 if sparse => now + spread,
            _ => now + secs,
        }
    }

    /// Checks `user`'s day list against their history at `now`: each
    /// venue's window count equals the reference's, and the list holds
    /// one entry per (venue, day), sorted. When `user` has just checked
    /// in (`fresh`), no entry is 61 days old or more.
    fn check_day_list(
        user: &User,
        venues: u64,
        now: Timestamp,
        fresh: bool,
    ) -> Result<(), TestCaseError> {
        let Some(w) = user.reward_windows() else {
            prop_assert_eq!(user.valid_checkins, 0);
            return Ok(());
        };
        for id in 1..=venues {
            prop_assert_eq!(
                w.mayor_days(VenueId(id), now),
                reference::distinct_days_at(user, VenueId(id), window_start(now)),
                "day count at {:?} on {:?}",
                VenueId(id),
                now
            );
        }
        // The offset of the first second less than 61 days old.
        let young = match now.secs().checked_sub(61 * DAY) {
            Some(at) if fresh => w.floor(Timestamp(at + 1)),
            _ => 0,
        };
        for pair in w.days.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            prop_assert!(
                (a.venue, w.day_of(a.latest)) < (b.venue, w.day_of(b.latest)),
                "unsorted or repeated entries {:?}, {:?}",
                a,
                b
            );
        }
        for e in &w.days {
            prop_assert!(
                u64::from(e.latest) >= young,
                "stale entry {:?} at {:?}",
                e,
                now
            );
        }
        Ok(())
    }

    /// Replays `steps` into two users on one clock, each venue id keeping
    /// one [`Venue`] (a gym when `gyms` says so) across steps. At every
    /// rewarded check-in it runs what `pipeline::reward` runs and compares
    /// each answer with [`reference`]: the contest against the venue's
    /// seated mayor (seats are won, lost, regained and stripped, one step
    /// in 16), the contest with the seat vacant and against the other
    /// user, both users' day lists, and the badges. The first user keeps
    /// the badges they earn, as the pipeline does, so held badges drop
    /// out and the recent-times ring is freed; the second never does, so
    /// every windowed badge is asked on each of their check-ins.
    fn replay_and_compare(
        venues: u64,
        gyms: u64,
        held: u32,
        sparse: bool,
        start: u64,
        steps: &[Step],
    ) -> Result<(), TestCaseError> {
        let lookup = GymMask(gyms);
        let mut users = [user(1), user(2)];
        for (i, &badge) in Badge::ALL.iter().enumerate() {
            if held >> i & 1 == 1 {
                users[0].badges.insert(badge);
            }
        }
        let mut seats: Vec<Venue> = (1..=venues)
            .map(|id| venue_in(id, lookup.category_of(VenueId(id)).unwrap()))
            .collect();
        let mut stamps = Vec::with_capacity(steps.len());
        let mut now = start;
        for &step in steps {
            now = advance(now, step, sparse, &stamps);
            stamps.push(now);
            let roll = step.0;
            let who = usize::from(roll & 3 == 0);
            let rewarded = roll >> 2 & 15 < 11;
            let vid = 1 + u64::from(roll >> 8 & 0xff) % venues;
            let seat = &mut seats[vid as usize - 1];
            if roll >> 20 & 15 == 0 {
                seat.mayor = None;
            }
            users[who].push_record(CheckinRecord {
                venue: VenueId(vid),
                at: Timestamp(now),
                location: loc(),
                source: CheckinSource::MobileApp,
                rewarded,
                flags: if rewarded {
                    vec![]
                } else {
                    vec![CheatFlag::TooFrequent]
                },
            });
            if !rewarded {
                continue;
            }
            users[who].valid_checkins += 1;
            users[who].visited_venues.insert(VenueId(vid));
            let now = Timestamp(now);
            let [first, second] = &mut users;
            let (submitter, other) = if who == 0 {
                (first, &*second)
            } else {
                (second, &*first)
            };
            seat.record_valid_checkin(submitter.id, 10);
            let incumbent = Some(other).filter(|o| seat.mayor == Some(o.id));
            let won = decide_mayor(seat, submitter, incumbent, now);
            prop_assert_eq!(
                won,
                reference::decide_mayor(seat, submitter, incumbent, now),
                "seated contest at {:?}",
                now
            );
            if won {
                seat.mayor = Some(submitter.id);
            }
            let mut v = venue(vid);
            prop_assert_eq!(
                decide_mayor(&v, submitter, None, now),
                reference::decide_mayor(&v, submitter, None, now)
            );
            v.mayor = Some(other.id);
            prop_assert_eq!(
                decide_mayor(&v, submitter, Some(other), now),
                reference::decide_mayor(&v, submitter, Some(other), now),
                "mayor contest at {:?}",
                now
            );
            check_day_list(submitter, venues, now, true)?;
            check_day_list(other, venues, now, false)?;
            let earned = evaluate_badges(submitter, seat, now, &NoVenues);
            prop_assert_eq!(
                &earned,
                &reference::evaluate_badges(submitter, seat, now, &lookup),
                "badges at {:?}",
                now
            );
            if who == 0 {
                for badge in earned {
                    submitter.badges.insert(badge);
                }
            }
            if seat.category == VenueCategory::Gym {
                submitter.note_gym_checkin(now);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The running reward windows answer exactly as the full scan on
        /// non-decreasing histories: rewarded and flagged records, 1–6
        /// venues with gyms among them, gaps from 1 s to 20 days (whole
        /// hours, and edge steps one window ±1 s after an earlier
        /// check-in, so records land on every window's first second and
        /// on the mayorship window's mid-day first day), clock jumps of
        /// about `u32::MAX` seconds, starts past `u32::MAX`, seats won,
        /// lost, regained and stripped, random held badges, and some
        /// histories past 2 000 records.
        #[test]
        fn ladder_matches_full_scan_reference(
            venues in 1u64..=6,
            gyms in 0u64..64,
            held in any::<u32>(),
            sparse in any::<bool>(),
            start in start(),
            steps in history(),
        ) {
            replay_and_compare(venues, gyms, held, sparse, start, &steps)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// [`ladder_matches_full_scan_reference`] on whale-length
        /// histories, the size of the §4.2 club's members. Run in
        /// release: `cargo test --release -p lbsn-server -- --ignored`.
        #[test]
        #[ignore = "whale-length histories; run in release"]
        fn ladder_matches_full_scan_reference_on_whales(
            venues in 1u64..=6,
            gyms in 0u64..64,
            held in any::<u32>(),
            sparse in any::<bool>(),
            start in start(),
            steps in prop::collection::vec(step(), 10_000..10_400),
        ) {
            replay_and_compare(venues, gyms, held, sparse, start, &steps)?;
        }
    }

    /// Offsets re-base when the clock passes their reach: a check-in
    /// about `u32::MAX` seconds after the first keeps every count exact,
    /// and the times it clamps are outside every window.
    #[test]
    fn windows_rebase_past_u32_reach() {
        let mut u = user(1);
        let far = u64::from(u32::MAX) + 3 * DAY;
        let stamps = [
            10,
            DAY,
            2 * DAY,
            far,
            far + HOUR,
            far + DAY,
            far + 2 * DAY,
            far + 3 * DAY,
        ];
        let v = venue(1);
        for at in stamps {
            add_valid(&mut u, 1, at);
            let now = Timestamp(at);
            assert_eq!(
                u.reward_windows().unwrap().mayor_days(VenueId(1), now),
                reference::distinct_days_at(&u, VenueId(1), window_start(now))
            );
            assert_eq!(
                evaluate_badges(&u, &v, now, &NoVenues),
                reference::evaluate_badges(&u, &v, now, &NoVenues)
            );
        }
        assert!(
            u.reward_windows().unwrap().base > far - 62 * DAY,
            "offsets re-based"
        );
        let badges = evaluate_badges(&u, &v, Timestamp(far + 3 * DAY), &NoVenues);
        assert!(badges.contains(&Badge::Bender) && badges.contains(&Badge::Local));
    }

    /// The ladder reads no history record: a whale's contest, the
    /// contest whose window opens on the incumbent's mid-day first day,
    /// and a seat, each with the badges that follow, and the append
    /// itself. Counts are of [`BriefRev`] records on this thread.
    ///
    /// [`BriefRev`]: crate::history::BriefRev
    #[test]
    fn ladder_reads_no_history() {
        use crate::history::brief_reads;

        let now = Timestamp(200 * DAY + 12 * HOUR);
        // A whale: 1 200 hourly check-ins at venue 2 from day 141 on,
        // and days 150, 160 and 170 at venue 1, which they hold.
        let mut stamps: Vec<(u64, u64)> = (0..1_200).map(|h| (2, 141 * DAY + h * HOUR)).collect();
        stamps.extend([150, 160, 170].map(|d| (1, d * DAY + 30 * 60)));
        stamps.sort_by_key(|&(_, at)| at);
        let mut whale = user(2);
        for &(v, at) in &stamps {
            add_valid(&mut whale, v, at);
        }
        let mut v = venue(1);
        v.mayor = Some(whale.id);
        let mut challenger = user(1);
        for d in 181..=190 {
            add_valid(&mut challenger, 1, d * DAY);
        }
        brief_reads::take();
        add_valid(&mut challenger, 1, now.secs());
        assert!(decide_mayor(&v, &challenger, Some(&whale), now));
        evaluate_badges(&challenger, &v, now, &NoVenues);
        assert_eq!(brief_reads::take(), 0, "whale contest");

        // The window opens at day 140, 12:00. The incumbent's day 140
        // check-in at 01:00 has left it, so they hold 3 days and a
        // challenger with 4 wins; one with 3 does not.
        let mut first_day = user(2);
        add_valid(&mut first_day, 1, 140 * DAY + HOUR);
        for &(v, at) in &stamps {
            add_valid(&mut first_day, v, at);
        }
        let mut four = user(1);
        for d in 187..=190 {
            add_valid(&mut four, 1, d * DAY);
        }
        let mut three = user(3);
        for d in 188..=190 {
            add_valid(&mut three, 1, d * DAY);
        }
        brief_reads::take();
        assert!(decide_mayor(&v, &four, Some(&first_day), now));
        assert!(!decide_mayor(&v, &three, Some(&first_day), now));
        evaluate_badges(&four, &v, now, &NoVenues);
        assert_eq!(brief_reads::take(), 0, "first-day contest");
        assert!(reference::decide_mayor(&v, &four, Some(&first_day), now));
        assert!(!reference::decide_mayor(&v, &three, Some(&first_day), now));

        // A seat: the vacant venue is claimed by one check-in.
        let mut vacant = venue(3);
        let mut newcomer = user(4);
        brief_reads::take();
        add_valid(&mut newcomer, 3, now.secs());
        assert!(decide_mayor(&vacant, &newcomer, None, now));
        vacant.mayor = Some(newcomer.id);
        assert!(!decide_mayor(&vacant, &newcomer, None, now));
        evaluate_badges(&newcomer, &vacant, now, &NoVenues);
        assert_eq!(brief_reads::take(), 0, "seat");
    }

    /// A user survives a JSON round trip with their reward windows, and
    /// answers every contest and badge as before.
    #[test]
    fn reward_windows_round_trip_through_serde() {
        let mut u = user(1);
        for (i, at) in (0..40u64).map(|i| (i, 100 * DAY + i * 5 * HOUR)) {
            add_valid(&mut u, 1 + i % 3, at);
            if i % 2 == 0 {
                u.note_gym_checkin(Timestamp(at));
            }
        }
        let back: User = serde_json::from_str(&serde_json::to_string(&u).unwrap()).unwrap();
        assert_eq!(back.reward_windows(), u.reward_windows());
        let now = Timestamp(100 * DAY + 39 * 5 * HOUR);
        let mut rival = user(2);
        add_valid(&mut rival, 1, now.secs());
        for id in 1..=3 {
            let v = venue_in(id, VenueCategory::Gym);
            assert_eq!(
                decide_mayor(&v, &rival, Some(&back), now),
                decide_mayor(&v, &rival, Some(&u), now)
            );
            assert_eq!(
                evaluate_badges(&back, &v, now, &NoVenues),
                evaluate_badges(&u, &v, now, &NoVenues)
            );
        }
        let badges = evaluate_badges(&back, &venue_in(1, VenueCategory::Gym), now, &NoVenues);
        for badge in [Badge::SuperUser, Badge::Local, Badge::Bender, Badge::GymRat] {
            assert!(badges.contains(&badge), "{badge:?}");
        }
    }

    #[test]
    fn badge_messages_unique() {
        let mut msgs: Vec<_> = Badge::ALL.iter().map(|b| b.message()).collect();
        msgs.sort();
        let before = msgs.len();
        msgs.dedup();
        assert_eq!(before, msgs.len());
    }
}
