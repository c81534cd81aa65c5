//! The reward ladder: points, badges, mayorships, specials.
//!
//! §2.1 of the paper: "Listed from the easiest to the hardest to obtain,
//! they are: points, badges, mayorships, and real world rewards." This
//! module implements all four tiers. Exact 2010 point values were never
//! published; [`PointsPolicy`]'s defaults are documented approximations,
//! and every experiment conclusion depends only on *relative* reward
//! levels (Fig 4.2 compares badge counts across users under the same
//! policy).

use lbsn_sim::{Duration, Timestamp, DAY, HOUR};
use serde::{Deserialize, Serialize};

use crate::history::BriefRecord;
use crate::user::User;
use crate::venue::{Venue, VenueCategory};
use crate::{UserId, VenueId};

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
/// Badges already held are never re-awarded, and their criteria are
/// skipped without a scan. Windowed criteria scan the history from the
/// newest end, without decoding coordinates, and stop at the window
/// boundary or as soon as the count reaches the badge's threshold, so
/// cost is bounded by the threshold and the per-window activity, not by
/// lifetime history. The history's timestamps must not decrease (see
/// [`User::distinct_days_at`]).
pub fn evaluate_badges(
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

    let distinct = user.visited_venues.len();
    check(Badge::Newbie, &|| user.valid_checkins >= 1);
    check(Badge::Adventurer, &|| distinct >= 10);
    check(Badge::Explorer, &|| distinct >= 25);
    check(Badge::Superstar, &|| distinct >= 50);
    check(Badge::Warhol, &|| distinct >= 100);
    check(Badge::Bender, &|| bender(user, now));

    // Local: 3 valid check-ins at this venue in the trailing week.
    let week_ago = Timestamp(now.secs().saturating_sub(7 * DAY));
    check(Badge::Local, &|| {
        at_least(user, week_ago, 3, |r| r.venue == venue.id)
    });

    // Super User: 30 valid check-ins in the trailing 30 days.
    let month_ago = Timestamp(now.secs().saturating_sub(30 * DAY));
    check(Badge::SuperUser, &|| {
        at_least(user, month_ago, 30, |_| true)
    });

    // Crunked / Overshare: bursts within 12 hours.
    let half_day_ago = Timestamp(now.secs().saturating_sub(12 * HOUR));
    check(Badge::Crunked, &|| {
        at_least(user, half_day_ago, 4, |_| true)
    });
    check(Badge::Overshare, &|| {
        at_least(user, half_day_ago, 10, |_| true)
    });

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
    // distinct venues — loyalty to one gym counts).
    check(Badge::GymRat, &|| {
        at_least(user, month_ago, 10, |r| {
            venues.category_of(r.venue) == Some(VenueCategory::Gym)
        })
    });

    check(Badge::SuperMayor, &|| user.mayorships.len() >= 10);

    earned
}

/// Whether at least `n` valid check-ins since `since` satisfy `keep`;
/// the newest-first count stops at `n`.
fn at_least(user: &User, since: Timestamp, n: usize, keep: impl Fn(&BriefRecord) -> bool) -> bool {
    user.rewarded_since(since)
        .filter(|r| keep(r))
        .take(n)
        .count()
        == n
}

/// Bender: valid check-ins on each of the 4 consecutive days ending
/// today. Bit `k` of the mask is "a check-in `k` days before today";
/// the scan stops once all four are set.
fn bender(user: &User, now: Timestamp) -> bool {
    let today = now.day();
    let Some(first) = today.checked_sub(3) else {
        return false;
    };
    let mut seen = 0u8;
    for r in user.rewarded_since(Timestamp::at_day(first)) {
        if let Some(back) = today.checked_sub(r.at.day()) {
            seen |= 1 << back;
        }
        if seen == 0b1111 {
            return true;
        }
    }
    false
}

/// The mayorship window: "the user who checked in to that venue the most
/// days in the past 60 days" (§2.1).
pub const MAYOR_WINDOW: Duration = Duration(60 * DAY);

/// The start of the mayorship window ending at `now`.
fn window_start(now: Timestamp) -> Timestamp {
    Timestamp(now.secs().saturating_sub(MAYOR_WINDOW.as_secs()))
}

/// The seated mayor's check-in days at one venue: bit `k` of `mask` is
/// set iff `user` has a rewarded check-in there on day `last_day - k`,
/// no earlier than the start of the mayorship window in which they were
/// seated. Every later window starts no earlier, so on every day a
/// contest can count the bits are exact, except that a check-in on the
/// seat window's first day may since have left the window.
///
/// Kept in the venue's activity block. [`seat_mayor`] builds it and
/// [`note_mayor_checkin`] keeps it current, both called only from
/// `pipeline::reward`, so while `user` holds the seat every one of their
/// rewarded check-ins here has passed through one of the two. A strip
/// leaves it behind, harmlessly: it is only read while its user is
/// seated, and the next seat rebuilds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct MayorTally {
    user: UserId,
    last_day: u64,
    mask: u64,
}

impl MayorTally {
    /// The bit of `day`, or 0 when the mask does not reach it.
    fn bit(&self, day: u64) -> u64 {
        match self.last_day.checked_sub(day) {
            Some(k) if k < 64 => 1 << k,
            _ => 0,
        }
    }

    /// Records a rewarded check-in on `day`.
    fn note(&mut self, day: u64) {
        if day > self.last_day {
            let shift = day - self.last_day;
            self.mask = if shift < 64 { self.mask << shift } else { 0 };
            self.last_day = day;
        }
        self.mask |= self.bit(day);
    }

    /// For a window whose first day is `first_day`: the number of tallied
    /// days strictly after it, and whether `first_day` itself is tallied.
    /// `None` when the mask does not reach back to `first_day`.
    fn window(&self, first_day: u64) -> Option<(u32, bool)> {
        match self.last_day.checked_sub(first_day) {
            None => Some((0, false)),
            Some(k) if k < 64 => {
                let after = (self.mask & ((1 << k) - 1)).count_ones();
                Some((after, self.mask >> k & 1 == 1))
            }
            Some(_) => None,
        }
    }
}

/// Seats `mayor` at `venue` and builds their [`MayorTally`] with one walk
/// of the mayorship window ending `now`, whose newest record is the
/// winning check-in.
pub(crate) fn seat_mayor(venue: &mut Venue, mayor: &User, now: Timestamp) {
    let mut tally = MayorTally {
        user: mayor.id,
        last_day: now.day(),
        mask: 0,
    };
    for r in mayor
        .rewarded_since(window_start(now))
        .filter(|r| r.venue == venue.id)
    {
        tally.mask |= tally.bit(r.at.day());
    }
    venue.mayor = Some(mayor.id);
    venue.activity_mut().mayor_tally = Some(tally);
}

/// Notes a rewarded check-in at `now` by `venue`'s seated mayor: O(1).
pub(crate) fn note_mayor_checkin(venue: &mut Venue, now: Timestamp) {
    let mayor = venue.mayor;
    if let Some(tally) = &mut venue.activity_mut().mayor_tally {
        debug_assert_eq!(Some(tally.user), mayor, "tally of an unseated user");
        tally.note(now.day());
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
/// When the venue holds the seated incumbent's day tally (a bitmask of
/// their check-in days here, which the reward ladder builds when it
/// seats a mayor and updates on each of the mayor's check-ins), their
/// history is not read: with `after` tallied days strictly after the
/// window's first day, the challenger's walk stops at `after + 2` days.
/// At `after` or fewer the challenger loses, at `after + 2` they win,
/// and at `after + 1` they win unless the first day is tallied. The
/// window starts at `now - 60 d`, mid-day, so that day's check-in may
/// fall before it: then the incumbent's window is counted by a scan.
///
/// Without a tally for the seated incumbent (or with no incumbent), the
/// incumbent's days are counted by a scan first; the challenger's walk
/// then stops as soon as it beats them (after one day when there is no
/// incumbent, which in the pipeline is the check-in just appended).
/// Debug builds check every answer against the two full scans. The
/// histories' timestamps must not decrease (see
/// [`User::distinct_days_at`]).
pub fn decide_mayor(
    venue: &Venue,
    challenger: &User,
    incumbent: Option<&User>,
    now: Timestamp,
) -> bool {
    let won = decide_by_tally(venue, challenger, incumbent, now);
    debug_assert_eq!(
        won,
        decide_by_scan(venue, challenger, incumbent, now),
        "mayor tally of {:?} disagrees with the full scan at {:?}",
        venue.id,
        now
    );
    won
}

/// [`decide_mayor`] without its debug cross-check.
fn decide_by_tally(
    venue: &Venue,
    challenger: &User,
    incumbent: Option<&User>,
    now: Timestamp,
) -> bool {
    let seated = incumbent.filter(|inc| venue.mayor == Some(inc.id));
    let tally = seated.and_then(|inc| venue.mayor_tally().filter(|t| t.user == inc.id));
    let (Some(inc), Some(tally)) = (seated, tally) else {
        return decide_by_scan(venue, challenger, incumbent, now);
    };
    if inc.id == challenger.id {
        return false; // already mayor; nothing to transfer
    }
    let window_start = window_start(now);
    let Some((after, first)) = tally.window(window_start.day()) else {
        return decide_by_scan(venue, challenger, incumbent, now);
    };
    let days = challenger.distinct_days_at_capped(venue.id, window_start, after + 2);
    if days == after + 1 && first {
        days > inc.distinct_days_at(venue.id, window_start)
    } else {
        days > after
    }
}

/// The incumbent's day count by a scan of their window, then the
/// challenger's walk up to one day more.
fn decide_by_scan(
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
        Venue::sealed(VenueId(id), VenueSpec::new("V", loc()))
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
    fn category_badges_use_lookup() {
        struct Gyms;
        impl VenueLookup for Gyms {
            fn category_of(&self, _: VenueId) -> Option<VenueCategory> {
                Some(VenueCategory::Gym)
            }
        }
        let mut u = user(1);
        for i in 0..10 {
            add_valid(&mut u, 1, i * DAY + i * HOUR);
        }
        let now = Timestamp(9 * DAY + 9 * HOUR);
        let badges = evaluate_badges(&u, &venue(1), now, &Gyms);
        assert!(badges.contains(&Badge::GymRat));

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

        fn distinct_days_at(user: &User, venue: VenueId, since: Timestamp) -> u32 {
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
            venues: &impl VenueLookup,
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
    /// (2–5), the venue (8–15), the gap class (16–19) and a seat strip
    /// (20–23), then three gap draws (seconds, hours, up to 20 days).
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

    /// Replays `steps` into two users on one clock, each venue id keeping
    /// one [`Venue`] across steps. At every rewarded check-in (the point
    /// where the pipeline runs the ladder) it compares [`decide_mayor`]
    /// with [`reference`] against the venue's seated mayor, then seats or
    /// notes through the calls `pipeline::reward` makes, so the tally is
    /// exercised through seat loss, a user regaining the seat and strips
    /// (`mayor = None`, one step in 16). On the first user's check-ins it
    /// also compares the contest with the seat vacant and against an
    /// untallied incumbent, and the badges.
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
        let mut seats: Vec<Venue> = (1..=venues).map(venue).collect();
        let mut now = start;
        for &(roll, secs, hours, spread) in steps {
            now += match roll >> 16 & 15 {
                0..=5 => secs,
                6..=10 => hours * HOUR,
                11..=13 => spread % (2 * DAY) + 1,
                _ if sparse => spread,
                _ => secs,
            };
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
            let (submitter, other) = (&users[who], &users[1 - who]);
            seat.record_valid_checkin(submitter.id, 10);
            let incumbent = Some(other).filter(|o| seat.mayor == Some(o.id));
            let won = decide_mayor(seat, submitter, incumbent, now);
            prop_assert_eq!(
                won,
                reference::decide_mayor(seat, submitter, incumbent, now),
                "seated contest at {:?} for {:?}",
                now,
                seat.mayor_tally()
            );
            if won {
                seat_mayor(seat, submitter, now);
            } else if seat.mayor == Some(submitter.id) {
                note_mayor_checkin(seat, now);
            }
            if who == 1 {
                continue;
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
            prop_assert_eq!(
                evaluate_badges(submitter, &v, now, &lookup),
                reference::evaluate_badges(submitter, &v, now, &lookup),
                "badges at {:?}",
                now
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The early-stopping ladder and the seat's tally decide exactly
        /// as the full scan on non-decreasing histories: rewarded and
        /// flagged records, 1–6 venues with gyms among them, gaps from
        /// 1 s to 20 days (whole hours included, so records land on
        /// window edges and on the window's first day), seats won, lost,
        /// regained and stripped, random held badges, and some histories
        /// past 2 000 records.
        #[test]
        fn ladder_matches_full_scan_reference(
            venues in 1u64..=6,
            gyms in 0u64..64,
            held in any::<u32>(),
            sparse in any::<bool>(),
            start in 0u64..=5 * DAY,
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
            start in 0u64..=5 * DAY,
            steps in prop::collection::vec(step(), 10_000..10_400),
        ) {
            replay_and_compare(venues, gyms, held, sparse, start, &steps)?;
        }
    }

    /// A tallied challenge reads none of the incumbent's records, only
    /// the challenger's walk capped at `after + 2` days; the boundary case
    /// reads the incumbent's window once. Counts are of [`BriefRev`]
    /// records on this thread, taken on [`decide_by_tally`] so the debug
    /// cross-check's scans stay out of them.
    ///
    /// [`BriefRev`]: crate::history::BriefRev
    #[test]
    fn tallied_challenge_reads_only_the_challenger() {
        use crate::history::brief_reads;

        let now = Timestamp(200 * DAY + 12 * HOUR);
        // The window opens at day 140, 12:00. The incumbent holds days
        // 150, 160 and 170 here (`after` = 3) among 1 200 hourly
        // check-ins at venue 2 from day 141 on.
        let mut stamps: Vec<(u64, u64)> = (0..1_200).map(|h| (2, 141 * DAY + h * HOUR)).collect();
        stamps.extend([150, 160, 170].map(|d| (1, d * DAY + 30 * 60)));
        stamps.sort_by_key(|&(_, at)| at);
        let mut incumbent = user(2);
        for &(v, at) in &stamps {
            add_valid(&mut incumbent, v, at);
        }
        let mut v = venue(1);
        seat_mayor(&mut v, &incumbent, now);
        assert_eq!(
            v.mayor_tally().and_then(|t| t.window(140)),
            Some((3, false))
        );

        // Ten days here: the walk stops at `after + 2` = 5 of them.
        let mut strong = user(1);
        for d in 181..=190 {
            add_valid(&mut strong, 1, d * DAY);
        }
        brief_reads::take();
        assert!(decide_by_tally(&v, &strong, Some(&incumbent), now));
        assert_eq!(brief_reads::take(), 5);

        // Two days in the window and one before it: all three are read,
        // the last one only to find the window's edge.
        let mut weak = user(3);
        for d in [100, 185, 186] {
            add_valid(&mut weak, 1, d * DAY);
        }
        assert!(!decide_by_tally(&v, &weak, Some(&incumbent), now));
        assert_eq!(brief_reads::take(), 3);

        // The incumbent checked in here on day 140 at 01:00 and was
        // seated a day before `now`, while that check-in was still in
        // the window. It has left the window since, but day 140 is
        // tallied, so a challenger at exactly `after + 1` = 4 days needs
        // the incumbent's count. Its scan reads the 1 203 in-window
        // records and the 01:00 one.
        let mut boundary = user(2);
        add_valid(&mut boundary, 1, 140 * DAY + HOUR);
        for &(v, at) in &stamps {
            add_valid(&mut boundary, v, at);
        }
        let mut v = venue(1);
        seat_mayor(&mut v, &boundary, Timestamp(now.secs() - DAY));
        assert_eq!(v.mayor_tally().and_then(|t| t.window(140)), Some((3, true)));
        let mut four = user(1);
        for d in 187..=190 {
            add_valid(&mut four, 1, d * DAY);
        }
        brief_reads::take();
        assert!(decide_by_tally(&v, &four, Some(&boundary), now));
        assert_eq!(brief_reads::take(), 4 + 1_203 + 1);
        assert!(reference::decide_mayor(&v, &four, Some(&boundary), now));
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
