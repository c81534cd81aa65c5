//! Population planning and server replay.

use std::borrow::Cow;

use lbsn_geo::destination;
use lbsn_geo::usa::Metro;
use lbsn_server::{
    CheckinRequest, CheckinSource, LbsnServer, UserId, UserSpec, VenueId, VenueSpec,
};
use lbsn_sim::RngStream;

use crate::archetype::Archetype;
use crate::events::{plan_user_events, PlannedEvent};
use crate::spec::PopulationSpec;
use crate::venues::{plan_venues, venue_location, VenuePlan};

/// A planned user, pre-registration.
#[derive(Debug, Clone)]
pub struct PlannedUser {
    /// Behavioural cohort.
    pub archetype: Archetype,
    /// Home metro index.
    pub home_metro: usize,
    /// Day the account signs up (events start no earlier).
    pub signup_day: u64,
    /// Lifetime check-in target (0 where the generator decides, e.g.
    /// the mayor farmer).
    pub total_target: u64,
    /// Vanity username (26.1 % of accounts).
    pub username: Option<String>,
    /// Plan indices of this user's friends (applied symmetrically at
    /// registration; each edge listed once, on the higher index).
    pub friends: Vec<usize>,
}

/// The deterministic layout of the whole population.
#[derive(Debug, Clone)]
pub struct PopulationPlan {
    /// The generating spec.
    pub spec: PopulationSpec,
    /// Venue layout.
    pub venues: VenuePlan,
    /// Users, in registration (ID) order.
    pub users: Vec<PlannedUser>,
    /// All check-in events, globally time-ordered.
    pub events: Vec<PlannedEvent>,
}

/// Ground truth for one registered user.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserTruth {
    /// The server-assigned ID.
    pub id: UserId,
    /// Cohort.
    pub archetype: Archetype,
    /// Home metro index.
    pub home_metro: usize,
    /// Signup day.
    pub signup_day: u64,
}

/// Replay accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GenerationStats {
    /// Check-ins submitted.
    pub submitted: u64,
    /// Check-ins that earned rewards.
    pub rewarded: u64,
    /// Check-ins the cheater code flagged.
    pub flagged: u64,
}

/// The generated population: ground truth plus replay stats.
#[derive(Debug, Clone)]
pub struct Population {
    /// Per-user ground truth, indexed by `id - 1`.
    pub users: Vec<UserTruth>,
    /// Number of venues registered.
    pub venue_count: u64,
    /// Replay accounting.
    pub stats: GenerationStats,
}

impl Population {
    /// Ground truth for a user.
    pub fn truth(&self, id: UserId) -> Option<&UserTruth> {
        let idx = id.value().checked_sub(1)? as usize;
        self.users.get(idx)
    }

    /// IDs of all ground-truth cheaters.
    pub fn cheater_ids(&self) -> Vec<UserId> {
        self.users
            .iter()
            .filter(|u| u.archetype.is_cheater())
            .map(|u| u.id)
            .collect()
    }

    /// IDs of users with a given archetype.
    pub fn ids_of(&self, archetype: Archetype) -> Vec<UserId> {
        self.users
            .iter()
            .filter(|u| u.archetype == archetype)
            .map(|u| u.id)
            .collect()
    }
}

/// Plans the population's people — archetypes, signup days, activity
/// targets, usernames, and the friend graph — without planning any
/// events. [`plan`] builds its event list on top of this; the bulk
/// loader ([`register_world_bulk`]) uses it directly so paper-scale
/// worlds never materialise hundreds of millions of planned check-ins.
fn plan_users(spec: &PopulationSpec) -> Vec<PlannedUser> {
    let root = RngStream::from_seed(spec.seed);
    let mut rng = root.fork("users");
    let n = spec.user_count() as usize;

    // Special cohorts: the §4.2 eleven, the farmer, and the cheater
    // slivers, spread across the middle of the ID space so every
    // account has runway before the crawl.
    let mut archetypes = vec![None::<Archetype>; n];
    let mut place = |count: usize, archetype: Archetype, rng: &mut RngStream| {
        let mut placed = 0;
        let mut guard = 0;
        while placed < count && guard < count * 300 + 1000 {
            guard += 1;
            let idx = (n / 20) + rng.range_u64(0, (n - n / 10).max(1) as u64) as usize;
            if idx < n && archetypes[idx].is_none() {
                archetypes[idx] = Some(archetype);
                placed += 1;
            }
        }
    };
    place(spec.power_users_over_5000, Archetype::PowerUser, &mut rng);
    place(spec.caught_over_5000, Archetype::CaughtWhale, &mut rng);
    if spec.include_mayor_farmer {
        place(1, Archetype::MayorFarmer, &mut rng);
    }
    let emulator_count = ((n as f64) * spec.emulator_cheater_fraction)
        .round()
        .max(1.0) as usize;
    let caught_count = ((n as f64) * spec.caught_cheater_fraction).round().max(1.0) as usize;
    place(emulator_count, Archetype::EmulatorCheater, &mut rng);
    place(caught_count, Archetype::CaughtCheater, &mut rng);

    // Everyone else: the §4.2 activity mix. The index drives both the
    // pre-placed archetype lookup and the signup-growth curve.
    let growth_rate = std::f64::consts::LN_2 / 120.0; // doubles every ~4 months
    let mut users = Vec::with_capacity(n);
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        let mut urng = root.fork_indexed("user", i as u64);
        let archetype = archetypes[i].unwrap_or_else(|| {
            let u = urng.next_f64();
            if u < spec.inactive_fraction {
                Archetype::Inactive
            } else if u < spec.inactive_fraction + spec.dabbler_fraction {
                Archetype::Dabbler
            } else {
                Archetype::Regular
            }
        });
        // Exponential service growth: most IDs are recent.
        let f = (i + 1) as f64 / (n + 1) as f64;
        let natural_signup = (spec.crawl_day as f64 + f.ln() / growth_rate).max(0.0) as u64;
        let signup_day = match archetype {
            // The big accounts need the full timeline to act.
            Archetype::PowerUser | Archetype::CaughtWhale | Archetype::MayorFarmer => {
                urng.range_u64(0, 40)
            }
            // "the user has used Foursquare for less than one year"
            Archetype::EmulatorCheater => spec.crawl_day - 350 + urng.range_u64(0, 180),
            _ => natural_signup.min(spec.crawl_day.saturating_sub(1)),
        };
        let total_target = match archetype {
            Archetype::Inactive => 0,
            Archetype::Dabbler => 1 + urng.range_u64(0, 5),
            Archetype::Regular => {
                let t = urng.log_normal(spec.active_total_mu, spec.active_total_sigma);
                (t.round() as u64).clamp(6, spec.active_total_cap)
            }
            Archetype::PowerUser => 5_200 + urng.range_u64(0, 4_000),
            Archetype::CaughtWhale => 5_500 + urng.range_u64(0, 3_500),
            Archetype::EmulatorCheater => 600 + urng.range_u64(0, 1_400),
            Archetype::CaughtCheater => 800 + urng.range_u64(0, 2_500),
            Archetype::MayorFarmer => 0, // generator-determined
        };
        let home_metro = match archetype {
            // Whales live in the biggest metros: their rotating anchor
            // venues need enough organic traffic to defend every
            // mayorship against a one-day visitor.
            Archetype::CaughtWhale => i % 3, // NY / LA / Chicago
            _ => {
                let m = lbsn_geo::usa::metro_by_weight(urng.next_f64());
                lbsn_geo::usa::US_METROS
                    .iter()
                    .position(|x| std::ptr::eq(x, m))
                    .unwrap_or(0)
            }
        };
        let username = urng
            .chance(spec.username_fraction)
            .then(|| format!("vanity{i}"));
        users.push(PlannedUser {
            archetype,
            home_metro,
            signup_day,
            total_target,
            username,
            friends: Vec::new(),
        });
    }

    // Friend graph: mostly same-metro edges, degree scaling with
    // activity (active people on a social network have friends on it).
    // Each edge is stored once, on the higher-index endpoint, so the
    // registration replay applies it exactly once.
    {
        let mut by_metro: Vec<Vec<usize>> = vec![Vec::new(); lbsn_geo::usa::US_METROS.len() + 8];
        for (i, u) in users.iter().enumerate() {
            by_metro[u.home_metro].push(i);
        }
        let mut frng = root.fork("friends");
        for i in 0..users.len() {
            let degree = match users[i].archetype {
                Archetype::Inactive => frng.range_u64(0, 2),
                Archetype::Dabbler => frng.range_u64(0, 5),
                _ => 2 + frng.range_u64(0, 14),
            };
            let pool = &by_metro[users[i].home_metro];
            for _ in 0..degree {
                // 85 % same-metro, 15 % anywhere.
                let j = if frng.chance(0.85) && pool.len() > 1 {
                    pool[frng.range_u64(0, pool.len() as u64) as usize]
                } else {
                    frng.range_u64(0, users.len() as u64) as usize
                };
                if j == i {
                    continue;
                }
                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                if !users[hi].friends.contains(&lo) {
                    users[hi].friends.push(lo);
                }
            }
        }
    }

    // One caught whale carries the global maximum: "the one with over
    // 12,000 check-ins, the highest among all users".
    if let Some(idx) = users
        .iter()
        .position(|u| u.archetype == Archetype::CaughtWhale)
    {
        users[idx].total_target = 12_200 + rng.range_u64(0, 400);
    }

    users
}

/// Lays out the whole population deterministically from the spec.
pub fn plan(spec: &PopulationSpec) -> PopulationPlan {
    let venues = plan_venues(spec);
    let users = plan_users(spec);
    let root = RngStream::from_seed(spec.seed);

    // Plan every user's events and merge.
    let mut events: Vec<PlannedEvent> = Vec::new();
    for (i, user) in users.iter().enumerate() {
        let mut erng = root.fork_indexed("events", i as u64);
        events.extend(plan_user_events(
            i,
            user.archetype,
            user.total_target,
            user.home_metro,
            user.signup_day,
            spec,
            &venues,
            &mut erng,
        ));
    }
    events.sort_unstable_by_key(|e| (e.at, e.user));

    PopulationPlan {
        spec: spec.clone(),
        venues,
        users,
        events,
    }
}

/// Registers every venue and user of a plan on the server without
/// replaying any check-ins. IDs are plan index + 1 in both spaces.
///
/// Users are all registered at t=0; the paper dates accounts by ID,
/// which the plan's signup ordering already respects for the honest
/// majority.
///
/// # Panics
///
/// If `server` already holds a user or a venue: the plan's friend
/// edges and events name entities by plan index, which equals id − 1
/// only on a fresh server.
pub fn register_world(server: &LbsnServer, plan: &PopulationPlan) -> Population {
    load_world(
        server,
        plan.spec.seed,
        plan.venues.venues.iter().map(|v| v.spec.clone()),
        &plan.venues.metros,
        || Cow::Borrowed(&plan.users[..]),
    )
}

/// Registers a spec's whole world without planning any events — which
/// is what lets the scale ladder load the paper's full 7.49M-entity
/// population without first materialising its check-in history. The
/// registered state equals [`register_world`] on [`plan`]'s output:
/// both entry points share one loader.
///
/// # Panics
///
/// If `server` already holds a user or a venue, as for
/// [`register_world`].
pub fn register_world_bulk(server: &LbsnServer, spec: &PopulationSpec) -> Population {
    let venues = plan_venues(spec);
    load_world(
        server,
        spec.seed,
        venues.venues.into_iter().map(|v| v.spec),
        &venues.metros,
        || Cow::Owned(plan_users(spec)),
    )
}

/// The one world loader behind [`register_world`] and
/// [`register_world_bulk`]: venues, then users with their derived
/// homes, then the friend graph, each streamed through the server's
/// chunked loaders ([`LbsnServer::bulk_register_venues`],
/// [`LbsnServer::bulk_register_users`], [`LbsnServer::add_friendships`]).
/// `users` is called only once the venues are in, so a spec's user plan
/// is not resident while the venue text is staged.
fn load_world<'a>(
    server: &LbsnServer,
    seed: u64,
    venues: impl IntoIterator<Item = VenueSpec>,
    metros: &[&Metro],
    users: impl FnOnce() -> Cow<'a, [PlannedUser]>,
) -> Population {
    assert!(
        server.user_count() == 0 && server.venue_count() == 0,
        "a world loads only into a fresh server: plan index i must become id i + 1"
    );
    let venue_count = server.bulk_register_venues(venues);
    let users = users();
    let users = &users[..];
    let root = RngStream::from_seed(seed);
    server.bulk_register_users(users.iter().enumerate().map(|(i, u)| {
        let metro = metros[u.home_metro.min(metros.len() - 1)];
        let mut hrng = root.fork_indexed("home", i as u64);
        let home = destination(
            metro.location(),
            hrng.range_f64(0.0, 360.0),
            hrng.range_f64(0.0, 8_000.0),
        );
        let user_spec = match &u.username {
            Some(name) => UserSpec::named(name.clone()),
            None => UserSpec::anonymous(),
        };
        user_spec.home(home)
    }));
    add_planned_friendships(server, users);
    Population {
        users: users
            .iter()
            .enumerate()
            .map(|(i, u)| UserTruth {
                id: UserId(i as u64 + 1),
                archetype: u.archetype,
                home_metro: u.home_metro,
                signup_day: u.signup_day,
            })
            .collect(),
        venue_count,
        stats: GenerationStats::default(),
    }
}

/// Streams the planned friend graph into the server's batched
/// friendship path. Every user is registered first, so both endpoints
/// of each edge (stored once, on the higher index) exist.
fn add_planned_friendships(server: &LbsnServer, users: &[PlannedUser]) {
    let edges = users.iter().enumerate().flat_map(|(i, u)| {
        u.friends
            .iter()
            .map(move |&j| (UserId(i as u64 + 1), UserId(j as u64 + 1)))
    });
    server
        .add_friendships(edges)
        .expect("plan indices are registered");
}

/// Replays the plan's events with virtual day index in
/// `[from_day, to_day)` through the server, in time order.
///
/// Spans must be replayed in chronological order (the virtual clock is
/// monotonic); this is what lets a test crawl the site, advance the
/// world a few days, and crawl again — the paper's re-crawl
/// methodology (§3.2).
pub fn replay_span(
    server: &LbsnServer,
    plan: &PopulationPlan,
    from_day: u64,
    to_day: u64,
) -> GenerationStats {
    let mut stats = GenerationStats::default();
    let tip_rng = RngStream::from_seed(plan.spec.seed).fork("tips");
    const TIP_TEXTS: &[&str] = &[
        "Great spot, friendly staff.",
        "Try the special!",
        "Gets crowded after five.",
        "Free wifi and good coffee.",
        "A bit pricey but worth it.",
    ];
    for (i, e) in plan.events.iter().enumerate() {
        let day = e.at.day();
        if day < from_day {
            continue;
        }
        if day >= to_day {
            break; // events are globally time-sorted
        }
        server.clock().advance_to(e.at);
        let req = CheckinRequest {
            user: UserId(e.user as u64 + 1),
            venue: VenueId(e.venue as u64 + 1),
            reported_location: venue_location(&plan.venues, e.venue),
            source: match plan.users[e.user].archetype {
                Archetype::MayorFarmer => CheckinSource::ServerApi,
                _ => CheckinSource::MobileApp,
            },
        };
        match server.check_in(&req) {
            Ok(outcome) => {
                stats.submitted += 1;
                if outcome.rewarded() {
                    stats.rewarded += 1;
                    // ~2 % of valid check-ins leave a tip — the organic
                    // comments the §2.2 badmouthing attack hides among.
                    // Deterministic per event index, so span replays
                    // stay equivalent to full replays.
                    if tip_rng.fork_indexed("tip", i as u64).chance(0.02) {
                        let text = TIP_TEXTS[i % TIP_TEXTS.len()];
                        let _ = server.leave_tip(req.user, req.venue, text);
                    }
                } else {
                    stats.flagged += 1;
                }
            }
            Err(_) => unreachable!("plan only references registered IDs"),
        }
    }
    stats
}

/// Replays a plan through a real server: registers every venue and
/// user, then submits every event in time order. The cheater code and
/// reward engine run for real — flagged totals, badges, mayorships, and
/// recent-visitor lists all come out of the server's own pipeline.
pub fn generate(server: &LbsnServer, plan: &PopulationPlan) -> Population {
    let mut population = register_world(server, plan);
    population.stats = replay_span(server, plan, 0, u64::MAX);
    population
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsn_server::ServerConfig;
    use lbsn_sim::SimClock;

    fn tiny_plan() -> PopulationPlan {
        plan(&PopulationSpec::tiny(2_000, 21))
    }

    #[test]
    fn plan_is_deterministic() {
        let a = tiny_plan();
        let b = tiny_plan();
        assert_eq!(a.users.len(), b.users.len());
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.events.first(), b.events.first());
        assert_eq!(a.events.last(), b.events.last());
    }

    #[test]
    fn cohort_counts_match_spec() {
        let p = tiny_plan();
        let count = |a: Archetype| p.users.iter().filter(|u| u.archetype == a).count();
        assert_eq!(count(Archetype::PowerUser), 6);
        assert_eq!(count(Archetype::CaughtWhale), 5);
        assert_eq!(count(Archetype::MayorFarmer), 1);
        assert!(count(Archetype::EmulatorCheater) >= 1);
        assert!(count(Archetype::CaughtCheater) >= 1);
        let n = p.users.len() as f64;
        let inactive = count(Archetype::Inactive) as f64 / n;
        assert!((inactive - 0.363).abs() < 0.05, "inactive {inactive}");
        let dabbler = count(Archetype::Dabbler) as f64 / n;
        assert!((dabbler - 0.204).abs() < 0.05, "dabbler {dabbler}");
    }

    #[test]
    fn whale_has_global_maximum_target() {
        let p = tiny_plan();
        let max_whale = p
            .users
            .iter()
            .filter(|u| u.archetype == Archetype::CaughtWhale)
            .map(|u| u.total_target)
            .max()
            .unwrap();
        let max_power = p
            .users
            .iter()
            .filter(|u| u.archetype == Archetype::PowerUser)
            .map(|u| u.total_target)
            .max()
            .unwrap();
        assert!(max_whale > 12_000);
        assert!(max_whale > max_power);
    }

    #[test]
    fn events_sorted_globally() {
        let p = tiny_plan();
        for w in p.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(!p.events.is_empty());
    }

    #[test]
    fn generate_replays_through_server() {
        let p = tiny_plan();
        let server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        let pop = generate(&server, &p);
        assert_eq!(server.user_count(), p.users.len() as u64);
        assert_eq!(server.venue_count(), pop.venue_count);
        assert_eq!(pop.stats.submitted, p.events.len() as u64);
        assert!(pop.stats.rewarded > 0);
        assert!(pop.stats.flagged > 0, "caught cheaters must get flagged");
        // Most traffic is honest and unflagged. At this tiny test scale
        // the five fixed-size caught whales (~8k flagged check-ins each)
        // are a huge share of total traffic; at experiment scales the
        // flag rate drops under 10 %.
        let flag_rate = pop.stats.flagged as f64 / pop.stats.submitted as f64;
        assert!(flag_rate < 0.55, "flag rate {flag_rate}");
    }

    #[test]
    fn honest_users_are_never_flagged() {
        let p = tiny_plan();
        let server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        let pop = generate(&server, &p);
        for truth in &pop.users {
            if truth.archetype.is_cheater() {
                continue;
            }
            let (total, valid) = server
                .with_user(truth.id, |u| (u.total_checkins, u.valid_checkins))
                .unwrap();
            assert_eq!(
                total, valid,
                "honest {:?} user {} was flagged",
                truth.archetype, truth.id
            );
        }
    }

    #[test]
    fn emulator_cheaters_evade_the_cheater_code() {
        let p = tiny_plan();
        let server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        let pop = generate(&server, &p);
        for id in pop.ids_of(Archetype::EmulatorCheater) {
            let (total, valid) = server
                .with_user(id, |u| (u.total_checkins, u.valid_checkins))
                .unwrap();
            assert!(total > 0);
            assert_eq!(total, valid, "emulator cheater {id} was caught");
        }
    }

    #[test]
    fn caught_whales_have_flagged_majorities_and_no_mayorships() {
        let p = tiny_plan();
        let server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        let pop = generate(&server, &p);
        for id in pop.ids_of(Archetype::CaughtWhale) {
            let (total, valid, mayors, badges) = server
                .with_user(id, |u| {
                    (
                        u.total_checkins,
                        u.valid_checkins,
                        u.mayorships.len(),
                        u.badges.len(),
                    )
                })
                .unwrap();
            assert!(total > 5_000, "whale {id} total {total}");
            assert!(
                (valid as f64) < (total as f64) * 0.15,
                "whale {id}: {valid}/{total} valid"
            );
            assert_eq!(mayors, 0, "whale {id} holds {mayors} mayorships");
            assert!(badges < 12, "whale {id} has {badges} badges");
        }
    }

    #[test]
    fn mayor_farmer_hoards_mayorships() {
        let p = tiny_plan();
        let server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        let pop = generate(&server, &p);
        let farmer = pop.ids_of(Archetype::MayorFarmer)[0];
        let (total, mayors) = server
            .with_user(farmer, |u| (u.total_checkins, u.mayorships.len()))
            .unwrap();
        let target = p.spec.scaled(p.spec.full_farmer_mayorships);
        assert!(
            mayors as u64 >= target * 8 / 10,
            "farmer has {mayors}, target {target}"
        );
        assert!(total as usize >= mayors);
    }

    /// The symmetric closure of the plan's friend lists (each edge is
    /// stored once, on the higher index): user index → sorted friend ids.
    fn planned_friend_sets(users: &[PlannedUser]) -> Vec<Vec<UserId>> {
        let mut sets = vec![Vec::new(); users.len()];
        for (i, u) in users.iter().enumerate() {
            for &j in &u.friends {
                sets[i].push(UserId(j as u64 + 1));
                sets[j].push(UserId(i as u64 + 1));
            }
        }
        for set in &mut sets {
            set.sort_unstable();
            set.dedup();
        }
        sets
    }

    /// Asserts that every user's friend set on `server` is exactly the
    /// plan's symmetric closure; returns the number of friend links.
    fn assert_friend_graph(server: &LbsnServer, users: &[PlannedUser]) -> usize {
        assert_eq!(server.user_count(), users.len() as u64);
        let mut links = 0;
        for (i, expected) in planned_friend_sets(users).into_iter().enumerate() {
            let id = UserId(i as u64 + 1);
            let friends = server
                .with_user(id, |u| u.friends.as_slice().to_vec())
                .unwrap();
            assert_eq!(
                friends, expected,
                "user {id}'s friends diverge from the plan"
            );
            links += friends.len();
        }
        links
    }

    /// Asserts that every venue on `server` carries its planned fields.
    fn assert_venues(server: &LbsnServer, plan: &VenuePlan) {
        assert_eq!(server.venue_count(), plan.venues.len() as u64);
        for (i, planned) in plan.venues.iter().enumerate() {
            let id = VenueId(i as u64 + 1);
            let spec = &planned.spec;
            server
                .with_venue(id, |v| {
                    assert_eq!(v.name(), spec.name, "venue {id} name");
                    assert_eq!(v.address(), spec.address, "venue {id} address");
                    assert_eq!(v.location, spec.location, "venue {id} location");
                    assert_eq!(v.category, spec.category, "venue {id} category");
                    assert_eq!(
                        v.special.as_deref(),
                        spec.special.as_ref(),
                        "venue {id} special"
                    );
                })
                .unwrap();
        }
    }

    #[test]
    fn friend_graph_is_symmetric_and_populated() {
        let p = tiny_plan();
        let server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        let pop = register_world(&server, &p);
        let links = assert_friend_graph(&server, &p.users);
        assert!(links > pop.users.len() / 2, "only {links} friend links");
    }

    #[test]
    fn plan_entry_point_equals_spec_entry_point() {
        // The plan entry point equals the spec entry point: same ids,
        // usernames, homes, venues and friend graph, and the same replay.
        let spec = PopulationSpec::tiny(600, 9);
        let p = plan(&spec);
        let by_plan = LbsnServer::new(SimClock::new(), ServerConfig::default());
        let pop_plan = register_world(&by_plan, &p);
        let by_spec = LbsnServer::new(SimClock::new(), ServerConfig::default());
        let pop_spec = register_world_bulk(&by_spec, &spec);

        assert_eq!(pop_plan.users, pop_spec.users);
        assert_eq!(pop_plan.venue_count, pop_spec.venue_count);
        // Each entry point is held to the plan, not just to the other.
        assert_friend_graph(&by_plan, &p.users);
        assert_friend_graph(&by_spec, &p.users);
        assert_venues(&by_plan, &p.venues);
        assert_venues(&by_spec, &p.venues);

        for id in (1..=by_plan.user_count()).step_by(13) {
            let snap = |s: &LbsnServer| {
                s.with_user(UserId(id), |u| (u.username.clone(), u.home))
                    .unwrap()
            };
            assert_eq!(snap(&by_plan), snap(&by_spec), "user {id} diverged");
        }

        // The spec entry point's world replays the plan identically.
        let a = replay_span(&by_plan, &p, 0, 40);
        let b = replay_span(&by_spec, &p, 0, 40);
        assert_eq!(a, b);
        assert!(a.submitted > 0);
    }

    #[test]
    #[should_panic(expected = "a world loads only into a fresh server")]
    fn loading_into_a_non_empty_server_panics() {
        let p = tiny_plan();
        let server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        server.register_user(UserSpec::anonymous());
        register_world(&server, &p);
    }

    /// The bulk loader at 1/50 scale (~112 k venues, ~160 k edges)
    /// crosses the 65 536-entity and 65 536-edge chunk boundaries that
    /// the tiny worlds above never reach. Release-mode only in
    /// practice: `cargo test --release -p lbsn-workload -- --ignored`.
    #[test]
    #[ignore = "1/50-scale world; run with --release -- --ignored"]
    fn bulk_world_matches_plan_across_chunk_boundaries() {
        let spec = PopulationSpec::at_scale(0.02, 17);
        let server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        register_world_bulk(&server, &spec);
        let venues = plan_venues(&spec);
        assert!(venues.venues.len() > 65_536, "one venue chunk only");
        assert_venues(&server, &venues);
        let users = plan_users(&spec);
        let edges: usize = users.iter().map(|u| u.friends.len()).sum();
        assert!(edges > 2 * 65_536, "only {edges} planned edges");
        assert_friend_graph(&server, &users);
    }

    #[test]
    fn span_replay_equals_full_replay() {
        let p = plan(&PopulationSpec::tiny(800, 5));
        let full_server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        let full_pop = generate(&full_server, &p);

        let span_server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        let _ = register_world(&span_server, &p);
        let mut stats = GenerationStats::default();
        // Replay in three chronological chunks.
        for (from, to) in [(0u64, 200u64), (200, 400), (400, u64::MAX)] {
            let s = replay_span(&span_server, &p, from, to);
            stats.submitted += s.submitted;
            stats.rewarded += s.rewarded;
            stats.flagged += s.flagged;
        }
        assert_eq!(stats, full_pop.stats);
        // Final state is identical for a sample of users.
        for truth in full_pop.users.iter().step_by(97) {
            let a = full_server
                .with_user(truth.id, |u| (u.total_checkins, u.valid_checkins, u.points))
                .unwrap();
            let b = span_server
                .with_user(truth.id, |u| (u.total_checkins, u.valid_checkins, u.points))
                .unwrap();
            assert_eq!(a, b, "user {} diverged", truth.id);
        }
    }

    #[test]
    fn truth_lookup_roundtrips() {
        let p = tiny_plan();
        let server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        let pop = generate(&server, &p);
        let t = pop.truth(UserId(1)).unwrap();
        assert_eq!(t.id, UserId(1));
        assert!(pop.truth(UserId(0)).is_none());
        assert!(pop.truth(UserId(999_999)).is_none());
        assert_eq!(
            pop.cheater_ids().len(),
            pop.users
                .iter()
                .filter(|u| u.archetype.is_cheater())
                .count()
        );
    }
}
