//! Property-based tests: invariants of the check-in pipeline under
//! arbitrary interleavings of users, venues, locations, and time gaps.

use std::sync::Arc;

use lbsn_geo::{destination, GeoPoint};
use lbsn_server::{
    CheckinRequest, CheckinSource, LbsnServer, ServerConfig, UserId, UserSpec, VenueId, VenueSpec,
};
use lbsn_sim::{Duration, SimClock};
use proptest::prelude::*;

fn abq() -> GeoPoint {
    GeoPoint::new(35.0844, -106.6504).unwrap()
}

/// One scripted action against the server.
#[derive(Debug, Clone)]
struct Step {
    user: u64,
    venue: u64,
    // Where the reported fix lands relative to the venue: metres away.
    fix_offset_m: f64,
    fix_bearing: f64,
    advance_secs: u64,
}

fn arb_step(users: u64, venues: u64) -> impl Strategy<Value = Step> {
    (
        1..=users,
        1..=venues,
        prop_oneof![Just(0.0), 10.0..20_000.0f64],
        0.0..360.0f64,
        prop_oneof![
            Just(0u64),
            1u64..120,          // rapid-fire territory
            1_800u64..10_800,   // calm spacing
            86_400u64..200_000, // day+ gaps
        ],
    )
        .prop_map(
            |(user, venue, fix_offset_m, fix_bearing, advance_secs)| Step {
                user,
                venue,
                fix_offset_m,
                fix_bearing,
                advance_secs,
            },
        )
}

fn build_world(users: u64, venues: u64) -> Arc<LbsnServer> {
    let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
    for i in 0..venues {
        // Venues scattered within ~30 km so steps can be both near and far.
        let loc = destination(abq(), (i * 67 % 360) as f64, 200.0 + 1_500.0 * i as f64);
        server.register_venue(VenueSpec::new(format!("V{i}"), loc));
    }
    for _ in 0..users {
        server.register_user(UserSpec::anonymous());
    }
    server
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Accounting invariants hold after any action sequence.
    #[test]
    fn pipeline_accounting_invariants(steps in prop::collection::vec(arb_step(4, 6), 1..80)) {
        let server = build_world(4, 6);
        let mut submitted = 0u64;
        for s in &steps {
            server.clock().advance(Duration::secs(s.advance_secs));
            let venue_loc = server.venue(VenueId(s.venue)).unwrap().location;
            let fix = if s.fix_offset_m == 0.0 {
                venue_loc
            } else {
                destination(venue_loc, s.fix_bearing, s.fix_offset_m)
            };
            let out = server
                .check_in(&CheckinRequest {
                    user: UserId(s.user),
                    venue: VenueId(s.venue),
                    reported_location: fix,
                    source: CheckinSource::MobileApp,
                })
                .unwrap();
            submitted += 1;
            // Outcome-level invariants.
            prop_assert_eq!(out.rewarded(), out.flags.is_empty());
            if !out.rewarded() {
                prop_assert_eq!(out.points, 0);
                prop_assert!(out.new_badges.is_empty());
                prop_assert!(!out.became_mayor);
            }
        }

        // Per-user invariants.
        let mut total_all = 0u64;
        let mut points_all = 0u64;
        for uid in 1..=4u64 {
            server.with_user(UserId(uid), |u| {
                total_all += u.total_checkins;
                points_all += u.points;
                assert_eq!(u.total_checkins, u.valid_checkins + u.flagged_checkins);
                assert_eq!(u.history.len() as u64, u.total_checkins);
                assert_eq!(
                    u.history.iter().filter(|r| r.rewarded).count() as u64,
                    u.valid_checkins
                );
                // History is time-ordered.
                let records: Vec<_> = u.history.iter().collect();
                for w in records.windows(2) {
                    assert!(w[0].at <= w[1].at);
                }
                // Distinct-venue tracking matches history.
                let mut distinct: Vec<_> =
                    u.history.iter().filter(|r| r.rewarded).map(|r| r.venue).collect();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct, u.visited_venues.as_slice());
            }).unwrap();
        }
        prop_assert_eq!(total_all, submitted);

        // Per-venue invariants.
        let mut venue_valid = 0u64;
        for vid in 1..=6u64 {
            server.with_venue(VenueId(vid), |v| {
                venue_valid += v.checkins_here;
                assert!(v.recent_visitors().len() <= 10);
                // Recent list entries are unique.
                let set: std::collections::HashSet<_> = v.recent_visitors().iter().collect();
                assert_eq!(set.len(), v.recent_visitors().len());
                // Everyone on the recent list is a unique visitor.
                for u in v.recent_visitors() {
                    assert!(v.unique_visitors().contains(u));
                }
                assert!(v.unique_visitors().len() as u64 <= v.checkins_here);
            }).unwrap();
        }
        // Venue valid totals equal user valid totals.
        let user_valid: u64 = (1..=4u64)
            .map(|uid| server.with_user(UserId(uid), |u| u.valid_checkins).unwrap())
            .sum();
        prop_assert_eq!(venue_valid, user_valid);
        let _ = points_all;
    }

    /// Mayorship invariants: at most one mayor, and the mayor actually
    /// visited; a branded cheater never holds a mayorship.
    #[test]
    fn mayorship_invariants(steps in prop::collection::vec(arb_step(3, 4), 1..60)) {
        let server = build_world(3, 4);
        for s in &steps {
            server.clock().advance(Duration::secs(s.advance_secs.max(1)));
            let venue_loc = server.venue(VenueId(s.venue)).unwrap().location;
            let fix = if s.fix_offset_m == 0.0 {
                venue_loc
            } else {
                destination(venue_loc, s.fix_bearing, s.fix_offset_m)
            };
            let _ = server.check_in(&CheckinRequest {
                user: UserId(s.user),
                venue: VenueId(s.venue),
                reported_location: fix,
                source: CheckinSource::MobileApp,
            });
        }
        // Cross-check mayors both ways.
        for vid in 1..=4u64 {
            let mayor = server.venue(VenueId(vid)).unwrap().mayor;
            if let Some(m) = mayor {
                server.with_user(m, |u| {
                    assert!(u.mayorships.contains(&VenueId(vid)));
                    assert!(!u.branded_cheater, "branded user holds a mayorship");
                    assert!(
                        u.history.iter().any(|r| r.rewarded && r.venue == VenueId(vid)),
                        "mayor never validly visited"
                    );
                }).unwrap();
            }
        }
        for uid in 1..=3u64 {
            // Read the set first: a server call from inside the
            // callback would re-enter the server under the user lock.
            let mayorships: Vec<VenueId> =
                server.with_user(UserId(uid), |u| u.mayorships.iter().copied().collect()).unwrap();
            for v in mayorships {
                assert_eq!(
                    server.venue(v).unwrap().mayor,
                    Some(UserId(uid)),
                    "mayorship set out of sync"
                );
            }
        }
    }

    /// Badges are monotone (never lost) and unique; points never
    /// decrease.
    #[test]
    fn rewards_are_monotone(steps in prop::collection::vec(arb_step(2, 5), 1..60)) {
        let server = build_world(2, 5);
        let mut last_points = [0u64; 3];
        let mut last_badges = [0usize; 3];
        for s in &steps {
            server.clock().advance(Duration::secs(s.advance_secs));
            let venue_loc = server.venue(VenueId(s.venue)).unwrap().location;
            let _ = server.check_in(&CheckinRequest {
                user: UserId(s.user),
                venue: VenueId(s.venue),
                reported_location: destination(venue_loc, s.fix_bearing, s.fix_offset_m),
                source: CheckinSource::MobileApp,
            });
            let idx = s.user as usize;
            let (points, badges) = server
                .with_user(UserId(s.user), |u| (u.points, u.badges.len()))
                .unwrap();
            prop_assert!(points >= last_points[idx]);
            prop_assert!(badges >= last_badges[idx]);
            last_points[idx] = points;
            last_badges[idx] = badges;
        }
    }
}

/// An arbitrary check-in record for the packed-history round trip:
/// venue ids across the full range, timestamps in any order (the delta
/// encoding is signed), coordinates both on and off the 1e-7-degree
/// quantization grid, every flag subset, both sources.
fn arb_record() -> impl Strategy<Value = lbsn_server::CheckinRecord> {
    (
        1u64..=5_600_000,
        0u64..=4_000_000_000,
        (-90i32 * 10_000_000..=90 * 10_000_000).prop_map(|q| q as f64 / 1e7),
        (-180i32 * 10_000_000..=180 * 10_000_000).prop_map(|q| q as f64 / 1e7),
        prop_oneof![Just(0.0f64), -4e-9..4e-9f64], // nudge off the grid
        any::<bool>(),
        0u8..32,
    )
        .prop_map(
            |(venue, at, lat, lon, jitter, api, flag_bits): (u64, u64, f64, f64, f64, bool, u8)| {
                let flags = lbsn_server::FlagSet::from_bits(flag_bits).to_vec();
                lbsn_server::CheckinRecord {
                    venue: VenueId(venue),
                    at: lbsn_sim::Timestamp(at),
                    location: GeoPoint::new(
                        (lat + jitter).clamp(-90.0, 90.0),
                        (lon + jitter).clamp(-180.0, 180.0),
                    )
                    .unwrap(),
                    source: if api {
                        CheckinSource::ServerApi
                    } else {
                        CheckinSource::MobileApp
                    },
                    rewarded: flags.is_empty(),
                    flags,
                }
            },
        )
}

proptest! {
    /// The packed history encodes and decodes arbitrary record streams
    /// identically: forward iteration, backward iteration, and random
    /// O(1) offset decodes all reproduce every field bit-for-bit, and
    /// the brief backward scan reproduces the fields it reads —
    /// including flag sets, both entry sources, and coordinates that
    /// don't sit on the quantization grid.
    #[test]
    fn packed_history_round_trips(records in prop::collection::vec(arb_record(), 0..80)) {
        let mut h = lbsn_server::PackedHistory::new();
        let mut offsets = Vec::new();
        for r in &records {
            offsets.push(h.push(r));
        }
        prop_assert_eq!(h.len(), records.len());

        // Forward (oldest-first) and backward (newest-first) scans.
        let fwd: Vec<_> = h.iter().map(|p| p.to_record()).collect();
        prop_assert_eq!(&fwd, &records);
        let back: Vec<_> = h.iter().rev().map(|p| p.to_record()).collect();
        let mut rev = records.clone();
        rev.reverse();
        prop_assert_eq!(&back, &rev);

        // The reward ladder's brief scan yields exactly the backward
        // decode's (venue, at, rewarded), raw-coordinate records and
        // the empty history included.
        let brief: Vec<_> = h.brief_rev().map(|b| (b.venue, b.at, b.rewarded)).collect();
        let full: Vec<_> = h.iter().rev().map(|p| (p.venue, p.at, p.rewarded)).collect();
        prop_assert_eq!(brief, full);

        // Out-of-order point decodes via the stored offsets.
        for (i, &off) in offsets.iter().enumerate().rev() {
            let got = h.decode_at(off, records[i].at).to_record();
            prop_assert_eq!(&got, &records[i]);
        }
    }

    /// Scans bounded by a timestamp window match the naive filter over
    /// the same stream: no record inside the window is skipped, none
    /// outside it leaks in.
    #[test]
    fn packed_history_window_scans_match_naive(
        records in prop::collection::vec(arb_record(), 1..60),
        cut in 0u64..=4_000_000_000,
    ) {
        let mut h = lbsn_server::PackedHistory::new();
        for r in &records {
            h.push(r);
        }
        let since = lbsn_sim::Timestamp(cut);
        // Newest-first, the direction the detectors scan in.
        let got: Vec<_> = h
            .iter()
            .rev()
            .map(|p| p.to_record())
            .filter(|r| r.at >= since)
            .collect();
        let mut want: Vec<_> = records.iter().filter(|r| r.at >= since).cloned().collect();
        want.reverse();
        prop_assert_eq!(got, want);
    }
}
