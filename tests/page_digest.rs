//! Pins the bytes of every public page: the crawler's scraper reads the
//! fields in the order the frontend writes them, so a rendering change
//! must be deliberate. The digest is FNV-1a-64 over the bodies of every
//! user page and then every venue page, in id order, under each of the
//! three frontend configurations the experiments use.

use std::sync::Arc;

use lbsn::server::web::{PageRequest, WebConfig, WebFrontend};
use lbsn::server::{LbsnServer, ServerConfig};
use lbsn::sim::SimClock;
use lbsn::workload::PopulationSpec;

/// Pages rendered: 9 451 users and 28 000 venues, three times.
const PAGES: u64 = 112_353;
/// The digest of those pages as the frontend rendered them when this
/// pin was taken.
const DIGEST: u64 = 0xecbb_5a11_48f3_6d4c;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn every_page_renders_byte_identically() {
    let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
    let spec = PopulationSpec::at_scale(0.005, 7);
    lbsn::workload::generate(&server, &lbsn::workload::plan(&spec));
    let configs = [
        WebConfig::default(),
        WebConfig {
            hash_visitor_ids: true,
            ..WebConfig::default()
        },
        WebConfig {
            show_whos_been_here: false,
            ..WebConfig::default()
        },
    ];
    let (mut digest, mut pages) = (0xcbf2_9ce4_8422_2325_u64, 0u64);
    for config in configs {
        let web = WebFrontend::with_config(Arc::clone(&server), config);
        let users = (1..=server.user_count()).map(|id| format!("/user/{id}"));
        let venues = (1..=server.venue_count()).map(|id| format!("/venue/{id}"));
        for path in users.chain(venues) {
            let page = web.handle(&PageRequest::get(path.as_str()));
            assert!(page.is_ok(), "{path}: status {}", page.status);
            digest = fnv1a(digest, page.body.as_bytes());
            pages += 1;
        }
    }
    assert_eq!(pages, PAGES);
    assert_eq!(digest, DIGEST, "page bytes changed: {digest:016x}");
}
