//! Defenses against location cheating (§5 of the paper).
//!
//! Two families:
//!
//! * **Location verification** (§5.1) — mechanisms that check where the
//!   device *really* is, not where it claims to be:
//!   [`DistanceBounding`] (RF round-trip physics, accurate but needs
//!   per-venue hardware), [`AddressMapping`] (IP geolocation, cheap but
//!   coarse and confused by cellular egress points), and
//!   [`WifiVerifier`] (the venue's own router co-signs check-ins —
//!   "intrinsic distance bounding" within radio range). A
//!   [`VerifierStack`] composes them and the evaluation harness scores
//!   each against a matrix of honest and attack scenarios.
//!   [`VerifierStage`] installs a stack as a stage of the server's own
//!   admission pipeline, so every check-in entry point is verified.
//!
//! * **Crawl mitigation** (§5.2) — [`crawl_control`] gates the web
//!   frontend with login requirements, per-IP rate limits and automatic
//!   blocking (with the NAT collateral-damage model of Casado–Freedman),
//!   and [`privacy`] measures what profile-hiding (hashed visitor IDs,
//!   removed visitor lists) costs the crawler.
//!
//! Every verifier sees a [`VerificationContext`] carrying the device's
//! *true* physical location — information the production server never
//! has, which is exactly why these mechanisms require new
//! infrastructure (a verifier at the venue, the carrier's IP map) rather
//! than a server-side patch.

#![warn(missing_docs)]

mod address_mapping;
pub mod crawl_control;
mod distance_bounding;
pub mod privacy;
mod stack;
pub mod stage;
mod verify;
mod wifi;

pub use address_mapping::AddressMapping;
pub use distance_bounding::DistanceBounding;
pub use stack::{classify, evaluate_verifier, EvaluationRow, ScenarioOutcome, VerifierStack};
pub use stage::{RouterRegistry, VerifierStage};
pub use verify::{
    AttackScenario, DeploymentCost, IpOrigin, LocationVerifier, Verdict, VerificationContext,
};
pub use wifi::WifiVerifier;
