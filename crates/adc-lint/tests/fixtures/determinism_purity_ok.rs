//! Positive fixture for `determinism-purity`: the hook's call chain is
//! pure; a clock does exist in the file but only in a helper no hot-path
//! root can reach, so the reachability rule must stay quiet.

use std::time::Instant;

/// Pure helper on the hot path.
fn bump(counter: &mut u64) {
    *counter += 1;
}

/// Offline-report helper: never called from any hook or run loop, so the
/// clock is out of hot-path reach.
pub fn wall_now_for_reports() -> Instant {
    Instant::now()
}

/// The fixture agent.
pub struct FixtureAgent {
    /// Requests seen.
    pub seen: u64,
}

impl CacheAgent for FixtureAgent {
    fn on_request(&mut self) {
        bump(&mut self.seen);
    }
}
