//! Mapping-table entries and the paper's average / aging arithmetic.
//!
//! Each entry corresponds to one row of the tables shown in Figures 1–3 of
//! the paper: `(OBJ-ID, PROXY, LAST, AVG, HITS)`.

use crate::ids::{Location, ObjectId};

/// Per-proxy logical time, in units of locally received requests.
///
/// The paper: "the counter for the received requests represents the local
/// clock of the proxy and is used for the later described average
/// computation."
pub type Tick = u64;

/// One row of a mapping table (Figures 1–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableEntry {
    /// The object this row describes (`OBJ-ID`).
    pub object: ObjectId,
    /// The learned responsible proxy (`PROXY`).
    pub location: Location,
    /// Local time of the most recent request for this object (`LAST`).
    pub last: Tick,
    /// Moving average of the inter-request time (`AVG`); `0` until the
    /// object has been requested twice.
    pub average: Tick,
    /// Number of observed requests (`HITS`).
    pub hits: u64,
}

impl TableEntry {
    /// Creates a fresh entry for a first-seen object, exactly as the
    /// paper's Part 4 of `Update_Entry` does: `AVG = 0`, `HITS = 1`.
    pub fn new(object: ObjectId, location: Location, now: Tick) -> Self {
        TableEntry {
            object,
            location,
            last: now,
            average: 0,
            hits: 1,
        }
    }

    /// The paper's `Calc_Average()` (Figure 9).
    ///
    /// On the second request the gap between the two requests becomes the
    /// first approximation; afterwards a two-point moving average is kept:
    /// `avg = (avg + (now - last)) / 2`. Always bumps `HITS` and re-stamps
    /// `LAST`.
    ///
    /// # Examples
    ///
    /// ```
    /// use adc_core::{Location, ObjectId, TableEntry};
    ///
    /// let mut e = TableEntry::new(ObjectId::new(1), Location::This, 100);
    /// assert_eq!(e.average, 0);
    /// e.calc_average(130); // second request, 30 ticks later
    /// assert_eq!(e.average, 30);
    /// e.calc_average(140); // third request, 10 ticks later
    /// assert_eq!(e.average, (30 + 10) / 2);
    /// assert_eq!(e.hits, 3);
    /// ```
    pub fn calc_average(&mut self, now: Tick) {
        let gap = now.saturating_sub(self.last);
        if self.hits <= 1 {
            self.average = gap;
        } else {
            self.average = (self.average + gap) / 2;
        }
        self.hits += 1;
        self.last = now;
    }

    /// The paper's aging formula (Figure 4):
    /// `T_age = (T_average + (T_now - T_last)) / 2`.
    ///
    /// Used when comparing a candidate entry against the *current* age of
    /// the worst resident entry; recently requested objects get a lower age
    /// and therefore stay longer.
    pub fn aged_average(&self, now: Tick) -> Tick {
        (self.average + now.saturating_sub(self.last)) / 2
    }

    /// Returns `true` if the object has been requested at least twice and
    /// therefore carries a meaningful average.
    pub fn has_average(&self) -> bool {
        self.hits >= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(now: Tick) -> TableEntry {
        TableEntry::new(ObjectId::new(42), Location::This, now)
    }

    #[test]
    fn new_entry_matches_paper_initialization() {
        let e = entry(9952);
        assert_eq!(e.average, 0);
        assert_eq!(e.hits, 1);
        assert_eq!(e.last, 9952);
        assert!(!e.has_average());
    }

    #[test]
    fn second_hit_uses_raw_gap() {
        let mut e = entry(100);
        e.calc_average(223);
        assert_eq!(e.average, 123);
        assert_eq!(e.hits, 2);
        assert_eq!(e.last, 223);
        assert!(e.has_average());
    }

    #[test]
    fn subsequent_hits_use_two_point_moving_average() {
        let mut e = entry(0);
        e.calc_average(100); // avg = 100
        e.calc_average(120); // avg = (100 + 20) / 2 = 60
        assert_eq!(e.average, 60);
        e.calc_average(180); // avg = (60 + 60) / 2 = 60
        assert_eq!(e.average, 60);
        assert_eq!(e.hits, 4);
    }

    #[test]
    fn average_is_monotone_under_repeated_same_gap() {
        // With a constant inter-request gap g the moving average converges
        // to g from any starting point.
        let mut e = entry(0);
        e.calc_average(1000); // avg 1000
        let mut t = 1000;
        for _ in 0..20 {
            t += 10;
            e.calc_average(t);
        }
        assert!(e.average >= 10 && e.average <= 12, "avg={}", e.average);
    }

    #[test]
    fn aging_penalizes_stale_entries() {
        let mut hot = entry(0);
        hot.calc_average(10); // avg 10, last 10
        let mut cold = entry(0);
        cold.calc_average(10); // identical history
        cold.last = 10;

        // At time 500, both aged equally.
        assert_eq!(hot.aged_average(500), cold.aged_average(500));
        // `hot` gets re-requested at 500; its age drops.
        hot.calc_average(500);
        assert!(hot.aged_average(510) < cold.aged_average(510));
    }

    #[test]
    fn aged_average_of_fresh_request_is_half_average() {
        let mut e = entry(0);
        e.calc_average(100);
        // Right after the request, (avg + 0) / 2.
        assert_eq!(e.aged_average(100), 50);
    }

    #[test]
    fn calc_average_handles_non_monotone_clock_gracefully() {
        // `now < last` should not underflow (can occur if a caller reuses
        // entries across table moves); treated as gap 0.
        let mut e = entry(100);
        e.calc_average(50);
        assert_eq!(e.average, 0);
        assert_eq!(e.last, 50);
    }
}
