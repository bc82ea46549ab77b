//! Deterministic fault injection and the retry policy that absorbs it.
//!
//! A [`FaultPlan`] is a pure function from the deployment's global **trip
//! sequence number** to a [`FaultDecision`]: deliver the round trip, drop
//! the request before it reaches the backend, inflate its round-trip time
//! (past the policy deadline this becomes a timeout — the batch executed,
//! the reply was lost), or panic inside the driver (exercising the unwind
//! guards above it). Randomness is SplitMix64 over `(seed, trip)` — no
//! wall clock, no global state — so any failing schedule replays exactly
//! from its seed. Per-shard outage windows are keyed on the same trip
//! sequence and surface as transient execution errors on the positions
//! that genuinely need the out shard.
//!
//! [`RetryPolicy`] bounds how hard the driver fights back: attempts,
//! exponential backoff (charged as simulated network time), and the
//! deadline that splits a *slow trip* (success, inflated charge) from a
//! *timeout* (ambiguous loss; the backend's at-most-once statement
//! journal dedupes the replay so effects apply exactly once).
//! [`FaultStats`] counts every injected fault and every recovery so tests
//! and benches can gate on them.
//!
//! ## Interaction with the shared result cache
//!
//! A timed-out write is ambiguous to the caller but **not** to the
//! backend: the journal proves it executed. The driver settles the
//! result cache once, at the batch's final surface, where a journal-
//! replayed position carries its recorded result exactly like a freshly
//! executed one — so the write invalidates its overlapping cached reads
//! exactly once, no matter how many faulted attempts preceded success.
//! When the retry budget exhausts instead, the batch's write footprints
//! invalidate conservatively (the write *may* have applied), and the
//! degraded session that results stops trusting the cache's hit path
//! entirely (see [`crate::CacheMode::Bypass`]).

use sloth_sql::SqlError;

/// Message prefix marking an error as *transient*: injected by the fault
/// layer (or synthesized by the fleet for an out shard), retryable, and
/// never confused with a genuine SQL error.
const TRANSIENT_PREFIX: &str = "transient fault: ";

/// Builds a transient (retryable) error carrying the standard prefix.
pub fn transient_error(msg: &str) -> SqlError {
    SqlError::new(format!("{TRANSIENT_PREFIX}{msg}"))
}

/// Whether an error came from the fault layer (retry is legal) rather
/// than from SQL execution (retry would just repeat the failure).
pub fn is_transient_error(e: &SqlError) -> bool {
    e.to_string().contains(TRANSIENT_PREFIX)
}

/// The statement-journal key for `pos` within the batch tagged `tag`.
/// Positions are capped at 2^16 per batch — far above any real batch.
pub(crate) fn stmt_id(tag: u64, pos: usize) -> u64 {
    debug_assert!(pos < (1 << 16), "batch position overflows the journal key");
    (tag << 16) | pos as u64
}

/// What the fault plan decided for one round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver the trip normally.
    Deliver,
    /// The request is lost before reaching the backend: nothing executes,
    /// the trip's latency is wasted, and a verbatim replay is safe.
    Drop,
    /// The round-trip time is inflated by this factor. At or under the
    /// policy deadline this is a *slow trip* (success, inflated charge);
    /// past it, a *timeout*: the batch executed server-side but the reply
    /// was lost, so the replay must be deduplicated by the journal.
    Slow(u64),
    /// Panic inside the driver before anything executes — exercises the
    /// store's flush drop-guard.
    Panic,
}

/// One per-shard outage window: `shard` rejects work for every trip in
/// `from_trip..until_trip` (half-open, global trip sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// The shard that is down (ignored on single-server deployments).
    pub shard: usize,
    /// First trip of the window (inclusive).
    pub from_trip: u64,
    /// First trip after the window (exclusive).
    pub until_trip: u64,
}

/// A deterministic, seeded schedule of injected network faults.
///
/// Built with the fluent constructors ([`FaultPlan::seeded`],
/// [`FaultPlan::drops`], [`FaultPlan::timeouts`], [`FaultPlan::outage`],
/// and the `*_at` pinpoint variants) and installed on a deployment with
/// `SimEnv::set_faults`. The plan is pure: the same seed and trip number
/// always produce the same decision, so a failing chaos seed reproduces
/// locally with no flakiness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// SplitMix64 seed for the randomized rates.
    pub seed: u64,
    /// Probability of a dropped request, per mille (0–1000).
    pub drop_per_mille: u16,
    /// Probability of an inflated (slow/timed-out) trip, per mille.
    pub timeout_per_mille: u16,
    /// RTT multiplier for inflated trips (clamped to ≥ 2). Whether an
    /// inflated trip is a recoverable slow trip or an ambiguous timeout
    /// depends on the retry policy's deadline.
    pub inflate_factor: u64,
    /// Per-shard outage windows over the global trip sequence.
    pub outages: Vec<Outage>,
    /// Trips that drop unconditionally (pinpoint schedules for tests).
    pub drop_trips: Vec<u64>,
    /// Trips that inflate unconditionally.
    pub timeout_trips: Vec<u64>,
    /// Trips that panic inside the driver unconditionally.
    pub panic_trips: Vec<u64>,
}

impl FaultPlan {
    /// A plan with the given seed, no faults yet, and the default ×8
    /// inflation factor (past the default 2 ms deadline at 0.5 ms RTT).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            inflate_factor: 8,
            ..FaultPlan::default()
        }
    }

    /// Drops roughly `per_mille`/1000 of all round trips.
    pub fn drops(mut self, per_mille: u16) -> Self {
        self.drop_per_mille = per_mille.min(1000);
        self
    }

    /// Inflates roughly `per_mille`/1000 of all round trips by `factor`.
    /// With the default cost model and retry policy, factor 2 stays under
    /// the deadline (slow trip) and factor 8 exceeds it (timeout).
    pub fn timeouts(mut self, per_mille: u16, factor: u64) -> Self {
        self.timeout_per_mille = per_mille.min(1000);
        self.inflate_factor = factor.max(2);
        self
    }

    /// Takes `shard` down for trips `from_trip..until_trip`.
    pub fn outage(mut self, shard: usize, from_trip: u64, until_trip: u64) -> Self {
        self.outages.push(Outage {
            shard,
            from_trip,
            until_trip,
        });
        self
    }

    /// Drops exactly trip number `trip`.
    pub fn drop_at(mut self, trip: u64) -> Self {
        self.drop_trips.push(trip);
        self
    }

    /// Inflates exactly trip number `trip` by the plan's factor.
    pub fn timeout_at(mut self, trip: u64) -> Self {
        self.timeout_trips.push(trip);
        self
    }

    /// Panics inside the driver on exactly trip number `trip`.
    pub fn panic_at(mut self, trip: u64) -> Self {
        self.panic_trips.push(trip);
        self
    }

    /// The (deterministic) fate of trip number `trip`.
    pub fn decide(&self, trip: u64) -> FaultDecision {
        if self.panic_trips.contains(&trip) {
            return FaultDecision::Panic;
        }
        if self.drop_trips.contains(&trip) {
            return FaultDecision::Drop;
        }
        if self.timeout_trips.contains(&trip) {
            return FaultDecision::Slow(self.inflate_factor.max(2));
        }
        if self.drop_per_mille == 0 && self.timeout_per_mille == 0 {
            return FaultDecision::Deliver;
        }
        let r = (mix(self.seed, trip) % 1000) as u16;
        if r < self.drop_per_mille {
            FaultDecision::Drop
        } else if r < self.drop_per_mille.saturating_add(self.timeout_per_mille) {
            FaultDecision::Slow(self.inflate_factor.max(2))
        } else {
            FaultDecision::Deliver
        }
    }

    /// Which of `n` shards are inside an outage window at trip `trip`
    /// (`down[s]` true = shard `s` rejects work). `None` when every shard
    /// is up, so the common case costs nothing downstream.
    pub fn down_shards(&self, trip: u64, n: usize) -> Option<Vec<bool>> {
        let mut down = vec![false; n];
        let mut any = false;
        for o in &self.outages {
            if o.shard < n && (o.from_trip..o.until_trip).contains(&trip) {
                down[o.shard] = true;
                any = true;
            }
        }
        any.then_some(down)
    }
}

/// SplitMix64 over `(seed, trip)` — the workspace-standard generator (see
/// the `rand` shim crate); statistically fine for fault schedules.
fn mix(seed: u64, trip: u64) -> u64 {
    let mut z = seed.wrapping_add(trip.wrapping_add(1).wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Bounds on the driver's recovery effort, installed per deployment with
/// `SimEnv::set_retry_policy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per batch (first try included). 1 = never retry.
    pub max_attempts: u32,
    /// Backoff before retry k is `backoff_base_ns << (k-1)`, charged as
    /// simulated network time (the session is waiting on the wire).
    pub backoff_base_ns: u64,
    /// How long the driver waits for a reply. An inflated trip at or
    /// under the deadline succeeds with the inflated charge; past it the
    /// reply is considered lost and the batch replays through the
    /// at-most-once journal.
    pub deadline_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            backoff_base_ns: 100_000,
            deadline_ns: 2_000_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff charged before retry number `retry` (1-based), doubling
    /// per retry with a shift cap so it can never overflow.
    pub fn backoff_ns(&self, retry: u32) -> u64 {
        self.backoff_base_ns
            .saturating_mul(1u64 << retry.saturating_sub(1).min(16))
    }
}

/// Counters for injected faults and the recoveries that absorbed them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Requests lost before reaching the backend.
    pub injected_drops: u64,
    /// Trips whose inflated RTT exceeded the deadline (reply lost after
    /// server-side execution — the ambiguous case).
    pub injected_timeouts: u64,
    /// Trips whose inflated RTT stayed under the deadline (success).
    pub slow_trips: u64,
    /// Injected driver panics.
    pub injected_panics: u64,
    /// Transient execution errors from shard outage windows.
    pub outage_errors: u64,
    /// Retry attempts performed (excludes each batch's first attempt).
    pub retries: u64,
    /// Simulated network time spent in exponential backoff.
    pub backoff_ns: u64,
    /// Batches that failed at least once and then completed.
    pub recovered_batches: u64,
    /// Batches abandoned after exhausting the retry budget.
    pub exhausted_batches: u64,
    /// Journaled statement results replayed instead of re-executed.
    pub journal_hits: u64,
    /// Journal hits that were writes — double-applies prevented.
    pub deduped_writes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed_and_trip() {
        let plan = FaultPlan::seeded(42).drops(200).timeouts(100, 8);
        for trip in 0..500 {
            assert_eq!(plan.decide(trip), plan.decide(trip));
        }
        let again = FaultPlan::seeded(42).drops(200).timeouts(100, 8);
        for trip in 0..500 {
            assert_eq!(plan.decide(trip), again.decide(trip));
        }
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::seeded(7).drops(200).timeouts(100, 8);
        let mut drops = 0;
        let mut slows = 0;
        for trip in 0..10_000 {
            match plan.decide(trip) {
                FaultDecision::Drop => drops += 1,
                FaultDecision::Slow(_) => slows += 1,
                _ => {}
            }
        }
        assert!((1500..2500).contains(&drops), "drops {drops}");
        assert!((600..1400).contains(&slows), "slows {slows}");
    }

    #[test]
    fn pinpoint_schedules_override_rates() {
        let plan = FaultPlan::seeded(1).drop_at(3).timeout_at(4).panic_at(5);
        assert_eq!(plan.decide(3), FaultDecision::Drop);
        assert_eq!(plan.decide(4), FaultDecision::Slow(8));
        assert_eq!(plan.decide(5), FaultDecision::Panic);
        assert_eq!(plan.decide(6), FaultDecision::Deliver);
    }

    #[test]
    fn outage_windows_are_half_open_and_per_shard() {
        let plan = FaultPlan::seeded(0).outage(1, 10, 12);
        assert_eq!(plan.down_shards(9, 4), None);
        assert_eq!(
            plan.down_shards(10, 4),
            Some(vec![false, true, false, false])
        );
        assert_eq!(
            plan.down_shards(11, 4),
            Some(vec![false, true, false, false])
        );
        assert_eq!(plan.down_shards(12, 4), None);
        // A window on a shard the deployment doesn't have is inert.
        assert_eq!(plan.down_shards(10, 1), None);
    }

    #[test]
    fn transient_errors_round_trip_through_the_marker() {
        let e = transient_error("shard 2 down");
        assert!(is_transient_error(&e));
        assert!(!is_transient_error(&SqlError::new("no such table: t")));
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ns(1), 100_000);
        assert_eq!(p.backoff_ns(2), 200_000);
        assert_eq!(p.backoff_ns(3), 400_000);
        assert!(p.backoff_ns(1000) >= p.backoff_ns(17));
    }
}
