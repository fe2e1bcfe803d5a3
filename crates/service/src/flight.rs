//! Single-flight coalescing of identical concurrent solves.
//!
//! The schedule cache dedupes *sequential* repeats; under concurrency the
//! bursty multi-tenant workload still pays one full LP solve per racing
//! worker, because every worker misses the cache before the first solve
//! lands. The [`SingleFlight`] table closes that gap: the first request for a
//! `(canonical_digest, solver)` key becomes the **leader** and runs the
//! solve, every concurrent duplicate becomes a **follower** and blocks on the
//! leader's slot, and exactly one solver invocation happens per key no
//! matter how many workers race.
//!
//! Correctness of the "exactly one fresh solve" guarantee rests on a lock
//! ordering discipline shared with [`ScheduleCache`](crate::cache): callers
//! consult the cache *while holding the flight-table lock* (see
//! [`SingleFlight::begin`]), and leaders insert into the cache *before*
//! clearing their slot. A follower therefore either observes the slot (and
//! waits) or observes the cache entry (and hits) — there is no window in
//! which it could become a second leader for the same key.
//!
//! Leaders publish failures too, so a follower never re-runs a failing solve
//! concurrently; failures are not cached, so a *later* request retries.
//! A leader that panics mid-solve publishes a synthetic error from its drop
//! guard ([`FlightGuard`]), so followers can never deadlock on an abandoned
//! slot.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use crate::cache::CachedSolve;
use crate::protocol::SolveFailure;

/// Key of one in-flight solve: instance digest and solver name — the same
/// pair that keys the schedule cache. No request option appears here
/// (budgets, cache policy, the `detail` projection, tracing and the ignored
/// `engine` field cannot change the computed artifact), so requests
/// differing only in options still coalesce onto one solve.
pub type FlightKey = (u64, &'static str);

/// One in-flight solve: the leader publishes here, followers wait here.
struct Slot {
    result: Mutex<Option<Result<CachedSolve, SolveFailure>>>,
    published: Condvar,
}

impl Slot {
    fn new() -> Self {
        Self {
            result: Mutex::new(None),
            published: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<CachedSolve, SolveFailure>) {
        let mut slot = self.result.lock().expect("flight slot poisoned");
        // First writer wins: the drop-guard fallback must not overwrite a
        // result the leader already published.
        if slot.is_none() {
            *slot = Some(result);
        }
        drop(slot);
        self.published.notify_all();
    }

    fn wait(&self) -> Result<CachedSolve, SolveFailure> {
        let mut slot = self.result.lock().expect("flight slot poisoned");
        while slot.is_none() {
            slot = self
                .published
                .wait(slot)
                .expect("flight slot poisoned while waiting");
        }
        slot.clone().expect("loop exits only once published")
    }

    /// Like [`wait`](Self::wait), but gives up at `deadline`: a follower's
    /// own time budget keeps binding while it is parked behind another
    /// request's solve.
    fn wait_until(&self, deadline: std::time::Instant) -> Result<CachedSolve, SolveFailure> {
        let mut slot = self.result.lock().expect("flight slot poisoned");
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(SolveFailure {
                    kind: crate::protocol::error_kind::BUDGET_EXHAUSTED,
                    message: "time budget exhausted while waiting on a coalesced solve".to_string(),
                    budget: Some(crate::protocol::BudgetReport::new(0, true)),
                });
            }
            let (guard, _timed_out) = self
                .published
                .wait_timeout(slot, deadline - now)
                .expect("flight slot poisoned while waiting");
            slot = guard;
        }
    }
}

/// Outcome of [`SingleFlight::begin`]: the caller either leads the solve or
/// follows an identical in-flight one.
pub enum Flight<'a> {
    /// No identical solve is running: the caller must solve and then resolve
    /// the guard with [`FlightGuard::publish`].
    Lead(FlightGuard<'a>),
    /// An identical solve is already running; wait on it.
    Follow(FollowHandle),
}

/// A follower's handle on an in-flight solve led by another request.
pub struct FollowHandle(Arc<Slot>);

impl FollowHandle {
    /// Blocks until the leader publishes, then returns a clone of the result.
    ///
    /// # Errors
    ///
    /// Returns the leader's structured failure if the coalesced solve
    /// failed (kind, message and budget post-mortem).
    pub fn wait(&self) -> Result<CachedSolve, SolveFailure> {
        self.0.wait()
    }

    /// Blocks until the leader publishes or `deadline` passes, whichever
    /// comes first.
    ///
    /// # Errors
    ///
    /// The leader's structured failure, or a `budget_exhausted` failure
    /// (`exhausted: "time"`) when the deadline passed while waiting — the
    /// leader's solve keeps running and will still land in the cache.
    pub fn wait_until(
        &self,
        deadline: Option<std::time::Instant>,
    ) -> Result<CachedSolve, SolveFailure> {
        match deadline {
            None => self.0.wait(),
            Some(deadline) => self.0.wait_until(deadline),
        }
    }
}

/// The in-flight solve table.
#[derive(Default)]
pub struct SingleFlight {
    slots: Mutex<HashMap<FlightKey, Arc<Slot>>>,
}

impl SingleFlight {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers interest in `key`, first running `cache_probe` under the
    /// table lock.
    ///
    /// `cache_probe` is the caller's cache lookup; holding the table lock
    /// across it closes the race between a leader finishing (cache insert,
    /// then slot removal) and a follower starting (cache probe, then slot
    /// check): because leaders clear their slot only *after* inserting into
    /// the cache, a probe miss under this lock implies any slot for `key` is
    /// still present.
    ///
    /// Returns the probe's hit if there is one, otherwise whether the caller
    /// leads or follows.
    pub fn begin(
        &self,
        key: FlightKey,
        cache_probe: impl FnOnce() -> Option<CachedSolve>,
    ) -> Result<CachedSolve, Flight<'_>> {
        let mut slots = self.slots.lock().expect("flight table poisoned");
        if let Some(hit) = cache_probe() {
            return Ok(hit);
        }
        if let Some(slot) = slots.get(&key) {
            return Err(Flight::Follow(FollowHandle(Arc::clone(slot))));
        }
        let slot = Arc::new(Slot::new());
        slots.insert(key, Arc::clone(&slot));
        Err(Flight::Lead(FlightGuard {
            table: self,
            key: Some(key),
            slot,
        }))
    }

    /// Number of solves currently in flight (for tests and introspection).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.slots.lock().expect("flight table poisoned").len()
    }

    fn clear(&self, key: &FlightKey) {
        self.slots
            .lock()
            .expect("flight table poisoned")
            .remove(key);
    }
}

/// Leadership of one in-flight solve. Publish the outcome with
/// [`publish`](Self::publish); dropping without publishing (a panicking
/// leader) publishes a synthetic error so followers cannot hang.
pub struct FlightGuard<'a> {
    table: &'a SingleFlight,
    key: Option<FlightKey>,
    slot: Arc<Slot>,
}

impl FlightGuard<'_> {
    /// Publishes the leader's outcome to every follower and clears the slot.
    ///
    /// The caller must have inserted a successful result into the schedule
    /// cache **before** calling this — see the module docs for why that
    /// ordering is load-bearing.
    pub fn publish(mut self, result: Result<CachedSolve, SolveFailure>) {
        self.resolve(result);
    }

    fn resolve(&mut self, result: Result<CachedSolve, SolveFailure>) {
        if let Some(key) = self.key.take() {
            self.table.clear(&key);
            self.slot.publish(result);
        }
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        // Normal publishes take `self.key`, making this a no-op; reaching
        // here with the key still present means the leader unwound.
        self.resolve(Err(SolveFailure::new(
            crate::protocol::error_kind::SOLVER_ERROR,
            "coalesced solve aborted: leader panicked",
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use suu_core::ObliviousSchedule;

    fn solve(tag: &str) -> CachedSolve {
        CachedSolve::new(
            tag.to_string(),
            ObliviousSchedule::new(2),
            None,
            None,
            None,
            false,
        )
    }

    #[test]
    fn probe_hit_short_circuits() {
        let flight = SingleFlight::new();
        let out = flight.begin((1, "s"), || Some(solve("cached")));
        match out {
            Ok(hit) => assert_eq!(hit.solver, "cached"),
            Err(_) => panic!("probe hit must not create a slot"),
        }
        assert_eq!(flight.in_flight(), 0);
    }

    #[test]
    fn leader_then_follower_then_cleared() {
        let flight = SingleFlight::new();
        let key: FlightKey = (7, "s");
        let guard = match flight.begin(key, || None) {
            Err(Flight::Lead(guard)) => guard,
            _ => panic!("first caller must lead"),
        };
        assert_eq!(flight.in_flight(), 1);
        let follower = match flight.begin(key, || None) {
            Err(Flight::Follow(slot)) => slot,
            _ => panic!("second caller must follow"),
        };
        guard.publish(Ok(solve("led")));
        assert_eq!(follower.wait().unwrap().solver, "led");
        assert_eq!(flight.in_flight(), 0, "publishing clears the slot");
        // After the flight lands, a new caller leads again.
        assert!(matches!(flight.begin(key, || None), Err(Flight::Lead(_))));
    }

    #[test]
    fn exactly_one_leader_under_contention() {
        // Mimics the real protocol: the leader fills a shared "cache" before
        // publishing, so threads arriving after the flight lands probe-hit
        // instead of leading a second solve.
        let flight = Arc::new(SingleFlight::new());
        let cache: Arc<Mutex<Option<CachedSolve>>> = Arc::new(Mutex::new(None));
        let leaders = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let flight = Arc::clone(&flight);
                let cache = Arc::clone(&cache);
                let leaders = Arc::clone(&leaders);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let probe = || cache.lock().unwrap().clone();
                    match flight.begin((42, "s"), probe) {
                        Ok(hit) => hit.solver,
                        Err(Flight::Lead(guard)) => {
                            leaders.fetch_add(1, Ordering::SeqCst);
                            let solved = solve("winner");
                            *cache.lock().unwrap() = Some(solved.clone());
                            guard.publish(Ok(solved));
                            "winner".to_string()
                        }
                        Err(Flight::Follow(slot)) => slot.wait().unwrap().solver,
                    }
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), "winner");
        }
        assert_eq!(leaders.load(Ordering::SeqCst), 1);
        assert_eq!(flight.in_flight(), 0);
    }

    #[test]
    fn leader_errors_propagate_but_are_not_sticky() {
        let flight = SingleFlight::new();
        let key: FlightKey = (9, "s");
        let guard = match flight.begin(key, || None) {
            Err(Flight::Lead(guard)) => guard,
            _ => panic!("must lead"),
        };
        let follower = match flight.begin(key, || None) {
            Err(Flight::Follow(slot)) => slot,
            _ => panic!("must follow"),
        };
        guard.publish(Err(SolveFailure::new(
            crate::protocol::error_kind::SOLVER_ERROR,
            "infeasible",
        )));
        assert_eq!(follower.wait().unwrap_err().message, "infeasible");
        // Errors are not cached: the next request leads a fresh attempt.
        assert!(matches!(flight.begin(key, || None), Err(Flight::Lead(_))));
    }

    #[test]
    fn follower_deadline_binds_while_waiting() {
        let flight = SingleFlight::new();
        let key: FlightKey = (13, "s");
        let guard = match flight.begin(key, || None) {
            Err(Flight::Lead(guard)) => guard,
            _ => panic!("must lead"),
        };
        let follower = match flight.begin(key, || None) {
            Err(Flight::Follow(slot)) => slot,
            _ => panic!("must follow"),
        };
        // The leader is still solving: a follower whose deadline passes gives
        // up with a structured time-budget failure.
        let err = follower
            .wait_until(Some(std::time::Instant::now()))
            .unwrap_err();
        assert_eq!(err.kind, crate::protocol::error_kind::BUDGET_EXHAUSTED);
        assert_eq!(err.budget.unwrap().exhausted, "time");
        // The flight itself is unaffected: publishing still serves patient
        // followers.
        guard.publish(Ok(solve("late")));
        assert_eq!(flight.in_flight(), 0);
    }

    #[test]
    fn follower_wait_until_returns_published_results() {
        let flight = SingleFlight::new();
        let key: FlightKey = (14, "s");
        let guard = match flight.begin(key, || None) {
            Err(Flight::Lead(guard)) => guard,
            _ => panic!("must lead"),
        };
        let follower = match flight.begin(key, || None) {
            Err(Flight::Follow(slot)) => slot,
            _ => panic!("must follow"),
        };
        guard.publish(Ok(solve("fast")));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        assert_eq!(follower.wait_until(Some(deadline)).unwrap().solver, "fast");
    }

    #[test]
    fn dropped_leader_releases_followers_with_an_error() {
        let flight = SingleFlight::new();
        let key: FlightKey = (11, "s");
        let guard = match flight.begin(key, || None) {
            Err(Flight::Lead(guard)) => guard,
            _ => panic!("must lead"),
        };
        let follower = match flight.begin(key, || None) {
            Err(Flight::Follow(slot)) => slot,
            _ => panic!("must follow"),
        };
        drop(guard); // simulates a panicking leader unwinding
        let err = follower.wait().unwrap_err();
        assert!(err.message.contains("leader panicked"), "err: {:?}", err);
        assert_eq!(flight.in_flight(), 0);
    }
}
