//! A sharded LRU cache of solved schedules.
//!
//! Solving is dominated by the LP pipeline (`SUU-C` / the forest block
//! algorithm); serving traffic repeats instances constantly (the bursty
//! multi-tenant workload in `suu-workloads` is built from exactly such
//! repetitions), so the service fronts every solve with this cache.
//!
//! Keys are the [`canonical_digest`](SuuInstance::canonical_digest) of the
//! instance plus the solver name plus the request's engine **variant** (see
//! [`SolveOptions::engine_variant`](crate::protocol::SolveOptions::engine_variant):
//! a forced LP engine can reach a different optimal vertex, so it solves and
//! caches separately, while budgets, cache policy and response projection
//! deliberately share the variant — they never change the computed
//! artifact). The full instance is stored alongside each entry and compared
//! on lookup, so a digest collision can never serve a schedule for the wrong
//! instance. Shards are independent mutexes selected by digest, so
//! concurrent workers rarely contend on the same lock.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use suu_core::{ObliviousSchedule, SuuInstance};
use suu_lp::{LuFactors, WarmStart};

/// Cache sizing.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Number of independent shards (rounded up to at least 1).
    pub num_shards: usize,
    /// Maximum number of entries per shard; the least recently used entry is
    /// evicted on overflow.
    pub capacity_per_shard: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            num_shards: 8,
            capacity_per_shard: 128,
        }
    }
}

/// A cached solve result.
#[derive(Debug, Clone)]
pub struct CachedSolve {
    /// Name of the solver that produced the schedule.
    pub solver: String,
    /// The schedule itself.
    pub schedule: ObliviousSchedule,
    /// LP optimum, when the solver reports one.
    pub lp_value: Option<f64>,
    /// Simplex pivots of the original solve, when the solver reports them.
    /// Served unchanged on cache hits — they describe how the schedule was
    /// computed, not the current request.
    pub lp_pivots: Option<usize>,
    /// LP wall-clock microseconds of the original solve, when reported.
    pub lp_micros: Option<u64>,
    /// Whether the original solve started from a donor basis (a warm
    /// start). Like `lp_pivots`, this describes how the cached schedule was
    /// computed and is served unchanged on cache hits; it reaches the wire
    /// only inside the opt-in `trace` object.
    pub lp_warm: bool,
    /// Lazily rendered JSON body (see [`rendered_body`](Self::rendered_body)),
    /// shared across every clone served from the cache.
    rendered: Arc<OnceLock<String>>,
    /// Lazily rendered `detail: no_schedule` projection of the body (see
    /// [`rendered_body_no_schedule`](Self::rendered_body_no_schedule)).
    rendered_no_schedule: Arc<OnceLock<String>>,
}

impl CachedSolve {
    /// Wraps a solve result (the rendered body starts empty and is built on
    /// first use).
    #[must_use]
    pub fn new(
        solver: String,
        schedule: ObliviousSchedule,
        lp_value: Option<f64>,
        lp_pivots: Option<usize>,
        lp_micros: Option<u64>,
        lp_warm: bool,
    ) -> Self {
        Self {
            solver,
            schedule,
            lp_value,
            lp_pivots,
            lp_micros,
            lp_warm,
            rendered: Arc::new(OnceLock::new()),
            rendered_no_schedule: Arc::new(OnceLock::new()),
        }
    }

    /// Writes the solve-dependent response fragment, with the schedule or
    /// with `"schedule":null` (see [`rendered_body`](Self::rendered_body)).
    fn render_fields(&self, with_schedule: bool) -> String {
        fn write_opt(out: &mut String, n: Option<f64>) {
            match n {
                Some(n) => serde::write_number(out, n),
                None => out.push_str("null"),
            }
        }
        // Room for job ids below 10⁴: at most five bytes a target (`null,`)
        // plus a step's `{"targets":[]},`. Larger ids just grow the string.
        let schedule_room = if with_schedule {
            self.schedule.len() * (15 + 5 * self.schedule.num_machines())
        } else {
            0
        };
        let mut out = String::with_capacity(160 + self.solver.len() + schedule_room);
        out.push_str("\"solver\":");
        serde::write_escaped(&mut out, &self.solver);
        out.push_str(",\"schedule\":");
        if with_schedule {
            self.schedule.write_json(&mut out);
        } else {
            out.push_str("null");
        }
        out.push_str(",\"schedule_len\":");
        serde::write_number(&mut out, self.schedule.len() as f64);
        out.push_str(",\"lp_value\":");
        write_opt(&mut out, self.lp_value);
        out.push_str(",\"lp_pivots\":");
        write_opt(&mut out, self.lp_pivots.map(|p| p as f64));
        out.push_str(",\"lp_micros\":");
        write_opt(&mut out, self.lp_micros.map(|us| us as f64));
        // The cache keeps the body as long as the entry: hand back the slack.
        out.shrink_to_fit();
        out
    }

    /// The solve-dependent fragment of a success response, rendered once and
    /// shared by every response serving this solve:
    /// `"solver":…,"schedule":…,"schedule_len":…,"lp_value":…,"lp_pivots":…,"lp_micros":…`
    /// (no surrounding braces). Serialising the schedule dominates the cost
    /// of answering a cache hit — a multi-kilobyte JSON fragment per
    /// response — so the pipelined executor splices this fragment into the
    /// response envelope instead of re-rendering it for every request.
    ///
    /// The fragment is written directly, with no intermediate
    /// `serde::Value` tree: the schedule by
    /// [`ObliviousSchedule::write_json`], the scalars by
    /// [`serde::write_number`] and [`serde::write_escaped`] — the writers
    /// the `Value` rendering itself uses, so the bytes are exactly what the
    /// serde rendering of the same fields produces (pinned by the
    /// `render_parity` battery) and a spliced response parses identically
    /// to a fully serialised one. The `String` starts from an estimate of
    /// the body's size and is shrunk to its exact length once written.
    #[must_use]
    pub fn rendered_body(&self) -> &str {
        self.rendered.get_or_init(|| self.render_fields(true))
    }

    /// The `detail: no_schedule` projection of
    /// [`rendered_body`](Self::rendered_body): identical except `schedule`
    /// is `null`. Rendered once per solve like the full body, so trimmed
    /// responses keep the splice-don't-serialise fast path.
    #[must_use]
    pub fn rendered_body_no_schedule(&self) -> &str {
        self.rendered_no_schedule
            .get_or_init(|| self.render_fields(false))
    }
}

struct Entry {
    instance: SuuInstance,
    solver: String,
    /// Engine variant of the request that computed this entry (see
    /// [`SolveOptions::engine_variant`](crate::protocol::SolveOptions::engine_variant)).
    variant: u8,
    value: CachedSolve,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    /// Digest → entries with that digest (usually exactly one).
    entries: HashMap<u64, Vec<Entry>>,
    len: usize,
    tick: u64,
    /// Lookup hits on this shard. Counted under the shard lock the lookup
    /// already holds, so per-shard accounting costs no extra synchronisation.
    hits: u64,
    /// Lookup misses on this shard.
    misses: u64,
    /// LRU evictions performed by this shard.
    evictions: u64,
}

/// Point-in-time counters of one cache shard (see
/// [`ScheduleCache::shard_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Entries currently cached in the shard.
    pub entries: u64,
    /// Lookup hits since creation.
    pub hits: u64,
    /// Lookup misses since creation.
    pub misses: u64,
    /// LRU evictions since creation.
    pub evictions: u64,
}

/// One shard of the warm-basis index: `(structural digest, solver name)` →
/// the final simplex basis (and its LU factors) of the most recent solve in
/// that structural class, with tick-based LRU recency. The factors live in
/// an `Arc`, so the shard lock covers only a reference-count bump; the copy
/// a lookup hands out is made after the lock is released.
#[derive(Default)]
struct BasisShard {
    entries: HashMap<(u64, String), (BasisDonor, u64)>,
    tick: u64,
}

/// A stored warm-start donor: the basis column set plus the Forrest–Tomlin
/// LU factors that invert it.
#[derive(Clone, Default)]
struct BasisDonor {
    basis: Vec<usize>,
    factors: Option<Arc<LuFactors>>,
}

/// The sharded LRU schedule cache.
pub struct ScheduleCache {
    shards: Vec<Mutex<Shard>>,
    /// Warm-basis index, sharded like the main cache but keyed by
    /// **structural** digest: instances that differ only in probability
    /// values share a key, which is exactly when a parent's basis is a
    /// legal warm start for the child's LP.
    basis_shards: Vec<Mutex<BasisShard>>,
    capacity_per_shard: usize,
}

impl ScheduleCache {
    /// Creates a cache with the given sharding.
    #[must_use]
    pub fn new(config: &CacheConfig) -> Self {
        let num_shards = config.num_shards.max(1);
        Self {
            shards: (0..num_shards)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            basis_shards: (0..num_shards)
                .map(|_| Mutex::new(BasisShard::default()))
                .collect(),
            capacity_per_shard: config.capacity_per_shard.max(1),
        }
    }

    fn shard_for(&self, digest: u64) -> &Mutex<Shard> {
        &self.shards[(digest % self.shards.len() as u64) as usize]
    }

    fn basis_shard_for(&self, digest: u64) -> &Mutex<BasisShard> {
        &self.basis_shards[(digest % self.basis_shards.len() as u64) as usize]
    }

    /// Looks up a cached base instance by canonical digest — the resolution
    /// step of a `base_digest` delta request. Digest collisions are
    /// impossible to exclude, so the caller gets the full stored instance
    /// (the digest check is exact equality on the digest, and every entry
    /// stores the instance it was computed from). Refreshes the entry's
    /// recency: a tenant actively sending deltas keeps its base alive.
    #[must_use]
    pub fn lookup_base(&self, digest: u64) -> Option<SuuInstance> {
        let mut shard = self.shard_for(digest).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        let bucket = shard.entries.get_mut(&digest)?;
        let entry = bucket.first_mut()?;
        entry.last_used = tick;
        Some(entry.instance.clone())
    }

    /// Stores the final simplex basis of a solve (and, when captured, its LU
    /// factors), keyed by the instance's structural digest and the solver
    /// that produced it. Overwrites any previous basis in the same
    /// structural class — the most recent solve is the best donor for the
    /// next one.
    pub fn store_basis(
        &self,
        structural_digest: u64,
        solver: &str,
        basis: Vec<usize>,
        factors: Option<LuFactors>,
    ) {
        let donor = BasisDonor {
            basis,
            factors: factors.map(Arc::new),
        };
        let mut shard = self
            .basis_shard_for(structural_digest)
            .lock()
            .expect("basis shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        shard
            .entries
            .insert((structural_digest, solver.to_string()), (donor, tick));
        if shard.entries.len() > self.capacity_per_shard {
            if let Some(lru) = shard
                .entries
                .iter()
                .min_by_key(|(_, &(_, used))| used)
                .map(|(k, _)| k.clone())
            {
                shard.entries.remove(&lru);
            }
        }
    }

    /// Looks up a donor for the given structural class, refreshing its
    /// recency on a hit. Returns a ready-to-install [`WarmStart`]; the LU
    /// factors are deep-copied out of the shared entry. A solve stores them
    /// [compacted](LuFactors::compact) into a handful of flat arrays, so
    /// the copy is about twenty allocations and a memcpy of the live factor
    /// bytes whatever the basis dimension — a few microseconds against the
    /// hundreds a refactorisation of the donor basis costs — and dropping
    /// the entry a store overwrites frees the same handful of blocks.
    #[must_use]
    pub fn lookup_basis(&self, structural_digest: u64, solver: &str) -> Option<WarmStart> {
        let donor = {
            let mut shard = self
                .basis_shard_for(structural_digest)
                .lock()
                .expect("basis shard poisoned");
            shard.tick += 1;
            let tick = shard.tick;
            let entry = shard
                .entries
                .get_mut(&(structural_digest, solver.to_string()))?;
            entry.1 = tick;
            entry.0.clone()
        };
        // The deep copy happens outside the shard lock.
        Some(WarmStart {
            basis: donor.basis,
            factors: donor.factors.map(|f| (*f).clone()),
        })
    }

    /// Looks up the cached solve of `instance` by `solver` under the given
    /// engine `variant`, refreshing its recency on a hit.
    #[must_use]
    pub fn get(&self, instance: &SuuInstance, solver: &str, variant: u8) -> Option<CachedSolve> {
        let digest = instance.canonical_digest();
        let mut shard = self.shard_for(digest).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        let found = shard.entries.get_mut(&digest).and_then(|bucket| {
            bucket
                .iter_mut()
                .find(|e| e.solver == solver && e.variant == variant && e.instance == *instance)
        });
        match found {
            Some(entry) => {
                entry.last_used = tick;
                let value = entry.value.clone();
                shard.hits += 1;
                Some(value)
            }
            None => {
                shard.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) the solve result for `instance` under the
    /// given engine `variant`, evicting the least recently used entry of the
    /// shard if it is full.
    pub fn insert(&self, instance: &SuuInstance, variant: u8, value: CachedSolve) {
        let digest = instance.canonical_digest();
        let mut shard = self.shard_for(digest).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;

        let bucket = shard.entries.entry(digest).or_default();
        if let Some(entry) = bucket
            .iter_mut()
            .find(|e| e.solver == value.solver && e.variant == variant && e.instance == *instance)
        {
            entry.value = value;
            entry.last_used = tick;
            return;
        }
        bucket.push(Entry {
            instance: instance.clone(),
            solver: value.solver.clone(),
            variant,
            value,
            last_used: tick,
        });
        shard.len += 1;

        if shard.len > self.capacity_per_shard {
            // Evict the globally least recently used entry of this shard.
            let lru = shard
                .entries
                .iter()
                .flat_map(|(&d, bucket)| bucket.iter().map(move |e| (d, e.last_used)))
                .min_by_key(|&(_, used)| used);
            if let Some((lru_digest, lru_used)) = lru {
                let mut removed = false;
                let mut empty = false;
                if let Some(bucket) = shard.entries.get_mut(&lru_digest) {
                    if let Some(pos) = bucket.iter().position(|e| e.last_used == lru_used) {
                        bucket.remove(pos);
                        removed = true;
                    }
                    empty = bucket.is_empty();
                }
                if removed {
                    shard.len -= 1;
                    shard.evictions += 1;
                }
                if empty {
                    shard.entries.remove(&lru_digest);
                }
            }
        }
    }

    /// Total number of cached entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len)
            .sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of lookup hits since creation, across all shards.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.shard_stats().iter().map(|s| s.hits).sum()
    }

    /// Number of lookup misses since creation, across all shards.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.shard_stats().iter().map(|s| s.misses).sum()
    }

    /// Number of LRU evictions since creation, across all shards.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.shard_stats().iter().map(|s| s.evictions).sum()
    }

    /// Per-shard occupancy and hit/miss/eviction counters, in shard order.
    /// Each shard is read under its own lock, so the vector is per-shard
    /// consistent (not a global atomic snapshot).
    #[must_use]
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("cache shard poisoned");
                ShardStats {
                    entries: shard.len as u64,
                    hits: shard.hits,
                    misses: shard.misses,
                    evictions: shard.evictions,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_core::InstanceBuilder;
    use suu_workloads::uniform_matrix;

    fn instance(seed: u64) -> SuuInstance {
        InstanceBuilder::new(3, 2)
            .probability_matrix(uniform_matrix(3, 2, 0.2, 0.9, seed))
            .build()
            .unwrap()
    }

    fn solve_for(inst: &SuuInstance, solver: &str) -> CachedSolve {
        CachedSolve::new(
            solver.to_string(),
            ObliviousSchedule::new(inst.num_machines()),
            None,
            None,
            None,
            false,
        )
    }

    #[test]
    fn get_miss_then_hit() {
        let cache = ScheduleCache::new(&CacheConfig::default());
        let inst = instance(1);
        assert!(cache.get(&inst, "suu-c", 0).is_none());
        cache.insert(&inst, 0, solve_for(&inst, "suu-c"));
        let hit = cache.get(&inst, "suu-c", 0).unwrap();
        assert_eq!(hit.solver, "suu-c");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn solver_name_is_part_of_the_key() {
        let cache = ScheduleCache::new(&CacheConfig::default());
        let inst = instance(2);
        cache.insert(&inst, 0, solve_for(&inst, "suu-c"));
        assert!(cache.get(&inst, "suu-i-obl", 0).is_none());
        assert!(cache.get(&inst, "suu-c", 0).is_some());
    }

    #[test]
    fn different_instances_do_not_collide() {
        let cache = ScheduleCache::new(&CacheConfig::default());
        let a = instance(3);
        let b = instance(4);
        cache.insert(&a, 0, solve_for(&a, "s"));
        assert!(cache.get(&b, "s", 0).is_none());
    }

    #[test]
    fn insert_refreshes_existing_entry_without_growing() {
        let cache = ScheduleCache::new(&CacheConfig::default());
        let inst = instance(5);
        cache.insert(&inst, 0, solve_for(&inst, "s"));
        cache.insert(&inst, 0, solve_for(&inst, "s"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        // One shard of capacity 2 so eviction order is fully deterministic.
        let cache = ScheduleCache::new(&CacheConfig {
            num_shards: 1,
            capacity_per_shard: 2,
        });
        let a = instance(10);
        let b = instance(11);
        let c = instance(12);
        cache.insert(&a, 0, solve_for(&a, "s"));
        cache.insert(&b, 0, solve_for(&b, "s"));
        // Touch `a` so `b` becomes the LRU entry.
        assert!(cache.get(&a, "s", 0).is_some());
        cache.insert(&c, 0, solve_for(&c, "s"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&a, "s", 0).is_some());
        assert!(cache.get(&b, "s", 0).is_none());
        assert!(cache.get(&c, "s", 0).is_some());
    }

    #[test]
    fn shard_stats_track_occupancy_hits_misses_and_evictions() {
        let cache = ScheduleCache::new(&CacheConfig {
            num_shards: 1,
            capacity_per_shard: 2,
        });
        let a = instance(20);
        let b = instance(21);
        let c = instance(22);
        assert!(cache.get(&a, "s", 0).is_none());
        cache.insert(&a, 0, solve_for(&a, "s"));
        cache.insert(&b, 0, solve_for(&b, "s"));
        assert!(cache.get(&a, "s", 0).is_some());
        cache.insert(&c, 0, solve_for(&c, "s"));

        let stats = cache.shard_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(
            stats[0],
            ShardStats {
                entries: 2,
                hits: 1,
                misses: 1,
                evictions: 1,
            }
        );
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        let total_entries: u64 = stats.iter().map(|s| s.entries).sum();
        assert_eq!(total_entries, cache.len() as u64);
    }

    #[test]
    fn lookup_base_resolves_cached_digests_and_refreshes_recency() {
        let cache = ScheduleCache::new(&CacheConfig {
            num_shards: 1,
            capacity_per_shard: 2,
        });
        let a = instance(30);
        let b = instance(31);
        let c = instance(32);
        assert!(cache.lookup_base(a.canonical_digest()).is_none());
        cache.insert(&a, 0, solve_for(&a, "s"));
        cache.insert(&b, 0, solve_for(&b, "s"));
        assert_eq!(cache.lookup_base(a.canonical_digest()), Some(a.clone()));
        // The base lookup refreshed `a`, so inserting `c` evicts `b`.
        cache.insert(&c, 0, solve_for(&c, "s"));
        assert!(cache.lookup_base(a.canonical_digest()).is_some());
        assert!(cache.lookup_base(b.canonical_digest()).is_none());
    }

    #[test]
    fn basis_index_stores_by_structural_class_and_solver() {
        let cache = ScheduleCache::new(&CacheConfig::default());
        let inst = instance(40);
        let structural = inst.structural_digest();
        assert!(cache.lookup_basis(structural, "suu-c").is_none());
        cache.store_basis(structural, "suu-c", vec![0, 2, 4], None);
        let donor = cache.lookup_basis(structural, "suu-c").unwrap();
        assert_eq!(donor.basis, vec![0, 2, 4]);
        assert!(donor.factors.is_none());
        assert!(cache.lookup_basis(structural, "suu-forest").is_none());
        // Overwrite: the most recent solve wins.
        cache.store_basis(structural, "suu-c", vec![1, 3, 5], None);
        assert_eq!(
            cache.lookup_basis(structural, "suu-c").unwrap().basis,
            vec![1, 3, 5]
        );
    }

    #[test]
    fn basis_index_is_bounded() {
        let cache = ScheduleCache::new(&CacheConfig {
            num_shards: 1,
            capacity_per_shard: 2,
        });
        cache.store_basis(1, "s", vec![1], None);
        cache.store_basis(2, "s", vec![2], None);
        assert!(cache.lookup_basis(1, "s").is_some()); // refresh: 2 is LRU
        cache.store_basis(3, "s", vec![3], None);
        assert!(cache.lookup_basis(1, "s").is_some());
        assert!(cache.lookup_basis(2, "s").is_none(), "LRU basis evicted");
        assert!(cache.lookup_basis(3, "s").is_some());
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let cache = Arc::new(ScheduleCache::new(&CacheConfig {
            num_shards: 4,
            capacity_per_shard: 16,
        }));
        let instances: Vec<SuuInstance> = (0..8).map(instance).collect();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let instances = instances.clone();
                std::thread::spawn(move || {
                    for round in 0..50 {
                        let inst = &instances[(t + round) % instances.len()];
                        if cache.get(inst, "s", 0).is_none() {
                            cache.insert(inst, 0, solve_for(inst, "s"));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() <= 8);
        assert!(cache.hits() + cache.misses() == 200);
    }
}
