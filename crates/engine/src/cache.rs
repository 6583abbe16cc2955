//! The sharded LRU plan cache: from [`CACHE_MIN_ORDER`] up, a
//! repeated permutation never pays set-up twice.
//!
//! Keys are the stable 64-bit fingerprint of the permutation
//! ([`benes_perm::Permutation::fingerprint`]); the fingerprint is
//! re-avalanched (splitmix64 finalizer) and masked to select a shard,
//! so concurrent workers rarely contend on the same lock. Each
//! entry stores the full permutation alongside its plan and every hit
//! verifies equality, so a fingerprint collision degrades to a cache
//! miss — never to a wrong plan.
//!
//! Eviction is exact LRU per shard, implemented with a monotonic
//! use-stamp: a hit refreshes the stamp, and an insert into a full shard
//! evicts the entry with the smallest stamp (an `O(shard capacity)` scan
//! that only runs on insert-when-full, off the hit path).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use benes_perm::Permutation;

use crate::plan::Plan;

/// The smallest order whose fresh plans the engine caches (it looks
/// every request up): the least `n` with `h · setup(n) > get +
/// insert(n)`, where `h` is the highest hit rate measured on a
/// benchmark stream (3.3%, EXP-ENGINE's break-even table). Below it an
/// insert costs more than the set-up the expected hits would save.
/// Fault-avoiding plans are cached at every order.
pub const CACHE_MIN_ORDER: u32 = 10;

/// splitmix64 finalizer: avalanches every input bit over every output
/// bit, so any subset of fingerprint bits picks shards uniformly.
fn mix64(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

struct Entry {
    perm: Permutation,
    plan: Arc<Plan>,
    last_used: u64,
}

struct Shard {
    map: HashMap<u64, Entry>,
}

/// A sharded, thread-safe LRU cache from permutations to computed
/// [`Plan`]s.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
///
/// use benes_engine::cache::PlanCache;
/// use benes_engine::plan::{plan, Fallback};
/// use benes_perm::Permutation;
///
/// let cache = PlanCache::new(64, 4);
/// let d = Permutation::from_destinations(vec![3, 0, 1, 2]).unwrap();
/// assert!(cache.get(&d).is_none());
/// cache.insert(&d, Arc::new(plan(&d, Fallback::Waksman).unwrap()));
/// assert!(cache.get(&d).is_some());
/// assert_eq!(cache.len(), 1);
/// ```
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    clock: AtomicU64,
}

impl PlanCache {
    /// Builds a cache holding at most `capacity` plans across
    /// `shards` independently locked shards.
    ///
    /// The shard count is rounded up to a power of two (so shard
    /// selection is a mask of the re-mixed fingerprint) and the
    /// capacity is divided evenly, at least one entry per shard.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `shards == 0`.
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be at least 1");
        assert!(shards > 0, "cache must have at least one shard");
        let shard_count = shards.next_power_of_two();
        let shard_capacity = capacity.div_ceil(shard_count);
        let shards =
            (0..shard_count).map(|_| Mutex::new(Shard { map: HashMap::new() })).collect();
        Self { shards, shard_capacity, clock: AtomicU64::new(0) }
    }

    /// Maps a fingerprint to a shard slot.
    ///
    /// The full 64-bit fingerprint is re-avalanched before masking.
    /// Masking a fixed 16-bit slice (`fingerprint >> 48`) funnelled
    /// every fingerprint family sharing those bits into one shard,
    /// serialising what sharding was meant to parallelise; the
    /// finalizer makes every input bit influence the selected shard.
    fn shard_index(&self, fingerprint: u64) -> usize {
        mix64(fingerprint) as usize & (self.shards.len() - 1)
    }

    fn shard_for(&self, fingerprint: u64) -> &Mutex<Shard> {
        &self.shards[self.shard_index(fingerprint)]
    }

    /// Locks a shard, recovering from poison: a worker that panicked
    /// while holding a shard lock leaves plain map data behind (plans
    /// are immutable `Arc`s; the worst a torn update leaves is a stale
    /// entry, which every hit re-verifies anyway), so the cache stays
    /// usable instead of cascading the panic into every later caller.
    fn lock_shard<'a>(&self, shard: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up the plan cached for `d`, refreshing its recency.
    ///
    /// Returns `None` on a true miss **and** on a fingerprint collision
    /// (the stored permutation is compared for equality).
    #[must_use]
    pub fn get(&self, d: &Permutation) -> Option<Arc<Plan>> {
        self.get_keyed(d.fingerprint(), d)
    }

    /// [`Self::get`] keyed by the caller's `fp == d.fingerprint()`: the
    /// engine hashes each job once, at dequeue.
    pub(crate) fn get_keyed(&self, fp: u64, d: &Permutation) -> Option<Arc<Plan>> {
        let mut shard = self.lock_shard(self.shard_for(fp));
        // The recency stamp is drawn *under* the shard lock: stamps taken
        // before acquiring it could be applied out of order under
        // contention, marking a just-used entry as older than entries
        // touched before it — and evicting the wrong victim.
        // analyze:allow(relaxed-control): the stamp only ranks recency for approximate LRU — a reordered read can evict a slightly-wrong victim, never a wrong answer (hits re-verify the stored permutation)
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let entry = shard.map.get_mut(&fp)?;
        if entry.perm != *d {
            return None;
        }
        entry.last_used = stamp;
        Some(Arc::clone(&entry.plan))
    }

    /// Inserts (or replaces) the plan for `d`, evicting the shard's
    /// least-recently-used entry if the shard is full.
    ///
    /// Concurrent inserts of the same permutation are idempotent: the
    /// map is keyed by fingerprint, so the shard ends with exactly one
    /// entry for `d` no matter how many threads raced.
    pub fn insert(&self, d: &Permutation, plan: Arc<Plan>) {
        self.insert_keyed(d.fingerprint(), d, plan);
    }

    /// [`Self::insert`] keyed by the caller's `fp == d.fingerprint()`.
    pub(crate) fn insert_keyed(&self, fp: u64, d: &Permutation, plan: Arc<Plan>) {
        let mut shard = self.lock_shard(self.shard_for(fp));
        // analyze:allow(relaxed-control): same approximate-LRU argument as `get` — the stamp orders evictions, not correctness
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        if !shard.map.contains_key(&fp) && shard.map.len() >= self.shard_capacity {
            if let Some((&victim, _)) = shard.map.iter().min_by_key(|(_, e)| e.last_used) {
                shard.map.remove(&victim);
            }
        }
        shard.map.insert(fp, Entry { perm: d.clone(), plan, last_used: stamp });
    }

    /// Removes the plan cached for `d`, whose fingerprint is `fp`,
    /// returning whether an entry was dropped. A fingerprint collision
    /// with a *different* permutation is left untouched.
    ///
    /// The engine calls this when a cached plan fails replay: the entry
    /// is corrupt (or the fabric it was computed for has changed), and
    /// leaving it in place would make every future request for `d`
    /// re-pay a failed replay.
    pub(crate) fn invalidate(&self, fp: u64, d: &Permutation) -> bool {
        let mut shard = self.lock_shard(self.shard_for(fp));
        match shard.map.get(&fp) {
            Some(entry) if entry.perm == *d => {
                shard.map.remove(&fp);
                true
            }
            _ => false,
        }
    }

    /// The number of plans currently cached, across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock_shard(s).map.len()).sum()
    }

    /// Whether the cache holds no plans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The maximum number of plans the cache can hold (shard capacity ×
    /// shard count; may slightly exceed the requested capacity due to
    /// rounding).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// The number of shards (always a power of two).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .field("shards", &self.shards.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: &[u32]) -> Permutation {
        Permutation::from_destinations(v.to_vec()).unwrap()
    }

    fn dummy_plan() -> Arc<Plan> {
        Arc::new(Plan::SelfRoute)
    }

    /// Rotations of 0..len give an unbounded family of distinct keys.
    fn rotation(len: usize, k: usize) -> Permutation {
        Permutation::from_fn(len, |i| (i + k as u32) % len as u32).unwrap()
    }

    #[test]
    fn insert_get_roundtrip() {
        let cache = PlanCache::new(8, 2);
        let d = p(&[1, 0, 3, 2]);
        assert!(cache.get(&d).is_none());
        cache.insert(&d, dummy_plan());
        assert_eq!(cache.get(&d).as_deref(), Some(&Plan::SelfRoute));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn reinsert_is_idempotent() {
        let cache = PlanCache::new(8, 1);
        let d = p(&[1, 0, 3, 2]);
        cache.insert(&d, dummy_plan());
        cache.insert(&d, dummy_plan());
        cache.insert(&d, dummy_plan());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_oldest_and_hits_refresh() {
        // Single shard of capacity 2 makes the eviction order exact.
        let cache = PlanCache::new(2, 1);
        let a = rotation(8, 1);
        let b = rotation(8, 2);
        let c = rotation(8, 3);
        cache.insert(&a, dummy_plan());
        cache.insert(&b, dummy_plan());
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.get(&a).is_some());
        cache.insert(&c, dummy_plan());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&a).is_some(), "recently used entry survived");
        assert!(cache.get(&b).is_none(), "LRU entry evicted");
        assert!(cache.get(&c).is_some());
    }

    #[test]
    fn capacity_is_bounded_under_churn() {
        let cache = PlanCache::new(16, 4);
        for k in 0..200 {
            cache.insert(&rotation(256, k), dummy_plan());
        }
        assert!(cache.len() <= cache.capacity());
        assert!(cache.capacity() >= 16);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(PlanCache::new(16, 3).shard_count(), 4);
        assert_eq!(PlanCache::new(16, 1).shard_count(), 1);
    }

    #[test]
    fn invalidate_removes_exactly_the_named_entry() {
        let cache = PlanCache::new(8, 2);
        let a = rotation(8, 1);
        let b = rotation(8, 2);
        cache.insert(&a, dummy_plan());
        cache.insert(&b, dummy_plan());
        assert!(cache.invalidate(a.fingerprint(), &a));
        assert!(cache.get(&a).is_none(), "invalidated entry is gone");
        assert!(cache.get(&b).is_some(), "other entries untouched");
        assert!(!cache.invalidate(a.fingerprint(), &a), "second invalidation is a no-op");
        assert!(
            !cache.invalidate(rotation(8, 3).fingerprint(), &rotation(8, 3)),
            "absent key is a no-op"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn poisoned_shard_lock_recovers_instead_of_cascading() {
        // Regression: every lock site used `.expect("cache shard
        // poisoned")`, so one panic while holding a shard lock turned
        // every later cache call (and Engine::drop via len()) into
        // another panic. Poison one shard deliberately and verify the
        // full API still works.
        let cache = Arc::new(PlanCache::new(8, 1));
        let d = p(&[1, 0, 3, 2]);
        cache.insert(&d, dummy_plan());
        let poisoner = Arc::clone(&cache);
        std::thread::spawn(move || {
            let _guard = poisoner.shard_for(0).lock().unwrap();
            panic!("poison the shard on purpose");
        })
        .join()
        .unwrap_err();
        assert!(cache.shard_for(0).is_poisoned(), "setup must actually poison");
        assert_eq!(cache.get(&d).as_deref(), Some(&Plan::SelfRoute));
        cache.insert(&rotation(8, 1), dummy_plan());
        assert_eq!(cache.len(), 2);
        assert!(cache.invalidate(d.fingerprint(), &d));
        assert!(!cache.is_empty());
    }

    #[test]
    fn lru_order_survives_contention() {
        // Regression: the recency stamp was drawn from the global clock
        // *before* acquiring the shard lock, so two racing touches could
        // apply their stamps out of order and a just-used entry could be
        // evicted. With stamps drawn under the lock, the last completed
        // touch always has the newest stamp — so after the contention
        // storm, a serialized touch-then-insert can never evict the
        // entry just touched.
        for round in 0..20 {
            let cache = Arc::new(PlanCache::new(2, 1));
            let hot = rotation(16, 1);
            let cold = rotation(16, 2);
            cache.insert(&hot, dummy_plan());
            cache.insert(&cold, dummy_plan());
            let barrier = Arc::new(std::sync::Barrier::new(4));
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let cache = Arc::clone(&cache);
                    let hot = hot.clone();
                    let cold = cold.clone();
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        for i in 0..200 {
                            if (t + i) % 2 == 0 {
                                let _ = cache.get(&hot);
                            } else {
                                let _ = cache.get(&cold);
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            // Serialized epilogue: touch `hot`, then insert a third entry
            // into the full shard. `hot` now holds the newest stamp, so
            // the eviction scan must pick the other entry.
            assert!(cache.get(&hot).is_some());
            cache.insert(&rotation(16, 3 + round), dummy_plan());
            assert!(
                cache.get(&hot).is_some(),
                "round {round}: just-touched entry was evicted"
            );
        }
    }

    #[test]
    fn concurrent_same_key_inserts_leave_one_entry() {
        let cache = Arc::new(PlanCache::new(64, 8));
        let d = p(&[3, 0, 1, 2]);
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let d = d.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..100 {
                        cache.insert(&d, Arc::new(Plan::SelfRoute));
                        assert!(cache.get(&d).is_some());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.len(), 1, "no torn or duplicate entries");
    }

    #[test]
    fn shard_selector_spreads_fingerprints_sharing_high_bits() {
        // Regression: `shard_for` masked `fingerprint >> 48`, so any
        // family of fingerprints agreeing on bits 48..63 — e.g. values
        // differing only in their low bits — all landed in one shard,
        // serialising every lookup behind a single lock. The re-mixed
        // selector must spread such families across all shards.
        let cache = PlanCache::new(64, 8);
        let shards = cache.shards.len();
        // 256 fingerprints identical in the top 16 bits.
        let mut used = vec![0usize; shards];
        for low in 0..256u64 {
            used[cache.shard_index(0xdead_u64 << 48 | low)] += 1;
        }
        assert!(
            used.iter().all(|&c| c > 0),
            "high-bit-sharing fingerprints must reach every shard, got {used:?}"
        );
        let max = used.iter().copied().max().unwrap();
        assert!(
            max < 256 / shards * 3,
            "distribution badly skewed across {shards} shards: {used:?}"
        );
        // And the old failure mode, verbatim: low-bit-only variation.
        let mut low_only = vec![0usize; shards];
        for low in 0..256u64 {
            low_only[cache.shard_index(low)] += 1;
        }
        assert!(
            low_only.iter().all(|&c| c > 0),
            "fingerprints with clear high bits must reach every shard, got {low_only:?}"
        );
    }
}
