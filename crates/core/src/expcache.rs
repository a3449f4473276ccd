//! Bounded, shard-aware expansion cache with single-flight misses.
//!
//! The paper's regime — millions of users over one knowledge base — is
//! heavily head-weighted: the same few queries arrive over and over,
//! and each one re-runs entity linking, cycle enumeration, and
//! retrieval from scratch. [`ExpansionCache`] sits in front of
//! [`QueryExpander`](crate::service::QueryExpander) and memoizes
//! complete [`ExpansionResponse`]s keyed by the served query text plus
//! the *effective* request knobs, so a repeated query costs one map
//! probe and a clone.
//!
//! Design points:
//!
//! * **Sharded locking** — entries are spread over eight
//!   `parking_lot::Mutex`-protected maps by key hash (the same recipe
//!   as the engine's phrase cache), so concurrent serving threads
//!   rarely contend.
//! * **Single-flight misses** — the first thread to miss a key inserts
//!   a locked result cell *before* computing; concurrent requests for
//!   the same key block on that cell and then share the leader's
//!   response instead of stampeding the expander. (A blocked follower
//!   still counts as a cache hit: it did not compute.)
//! * **Only successes are cached** — a failed expansion removes its
//!   in-flight cell, so transient errors are retried, and error
//!   variants never occupy capacity.
//! * **Approximate LRU** — every entry carries a monotone touch stamp;
//!   when a shard reaches its share of the capacity, the stalest entry
//!   of that shard is evicted. The global entry count is bounded by
//!   `CACHE_SHARDS · max(1, capacity / CACHE_SHARDS)` (equal to
//!   `capacity` once `capacity ≥ CACHE_SHARDS`).
//!
//! Correctness never depends on the cache: expansion is a pure
//! function of the read-only world and the request, so a hit returns
//! exactly what recomputing would — the serving tests pin cached
//! against uncached responses.

use crate::service::{ExpansionResponse, ServiceError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independently locked cache shards.
const CACHE_SHARDS: usize = 8;

/// The memoization key: the served (trimmed) query text plus every
/// knob that shapes the response. Two requests with different raw
/// knobs but the same *effective* values (e.g. a request cap above the
/// builder cap) share an entry, because their uncached responses are
/// identical.
/// Keys are totally ordered (field declaration order, query text
/// first) so eviction can break stamp ties deterministically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CacheKey {
    /// The query text as served (trimmed — exactly the `query` field
    /// of the response).
    pub(crate) query: String,
    /// Effective feature cap (builder cap tightened by the request).
    pub(crate) max_features: Option<usize>,
    /// Effective retrieval depth (0 = expansion only).
    pub(crate) top_k: usize,
    /// The epoch of the generation the request pinned
    /// ([`EngineGeneration::epoch`]): 0 for a fixed engine, the
    /// manifest's generation fingerprint for a slot. A live index swap
    /// installs a new epoch, so entries computed against the old
    /// generation can never answer for the new one — they simply stop
    /// being reachable and age out via LRU.
    ///
    /// [`EngineGeneration::epoch`]:
    ///     querygraph_retrieval::backend::EngineGeneration::epoch
    pub(crate) epoch: u64,
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.query.hash(state);
        self.max_features.hash(state);
        self.top_k.hash(state);
        self.epoch.hash(state);
    }
}

/// One cached (or in-flight) expansion. The cell starts `None` and
/// locked by the computing leader; followers block on the lock, then
/// read the stored response.
struct Entry {
    /// Last-touch stamp for approximate LRU eviction.
    stamp: u64,
    /// The response, once the leader stores it.
    cell: Arc<Mutex<Option<ExpansionResponse>>>,
}

/// Bounded memoization of query → [`ExpansionResponse`] (see the
/// module docs). Share behind `Arc`; every method takes `&self`.
pub struct ExpansionCache {
    shards: Vec<Mutex<HashMap<CacheKey, Entry>>>,
    per_shard_cap: usize,
    capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    lookups: AtomicU64,
}

impl std::fmt::Debug for ExpansionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpansionCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("lookups", &self.lookups())
            .finish()
    }
}

impl ExpansionCache {
    /// Cache holding roughly `capacity` responses (see the module docs
    /// for the exact bound). `capacity = 0` disables caching entirely:
    /// every lookup computes.
    pub fn new(capacity: usize) -> ExpansionCache {
        let per_shard_cap = if capacity == 0 {
            0
        } else {
            (capacity / CACHE_SHARDS).max(1)
        };
        ExpansionCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            per_shard_cap,
            capacity,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
        }
    }

    /// Entries currently resident (including in-flight cells).
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Lookups answered from the cache (including followers that
    /// waited out a single-flight computation).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// `hits / lookups`, or 0.0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits() as f64 / lookups as f64
        }
    }

    fn slot(key: &CacheKey) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        h.finish() as usize % CACHE_SHARDS
    }

    /// Return the cached response for `key`, or run `compute` exactly
    /// once per concurrent cohort (single-flight) and cache its
    /// success. Errors propagate uncached.
    pub(crate) fn get_or_compute<F>(
        &self,
        key: &CacheKey,
        compute: F,
    ) -> Result<ExpansionResponse, ServiceError>
    where
        F: FnOnce() -> Result<ExpansionResponse, ServiceError>,
    {
        if self.per_shard_cap == 0 {
            return compute();
        }
        self.lookups.fetch_add(1, Ordering::Relaxed);
        // Touch stamps are draws from a shared u64 counter. Wrap-around
        // is assumed unreachable, not handled: at 10^9 lookups/second
        // the counter overflows after ~584 years, and a wrapped stamp
        // would only misorder LRU eviction (a performance matter),
        // never correctness — entries are still valid responses.
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let shard = &self.shards[Self::slot(key)];

        // A fresh cell, locked *before* it can become visible: if this
        // thread turns out to lead the miss, followers block on the
        // cell until the computation resolves.
        let fresh = Arc::new(Mutex::new(None));
        let mut fresh_guard = Some(fresh.lock());

        let existing = {
            let mut map = shard.lock();
            match map.get_mut(key) {
                Some(entry) => {
                    entry.stamp = stamp; // LRU touch
                    Some(entry.cell.clone())
                }
                None => {
                    if map.len() >= self.per_shard_cap {
                        // Stalest entry first; equal stamps (possible
                        // only if the clock ever wrapped) fall back to
                        // key order, so the victim never depends on
                        // HashMap iteration order.
                        let victim = map
                            .iter()
                            .min_by(|a, b| a.1.stamp.cmp(&b.1.stamp).then_with(|| a.0.cmp(b.0)))
                            .map(|(k, _)| k.clone());
                        if let Some(v) = victim {
                            map.remove(&v);
                        }
                    }
                    map.insert(
                        key.clone(),
                        Entry {
                            stamp,
                            cell: fresh.clone(),
                        },
                    );
                    None
                }
            }
        };

        if let Some(cell) = existing {
            drop(fresh_guard.take()); // not the leader; discard the spare
            let slot = cell.lock(); // blocks while a leader computes
            if let Some(resp) = slot.as_ref() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(resp.clone());
            }
            // The leader failed and withdrew the entry: compute
            // uncached (only successes are ever stored).
            drop(slot);
            return compute();
        }

        // Leader: compute while holding the cell lock. The shard lock
        // is NOT held here, so other keys proceed unimpeded; followers
        // of *this* key queue on the cell.
        match compute() {
            Ok(resp) => {
                **fresh_guard.as_mut().expect("leader holds its cell") = Some(resp.clone());
                Ok(resp)
            }
            Err(e) => {
                drop(fresh_guard.take()); // release followers first
                let mut map = shard.lock();
                if let Some(entry) = map.get(key) {
                    // Remove only our own failed cell — a concurrent
                    // re-insert under the same key must survive.
                    if Arc::ptr_eq(&entry.cell, &fresh) {
                        map.remove(key);
                    }
                }
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(q: &str) -> CacheKey {
        CacheKey {
            query: q.to_string(),
            max_features: None,
            top_k: 0,
            epoch: 0,
        }
    }

    fn response(q: &str) -> ExpansionResponse {
        ExpansionResponse {
            query: q.to_string(),
            entities: Vec::new(),
            features: Vec::new(),
            expanded_query: String::new(),
            hits: Vec::new(),
        }
    }

    #[test]
    fn miss_then_hit_counts_and_returns_identical_value() {
        let cache = ExpansionCache::new(16);
        let k = key("venice");
        let mut computes = 0;
        for _ in 0..3 {
            let r = cache
                .get_or_compute(&k, || {
                    computes += 1;
                    Ok(response("venice"))
                })
                .unwrap();
            assert_eq!(r, response("venice"));
        }
        assert_eq!(computes, 1, "one compute, then hits");
        assert_eq!(cache.lookups(), 3);
        assert_eq!(cache.hits(), 2);
        assert!((cache.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_knobs_are_distinct_entries() {
        let cache = ExpansionCache::new(16);
        let a = key("venice");
        let mut b = key("venice");
        b.top_k = 5;
        let mut c = key("venice");
        c.epoch = 1;
        for k in [&a, &b, &c] {
            cache.get_or_compute(k, || Ok(response("venice"))).unwrap();
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn errors_are_not_cached_and_retry() {
        let cache = ExpansionCache::new(16);
        let k = key("broken");
        let mut attempts = 0;
        for _ in 0..2 {
            let err = cache
                .get_or_compute(&k, || {
                    attempts += 1;
                    Err(ServiceError::EmptyQuery)
                })
                .unwrap_err();
            assert_eq!(err, ServiceError::EmptyQuery);
        }
        assert_eq!(attempts, 2, "errors must be retried");
        assert_eq!(cache.hits(), 0);
        assert!(cache.len() == 0, "failed cells must be withdrawn");
        // A success after failures caches normally.
        cache.get_or_compute(&k, || Ok(response("broken"))).unwrap();
        cache.get_or_compute(&k, || panic!("must hit")).unwrap();
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn capacity_is_bounded_with_lru_eviction() {
        let cache = ExpansionCache::new(16); // 2 per shard
        for i in 0..200 {
            let q = format!("query-{i}");
            cache.get_or_compute(&key(&q), || Ok(response(&q))).unwrap();
        }
        assert!(
            cache.len() <= 16,
            "capacity bound violated: {} entries",
            cache.len()
        );
        assert!(cache.len() > 0);
        // Recently inserted keys are still resident (stale ones were
        // the eviction victims); at least the very last key must hit.
        let last = key("query-199");
        let before = cache.hits();
        cache
            .get_or_compute(&last, || panic!("latest key must be resident"))
            .unwrap();
        assert_eq!(cache.hits(), before + 1);
    }

    #[test]
    fn equal_stamp_eviction_victims_are_chosen_in_key_order() {
        // Stamps from the live clock are unique, so equal stamps can
        // only arise after a (documented-unreachable) u64 wrap. Inject
        // that state directly: three same-slot entries, all stamp 7.
        let cache = ExpansionCache::new(CACHE_SHARDS); // 1 per shard
        let mut same_slot: Vec<CacheKey> = Vec::new();
        let target = ExpansionCache::slot(&key("probe-0"));
        for i in 0.. {
            let k = key(&format!("probe-{i}"));
            if ExpansionCache::slot(&k) == target {
                same_slot.push(k);
            }
            if same_slot.len() == 4 {
                break;
            }
        }
        {
            let mut map = cache.shards[target].lock();
            for k in &same_slot[..3] {
                map.insert(
                    k.clone(),
                    Entry {
                        stamp: 7,
                        cell: Arc::new(Mutex::new(Some(response(&k.query)))),
                    },
                );
            }
        }
        // The miss on the fourth key evicts exactly one victim: the
        // smallest key in CacheKey order among the equal stamps.
        cache
            .get_or_compute(&same_slot[3], || Ok(response("fourth")))
            .unwrap();
        let expected_victim = same_slot[..3].iter().min().unwrap().clone();
        let map = cache.shards[target].lock();
        assert!(
            !map.contains_key(&expected_victim),
            "the smallest equal-stamp key must be the victim"
        );
        for k in same_slot[..3].iter().filter(|k| **k != expected_victim) {
            assert!(map.contains_key(k), "non-victims must survive");
        }
        assert!(map.contains_key(&same_slot[3]));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ExpansionCache::new(0);
        let k = key("venice");
        let mut computes = 0;
        for _ in 0..3 {
            cache
                .get_or_compute(&k, || {
                    computes += 1;
                    Ok(response("venice"))
                })
                .unwrap();
        }
        assert_eq!(computes, 3);
        assert_eq!(cache.lookups(), 0);
        assert_eq!(cache.hit_rate(), 0.0);
        assert!(cache.len() == 0);
    }

    #[test]
    fn single_flight_shares_one_computation() {
        use std::sync::atomic::AtomicUsize;
        let cache = Arc::new(ExpansionCache::new(16));
        let computes = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = cache.clone();
                let computes = computes.clone();
                std::thread::spawn(move || {
                    cache
                        .get_or_compute(&key("hot"), || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so followers pile up
                            // behind the in-flight cell.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(response("hot"))
                        })
                        .unwrap()
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), response("hot"));
        }
        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "concurrent identical queries must not stampede"
        );
        assert_eq!(cache.lookups(), 8);
        assert_eq!(cache.hits(), 7);
    }

    #[test]
    fn single_flight_does_not_serialize_distinct_keys() {
        // Two leaders computing *different* keys must be in flight at
        // the same time: a leader holds only its own cell's lock while
        // computing (the shard lock is released), so single-flight
        // dedup of identical queries must not serialize the rest of
        // the mix. Each closure waits until BOTH computations have
        // started; if the cache held a shard- or cache-wide lock
        // during compute, neither could see the other and both would
        // time out.
        use std::sync::atomic::AtomicUsize;
        use std::time::{Duration, Instant};
        let cache = Arc::new(ExpansionCache::new(16));
        let started = Arc::new(AtomicUsize::new(0));
        let wait_for_both = |started: &AtomicUsize| {
            started.fetch_add(1, Ordering::SeqCst);
            let t0 = Instant::now();
            while started.load(Ordering::SeqCst) < 2 {
                if t0.elapsed() > Duration::from_secs(5) {
                    return false; // fail the test, don't hang it
                }
                std::thread::yield_now();
            }
            true
        };
        let threads: Vec<_> = ["left", "right"]
            .into_iter()
            .map(|q| {
                let cache = cache.clone();
                let started = started.clone();
                std::thread::spawn(move || {
                    let mut overlapped = false;
                    let got = cache
                        .get_or_compute(&key(q), || {
                            overlapped = wait_for_both(&started);
                            Ok(response(q))
                        })
                        .unwrap();
                    assert_eq!(got, response(q));
                    overlapped
                })
            })
            .collect();
        for t in threads {
            assert!(
                t.join().unwrap(),
                "distinct keys must compute concurrently, not serialize"
            );
        }
    }
}
