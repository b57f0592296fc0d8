//! The version-keyed warm-start cache.
//!
//! Serving traffic revisits rankings: clients poll `current_ranking` while
//! edits trickle in, dashboards re-read recent versions, and every new
//! solve wants the *nearest previous* spectral state as its warm start.
//! [`WarmStartCache`] is a small capacity-bounded LRU keyed by the
//! [`ResponseLog`](hnd_response::ResponseLog) version: lookups by exact
//! version serve repeat reads for free, and [`WarmStartCache::latest`]
//! hands the *highest-version* state to warm-start the next solve —
//! independent of access recency, so client reads of old versions can
//! never change (or evict) what the engine resumes from.
//!
//! The cache is deliberately dependency-free (a `Vec` scanned linearly):
//! capacities are single digits to low hundreds — the state vectors
//! themselves (`m` floats each) dominate the footprint, not the scan.

use hnd_core::SolveState;
use hnd_response::Ranking;

/// One cached solve: the ranking served to clients and the spectral state
/// used to warm-start subsequent solves.
#[derive(Debug, Clone)]
pub struct CachedSolve {
    /// The log version this solve corresponds to.
    pub version: u64,
    /// The (oriented) ranking at that version.
    pub ranking: Ranking,
    /// The raw spectral state at that version.
    pub state: SolveState,
}

/// A capacity-bounded LRU of [`CachedSolve`]s keyed by log version.
#[derive(Debug)]
pub struct WarmStartCache {
    /// Entries in LRU order: index 0 = least recently used.
    entries: Vec<CachedSolve>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl WarmStartCache {
    /// Creates a cache holding at most `capacity` solves (min 1).
    pub fn new(capacity: usize) -> Self {
        WarmStartCache {
            entries: Vec::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached solves.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` counters for observability.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Looks up an exact version, promoting it to most-recently-used.
    pub fn get(&mut self, version: u64) -> Option<&CachedSolve> {
        match self.entries.iter().position(|e| e.version == version) {
            Some(pos) => {
                self.hits += 1;
                let entry = self.entries.remove(pos);
                self.entries.push(entry);
                self.entries.last()
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up an exact version without touching LRU order or counters
    /// (a second read of an entry [`Self::get`] just counted).
    pub(crate) fn peek(&self, version: u64) -> Option<&CachedSolve> {
        self.entries.iter().find(|e| e.version == version)
    }

    /// The highest-version entry (the natural warm start), without
    /// touching LRU order or counters.
    ///
    /// Deliberately *not* "most recently used": clients re-reading old
    /// versions promote them in LRU order, and a warm start taken from a
    /// promoted stale entry would silently cost extra iterations. The
    /// newest spectral state is always the right one to resume from.
    pub fn latest(&self) -> Option<&CachedSolve> {
        self.entries.iter().max_by_key(|e| e.version)
    }

    /// Consumes the cache, keeping only its [`Self::latest`] entry.
    pub fn into_latest(self) -> Option<CachedSolve> {
        self.entries.into_iter().max_by_key(|e| e.version)
    }

    /// Inserts (or refreshes) a solve, evicting the least recently used
    /// entry when over capacity.
    ///
    /// Recency accounting: [`Self::latest`] takes `&self` and cannot bump
    /// LRU order itself, yet the newest entry is read by *every* solve as
    /// its warm start. That use is accounted here instead — the previous
    /// newest entry is promoted before the new solve is pushed — so the
    /// entry the engine uses most can never be the first evicted.
    pub fn insert(&mut self, solve: CachedSolve) {
        if let Some(newest) = self
            .entries
            .iter()
            .enumerate()
            .max_by_key(|(_, e)| e.version)
            .map(|(pos, _)| pos)
        {
            let entry = self.entries.remove(newest);
            self.entries.push(entry);
        }
        if let Some(pos) = self.entries.iter().position(|e| e.version == solve.version) {
            self.entries.remove(pos);
        }
        self.entries.push(solve);
        if self.entries.len() > self.capacity {
            // The newest entry sits at the back after the promotion above;
            // the true LRU is at the front, and it is never the newest
            // (len ≥ 2 here). The filter is belt-and-braces.
            let newest = self.entries.iter().map(|e| e.version).max().unwrap();
            let victim = self
                .entries
                .iter()
                .position(|e| e.version != newest)
                .expect("a non-newest entry exists");
            self.entries.remove(victim);
        }
    }

    /// Drops every entry (e.g. after a roster change).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(version: u64) -> CachedSolve {
        CachedSolve {
            version,
            ranking: Ranking::from_scores(vec![version as f64]),
            state: SolveState::from_scores(vec![version as f64]),
        }
    }

    #[test]
    fn lru_evicts_oldest_unused() {
        let mut cache = WarmStartCache::new(2);
        cache.insert(solve(1));
        cache.insert(solve(2));
        assert!(cache.get(1).is_some()); // promote 1…
        cache.insert(solve(3)); // …but 2 warm-started this solve: evict 1
        assert!(cache.get(1).is_none());
        assert!(cache.get(2).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn latest_tracks_highest_version_not_recency() {
        let mut cache = WarmStartCache::new(4);
        assert!(cache.latest().is_none());
        cache.insert(solve(10));
        cache.insert(solve(11));
        assert_eq!(cache.latest().unwrap().version, 11);
        // A get() promotes in LRU order but must NOT change the warm
        // start: the newest spectral state stays the resume point.
        cache.get(10);
        assert_eq!(cache.latest().unwrap().version, 11);
    }

    #[test]
    fn newest_version_survives_stale_promotion_storm() {
        // Regression: latest() never bumped LRU recency while get() did,
        // so a burst of reads on old versions could make the
        // highest-version entry — the one every warm start uses — the
        // first evicted.
        let mut cache = WarmStartCache::new(3);
        cache.insert(solve(1));
        cache.insert(solve(2));
        cache.insert(solve(3));
        for _ in 0..5 {
            cache.get(1);
            cache.get(2);
            cache.latest(); // warm-start reads: recency-neutral
        }
        cache.insert(solve(4));
        // v3 (the pinned newest at eviction time… now superseded by 4) must
        // not have been the victim: the LRU among {1, 2} went instead.
        assert!(cache.latest().is_some_and(|e| e.version == 4));
        let surviving: Vec<u64> = {
            let mut v: Vec<u64> = (1..=4).filter(|&k| cache.get(k).is_some()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(surviving, vec![2, 3, 4], "eviction follows access order");
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut cache = WarmStartCache::new(2);
        cache.insert(solve(1));
        cache.insert(solve(2));
        cache.insert(solve(1)); // refresh, no growth
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.latest().unwrap().version,
            2,
            "latest = highest version"
        );
    }

    #[test]
    fn hit_miss_counters() {
        let mut cache = WarmStartCache::new(1);
        cache.insert(solve(5));
        cache.get(5);
        cache.get(6);
        assert_eq!(cache.stats(), (1, 1));
    }
}
