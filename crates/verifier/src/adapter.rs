//! Data adapters: the verifier's view of KPI feeds.
//!
//! "We create multiple data adapters to support collecting data from
//! multiple sources" (§3.5.1). The verifier only needs one operation —
//! fetch the series of a (node, KPI, carrier) stream — so the adapter is a
//! single-method trait. Production adapters would front vendor counters
//! or a data lake; tests and experiments use [`ClosureAdapter`] over the
//! netsim KPI synthesizer.

use cornet_stats::TimeSeries;
use cornet_types::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Source of KPI time-series.
pub trait DataAdapter: Sync {
    /// Fetch the series for a node's KPI, optionally confined to one
    /// carrier frequency. `None` when the feed has no such stream — the
    /// analytics must tolerate missing data (§5.3).
    fn series(&self, node: NodeId, kpi: &str, carrier: Option<usize>) -> Option<TimeSeries>;
}

/// Memoizing wrapper around a [`DataAdapter`].
///
/// A verification campaign touches the same streams over and over: the
/// overall analysis and every location slice of every KPI query re-fetch
/// the study and control series, and multiple rules repeat the whole
/// pattern. Production adapters front a data lake, so each fetch is the
/// expensive part. `SeriesCache` extracts each `(node, KPI, carrier)`
/// stream from the underlying adapter once and serves clones afterwards
/// — including negative results (`None` is cached too).
///
/// Thread-safe behind an `RwLock`: concurrent readers don't serialize on
/// cache hits, which stay a single read-locked lookup. Each key owns a
/// once-cell, so threads that miss on the same cold key fetch it exactly
/// once: the first runs the adapter while the others wait for its value.
pub struct SeriesCache<'a> {
    inner: &'a dyn DataAdapter,
    cache: RwLock<HashMap<StreamKey, Arc<OnceLock<Option<TimeSeries>>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// Cache key: one KPI stream is identified by `(node, KPI, carrier)`.
type StreamKey = (NodeId, String, Option<usize>);

impl<'a> SeriesCache<'a> {
    /// Wrap `inner` with an empty cache.
    pub fn new(inner: &'a dyn DataAdapter) -> Self {
        SeriesCache {
            inner,
            cache: RwLock::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Distinct streams fetched so far (including misses cached as
    /// `None`) — a diagnostic for benches and tests.
    pub fn streams_cached(&self) -> usize {
        self.cache.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to the underlying adapter.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

impl DataAdapter for SeriesCache<'_> {
    fn series(&self, node: NodeId, kpi: &str, carrier: Option<usize>) -> Option<TimeSeries> {
        let key = (node, kpi.to_owned(), carrier);
        let read = self.cache.read().unwrap_or_else(|e| e.into_inner());
        if let Some(hit) = read.get(&key).and_then(|cell| cell.get()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        drop(read);
        let cell = Arc::clone(
            self.cache
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .entry(key)
                .or_default(),
        );
        let mut fetched_here = false;
        let value = cell.get_or_init(|| {
            fetched_here = true;
            self.inner.series(node, kpi, carrier)
        });
        let counter = if fetched_here {
            &self.misses
        } else {
            &self.hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value.clone()
    }
}

/// Adapter from a closure.
pub struct ClosureAdapter<F>(pub F);

impl<F> DataAdapter for ClosureAdapter<F>
where
    F: Fn(NodeId, &str, Option<usize>) -> Option<TimeSeries> + Sync,
{
    fn series(&self, node: NodeId, kpi: &str, carrier: Option<usize>) -> Option<TimeSeries> {
        (self.0)(node, kpi, carrier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_adapter_delegates() {
        let adapter = ClosureAdapter(|node: NodeId, kpi: &str, _carrier: Option<usize>| {
            if kpi == "known" {
                Some(TimeSeries::new(0, 60, vec![node.0 as f64]))
            } else {
                None
            }
        });
        assert!(adapter.series(NodeId(1), "known", None).is_some());
        assert!(adapter.series(NodeId(1), "unknown", None).is_none());
        assert_eq!(
            adapter.series(NodeId(7), "known", None).unwrap().values,
            vec![7.0]
        );
    }

    #[test]
    fn series_cache_fetches_each_stream_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let fetches = AtomicUsize::new(0);
        let adapter = ClosureAdapter(|node: NodeId, kpi: &str, _carrier: Option<usize>| {
            fetches.fetch_add(1, Ordering::Relaxed);
            if kpi == "known" {
                Some(TimeSeries::new(0, 60, vec![node.0 as f64]))
            } else {
                None
            }
        });
        let cache = SeriesCache::new(&adapter);
        for _ in 0..5 {
            assert_eq!(
                cache.series(NodeId(3), "known", None).unwrap().values,
                vec![3.0]
            );
            assert!(cache.series(NodeId(3), "unknown", None).is_none());
        }
        assert_eq!(
            fetches.load(Ordering::Relaxed),
            2,
            "one fetch per distinct stream, misses included"
        );
        assert_eq!(cache.streams_cached(), 2);
        assert_eq!(cache.misses(), 2, "two distinct streams fell through");
        assert_eq!(cache.hits(), 8, "remaining lookups served from cache");
        // Distinct carrier = distinct stream.
        cache.series(NodeId(3), "known", Some(1));
        assert_eq!(fetches.load(Ordering::Relaxed), 3);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn racing_misses_on_one_cold_key_fetch_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        const THREADS: usize = 8;
        let fetches = AtomicUsize::new(0);
        let adapter = ClosureAdapter(|node: NodeId, _: &str, _: Option<usize>| {
            fetches.fetch_add(1, Ordering::SeqCst);
            // A slow feed: every racer arrives while the fetch is in flight.
            std::thread::sleep(std::time::Duration::from_millis(50));
            Some(TimeSeries::new(0, 60, vec![node.0 as f64]))
        });
        let cache = SeriesCache::new(&adapter);
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    start.wait();
                    let series = cache.series(NodeId(5), "thr", None).expect("stream");
                    assert_eq!(series.values, vec![5.0]);
                });
            }
        });
        assert_eq!(fetches.load(Ordering::SeqCst), 1, "one fetch for one key");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), THREADS - 1, "the waiters count as hits");
        assert_eq!(cache.streams_cached(), 1);
    }
}
