//! Ground-truth staleness oracle.
//!
//! The simulation can do something the paper's real deployments cannot: know
//! *exactly* which reads were stale. The oracle tracks, per key, the sequence
//! of write versions in the order their consistency level was satisfied
//! (acknowledged to the client). A read issued at time `t` is stale if it
//! returns a version older than the newest version acknowledged before `t`.
//! This is the same definition the Monte-Carlo staleness estimator and the
//! Harmony model use, so measured and estimated rates are directly
//! comparable (as they are in the paper's Harmony evaluation).
//!
//! Like [`ReplicaStore`](crate::ReplicaStore), the per-key state lives in
//! the shared [`PagedTable`] over the dense record-id space instead of a
//! hash map: `record_ack` / `classify_read_at` run once per simulated
//! operation, and with direct indexing each is a shift, a mask and a load.
//! Each slot keeps the binary-searched bounded version history that
//! staleness *depth* is computed from; vacancy is this table's own
//! convention (`acked_writes == 0`), per the [`PagedTable`] contract.

use crate::paged::PagedTable;
use crate::types::{Key, Version};
use concord_sim::SimTime;
use std::collections::VecDeque;

/// How many recent acknowledged versions are kept per key for computing the
/// staleness *depth*. Older history is dropped (the depth saturates), which
/// bounds the oracle's memory for long runs.
const DEPTH_HISTORY: usize = 64;

/// Per-key acknowledged-write bookkeeping. A slot with `acked_writes == 0`
/// is vacant (the key was never preloaded nor acknowledged).
#[derive(Debug, Clone, Default)]
struct KeyHistory {
    /// Number of acknowledged writes so far (used for staleness depth).
    acked_writes: u64,
    /// Recent (version, ack index, ack time) triples, newest at the back;
    /// bounded to [`DEPTH_HISTORY`] entries. The ack time lets
    /// [`StalenessOracle::expected_version_at`] answer "what was the newest
    /// acknowledged version at instant `t`" retroactively — the cluster
    /// records acks at window folds and classifies each read against its
    /// own issue instant, so classification does not depend on which fold
    /// recorded which ack.
    version_order: VecDeque<(Version, u64, SimTime)>,
    /// Whether `version_order` is sorted by version. Acks almost always
    /// arrive in version order (versions are timestamp-packed at write
    /// start and acknowledgements follow in simulation-time order), so
    /// depth lookups can binary-search; a rare out-of-order ack of two
    /// overlapping writes flips this and falls back to the linear scan.
    unsorted: bool,
}

impl KeyHistory {
    fn push_version(&mut self, version: Version, index: u64, at: SimTime) {
        if let Some(&(back, _, _)) = self.version_order.back() {
            if back > version {
                self.unsorted = true;
            }
        }
        self.version_order.push_back((version, index, at));
        if self.version_order.len() > DEPTH_HISTORY {
            self.version_order.pop_front();
        }
    }

    fn index_of(&self, version: Version) -> Option<u64> {
        if self.unsorted {
            // Out-of-order history: last occurrence wins, as before.
            return self
                .version_order
                .iter()
                .rev()
                .find(|(v, _, _)| *v == version)
                .map(|(_, i, _)| *i);
        }
        // Versions are globally unique, so a sorted history has at most one
        // match: O(log n) instead of a linear reverse scan.
        self.version_order
            .binary_search_by(|(v, _, _)| v.cmp(&version))
            .ok()
            .map(|i| self.version_order[i].1)
    }
}

/// The staleness oracle.
#[derive(Debug, Clone)]
pub struct StalenessOracle {
    /// Per-key history in the shared paged table (pages allocated on the
    /// first preload/ack that touches them; lookups never allocate).
    table: PagedTable<KeyHistory>,
    /// Number of keys ever touched (slots with `acked_writes > 0`).
    keys: usize,
    stale_reads: u64,
    fresh_reads: u64,
    /// Sum of staleness depths over stale reads (for the average).
    stale_depth_sum: u64,
}

impl Default for StalenessOracle {
    fn default() -> Self {
        StalenessOracle {
            table: PagedTable::new(KeyHistory::default()),
            keys: 0,
            stale_reads: 0,
            fresh_reads: 0,
            stale_depth_sum: 0,
        }
    }
}

/// Classification of one read by the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadClassification {
    /// Whether the read returned a value older than the latest version
    /// acknowledged before the read was issued.
    pub stale: bool,
    /// How many acknowledged writes the returned value lags behind.
    pub depth: u32,
}

impl StalenessOracle {
    /// An empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// The history slot for `key`, if its page exists (never allocates).
    #[inline]
    fn slot(&self, key: Key) -> Option<&KeyHistory> {
        let h = self.table.get(key.0)?;
        (h.acked_writes > 0).then_some(h)
    }

    /// The history slot for `key`, allocating its page on first touch and
    /// counting the key when it is new.
    #[inline]
    fn slot_mut(&mut self, key: Key) -> &mut KeyHistory {
        let h = self.table.get_mut(key.0);
        if h.acked_writes == 0 {
            self.keys += 1;
        }
        h
    }

    /// Record that `version` of `key` was just preloaded (bulk load before
    /// the measured run): it becomes the acknowledged baseline, timestamped
    /// at time zero so every retroactive query sees it.
    pub fn preload(&mut self, key: Key, version: Version) {
        let h = self.slot_mut(key);
        h.acked_writes += 1;
        let idx = h.acked_writes;
        h.push_version(version, idx, SimTime::ZERO);
    }

    /// Record that a write of `version` to `key` satisfied its consistency
    /// level (i.e. was acknowledged to the client) at `at`. The cluster
    /// calls this at window folds, where acks from one window land in fixed
    /// shard order carrying their true ack times (within one fold the times
    /// may interleave across shards, which is why retroactive queries go by
    /// the stored time, not the record order).
    pub fn record_ack(&mut self, key: Key, version: Version, at: SimTime) {
        let h = self.slot_mut(key);
        h.acked_writes += 1;
        let idx = h.acked_writes;
        h.push_version(version, idx, at);
    }

    /// The newest version of `key` acknowledged strictly before instant
    /// `at`, evaluated retroactively from the bounded history — a read's
    /// freshness requirement as of its issue instant. The cluster records
    /// acks at window folds, so by the fold that completes a read, every
    /// ack that precedes the read's issue instant is in the history (an ack
    /// lands at the fold of the window containing its ack time, and the
    /// issue instant is never later than the completing window's end); acks
    /// recorded after the issue instant are filtered out here by their
    /// stored times.
    ///
    /// Saturation: if every *retained* entry is newer than `at` but older
    /// entries were dropped ([`DEPTH_HISTORY`] acks on one key while a read
    /// was in flight), the true answer lies in the dropped prefix and the
    /// oldest retained version stands in for it — erring toward counting
    /// the read stale, like the depth saturation.
    pub fn expected_version_at(&self, key: Key, at: SimTime) -> Version {
        let Some(h) = self.slot(key) else {
            return Version::NONE;
        };
        let mut best = Version::NONE;
        let mut any_before = false;
        for &(v, _, t) in &h.version_order {
            if t < at {
                any_before = true;
                if v > best {
                    best = v;
                }
            }
        }
        if any_before {
            best
        } else if h.acked_writes as usize > h.version_order.len() {
            // Truncated history with no retained ack before `at`.
            h.version_order
                .front()
                .map(|&(v, _, _)| v)
                .unwrap_or(Version::NONE)
        } else {
            Version::NONE
        }
    }

    /// Classify a completed read that was issued when `expected` was the
    /// newest acknowledged version and returned `returned`, and count it.
    fn classify_read(
        &mut self,
        key: Key,
        expected: Version,
        returned: Version,
    ) -> ReadClassification {
        let stale = returned < expected;
        let depth = if !stale {
            0
        } else {
            match self.slot(key) {
                None => 1,
                Some(h) => {
                    let expected_idx = h.index_of(expected).unwrap_or(0);
                    let returned_idx = h.index_of(returned).unwrap_or(0);
                    expected_idx.saturating_sub(returned_idx).max(1) as u32
                }
            }
        };
        if stale {
            self.stale_reads += 1;
            self.stale_depth_sum += depth as u64;
        } else {
            self.fresh_reads += 1;
        }
        ReadClassification { stale, depth }
    }

    /// Classify a read issued at `issued_at` that returned `returned`,
    /// resolving the freshness expectation retroactively via
    /// [`StalenessOracle::expected_version_at`], and count it. The
    /// cluster's fold-time completion path: it yields the same stale/fresh
    /// decision an inline check at issue time would make on the same event
    /// trace.
    pub fn classify_read_at(
        &mut self,
        key: Key,
        issued_at: SimTime,
        returned: Version,
    ) -> ReadClassification {
        let expected = self.expected_version_at(key, issued_at);
        self.classify_read(key, expected, returned)
    }

    /// Number of reads classified as stale.
    pub fn stale_reads(&self) -> u64 {
        self.stale_reads
    }

    /// Number of reads classified as fresh.
    pub fn fresh_reads(&self) -> u64 {
        self.fresh_reads
    }

    /// Fraction of reads that were stale (0 if no reads were classified).
    pub fn stale_rate(&self) -> f64 {
        let total = self.stale_reads + self.fresh_reads;
        if total == 0 {
            0.0
        } else {
            self.stale_reads as f64 / total as f64
        }
    }

    /// Mean number of acknowledged writes a stale read lagged behind.
    pub fn mean_staleness_depth(&self) -> f64 {
        if self.stale_reads == 0 {
            0.0
        } else {
            self.stale_depth_sum as f64 / self.stale_reads as f64
        }
    }

    /// Number of keys the oracle has seen.
    pub fn key_count(&self) -> usize {
        self.keys
    }

    /// Snapshot this oracle's aggregate counters. The cluster keeps one
    /// central oracle (mutated only at barrier folds), so this snapshot is
    /// the whole cross-shard view.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            stale_reads: self.stale_reads,
            fresh_reads: self.fresh_reads,
            stale_depth_sum: self.stale_depth_sum,
            keys: self.keys,
        }
    }
}

/// A point-in-time copy of the oracle's aggregate counters — the detached
/// view the cluster exposes. Mirrors the query surface of
/// [`StalenessOracle`] so call sites work unchanged against the snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    stale_reads: u64,
    fresh_reads: u64,
    stale_depth_sum: u64,
    keys: usize,
}

impl OracleStats {
    /// Fold another snapshot into this one (for aggregating across runs).
    pub fn absorb(&mut self, other: &OracleStats) {
        self.stale_reads += other.stale_reads;
        self.fresh_reads += other.fresh_reads;
        self.stale_depth_sum += other.stale_depth_sum;
        self.keys += other.keys;
    }

    /// Number of reads classified as stale.
    pub fn stale_reads(&self) -> u64 {
        self.stale_reads
    }

    /// Number of reads classified as fresh.
    pub fn fresh_reads(&self) -> u64 {
        self.fresh_reads
    }

    /// Fraction of reads that were stale (0 if no reads were classified).
    pub fn stale_rate(&self) -> f64 {
        let total = self.stale_reads + self.fresh_reads;
        if total == 0 {
            0.0
        } else {
            self.stale_reads as f64 / total as f64
        }
    }

    /// Mean number of acknowledged writes a stale read lagged behind.
    pub fn mean_staleness_depth(&self) -> f64 {
        if self.stale_reads == 0 {
            0.0
        } else {
            self.stale_depth_sum as f64 / self.stale_reads as f64
        }
    }

    /// Number of keys seen across all shards (homes are disjoint, so the
    /// per-shard counts add exactly).
    pub fn key_count(&self) -> usize {
        self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::PAGE_SLOTS;

    /// An instant after every ack the tests below record at time zero.
    const LATER: SimTime = SimTime::from_micros(1);

    #[test]
    fn fresh_reads_are_not_stale() {
        let mut o = StalenessOracle::new();
        o.record_ack(Key(1), Version(5), SimTime::ZERO);
        let c = o.classify_read_at(Key(1), LATER, Version(5));
        assert!(!c.stale);
        assert_eq!(c.depth, 0);
        assert_eq!(o.stale_rate(), 0.0);
    }

    #[test]
    fn returning_an_old_version_is_stale() {
        let mut o = StalenessOracle::new();
        o.record_ack(Key(1), Version(5), SimTime::ZERO);
        o.record_ack(Key(1), Version(9), SimTime::ZERO);
        assert_eq!(o.expected_version_at(Key(1), LATER), Version(9));
        let c = o.classify_read_at(Key(1), LATER, Version(5));
        assert!(c.stale);
        assert_eq!(c.depth, 1, "one acknowledged write behind");
        assert_eq!(o.stale_reads(), 1);
        assert!(o.stale_rate() > 0.99);
    }

    #[test]
    fn depth_counts_missed_writes() {
        let mut o = StalenessOracle::new();
        for v in 1..=5u64 {
            o.record_ack(Key(1), Version(v), SimTime::ZERO);
        }
        let c = o.classify_read_at(Key(1), LATER, Version(2));
        assert!(c.stale);
        assert_eq!(c.depth, 3);
        assert_eq!(o.mean_staleness_depth(), 3.0);
    }

    #[test]
    fn reads_newer_than_expected_are_fresh() {
        // A read may see a write that was acknowledged *after* the read was
        // issued; that is not stale.
        let mut o = StalenessOracle::new();
        o.record_ack(Key(1), Version(3), SimTime::from_micros(100));
        o.record_ack(Key(1), Version(7), SimTime::from_micros(200));
        let c = o.classify_read_at(Key(1), SimTime::from_micros(150), Version(7));
        assert!(!c.stale);
    }

    #[test]
    fn unknown_keys_have_no_expectation() {
        let mut o = StalenessOracle::new();
        assert_eq!(o.expected_version_at(Key(99), LATER), Version::NONE);
        let c = o.classify_read_at(Key(99), LATER, Version::NONE);
        assert!(!c.stale);
        assert_eq!(o.fresh_reads(), 1);
    }

    #[test]
    fn preload_sets_baseline() {
        let mut o = StalenessOracle::new();
        o.preload(Key(1), Version(1));
        assert_eq!(o.expected_version_at(Key(1), LATER), Version(1));
        assert_eq!(o.key_count(), 1);
        // Reading the preloaded version is fresh; missing it is stale.
        assert!(!o.classify_read_at(Key(1), LATER, Version(1)).stale);
        let c = o.classify_read_at(Key(1), LATER, Version::NONE);
        assert!(c.stale);
    }

    #[test]
    fn out_of_order_acks_keep_exact_depths() {
        // Two overlapping writes acknowledged out of version order: the
        // binary-search fast path must detect the inversion and fall back to
        // the exact linear scan. Ack times pick which acks a read sees: at
        // 25 µs the newest visible version is 7, at 35 µs it is 9.
        let mut o = StalenessOracle::new();
        o.record_ack(Key(1), Version(5), SimTime::from_micros(10));
        o.record_ack(Key(1), Version(9), SimTime::from_micros(30));
        o.record_ack(Key(1), Version(7), SimTime::from_micros(20));
        let c = o.classify_read_at(Key(1), SimTime::from_micros(35), Version(5));
        assert!(c.stale);
        assert_eq!(c.depth, 1, "idx(9)=2 minus idx(5)=1");
        let c = o.classify_read_at(Key(1), SimTime::from_micros(25), Version(5));
        assert!(c.stale);
        assert_eq!(c.depth, 2, "idx(7)=3 minus idx(5)=1");
    }

    #[test]
    fn deep_histories_resolve_depths_by_binary_search() {
        let mut o = StalenessOracle::new();
        for v in 1..=64u64 {
            o.record_ack(Key(1), Version(v), SimTime::ZERO);
        }
        let c = o.classify_read_at(Key(1), LATER, Version(2));
        assert!(c.stale);
        assert_eq!(c.depth, 62);
    }

    #[test]
    fn rate_mixes_stale_and_fresh() {
        let mut o = StalenessOracle::new();
        o.record_ack(Key(1), Version(1), SimTime::ZERO);
        o.record_ack(Key(1), Version(2), SimTime::ZERO);
        for _ in 0..3 {
            o.classify_read_at(Key(1), LATER, Version(2));
        }
        o.classify_read_at(Key(1), LATER, Version(1));
        assert!((o.stale_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_keep_independent_histories_across_pages() {
        let mut o = StalenessOracle::new();
        let far = (PAGE_SLOTS as u64) * 7 + 3;
        o.record_ack(Key(1), Version(5), SimTime::ZERO);
        o.record_ack(Key(far), Version(9), SimTime::ZERO);
        assert_eq!(o.expected_version_at(Key(1), LATER), Version(5));
        assert_eq!(o.expected_version_at(Key(far), LATER), Version(9));
        assert_eq!(o.key_count(), 2);
        // Untouched keys on existing pages are still unknown.
        assert_eq!(o.expected_version_at(Key(2), LATER), Version::NONE);
        // Repeated acks do not recount the key.
        o.record_ack(Key(1), Version(11), SimTime::ZERO);
        assert_eq!(o.key_count(), 2);
    }

    #[test]
    fn expected_version_at_sees_only_acks_strictly_before_the_instant() {
        let mut o = StalenessOracle::new();
        o.record_ack(Key(1), Version(3), SimTime::from_micros(100));
        o.record_ack(Key(1), Version(7), SimTime::from_micros(200));
        // Before any ack: no expectation.
        assert_eq!(
            o.expected_version_at(Key(1), SimTime::from_micros(50)),
            Version::NONE
        );
        // Exactly at an ack time: the ack is NOT yet visible (strict <).
        assert_eq!(
            o.expected_version_at(Key(1), SimTime::from_micros(100)),
            Version::NONE
        );
        assert_eq!(
            o.expected_version_at(Key(1), SimTime::from_micros(150)),
            Version(3)
        );
        assert_eq!(
            o.expected_version_at(Key(1), SimTime::from_micros(200)),
            Version(3)
        );
        assert_eq!(
            o.expected_version_at(Key(1), SimTime::from_micros(300)),
            Version(7)
        );
        // A query after every ack sees the full history.
        assert_eq!(o.expected_version_at(Key(1), SimTime::MAX), Version(7));
    }

    #[test]
    fn classify_read_at_matches_the_serial_inline_classification() {
        // A read issued between two acks is fresh against the first even
        // though the second has landed by classification time — exactly
        // what an inline check snapshotting the newest ack at issue time
        // concludes.
        let mut o = StalenessOracle::new();
        o.record_ack(Key(1), Version(3), SimTime::from_micros(100));
        o.record_ack(Key(1), Version(7), SimTime::from_micros(200));
        let c = o.classify_read_at(Key(1), SimTime::from_micros(150), Version(3));
        assert!(!c.stale);
        // The same returned version is stale for a read issued after the
        // second ack.
        let c = o.classify_read_at(Key(1), SimTime::from_micros(250), Version(3));
        assert!(c.stale);
        assert_eq!(c.depth, 1);
    }

    #[test]
    fn truncated_histories_err_toward_stale_at_early_instants() {
        // Push past DEPTH_HISTORY so the oldest entries are dropped, then
        // query an instant older than everything retained: the fallback is
        // the oldest retained version (non-NONE), so a read of anything
        // older classifies stale rather than vacuously fresh.
        let mut o = StalenessOracle::new();
        for v in 1..=(DEPTH_HISTORY as u64 + 8) {
            o.record_ack(Key(1), Version(v), SimTime::from_micros(1_000 + v));
        }
        let expected = o.expected_version_at(Key(1), SimTime::from_micros(500));
        assert_ne!(expected, Version::NONE, "truncation falls back, not NONE");
        let c = o.classify_read_at(Key(1), SimTime::from_micros(500), Version(1));
        assert!(c.stale);
    }
}
