//! Per-replica local storage.
//!
//! Each simulated node owns a [`ReplicaStore`]: a versioned key-value table
//! with last-write-wins reconciliation plus the counters needed for the cost
//! model (bytes stored, storage I/O operations performed).
//!
//! ## Layout: paged direct indexing, no hashing
//!
//! Record keys are **dense `u64` record ids** — the workload generators
//! allocate them contiguously from 0 and assert they stay below the
//! configured record count (see `concord_workload::generators`). The store
//! exploits that contract: instead of a hash map it keeps its slots in a
//! [`PagedTable`] (the shared paged direct-index substrate, fixed 4096-slot
//! pages allocated on first write), so `read` / `apply_write` / `preload`
//! are a shift, a mask and a load — no hash, no probe sequence, no
//! tombstones. Vacancy is this store's own convention, per the table's
//! contract: a slot is occupied iff its version is non-zero
//! ([`Version::NONE`] never names a real write, which the write paths
//! assert), so presence costs no extra bit.
//!
//! Sequential record ids are contiguous in memory, which is what makes the
//! YCSB-E range-read path ([`ReplicaStore::read_range`]) a streaming load
//! over `scan_len` adjacent slots rather than `scan_len` independent hash
//! lookups.
//!
//! Reads never allocate: probing a key whose page was never written returns
//! "absent" without materializing the page, so a scan running past the
//! loaded key space stays allocation-free.
//!
//! ## Per-page version summaries (anti-entropy digests)
//!
//! A store built with [`ReplicaStore::with_summaries`] also maintains one
//! 64-bit digest per page: the XOR of a mixed hash of every occupied
//! `(key, version)` pair on that page. The digest is updated incrementally
//! on every mutation — an overwrite XORs the old pair's contribution out
//! and the new pair's in, O(1) per write, no rescans — so two replicas hold
//! identical page contents iff (modulo 2^-64 collisions) their digests
//! match. Anti-entropy sweeps compare these summaries instead of
//! record-by-record state, streaming only divergent pages; because the page
//! granule (4096 slots) equals the ordered partitioner's slice granule, a
//! page diff is also a slice diff.
//!
//! Beside each digest sits the page's **occupancy bitmap** (`[u64; 64]`, one
//! bit per slot), set on a slot's first occupancy. Records are never
//! deleted, so it only grows. A divergent page is diffed by
//! [`ReplicaStore::newer_in_page`]: the caller passes the receiver's
//! ownership bitmap for the page, and the diff walks only the set bits of
//! `ownership & occupancy` — the keys the sender holds *and* the receiver
//! replicates — peeking the receiver's copy of each. So a sweep's cost
//! scales with those candidate keys, not with the page's 4096 slots or the
//! sender's full key set.
//!
//! Stores built with [`ReplicaStore::new`] skip the maintenance of both
//! summaries entirely — the write path pays nothing for a repair plane that
//! is switched off.

use crate::paged::{PagedTable, PAGE_BITS, PAGE_MASK, PAGE_SLOTS, PAGE_WORDS};
use crate::types::{Key, StoredValue, Version};

/// A vacant slot: version 0 ([`Version::NONE`]) marks absence.
const EMPTY_SLOT: StoredValue = StoredValue {
    version: Version::NONE,
    size: 0,
};

/// Aggregate result of one range read (see [`ReplicaStore::read_range`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeRead {
    /// The stored value of the range's anchor (first) record, if present.
    /// Reconciliation and staleness classification key off the anchor.
    pub anchor: Option<StoredValue>,
    /// Number of records present in the scanned range.
    pub records: u32,
    /// Total payload bytes of the present records (the byte weight of the
    /// data response).
    pub bytes: u64,
}

/// The local storage of one replica node: a [`PagedTable`] over dense record
/// ids (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct ReplicaStore {
    /// The slot table; a slot is occupied iff its version is non-zero.
    table: PagedTable<StoredValue>,
    /// Number of occupied slots (distinct keys stored).
    keys: usize,
    bytes_stored: u64,
    write_ops: u64,
    read_ops: u64,
    /// Writes ignored because a newer version was already present
    /// (late-arriving propagation after a concurrent overwrite).
    superseded_writes: u64,
    /// Per-page summaries (see the module docs); index = `key >> PAGE_BITS`,
    /// all-zero for untouched pages.
    page_summaries: Vec<PageSummary>,
    /// Whether the summaries above are maintained. Off by default so the
    /// write path pays no mixing cost when no repair plane will ever
    /// compare summaries.
    summaries_enabled: bool,
}

/// One page's anti-entropy summary.
#[derive(Debug, Clone)]
struct PageSummary {
    /// XOR over `mix(key, version)` of the page's occupied slots.
    digest: u64,
    /// Bit `i` set iff slot `i` of the page is occupied.
    occupied: [u64; PAGE_WORDS],
}

const EMPTY_SUMMARY: PageSummary = PageSummary {
    digest: 0,
    occupied: [0; PAGE_WORDS],
};

/// Mix one `(key, version)` pair into a 64-bit contribution (splitmix64-style
/// finalizer over the combined pair). Order-independent under XOR: equal page
/// contents produce equal digests regardless of write order.
#[inline]
fn mix_record(key: Key, version: Version) -> u64 {
    let mut x = key
        .0
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(version.0.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

impl Default for ReplicaStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplicaStore {
    /// An empty store without per-page version summaries (the default:
    /// writes skip digest maintenance entirely).
    pub fn new() -> Self {
        ReplicaStore {
            table: PagedTable::new(EMPTY_SLOT),
            keys: 0,
            bytes_stored: 0,
            write_ops: 0,
            read_ops: 0,
            superseded_writes: 0,
            page_summaries: Vec::new(),
            summaries_enabled: false,
        }
    }

    /// An empty store that maintains per-page version summaries and
    /// occupancy bitmaps for anti-entropy comparison (see the module docs).
    /// Costs two 64-bit mixes per installed write.
    pub fn with_summaries() -> Self {
        ReplicaStore {
            summaries_enabled: true,
            ..Self::new()
        }
    }

    /// Fold an installed `(key, version)` over `old_version` into the
    /// summary of `key`'s page, growing the summary vector on first touch:
    /// the digest swaps the old pair's contribution for the new one, and a
    /// first occupancy sets the slot's bit.
    #[inline]
    fn update_summary(&mut self, key: Key, version: Version, old_version: Version) {
        let page = (key.0 >> PAGE_BITS) as usize;
        if page >= self.page_summaries.len() {
            self.page_summaries.resize(page + 1, EMPTY_SUMMARY);
        }
        let summary = &mut self.page_summaries[page];
        summary.digest ^= mix_record(key, version);
        if old_version.exists() {
            summary.digest ^= mix_record(key, old_version);
        } else {
            let slot = (key.0 & PAGE_MASK) as usize;
            summary.occupied[slot / 64] |= 1 << (slot % 64);
        }
    }

    /// The slot for `key`, if its page exists (never allocates).
    #[inline]
    fn slot(&self, key: Key) -> Option<&StoredValue> {
        self.table.get(key.0)
    }

    /// Apply a write. Returns `true` if the value was installed, `false` if a
    /// newer version was already present (last-write-wins).
    pub fn apply_write(&mut self, key: Key, version: Version, size: u32) -> bool {
        debug_assert!(version.exists(), "writes carry a real (non-zero) version");
        self.write_ops += 1;
        let slot = self.table.get_mut(key.0);
        if slot.version >= version {
            // Occupied slots always beat the write here; a vacant slot
            // (version 0) can never reach this arm because real versions
            // are non-zero.
            self.superseded_writes += 1;
            return false;
        }
        let old_version = slot.version;
        if old_version.exists() {
            self.bytes_stored = self.bytes_stored - slot.size as u64 + size as u64;
        } else {
            self.keys += 1;
            self.bytes_stored += size as u64;
        }
        *slot = StoredValue { version, size };
        if self.summaries_enabled {
            self.update_summary(key, version, old_version);
        }
        true
    }

    /// Load a record directly (bulk load path: no I/O accounting, used to
    /// pre-populate the data set before the measured run). A re-preload of
    /// an existing key is an authoritative overwrite: the byte accounting
    /// replaces the old payload's size instead of double-counting it.
    pub fn preload(&mut self, key: Key, version: Version, size: u32) {
        debug_assert!(version.exists(), "preloads carry a real (non-zero) version");
        let slot = self.table.get_mut(key.0);
        let old_version = slot.version;
        if old_version.exists() {
            self.bytes_stored = self.bytes_stored - slot.size as u64 + size as u64;
        } else {
            self.keys += 1;
            self.bytes_stored += size as u64;
        }
        *slot = StoredValue { version, size };
        if self.summaries_enabled {
            self.update_summary(key, version, old_version);
        }
    }

    /// Read the current value of a key (counts as one storage read).
    pub fn read(&mut self, key: Key) -> Option<StoredValue> {
        self.read_ops += 1;
        self.peek(key)
    }

    /// Read `len` consecutive records starting at `start` (a YCSB-E range
    /// scan on this replica). Metered as `len` storage reads — every slot in
    /// the range is probed, present or not — and the result reports the
    /// byte weight of the present records for response-traffic accounting.
    /// Never allocates: ranges running past the written key space read as
    /// absent.
    pub fn read_range(&mut self, start: Key, len: u32) -> RangeRead {
        self.read_ops += len.max(1) as u64;
        let mut out = RangeRead {
            anchor: self.peek(start),
            records: 0,
            bytes: 0,
        };
        let mut key = start.0;
        let mut remaining = len.max(1);
        while remaining > 0 {
            let page_idx = (key >> PAGE_BITS) as usize;
            let slot_idx = (key & PAGE_MASK) as usize;
            // Slots to take from this page before crossing its boundary.
            let run = ((PAGE_SLOTS - slot_idx) as u32).min(remaining);
            if let Some(page) = self.table.page(page_idx) {
                for slot in &page[slot_idx..slot_idx + run as usize] {
                    if slot.version.exists() {
                        out.records += 1;
                        out.bytes += slot.size as u64;
                    }
                }
            }
            remaining -= run;
            key = match key.checked_add(run as u64) {
                Some(k) => k,
                None => break, // the key space ends; nothing further exists
            };
        }
        out
    }

    /// Peek without accounting (used by the staleness oracle and tests).
    pub fn peek(&self, key: Key) -> Option<StoredValue> {
        self.slot(key).copied().filter(|v| v.version.exists())
    }

    /// Number of distinct keys stored.
    pub fn key_count(&self) -> usize {
        self.keys
    }

    /// Total payload bytes currently stored on this replica.
    pub fn bytes_stored(&self) -> u64 {
        self.bytes_stored
    }

    /// Number of storage write operations performed (including superseded).
    pub fn write_ops(&self) -> u64 {
        self.write_ops
    }

    /// Number of storage read operations performed (range reads count one
    /// per record probed).
    pub fn read_ops(&self) -> u64 {
        self.read_ops
    }

    /// Number of writes that lost the last-write-wins race.
    pub fn superseded_writes(&self) -> u64 {
        self.superseded_writes
    }

    /// The version summary of page `page` (0 for pages never written, and
    /// always 0 unless the store was built with
    /// [`ReplicaStore::with_summaries`]). Two replicas whose digests match
    /// hold identical `(key, version)` contents on that page, modulo 64-bit
    /// XOR-hash collisions.
    pub fn page_digest(&self, page: usize) -> u64 {
        self.page_summaries.get(page).map_or(0, |p| p.digest)
    }

    /// Number of page indices covered by this store's version summary (the
    /// anti-entropy comparison walks `0..summary_pages()` of both replicas).
    pub fn summary_pages(&self) -> usize {
        self.page_summaries.len()
    }

    /// The streaming side of an anti-entropy diff: append to `out`, as
    /// `(key, version, size)` in ascending key order, every record of page
    /// `page` whose slot bit is set in `mask` and whose version is strictly
    /// newer than `other`'s copy (absent counts as older than anything).
    /// Only the set bits of `mask & occupancy` are visited. Does not touch
    /// the I/O meters: callers account the stream as network traffic and
    /// replica writes, not local scans.
    ///
    /// Both stores must maintain summaries ([`ReplicaStore::with_summaries`]):
    /// without an occupancy bitmap the diff would silently stream nothing.
    pub fn newer_in_page(
        &self,
        other: &ReplicaStore,
        page: usize,
        mask: &[u64; PAGE_WORDS],
        out: &mut Vec<(Key, Version, u32)>,
    ) {
        debug_assert!(
            self.summaries_enabled && other.summaries_enabled,
            "page diffs run only on summary-enabled stores"
        );
        let (Some(summary), Some(slots)) = (self.page_summaries.get(page), self.table.page(page))
        else {
            return;
        };
        let theirs = other.table.page(page);
        let base = (page as u64) << PAGE_BITS;
        for (w, (&occupied, &owned)) in summary.occupied.iter().zip(mask).enumerate() {
            let mut bits = occupied & owned;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slot = &slots[i];
                let held = theirs.map_or(Version::NONE, |t| t[i].version);
                if slot.version > held {
                    out.push((Key(base + i as u64), slot.version, slot.size));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_install_newest_version() {
        let mut s = ReplicaStore::new();
        assert!(s.apply_write(Key(1), Version(1), 100));
        assert!(s.apply_write(Key(1), Version(3), 100));
        // An older (late) version must not overwrite a newer one.
        assert!(!s.apply_write(Key(1), Version(2), 100));
        assert_eq!(s.peek(Key(1)).unwrap().version, Version(3));
        assert_eq!(s.superseded_writes(), 1);
        assert_eq!(s.write_ops(), 3);
    }

    #[test]
    fn bytes_stored_tracks_value_sizes() {
        let mut s = ReplicaStore::new();
        s.apply_write(Key(1), Version(1), 100);
        s.apply_write(Key(2), Version(2), 50);
        assert_eq!(s.bytes_stored(), 150);
        // Overwriting key 1 with a larger value adjusts the total.
        s.apply_write(Key(1), Version(3), 300);
        assert_eq!(s.bytes_stored(), 350);
        assert_eq!(s.key_count(), 2);
    }

    #[test]
    fn reads_are_counted_and_return_values() {
        let mut s = ReplicaStore::new();
        s.preload(Key(7), Version(1), 10);
        assert_eq!(s.read(Key(7)).unwrap().version, Version(1));
        assert!(s.read(Key(8)).is_none());
        assert_eq!(s.read_ops(), 2);
        // preload does not count as a write op.
        assert_eq!(s.write_ops(), 0);
    }

    #[test]
    fn equal_version_does_not_reinstall() {
        let mut s = ReplicaStore::new();
        assert!(s.apply_write(Key(1), Version(5), 10));
        assert!(!s.apply_write(Key(1), Version(5), 10));
    }

    #[test]
    fn re_preload_replaces_byte_accounting() {
        let mut s = ReplicaStore::new();
        s.preload(Key(1), Version(1), 100);
        s.preload(Key(1), Version(2), 300);
        assert_eq!(s.bytes_stored(), 300, "overwrite, not double-count");
        assert_eq!(s.key_count(), 1);
        assert_eq!(s.peek(Key(1)).unwrap().version, Version(2));
    }

    #[test]
    fn sparse_high_keys_allocate_only_their_page() {
        let mut s = ReplicaStore::new();
        s.apply_write(Key(5 * PAGE_SLOTS as u64 + 3), Version(1), 10);
        assert_eq!(s.key_count(), 1);
        assert_eq!(s.table.allocated_pages(), 1);
        // Reading unwritten pages allocates nothing.
        assert!(s.peek(Key(0)).is_none());
        assert!(s.peek(Key(100 * PAGE_SLOTS as u64)).is_none());
        assert_eq!(s.table.allocated_pages(), 1);
    }

    #[test]
    fn range_reads_meter_every_probe_and_weigh_present_bytes() {
        let mut s = ReplicaStore::new();
        for k in 10..20u64 {
            s.preload(Key(k), Version(k), 100);
        }
        // Scan fully inside the populated range.
        let r = s.read_range(Key(12), 5);
        assert_eq!(r.records, 5);
        assert_eq!(r.bytes, 500);
        assert_eq!(r.anchor.unwrap().version, Version(12));
        assert_eq!(s.read_ops(), 5, "every probed slot counts as one read");
        // Scan running past the populated range: probes still metered,
        // absent slots weigh nothing.
        let r = s.read_range(Key(18), 10);
        assert_eq!(r.records, 2);
        assert_eq!(r.bytes, 200);
        assert_eq!(s.read_ops(), 15);
        // Scan starting on an absent anchor.
        let r = s.read_range(Key(100), 3);
        assert_eq!(r.anchor, None);
        assert_eq!(r.records, 0);
        assert_eq!(r.bytes, 0);
    }

    #[test]
    fn range_reads_cross_page_boundaries() {
        let mut s = ReplicaStore::new();
        let boundary = PAGE_SLOTS as u64;
        for k in (boundary - 3)..(boundary + 3) {
            s.preload(Key(k), Version(k + 1), 10);
        }
        let r = s.read_range(Key(boundary - 3), 6);
        assert_eq!(r.records, 6);
        assert_eq!(r.bytes, 60);
        assert_eq!(r.anchor.unwrap().version, Version(boundary - 2));
        // A scan whose middle page was never written skips it as absent.
        let far = 3 * boundary;
        s.preload(Key(far), Version(1_000_000), 7);
        let r = s.read_range(Key(far - 2), 4);
        assert_eq!(r.records, 1);
        assert_eq!(r.bytes, 7);
    }

    #[test]
    fn page_digests_track_contents_not_history() {
        let mut a = ReplicaStore::with_summaries();
        let mut b = ReplicaStore::with_summaries();
        assert_eq!(a.page_digest(0), 0, "untouched pages read as zero");
        assert_eq!(a.summary_pages(), 0);
        // Same final contents through different histories ⇒ same digest.
        a.apply_write(Key(1), Version(1), 10);
        a.apply_write(Key(1), Version(4), 10);
        a.apply_write(Key(2), Version(2), 10);
        b.preload(Key(2), Version(2), 10);
        b.apply_write(Key(1), Version(4), 10);
        assert_eq!(a.page_digest(0), b.page_digest(0));
        // Diverging one key splits the digests; re-converging re-joins them.
        a.apply_write(Key(2), Version(9), 10);
        assert_ne!(a.page_digest(0), b.page_digest(0));
        b.apply_write(Key(2), Version(9), 10);
        assert_eq!(a.page_digest(0), b.page_digest(0));
        // A superseded write changes nothing, digest included.
        let before = a.page_digest(0);
        assert!(!a.apply_write(Key(2), Version(5), 10));
        assert_eq!(a.page_digest(0), before);
        // Pages are independent.
        a.preload(Key(PAGE_SLOTS as u64 + 7), Version(1), 10);
        assert_eq!(a.summary_pages(), 2);
        assert_eq!(a.page_digest(0), before);
        assert_ne!(a.page_digest(1), 0);
    }

    #[test]
    fn default_stores_maintain_no_summaries() {
        let mut s = ReplicaStore::new();
        s.apply_write(Key(1), Version(1), 10);
        s.preload(Key(2), Version(2), 10);
        assert_eq!(s.summary_pages(), 0, "no digest vector is ever grown");
        assert_eq!(s.page_digest(0), 0);
        // Everything else behaves identically to a summarized store.
        assert_eq!(s.key_count(), 2);
        assert_eq!(s.bytes_stored(), 20);
    }

    #[test]
    fn newer_in_page_streams_candidate_records() {
        let mut s = ReplicaStore::with_summaries();
        s.preload(Key(3), Version(30), 100);
        s.preload(Key(5), Version(50), 200);
        s.preload(Key(PAGE_SLOTS as u64 + 1), Version(7), 10);
        let empty = ReplicaStore::with_summaries();
        let all = [u64::MAX; PAGE_WORDS];
        let mut out = Vec::new();
        s.newer_in_page(&empty, 0, &all, &mut out);
        assert_eq!(
            out,
            vec![(Key(3), Version(30), 100), (Key(5), Version(50), 200)]
        );
        out.clear();
        s.newer_in_page(&empty, 1, &all, &mut out);
        assert_eq!(out, vec![(Key(PAGE_SLOTS as u64 + 1), Version(7), 10)]);
        out.clear();
        s.newer_in_page(&empty, 9, &all, &mut out);
        assert!(out.is_empty(), "unallocated pages stream nothing");
        let (reads, writes) = (s.read_ops(), s.write_ops());
        assert_eq!((reads, writes), (0, 0), "collection is not storage I/O");

        // The mask restricts the walk to the receiver's keys.
        let mut only_5 = [0; PAGE_WORDS];
        only_5[0] = 1 << 5;
        s.newer_in_page(&empty, 0, &only_5, &mut out);
        assert_eq!(out, vec![(Key(5), Version(50), 200)]);
        out.clear();
        s.newer_in_page(&empty, 0, &[0; PAGE_WORDS], &mut out);
        assert!(out.is_empty(), "an empty mask streams nothing");

        // Only strictly newer records stream: equal and newer copies on
        // the receiver suppress them.
        let mut other = ReplicaStore::with_summaries();
        other.preload(Key(3), Version(30), 100);
        other.preload(Key(5), Version(60), 200);
        s.newer_in_page(&other, 0, &all, &mut out);
        assert!(out.is_empty());
        other.newer_in_page(&s, 0, &all, &mut out);
        assert_eq!(out, vec![(Key(5), Version(60), 200)]);
    }

    #[test]
    fn occupancy_bits_track_first_occupancy_only() {
        let mut s = ReplicaStore::with_summaries();
        let last = PAGE_SLOTS as u64 - 1;
        s.apply_write(Key(last), Version(1), 10);
        s.apply_write(Key(last), Version(2), 10);
        s.preload(Key(64), Version(3), 10);
        assert_eq!(s.page_summaries[0].occupied[PAGE_WORDS - 1], 1 << 63);
        assert_eq!(s.page_summaries[0].occupied[1], 1);
        let set: u32 = s.page_summaries[0]
            .occupied
            .iter()
            .map(|w| w.count_ones())
            .sum();
        assert_eq!(set as usize, s.key_count());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "summary-enabled")]
    fn page_diffs_refuse_stores_without_summaries() {
        let mut s = ReplicaStore::new();
        s.preload(Key(1), Version(1), 10);
        let mut out = Vec::new();
        s.newer_in_page(
            &ReplicaStore::with_summaries(),
            0,
            &[u64::MAX; PAGE_WORDS],
            &mut out,
        );
    }

    #[test]
    fn range_read_at_the_end_of_the_key_space_stops() {
        let mut s = ReplicaStore::new();
        let r = s.read_range(Key(u64::MAX - 1), 10);
        assert_eq!(r.records, 0);
        // Zero-length scans behave like one probe of the anchor.
        let r = s.read_range(Key(0), 0);
        assert_eq!(r.records, 0);
        assert!(r.anchor.is_none());
    }
}
