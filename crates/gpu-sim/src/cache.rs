//! Sectored, set-associative cache model (used for both L1 and L2).
//!
//! Modern NVIDIA caches are *sectored*: tags are kept per 128-byte line,
//! but data is filled and transferred in 32-byte sectors.  A request for
//! a sector whose line is resident but whose sector bit is clear is a
//! "sector miss on a tag hit" — it fetches only that sector.  This is the
//! structure behind Table I's distinction between tag requests (row 10)
//! and the L1/L2 miss rates (rows 7–8), which are sector-level.
//!
//! Replacement is LRU within a set.  The model is demand-fetch,
//! write-allocate, write-back — a reasonable approximation of the A100's
//! L1/L2 policies for this workload (streaming reads dominate).

/// Configuration of one cache level.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Line (tag granularity) size in bytes; power of two.
    pub line_bytes: u32,
    /// Sector (fill granularity) size in bytes; divides `line_bytes`.
    pub sector_bytes: u32,
    /// Associativity.
    pub ways: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        (self.capacity / self.line_bytes as u64 / self.ways as u64).max(1)
    }
}

/// Per-access outcome at one cache level.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Sectors already resident.
    pub sector_hits: u32,
    /// Sectors that had to be filled from the level below.
    pub sector_misses: u32,
    /// Bitmask of the sectors that missed (what the level below must
    /// serve).
    pub missed_mask: u8,
    /// Whether the line's tag was resident before the access.
    pub tag_hit: bool,
}

/// Aggregate statistics of one cache instance.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Line-granular tag lookups.
    pub tag_requests: u64,
    /// Sector-granular requests.
    pub sector_requests: u64,
    /// Sector-granular misses (fills from below).
    pub sector_misses: u64,
    /// Lines evicted.
    pub evictions: u64,
    /// Dirty sectors written back to the level below on eviction
    /// (write-back policy; zero for a cache used read-only).
    pub writeback_sectors: u64,
}

impl CacheStats {
    /// Sector miss rate in percent (0 when idle).
    pub fn miss_rate_pct(&self) -> f64 {
        if self.sector_requests == 0 {
            0.0
        } else {
            100.0 * self.sector_misses as f64 / self.sector_requests as f64
        }
    }

    /// Merge another instance's counts (used when combining per-SM L1s).
    pub fn merge(&mut self, other: &CacheStats) {
        self.tag_requests += other.tag_requests;
        self.sector_requests += other.sector_requests;
        self.sector_misses += other.sector_misses;
        self.evictions += other.evictions;
        self.writeback_sectors += other.writeback_sectors;
    }
}

/// A sectored set-associative cache.
///
/// Way `w` of set `s` lives at index `s * ways + w` of four parallel
/// arrays.  The empty state is all zero bytes: a way's tag is its line
/// address plus one, so 0 marks an invalid way, and its stamp (the
/// access clock at its last touch) is 0 exactly while it is invalid.
pub struct Cache {
    cfg: CacheConfig,
    sets: u64,
    ways: usize,
    line_shift: u32,
    /// `ceil(2^64 / sets)` (wrapped to 0 for one set): the multiplier
    /// of the exact `% sets` in [`set_of`](Self::set_of).
    set_magic: u64,
    /// Line indices below this take the multiply; 0 when `sets` needs
    /// more than 32 bits, so every index falls back to `%`.
    magic_limit: u64,
    tags: Vec<u64>,
    /// Bitmask of resident sectors.
    sectors: Vec<u8>,
    /// Bitmask of dirty sectors (written, not yet flushed below).
    dirty: Vec<u8>,
    stamps: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache from a configuration.
    ///
    /// Panics unless `line_bytes` is a power of two and `ways` is
    /// positive ([`DeviceSpec::validate`](crate::DeviceSpec::validate)
    /// checks both for a device's caches).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "cache line_bytes {} must be a power of two",
            cfg.line_bytes
        );
        assert!(cfg.ways > 0, "cache ways must be positive");
        let sets = cfg.sets();
        let lines = (sets * cfg.ways as u64) as usize;
        Self {
            cfg,
            sets,
            ways: cfg.ways as usize,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_magic: (u64::MAX / sets).wrapping_add(1),
            magic_limit: if sets <= u32::MAX as u64 { 1 << 32 } else { 0 },
            tags: vec![0; lines],
            sectors: vec![0; lines],
            dirty: vec![0; lines],
            stamps: vec![0; lines],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clear contents and statistics.
    pub fn reset(&mut self) {
        self.tags.fill(0);
        self.sectors.fill(0);
        self.dirty.fill(0);
        self.stamps.fill(0);
        self.clock = 0;
        self.stats = CacheStats::default();
    }

    /// First way of the set holding `line_addr`.
    ///
    /// `(line_addr / line_bytes) % sets`, without a divide: for a line
    /// index `n < 2^32` and `sets < 2^32`, the low 64 bits of
    /// `set_magic * n`, times `sets`, shifted down 64 bits, is exactly
    /// `n % sets` (Lemire, Kaser and Kurz, "Faster remainder by direct
    /// computation", 2019).
    #[inline]
    fn set_of(&self, line_addr: u64) -> usize {
        let n = line_addr >> self.line_shift;
        let set = if n < self.magic_limit {
            ((self.set_magic.wrapping_mul(n) as u128 * self.sets as u128) >> 64) as u64
        } else {
            n % self.sets
        };
        set as usize * self.ways
    }

    /// Access one line with a mask of requested sectors (read).  Returns
    /// the per-sector outcome; missing sectors are filled (demand fetch).
    pub fn access(&mut self, line_addr: u64, sector_mask: u8) -> CacheOutcome {
        self.access_inner(line_addr, sector_mask, false)
    }

    /// Write access: like [`access`](Self::access) but marks the touched
    /// sectors dirty (write-back, write-allocate).  Evicting a line with
    /// dirty sectors counts them into
    /// [`CacheStats::writeback_sectors`].
    pub fn access_write(&mut self, line_addr: u64, sector_mask: u8) -> CacheOutcome {
        self.access_inner(line_addr, sector_mask, true)
    }

    fn access_inner(&mut self, line_addr: u64, sector_mask: u8, write: bool) -> CacheOutcome {
        debug_assert_eq!(line_addr % self.cfg.line_bytes as u64, 0);
        debug_assert!(sector_mask != 0);
        self.clock += 1;
        self.stats.tag_requests += 1;
        let requested = sector_mask.count_ones();
        self.stats.sector_requests += requested as u64;

        let base = self.set_of(line_addr);
        let set = base..base + self.ways;
        let tag = line_addr.wrapping_add(1);

        if let Some(way) = self.tags[set.clone()].iter().position(|&t| t == tag) {
            let i = base + way;
            let resident = self.sectors[i];
            let hits = (sector_mask & resident).count_ones();
            let misses = requested - hits;
            self.sectors[i] = resident | sector_mask;
            if write {
                self.dirty[i] |= sector_mask;
            }
            self.stamps[i] = self.clock;
            self.stats.sector_misses += misses as u64;
            return CacheOutcome {
                sector_hits: hits,
                sector_misses: misses,
                missed_mask: sector_mask & !resident,
                tag_hit: true,
            };
        }

        // Tag miss.  Invalid ways have stamp 0 and valid ones at least
        // 1, so the first minimum stamp is the first invalid way if any,
        // else the least recently used.
        let (way, _) = self.stamps[set]
            .iter()
            .enumerate()
            .min_by_key(|&(_, &stamp)| stamp)
            .expect("a set has at least one way");
        let i = base + way;
        if self.tags[i] != 0 {
            self.stats.evictions += 1;
            self.stats.writeback_sectors += self.dirty[i].count_ones() as u64;
        }
        self.tags[i] = tag;
        self.sectors[i] = sector_mask;
        self.dirty[i] = if write { sector_mask } else { 0 };
        self.stamps[i] = self.clock;
        self.stats.sector_misses += requested as u64;
        CacheOutcome {
            sector_hits: 0,
            sector_misses: requested,
            missed_mask: sector_mask,
            tag_hit: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            capacity: 1024, // 8 lines
            line_bytes: 128,
            sector_bytes: 32,
            ways: 2,
        })
    }

    #[test]
    fn set_count() {
        assert_eq!(small().config().sets(), 4);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let first = c.access(0, 0b0001);
        assert_eq!(first.sector_misses, 1);
        assert!(!first.tag_hit);
        let second = c.access(0, 0b0001);
        assert_eq!(second.sector_hits, 1);
        assert!(second.tag_hit);
    }

    #[test]
    fn sector_miss_on_tag_hit() {
        let mut c = small();
        c.access(0, 0b0001);
        let o = c.access(0, 0b0110);
        assert!(o.tag_hit);
        assert_eq!(o.sector_misses, 2);
        assert_eq!(o.sector_hits, 0);
        // All three sectors now resident.
        let o = c.access(0, 0b0111);
        assert_eq!(o.sector_hits, 3);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to set 0 in a 2-way cache:
        // set = (addr/128) % 4, so addresses 0, 512, 1024 share set 0.
        c.access(0, 1);
        c.access(512, 1);
        c.access(0, 1); // refresh line 0 -> LRU is 512
        c.access(1024, 1); // evicts 512
        assert!(c.access(0, 1).tag_hit);
        assert!(!c.access(512, 1).tag_hit); // was evicted
        assert!(c.stats().evictions >= 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = small();
        c.access(0, 0b1111);
        c.access(0, 0b1111);
        let s = c.stats();
        assert_eq!(s.tag_requests, 2);
        assert_eq!(s.sector_requests, 8);
        assert_eq!(s.sector_misses, 4);
        assert!((s.miss_rate_pct() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = small();
        c.access(0, 1);
        c.reset();
        assert_eq!(c.stats().tag_requests, 0);
        assert!(!c.access(0, 1).tag_hit);
    }

    #[test]
    fn merge_stats() {
        let mut a = CacheStats {
            tag_requests: 1,
            sector_requests: 2,
            sector_misses: 1,
            evictions: 0,
            writeback_sectors: 3,
        };
        let b = CacheStats {
            tag_requests: 10,
            sector_requests: 20,
            sector_misses: 5,
            evictions: 2,
            writeback_sectors: 4,
        };
        a.merge(&b);
        assert_eq!(a.tag_requests, 11);
        assert_eq!(a.sector_requests, 22);
        assert_eq!(a.sector_misses, 6);
        assert_eq!(a.evictions, 2);
        assert_eq!(a.writeback_sectors, 7);
    }

    #[test]
    fn streaming_through_small_cache_thrashes() {
        let mut c = small();
        // Stream 64 distinct lines twice; capacity 8 lines -> second
        // pass must miss everywhere.
        for pass in 0..2 {
            for i in 0..64u64 {
                let o = c.access(i * 128, 0b1111);
                if pass == 1 {
                    assert!(!o.tag_hit, "line {i} unexpectedly survived");
                }
            }
        }
    }

    #[test]
    fn writebacks_counted_on_dirty_eviction() {
        let mut c = small();
        // Dirty a line in set 0, then evict it with two more lines.
        c.access_write(0, 0b0011);
        c.access(512, 1);
        c.access(1024, 1); // evicts line 0 (LRU), which has 2 dirty sectors
        assert_eq!(c.stats().writeback_sectors, 2);
        // Clean evictions add nothing.
        c.access(1536, 1);
        assert_eq!(c.stats().writeback_sectors, 2);
    }

    #[test]
    fn rewriting_resident_sectors_keeps_single_dirty_mask() {
        let mut c = small();
        c.access_write(0, 0b0001);
        c.access_write(0, 0b0001); // same sector dirtied twice
        c.access(512, 1);
        c.access(1024, 1);
        assert_eq!(c.stats().writeback_sectors, 1);
    }

    proptest! {
        #[test]
        fn invariants(ops in proptest::collection::vec((0u64..64, 1u8..16), 1..200)) {
            let mut c = small();
            for (line, mask) in ops {
                let o = c.access(line * 128, mask);
                prop_assert_eq!(o.sector_hits + o.sector_misses, mask.count_ones());
            }
            let s = c.stats();
            prop_assert!(s.sector_misses <= s.sector_requests);
            prop_assert!(s.miss_rate_pct() <= 100.0);
        }

        #[test]
        fn repeat_access_always_hits(line in 0u64..32, mask in 1u8..16) {
            let mut c = small();
            c.access(line * 128, mask);
            let o = c.access(line * 128, mask);
            prop_assert_eq!(o.sector_misses, 0);
            prop_assert!(o.tag_hit);
        }
    }
}
