//! The sectored cache model as it stood before the struct-of-arrays
//! rewrite: an array of per-way structs with `u64::MAX` marking an
//! invalid tag, a `/` and `%` set index, a linear tag search and a
//! `min_by_key` victim.  Kept verbatim, outside the library, as the
//! oracle `cache_diff.rs` compares `gpu_sim::cache::Cache` against.
//! The configuration, outcome and statistics types are the library's,
//! which the rewrite left unchanged.

use gpu_sim::cache::{CacheConfig, CacheOutcome, CacheStats};

#[derive(Copy, Clone)]
struct LineState {
    /// Line base address, or u64::MAX when invalid.
    tag: u64,
    /// Bitmask of resident sectors.
    sectors: u8,
    /// Bitmask of dirty sectors (written, not yet flushed below).
    dirty: u8,
    /// LRU timestamp.
    stamp: u64,
}

const INVALID: u64 = u64::MAX;

/// A sectored set-associative cache.
pub struct Cache {
    cfg: CacheConfig,
    sets: u64,
    lines: Vec<LineState>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache from a configuration.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Self {
            cfg,
            sets,
            lines: vec![
                LineState {
                    tag: INVALID,
                    sectors: 0,
                    dirty: 0,
                    stamp: 0
                };
                (sets * cfg.ways as u64) as usize
            ],
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
        for l in &mut self.lines {
            *l = LineState {
                tag: INVALID,
                sectors: 0,
                dirty: 0,
                stamp: 0,
            };
        }
        self.clock = 0;
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_of(&self, line_addr: u64) -> u64 {
        (line_addr / self.cfg.line_bytes as u64) % self.sets
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

        let ways = self.cfg.ways as usize;
        let base = (self.set_of(line_addr) * ways as u64) as usize;
        let set = &mut self.lines[base..base + ways];

        // Tag lookup.
        if let Some(line) = set.iter_mut().find(|l| l.tag == line_addr) {
            let missed_mask = sector_mask & !line.sectors;
            let hits = (sector_mask & line.sectors).count_ones();
            let misses = requested - hits;
            line.sectors |= sector_mask;
            if write {
                line.dirty |= sector_mask;
            }
            line.stamp = self.clock;
            self.stats.sector_misses += misses as u64;
            return CacheOutcome {
                sector_hits: hits,
                sector_misses: misses,
                missed_mask,
                tag_hit: true,
            };
        }

        // Tag miss: victim = invalid line if any, else LRU.
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.tag == INVALID { 0 } else { l.stamp })
            .expect("cache set cannot be empty");
        if victim.tag != INVALID {
            self.stats.evictions += 1;
            self.stats.writeback_sectors += victim.dirty.count_ones() as u64;
        }
        victim.tag = line_addr;
        victim.sectors = sector_mask;
        victim.dirty = if write { sector_mask } else { 0 };
        victim.stamp = self.clock;
        self.stats.sector_misses += requested as u64;
        CacheOutcome {
            sector_hits: 0,
            sector_misses: requested,
            missed_mask: sector_mask,
            tag_hit: false,
        }
    }
}
