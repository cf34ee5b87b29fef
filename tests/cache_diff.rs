//! Differential test of the sectored cache: random read/write streams
//! through `gpu_sim::cache::Cache` and through the pre-rewrite model
//! kept in `seed_cache/` must return identical outcomes access by
//! access and end with identical statistics.
//!
//! The geometries cover 1-, 4- and 16-way sets; 1, 7, 80, 256 and 1280
//! sets (80 and 1280 are the L2s of the `cg-l8` and `table1-l16`
//! devices); 128- and 256-byte lines in 4 or 8 sectors.  Line addresses
//! reach from 0 past 2^39, across the line index 2^32 where the set
//! index leaves its multiply for `%`, up to the top of the address
//! space; streams interleave reads, writes and resets.

mod seed_cache;

use gpu_sim::cache::{Cache, CacheConfig};
use proptest::prelude::*;

/// SplitMix64: one seed drives the whole stream, so a failing case is
/// reproduced from the seed printed with it.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

fn random_config(rng: &mut Rng) -> CacheConfig {
    let line_bytes = rng.pick(&[128u32, 256]);
    let ways = rng.pick(&[1u32, 4, 16]);
    let sets = rng.pick(&[1u64, 7, 80, 256, 1280]);
    CacheConfig {
        capacity: sets * ways as u64 * line_bytes as u64,
        line_bytes,
        sector_bytes: line_bytes / rng.pick(&[4, 8]),
        ways,
    }
}

/// First line index of a stream's address region: low memory, just
/// below line index 2^32 (so the stream crosses it), at 2^39 bytes and
/// above, and the top of the address space.
fn region(rng: &mut Rng, cfg: &CacheConfig, span: u64) -> u64 {
    let top = u64::MAX / cfg.line_bytes as u64 - span;
    rng.pick(&[
        0,
        (1 << 32) - span / 2,
        (1 << 39) / cfg.line_bytes as u64,
        1 << 40,
        top,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn cache_matches_the_seed_cache(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let cfg = random_config(&mut rng);
        let mut new = Cache::new(cfg);
        let mut old = seed_cache::Cache::new(cfg);
        prop_assert_eq!(new.config(), old.config());
        let sectors = cfg.line_bytes / cfg.sector_bytes;
        // About twice the capacity in lines, so streams both hit and
        // evict; some streams stay inside one set's reach.
        let span = rng.pick(&[2u64, cfg.sets(), 2 * cfg.sets() * cfg.ways as u64 + 3]);
        let first = region(&mut rng, &cfg, span);
        for op in 0..1 + rng.below(1500) {
            if rng.below(400) == 0 {
                new.reset();
                old.reset();
                continue;
            }
            let line = (first + rng.below(span)) * cfg.line_bytes as u64;
            let mask = 1 + rng.below((1 << sectors) - 1) as u8;
            let (got, want) = if rng.below(3) == 0 {
                (new.access_write(line, mask), old.access_write(line, mask))
            } else {
                (new.access(line, mask), old.access(line, mask))
            };
            prop_assert_eq!(got, want, "seed {seed} op {op}: line {line:#x} ({cfg:?})");
        }
        prop_assert_eq!(new.stats(), old.stats(), "seed {seed}: stats ({cfg:?})");
    }
}

/// The generator exercises what the test exists for: evictions with
/// write-backs on every associativity, and both set-index paths.
#[test]
fn generator_covers_evictions_and_both_index_paths() {
    let (mut writebacks, mut high, mut low) = ([0u32; 3], 0, 0);
    let mut rng = Rng(11);
    for _ in 0..400 {
        let cfg = random_config(&mut rng);
        let mut cache = Cache::new(cfg);
        let span = rng.pick(&[2u64, cfg.sets(), 2 * cfg.sets() * cfg.ways as u64 + 3]);
        let first = region(&mut rng, &cfg, span);
        let mut crossed = [false; 2];
        for _ in 0..1 + rng.below(1500) {
            let index = first + rng.below(span);
            crossed[(index >= 1 << 32) as usize] = true;
            cache.access_write(index * cfg.line_bytes as u64, 1);
        }
        let way_class = [1, 4, 16].iter().position(|&w| w == cfg.ways).unwrap();
        writebacks[way_class] += (cache.stats().writeback_sectors > 0) as u32;
        low += crossed[0] as u32;
        high += crossed[1] as u32;
    }
    for (what, n) in [
        ("direct-mapped write-backs", writebacks[0]),
        ("4-way write-backs", writebacks[1]),
        ("16-way write-backs", writebacks[2]),
        ("line indices below 2^32", low),
        ("line indices at or above 2^32", high),
    ] {
        assert!(n >= 20, "only {n} of 400 random streams have {what}");
    }
}
