//! Differential test of the warp replayer: random warps replayed through
//! `gpu_sim::warp::replay_warp` and through the pre-rewrite replayer kept
//! in `seed_replay/` must return identical errors and leave identical
//! L1/L2 statistics and, when they succeed, identical counters.
//!
//! The generated warps cover what the alignment and per-instruction
//! models special-case: ragged early returns, multi-segment divergent
//! paths with empty arms, 4/8/16-byte accesses straddling sectors and
//! lines, lanes visiting lines out of order (descending, interleaved,
//! and revisiting lines far apart), colliding atomics, mixed-width
//! shared accesses with bank conflicts, and undeclared divergence.

mod seed_replay;

use gpu_sim::cache::{Cache, CacheConfig};
use gpu_sim::warp::{replay_warp, ReplaySinks};
use gpu_sim::{Counters, Event};
use proptest::prelude::*;

/// SplitMix64: one seed drives the whole warp, so a failing case is
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

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Replay geometry: one of the shapes `DeviceSpec::validate` admits.
#[derive(Clone, Copy, Debug)]
struct Geometry {
    line_bytes: u32,
    sector_bytes: u32,
    banks: u32,
    bank_width: u32,
}

impl Geometry {
    fn random(rng: &mut Rng) -> Self {
        let line_bytes = rng.pick(&[128, 128, 256]);
        Self {
            line_bytes,
            sector_bytes: rng.pick(&[32, 32, 64]).max(line_bytes / 8),
            banks: rng.pick(&[32, 32, 16, 64, 7]),
            bank_width: rng.pick(&[4, 4, 8]),
        }
    }
}

/// One warp-wide instruction template: every lane on the path issues
/// the same kind, with a lane-dependent address.
fn instruction(rng: &mut Rng, lanes: u64) -> impl Fn(u64) -> Event {
    let kind = rng.below(7);
    // Strides cover broadcast, dense, the 3LP row (48 B), 1LP site
    // (576 B) and odd strides that straddle sectors and lines.
    let stride = rng.pick(&[0u64, 4, 8, 12, 16, 24, 48, 100, 128, 576]);
    let base = rng.below(4096);
    let width = rng.pick(&[4u8, 8, 16]);
    let mixed = rng.chance(40);
    let wrap = rng.pick(&[1u64, 2, 4, 8, 32]).min(lanes.max(1));
    let n = rng.pick(&[1u32, 2, 3, 18, 66]);
    // The lane order of global and atomic addresses: half the time
    // ascending, else descending, two interleaved halves, or a short
    // cycle that revisits lines far apart — the coalescer's sort path.
    let order = rng.pick(&[0u64, 0, 0, 1, 2, 3]);
    let cycle = rng.pick(&[2u64, 3, 5]);
    let slot = move |lane: u64| match order {
        0 => lane,
        1 => lanes - 1 - lane,
        2 => lane / 2 + (lane % 2) * lanes.div_ceil(2),
        _ => lane % cycle,
    };
    let atomic_stride = rng.pick(&[16u64, 16, 200]);
    move |lane: u64| {
        let bytes = if mixed {
            [4u8, 8, 16][(lane % 3) as usize]
        } else {
            width
        };
        let addr = (1 << 20) + base + slot(lane) * stride;
        match kind {
            0 => Event::GlobalLoad { addr, bytes },
            1 => Event::GlobalStore { addr, bytes },
            2 => Event::AtomicRmw {
                addr: (1 << 22) + base / 8 * 8 + (slot(lane) % wrap) * atomic_stride,
                bytes: 8,
            },
            3 => Event::LocalLoad {
                offset: (base + lane * stride) as u32 % 8192,
                bytes,
            },
            4 => Event::LocalStore {
                offset: (base + (lane % wrap) * stride) as u32 % 8192,
                bytes,
            },
            5 => Event::Flops(n + (lane % 2) as u32),
            _ => Event::Iops(n),
        }
    }
}

fn straight_line(rng: &mut Rng, lanes: u64, len: u64, streams: &mut [Vec<Event>]) {
    for _ in 0..len {
        let ins = instruction(rng, lanes);
        for (lane, s) in streams.iter_mut().enumerate() {
            s.push(ins(lane as u64));
        }
    }
}

/// A random warp: straight-line blocks and branches whose arms (some
/// empty) are declared with `SetPath`, then ragged early returns and,
/// sometimes, one lane's undeclared divergence.
fn random_warp(rng: &mut Rng) -> Vec<Vec<Event>> {
    let lanes = rng.pick(&[32u64, 32, 64, 8, 1, 17]);
    let mut streams: Vec<Vec<Event>> = (0..lanes).map(|_| Vec::new()).collect();
    for _ in 0..1 + rng.below(4) {
        if rng.chance(50) {
            let len = rng.below(5);
            straight_line(rng, lanes, len, &mut streams);
            continue;
        }
        // A branch: each lane picks one of up to four arms; arms are
        // emitted in a random order and some are empty.
        let arms = 1 + rng.below(4);
        let arm_of: Vec<u64> = (0..lanes).map(|_| rng.below(arms)).collect();
        let path_base = rng.below(3) as u32;
        for (lane, s) in streams.iter_mut().enumerate() {
            s.push(Event::SetPath(path_base + arm_of[lane] as u32 * 2));
        }
        for arm in 0..arms {
            let len = if rng.chance(30) { 0 } else { 1 + rng.below(4) };
            for _ in 0..len {
                let ins = instruction(rng, lanes);
                for (lane, s) in streams.iter_mut().enumerate() {
                    if arm_of[lane] == arm {
                        s.push(ins(lane as u64));
                    }
                }
            }
        }
        // Reconverge (or, sometimes, stay on the arm's path).
        if rng.chance(80) {
            for s in streams.iter_mut() {
                s.push(Event::SetPath(0));
            }
        }
    }
    if rng.chance(40) {
        // Ragged early returns: lanes stop at random points, mid-segment
        // or before later `SetPath`s.
        for s in streams.iter_mut() {
            if rng.chance(40) {
                let keep = rng.below(s.len() as u64 + 1) as usize;
                s.truncate(keep);
            }
        }
    }
    if rng.chance(15) {
        // Undeclared divergence: one lane issues a different kind.
        let lane = rng.below(lanes) as usize;
        if !streams[lane].is_empty() {
            let at = rng.below(streams[lane].len() as u64) as usize;
            if !matches!(streams[lane][at], Event::SetPath(_)) {
                streams[lane][at] = match streams[lane][at] {
                    Event::Flops(_) => Event::LocalStore {
                        offset: 0,
                        bytes: 8,
                    },
                    _ => Event::Flops(2),
                };
            }
        }
    }
    streams
}

/// A replayer's whole observable state.
struct Side {
    l1: Cache,
    l2: Cache,
    counters: Counters,
}

impl Side {
    fn new(g: Geometry) -> Self {
        // Small caches, so a few warps already evict and write back.
        let cache = |capacity, ways| {
            Cache::new(CacheConfig {
                capacity,
                line_bytes: g.line_bytes,
                sector_bytes: g.sector_bytes,
                ways,
            })
        };
        Self {
            l1: cache(4 * g.line_bytes as u64 * 4, 4),
            l2: cache(16 * g.line_bytes as u64 * 4, 4),
            counters: Counters::default(),
        }
    }

    fn sinks(&mut self, g: Geometry) -> ReplaySinks<'_> {
        ReplaySinks {
            l1: &mut self.l1,
            l2: &mut self.l2,
            counters: &mut self.counters,
            line_bytes: g.line_bytes,
            sector_bytes: g.sector_bytes,
            banks: g.banks,
            bank_width: g.bank_width,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Several random warps replayed back to back through one pair of
    /// caches: after every warp both replayers agree on the result, both
    /// caches' statistics and (until a warp fails) the counters.
    #[test]
    fn replay_matches_the_seed_replayer(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let g = Geometry::random(&mut rng);
        let mut new = Side::new(g);
        let mut old = Side::new(g);
        for warp in 0..1 + rng.below(4) {
            let streams = random_warp(&mut rng);
            let got = replay_warp(&streams, &mut new.sinks(g));
            let want = seed_replay::seed_replay_warp(&streams, &mut old.sinks(g));
            prop_assert_eq!(&got, &want, "seed {seed} warp {warp}: result ({g:?})");
            prop_assert_eq!(new.l1.stats(), old.l1.stats(), "seed {seed} warp {warp}: L1");
            prop_assert_eq!(new.l2.stats(), old.l2.stats(), "seed {seed} warp {warp}: L2");
            if got.is_err() {
                // A failed replay's counters are discarded by every
                // caller; the seed also left the failing segment's
                // divergence uncounted.
                break;
            }
            prop_assert_eq!(new.counters, old.counters, "seed {seed} warp {warp}: counters");
        }
    }
}

/// Whether some warp instruction's lanes, in lane order, visit a line
/// below one an earlier lane visited (global accesses and atomics of
/// the same stream position, which straight-line warps align).
fn visits_lines_out_of_order(streams: &[Vec<Event>], line_bytes: u32) -> bool {
    let len = streams.iter().map(Vec::len).max().unwrap_or(0);
    (0..len).any(|i| {
        let lines = streams.iter().filter_map(|s| match s.get(i) {
            Some(
                Event::GlobalLoad { addr, .. }
                | Event::GlobalStore { addr, .. }
                | Event::AtomicRmw { addr, .. },
            ) => Some(addr / line_bytes as u64),
            _ => None,
        });
        let mut highest = 0;
        lines.fold(false, |seen, line| {
            highest = highest.max(line);
            seen || line < highest
        })
    })
}

/// The generator reaches every case the test exists for.
#[test]
fn generator_covers_the_special_cases() {
    let (mut errors, mut divergent, mut ragged, mut conflicts, mut collisions) = (0, 0, 0, 0, 0);
    let (mut straddles, mut out_of_order) = (0, 0);
    let mut rng = Rng(7);
    for _ in 0..600 {
        let g = Geometry::random(&mut rng);
        let streams = random_warp(&mut rng);
        let mut side = Side::new(g);
        match replay_warp(&streams, &mut side.sinks(g)) {
            Err(_) => errors += 1,
            Ok(()) => {
                let c = side.counters;
                divergent += (c.divergent_branches > 0) as u32;
                conflicts += (c.shared_wavefronts > c.shared_wavefronts_ideal) as u32;
                collisions += (c.atomic_passes > c.atomic_instructions) as u32;
                straddles += (c.l1_sector_requests
                    > c.global_load_instructions + c.global_store_instructions
                    && c.l1_tag_requests_global > 0) as u32;
            }
        }
        out_of_order += visits_lines_out_of_order(&streams, g.line_bytes) as u32;
        let lens: Vec<usize> = streams.iter().map(Vec::len).collect();
        ragged += (lens.iter().min() != lens.iter().max()) as u32;
    }
    for (what, n) in [
        ("lockstep errors", errors),
        ("divergent warps", divergent),
        ("ragged warps", ragged),
        ("bank conflicts", conflicts),
        ("atomic collisions", collisions),
        ("multi-sector accesses", straddles),
        ("out-of-order line visits", out_of_order),
    ] {
        assert!(n >= 10, "only {n} of 600 random warps have {what}");
    }
}
