//! A warmed `replay_warp` call allocates nothing: this binary installs a
//! counting global allocator and replays realistic warps — a scattered
//! global load, a divergent warp with shared-bank conflicts, colliding
//! atomics, lanes visiting lines out of order and a lockstep error —
//! many times after one warm-up pass.

use gpu_sim::cache::{Cache, CacheConfig};
use gpu_sim::warp::{replay_warp, ReplaySinks};
use gpu_sim::{Counters, DeviceSpec, Event};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations made by the current thread, so the test harness's
/// own threads cannot disturb the count.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn warps() -> Vec<Vec<Vec<Event>>> {
    let scattered = (0..32u64)
        .map(|lane| {
            (0..18)
                .map(|j| Event::GlobalLoad {
                    addr: (1 << 20) + lane * 576 + j * 8,
                    bytes: 8,
                })
                .chain([Event::Flops(66)])
                .collect()
        })
        .collect();
    let divergent = (0..32u32)
        .map(|lane| {
            vec![
                Event::SetPath(1 + lane % 3),
                Event::LocalStore {
                    offset: lane * 16,
                    bytes: 16,
                },
                Event::SetPath(0),
                Event::LocalLoad {
                    offset: lane * 8,
                    bytes: 8,
                },
            ]
        })
        .collect();
    let atomics = (0..32u64)
        .map(|lane| {
            vec![Event::AtomicRmw {
                addr: (1 << 22) + (lane % 8) * 16,
                bytes: 8,
            }]
        })
        .collect();
    let undeclared = (0..32u64)
        .map(|lane| {
            vec![if lane == 5 {
                Event::Flops(1)
            } else {
                Event::GlobalStore {
                    addr: (1 << 20) + lane * 8,
                    bytes: 8,
                }
            }]
        })
        .collect();
    // Lanes visit four lines in turn, so each line recurs 4 lanes
    // later: the coalescer sorts and merges.
    let interleaved = (0..32u64)
        .map(|lane| {
            vec![Event::GlobalLoad {
                addr: (1 << 21) + (lane % 4) * 1024 + lane / 4 * 8,
                bytes: 8,
            }]
        })
        .collect();
    vec![scattered, divergent, atomics, interleaved, undeclared]
}

#[test]
fn warmed_replay_warp_does_not_allocate() {
    let device = DeviceSpec::a100();
    let cache = |capacity, ways| {
        Cache::new(CacheConfig {
            capacity,
            line_bytes: device.line_bytes,
            sector_bytes: device.sector_bytes,
            ways,
        })
    };
    let mut l1 = cache(device.l1_bytes as u64, device.l1_ways);
    let mut l2 = cache(device.l2_bytes, device.l2_ways);
    let mut counters = Counters::default();
    let warps = warps();
    let mut replay_all = || {
        let mut errors = 0;
        for streams in &warps {
            let mut sinks = ReplaySinks {
                l1: &mut l1,
                l2: &mut l2,
                counters: &mut counters,
                line_bytes: device.line_bytes,
                sector_bytes: device.sector_bytes,
                banks: device.shared_banks,
                bank_width: device.bank_width,
            };
            errors += replay_warp(streams, &mut sinks).is_err() as u32;
        }
        errors
    };
    assert_eq!(replay_all(), 1, "only the undeclared-divergence warp fails");
    let before = allocations();
    for _ in 0..100 {
        replay_all();
    }
    assert_eq!(allocations() - before, 0, "replay_warp allocated");
    assert!(counters.shared_wavefronts > counters.shared_wavefronts_ideal);
    assert!(counters.atomic_passes > counters.atomic_instructions);
    assert!(counters.divergent_branches > 0);
}
