//! Microbenchmarks of the simulator's hot components: the coalescer,
//! the sectored cache, the shared-memory bank model, the atomic
//! serialization model, and whole-warp replay over all of them — the
//! per-event costs that set the simulation's own throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gpu_sim::atomics::model_atomic_instruction;
use gpu_sim::cache::{Cache, CacheConfig};
use gpu_sim::coalesce::{coalesce, sector_requests, LINE_BUFFER_LEN};
use gpu_sim::sharedmem::model_shared_instruction;
use gpu_sim::warp::{replay_warp, ReplaySinks};
use gpu_sim::{Counters, DeviceSpec, Event};

fn bench_coalescer(c: &mut Criterion) {
    let mut group = c.benchmark_group("coalescer");
    group.throughput(Throughput::Elements(32));
    let contiguous: Vec<(u64, u8)> = (0..32).map(|i| (4096 + i * 8, 8)).collect();
    let scattered: Vec<(u64, u8)> = (0..32).map(|i| (4096 + i * 576, 8)).collect();
    // Lanes cycle over four lines 1 KB apart, so every line recurs four
    // lanes later and the lines arrive out of order.
    let interleaved: Vec<(u64, u8)> = (0..32)
        .map(|i| (4096 + (i % 4) * 1024 + i / 4 * 8, 8))
        .collect();
    let mut buf = [(0, 0); LINE_BUFFER_LEN];
    group.bench_function("contiguous_warp", |b| {
        b.iter(|| sector_requests(coalesce(&contiguous, 128, 32, &mut buf)))
    });
    group.bench_function("scattered_warp", |b| {
        b.iter(|| sector_requests(coalesce(&scattered, 128, 32, &mut buf)))
    });
    group.bench_function("interleaved_warp", |b| {
        b.iter(|| sector_requests(coalesce(&interleaved, 128, 32, &mut buf)))
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("sectored_cache");
    group.throughput(Throughput::Elements(1024));
    group.bench_function("hit_stream", |b| {
        let mut cache = Cache::new(CacheConfig {
            capacity: 128 * 1024,
            line_bytes: 128,
            sector_bytes: 32,
            ways: 4,
        });
        for i in 0..64u64 {
            cache.access(i * 128, 0b1111);
        }
        b.iter(|| {
            let mut hits = 0;
            for i in 0..1024u64 {
                hits += cache.access((i % 64) * 128, 0b1111).sector_hits;
            }
            hits
        })
    });
    group.bench_function("thrash_stream", |b| {
        let mut cache = Cache::new(CacheConfig {
            capacity: 16 * 1024,
            line_bytes: 128,
            sector_bytes: 32,
            ways: 4,
        });
        b.iter(|| {
            let mut misses = 0;
            for i in 0..1024u64 {
                misses += cache.access(i * 128, 0b1111).sector_misses;
            }
            misses
        })
    });
    // The `table1-l16` device's L2: 2.5 MB, 16 ways, 1280 sets, fed a
    // pseudo-random walk over 8x its capacity, so most accesses miss.
    group.bench_function("l2_table1_miss_stream", |b| {
        let mut cache = Cache::new(CacheConfig {
            capacity: 2560 * 1024,
            line_bytes: 128,
            sector_bytes: 32,
            ways: 16,
        });
        let lines = 8 * 1280 * 16;
        let mut x = 1u64;
        b.iter(|| {
            let mut misses = 0;
            for _ in 0..1024 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                misses += cache.access((x >> 33) % lines * 128, 0b0011).sector_misses;
            }
            misses
        })
    });
    group.finish();
}

fn bench_bank_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("shared_banks");
    let conflict_free: Vec<(u32, u8)> = (0..32).map(|i| (i * 4, 4)).collect();
    let four_way: Vec<(u32, u8)> = (0..32).map(|i| (i * 16, 16)).collect();
    group.bench_function("conflict_free", |b| {
        b.iter(|| model_shared_instruction(&conflict_free, 32, 4).wavefronts)
    });
    group.bench_function("four_way_conflict", |b| {
        b.iter(|| model_shared_instruction(&four_way, 32, 4).wavefronts)
    });
    group.finish();
}

fn bench_atomics(c: &mut Criterion) {
    let mut group = c.benchmark_group("atomic_model");
    let distinct: Vec<u64> = (0..32).map(|i| 4096 + i * 8).collect();
    let colliding: Vec<u64> = (0..32).map(|i| 4096 + (i % 8) * 16).collect();
    // The model sorts in place: each iteration restores the lane order.
    let mut scratch = distinct.clone();
    group.bench_function("distinct", |b| {
        b.iter(|| {
            scratch.copy_from_slice(&distinct);
            model_atomic_instruction(&mut scratch).passes
        })
    });
    group.bench_function("colliding", |b| {
        b.iter(|| {
            scratch.copy_from_slice(&colliding);
            model_atomic_instruction(&mut scratch).passes
        })
    });
    group.finish();
}

/// A 1LP-style warp: every lane streams one SU(3) matrix (18 f64s) of
/// its own site, 576 bytes apart, so no two lanes share a line.
fn scattered_load_warp() -> Vec<Vec<Event>> {
    (0..32u64)
        .map(|lane| {
            let mut s = vec![Event::Iops(6)];
            for j in 0..18 {
                s.push(Event::GlobalLoad {
                    addr: 1 << 20 | (lane * 576 + j * 8),
                    bytes: 8,
                });
            }
            s.push(Event::Flops(66));
            s
        })
        .collect()
}

/// A 4LP-style warp: lanes split over three paths by their row, each
/// path stores 16-byte complex partial sums at a 16-byte stride (a
/// 4-way bank conflict per phase), then the warp reconverges and reads
/// them back.
fn divergent_shared_warp() -> Vec<Vec<Event>> {
    (0..32u32)
        .map(|lane| {
            vec![
                Event::SetPath(1 + lane % 3),
                Event::Flops(12),
                Event::LocalStore {
                    offset: lane * 16,
                    bytes: 16,
                },
                Event::SetPath(0),
                Event::LocalLoad {
                    offset: (lane % 8) * 16,
                    bytes: 16,
                },
                Event::Flops(2),
            ]
        })
        .collect()
}

/// A 3LP-2-style warp: four k-lanes per (site, row) atomically add to
/// one output component, a 4-way collision per atomic.
fn atomic_collision_warp() -> Vec<Vec<Event>> {
    (0..32u64)
        .map(|lane| {
            let c = 1 << 22 | ((lane % 8) * 16);
            vec![
                Event::GlobalLoad {
                    addr: 1 << 20 | (lane * 48),
                    bytes: 16,
                },
                Event::Flops(8),
                Event::AtomicRmw { addr: c, bytes: 8 },
                Event::AtomicRmw {
                    addr: c + 8,
                    bytes: 8,
                },
            ]
        })
        .collect()
}

fn bench_replay_warp(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_warp");
    let device = DeviceSpec::a100();
    let cache = |capacity, ways| {
        Cache::new(CacheConfig {
            capacity,
            line_bytes: device.line_bytes,
            sector_bytes: device.sector_bytes,
            ways,
        })
    };
    let warps = [
        ("1lp_scattered_load", scattered_load_warp()),
        ("4lp_divergent_shared", divergent_shared_warp()),
        ("3lp2_atomic_collision", atomic_collision_warp()),
    ];
    for (name, streams) in &warps {
        let mut l1 = cache(device.l1_bytes as u64, device.l1_ways);
        let mut l2 = cache(device.l2_bytes, device.l2_ways);
        let mut counters = Counters::default();
        group.bench_function(*name, |b| {
            b.iter(|| {
                let mut sinks = ReplaySinks {
                    l1: &mut l1,
                    l2: &mut l2,
                    counters: &mut counters,
                    line_bytes: device.line_bytes,
                    sector_bytes: device.sector_bytes,
                    banks: device.shared_banks,
                    bank_width: device.bank_width,
                };
                replay_warp(streams, &mut sinks).expect("bench warps stay in lockstep")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_coalescer,
    bench_cache,
    bench_bank_model,
    bench_atomics,
    bench_replay_warp
);
criterion_main!(benches);
