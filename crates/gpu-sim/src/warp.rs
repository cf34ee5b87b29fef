//! Warp-level replay: turning 32 per-lane event streams into
//! architectural transactions.
//!
//! After the engine executes every lane of a warp for one phase, this
//! module aligns the lanes' event streams and models the warp the way
//! the hardware issues it:
//!
//! * lane streams are split into *segments* at every
//!   [`Lane::set_path`](crate::kernel::Lane::set_path) call;
//! * within a segment index, lanes are grouped by their path value;
//!   multiple groups mean a **divergent branch** — the groups issue
//!   serially, exactly like SIMT path serialization (Section IV-D8:
//!   "all warp threads take the path through the conditional branches,
//!   one branch at a time, with a fraction of the warp threads masked
//!   off");
//! * within a path group, lanes advance in lockstep; each aligned step is
//!   one warp instruction, dispatched to the coalescer + cache hierarchy
//!   (global), the bank model (shared) or the serialization model
//!   (atomics).
//!
//! The alignment contract: lanes on the same path must produce the same
//! event kinds in the same order (true by construction for structured
//! SPMD kernels), and every lane of a warp must call `set_path` the
//! same number of times in a phase, even if only to re-state its
//! current path.  A violation — an undeclared divergent branch — is
//! reported as [`SimError::LaneDivergenceMismatch`] in *all* build
//! profiles, so release-mode launches fail loudly instead of silently
//! mis-attributing transactions (this used to be a debug-only
//! assertion).
//!
//! One walker, [`walk_warp`], applies these rules for the replayer and
//! the static analyzer alike.  Its per-lane segment cursors and `u64`
//! lane masks, like the models' buffers, are fixed-size: a warp replay
//! does no heap allocation.

use crate::atomics::model_atomic_instruction;
use crate::cache::Cache;
use crate::coalesce::{sector_requests, Coalescer, LINE_BUFFER_LEN};
use crate::counters::Counters;
use crate::device::{check_geometry, DeviceSpec};
use crate::error::SimError;
use crate::event::Event;
use crate::sharedmem::model_shared_instruction;

/// Lanes a warp can have: lane sets are `u64` bitmasks.
const MAX_LANES: usize = DeviceSpec::MAX_WARP_SIZE as usize;

/// Mutable simulation state one warp replay writes into.
pub struct ReplaySinks<'a> {
    /// This SM's L1 cache.
    pub l1: &'a mut Cache,
    /// The device L2 (or this SM's slice of it in parallel mode).
    pub l2: &'a mut Cache,
    /// Launch-wide counters (caller merges per-SM partials).
    pub counters: &'a mut Counters,
    /// Cache-line size in bytes.
    pub line_bytes: u32,
    /// Sector size in bytes.
    pub sector_bytes: u32,
    /// Shared-memory bank count.
    pub banks: u32,
    /// Shared-memory bank width in bytes.
    pub bank_width: u32,
}

/// One aligned warp instruction: the active lanes of one path group at
/// one lockstep step, as [`walk_warp`] hands it to its visitor.
pub(crate) struct Issue<'w, S> {
    streams: &'w [S],
    start: &'w [usize; MAX_LANES],
    /// Lockstep step within the path group's segment.
    pub step: usize,
    /// Active lanes (bit `l` for lane `l`).
    pub lanes: u64,
    /// Ordinal of the path group among those of its segment index that
    /// issue; from 1 on, the group's instructions are replays.
    pub group: u64,
}

impl<'w, S: AsRef<[Event]>> Issue<'w, S> {
    /// The lowest active lane, whose event names the instruction.
    #[inline]
    pub fn leader(&self) -> usize {
        self.lanes.trailing_zeros() as usize
    }

    /// Lane `lane`'s event index in its stream.
    #[inline]
    pub fn index(&self, lane: usize) -> usize {
        self.start[lane] + self.step
    }

    /// Lane `lane`'s event.
    #[inline]
    pub fn event(&self, lane: usize) -> &'w Event {
        &self.streams[lane].as_ref()[self.index(lane)]
    }
}

/// The set bits of `mask`, ascending.
#[inline]
pub(crate) fn lanes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// The subset of `mask` whose lanes satisfy `keep`.
#[inline]
fn select(mask: u64, mut keep: impl FnMut(usize) -> bool) -> u64 {
    lanes(mask).filter(|&l| keep(l)).fold(0, |m, l| m | 1 << l)
}

/// End of the segment starting at `from`: the next `SetPath`, or the
/// stream's end.
#[inline]
fn segment_end(stream: &[Event], from: usize) -> usize {
    stream[from..]
        .iter()
        .position(|e| matches!(e, Event::SetPath(_)))
        .map_or(stream.len(), |i| from + i)
}

/// Walk one warp's lane streams in hardware issue order.
///
/// Segment index by segment index: the lanes that reach it (a lane with
/// fewer `set_path` calls has returned and drops out) are grouped by
/// path, groups issue in ascending path order, a group whose lanes all
/// have empty segments (a predicated-off arm) issues nothing, and within
/// a group each lockstep step is one [`Issue`] over the lanes whose
/// segment still has an event.  `streams.len()` must not exceed
/// [`DeviceSpec::MAX_WARP_SIZE`].  Stops at the first visitor error.
pub(crate) fn walk_warp<S: AsRef<[Event]>, E>(
    streams: &[S],
    mut visit: impl FnMut(&Issue<'_, S>) -> Result<(), E>,
) -> Result<(), E> {
    assert!(streams.len() <= MAX_LANES, "a warp has at most 64 lanes");
    // Each live lane's current segment: events `start..end` on `path`.
    let mut start = [0usize; MAX_LANES];
    let mut end = [0usize; MAX_LANES];
    let mut path = [0u32; MAX_LANES];
    let mut alive = 0u64;
    for (lane, stream) in streams.iter().enumerate() {
        end[lane] = segment_end(stream.as_ref(), 0);
        alive |= 1 << lane;
    }
    while alive != 0 {
        let mut pending = alive;
        let mut group = 0;
        while let Some(p) = lanes(pending).map(|l| path[l]).min() {
            let on_path = select(pending, |l| path[l] == p);
            pending &= !on_path;
            let mut active = select(on_path, |l| end[l] > start[l]);
            if active == 0 {
                continue; // a predicated-off empty arm
            }
            // Lanes drop out only where a segment runs out, so the mask
            // is rebuilt only at the shortest remaining segment.
            let shortest = |mask| lanes(mask).map(|l| end[l] - start[l]).min();
            let mut drop_at = shortest(active);
            let mut step = 0;
            while active != 0 {
                visit(&Issue {
                    streams,
                    start: &start,
                    step,
                    lanes: active,
                    group,
                })?;
                step += 1;
                if drop_at == Some(step) {
                    active = select(active, |l| end[l] - start[l] > step);
                    drop_at = shortest(active);
                }
            }
            group += 1;
        }
        // Step every live lane past its `SetPath`; lanes at their
        // stream's end have returned.
        for lane in lanes(alive) {
            let stream = streams[lane].as_ref();
            match stream.get(end[lane]) {
                Some(&Event::SetPath(p)) => {
                    path[lane] = p;
                    start[lane] = end[lane] + 1;
                    end[lane] = segment_end(stream, start[lane]);
                }
                _ => alive &= !(1 << lane),
            }
        }
    }
    Ok(())
}

/// The lockstep error for lane `lane` issuing `found` where its path
/// group's leader issued an `expected` instruction.
fn mismatch(lane: usize, expected: &'static str, found: &Event) -> SimError {
    SimError::LaneDivergenceMismatch {
        lane: lane as u32,
        expected,
        found: found.kind_name(),
    }
}

/// Replay one warp's per-lane event streams (one phase) into the sinks.
///
/// `streams[lane]` is the ordered event list lane `lane` produced;
/// lanes beyond the launch boundary simply pass empty streams.
///
/// Returns [`SimError::LaneDivergenceMismatch`] if lanes sharing a path
/// fall out of lockstep (an undeclared divergent branch in the kernel),
/// and [`SimError::InvalidDevice`] if the warp is wider than
/// [`DeviceSpec::MAX_WARP_SIZE`] or the sinks' geometry fails
/// [`DeviceSpec::validate`].
pub fn replay_warp(streams: &[Vec<Event>], sinks: &mut ReplaySinks<'_>) -> Result<(), SimError> {
    let (line_bytes, sector_bytes) = (sinks.line_bytes, sinks.sector_bytes);
    let (banks, bank_width) = (sinks.banks, sinks.bank_width);
    check_geometry(streams.len(), line_bytes, sector_bytes, banks, bank_width)?;
    // Per-instruction scratch, reused across the warp.
    let mut atomic_addrs = [0u64; MAX_LANES];
    let mut local_accs = [(0u32, 0u8); MAX_LANES];
    let mut line_buf = [(0, 0); LINE_BUFFER_LEN];
    walk_warp(streams, |issue| {
        let c = &mut *sinks.counters;
        let n = issue.lanes.count_ones() as usize;
        if issue.group > 0 {
            c.replayed_instructions += 1;
            // Each path group past the first that issues is a divergent
            // branch.  Empty arms never issue: a one-sided `if (k == 0)`
            // compiles to predication — which is why Table I row 13 is
            // zero for every 3LP variant despite their single-writer
            // collapses.
            c.divergent_branches += (issue.step == 0) as u64;
        }
        match *issue.event(issue.leader()) {
            Event::GlobalLoad { .. } | Event::GlobalStore { .. } => {
                let mut lines = Coalescer::new(line_bytes, sector_bytes, &mut line_buf);
                let mut is_store = false;
                for l in lanes(issue.lanes) {
                    match *issue.event(l) {
                        Event::GlobalLoad { addr, bytes } => lines.push(addr, bytes),
                        Event::GlobalStore { addr, bytes } => {
                            is_store = true;
                            lines.push(addr, bytes);
                        }
                        ref other => return Err(mismatch(l, "global access", other)),
                    }
                }
                let lines = lines.finish();
                c.l1_tag_requests_global += lines.len() as u64;
                c.l1_sector_requests += sector_requests(lines);
                let access = if is_store {
                    c.global_store_instructions += 1;
                    Cache::access_write
                } else {
                    c.global_load_instructions += 1;
                    Cache::access
                };
                for &(line, mask) in lines {
                    let o = access(sinks.l1, line, mask);
                    c.l1_sector_misses += o.sector_misses as u64;
                    if o.missed_mask != 0 {
                        let o2 = access(sinks.l2, line, o.missed_mask);
                        c.l2_sector_requests += o.sector_misses as u64;
                        c.l2_sector_misses += o2.sector_misses as u64;
                    }
                }
                c.warp_instructions += 1;
            }
            Event::AtomicRmw { .. } => {
                let mut lines = Coalescer::new(line_bytes, sector_bytes, &mut line_buf);
                for (i, l) in lanes(issue.lanes).enumerate() {
                    let Event::AtomicRmw { addr, bytes } = *issue.event(l) else {
                        return Err(mismatch(l, "atomic rmw", issue.event(l)));
                    };
                    atomic_addrs[i] = addr;
                    lines.push(addr, bytes);
                }
                let a = model_atomic_instruction(&mut atomic_addrs[..n]);
                c.atomic_passes += a.passes;
                c.atomic_instructions += 1;
                // Atomics resolve at L2, bypassing L1, and dirty their
                // sectors (read-modify-write).
                for &(line, mask) in lines.finish() {
                    let o2 = sinks.l2.access_write(line, mask);
                    c.l2_sector_requests += mask.count_ones() as u64;
                    c.l2_sector_misses += o2.sector_misses as u64;
                }
                c.warp_instructions += a.passes;
            }
            Event::LocalLoad { .. } | Event::LocalStore { .. } => {
                for (i, l) in lanes(issue.lanes).enumerate() {
                    local_accs[i] = match *issue.event(l) {
                        Event::LocalLoad { offset, bytes }
                        | Event::LocalStore { offset, bytes } => (offset, bytes),
                        ref other => return Err(mismatch(l, "local access", other)),
                    };
                }
                let r = model_shared_instruction(&local_accs[..n], banks, bank_width);
                c.shared_wavefronts += r.wavefronts;
                c.shared_wavefronts_ideal += r.ideal_wavefronts;
                c.local_instructions += 1;
                c.warp_instructions += r.wavefronts.max(1);
            }
            Event::Flops(_) => {
                let mut worst = 0u64;
                for l in lanes(issue.lanes) {
                    let Event::Flops(n) = *issue.event(l) else {
                        return Err(mismatch(l, "flops", issue.event(l)));
                    };
                    c.flops += n as u64;
                    worst = worst.max(n as u64);
                }
                // An fp64 FMA retires 2 FLOPs per lane per slot, so a
                // batched Flops(n) event occupies ceil(n/2) issue slots
                // (the A100's fp64 pipe issues one warp FMA per SM per
                // cycle).
                c.warp_instructions += worst.div_ceil(2).max(1);
            }
            Event::Iops(_) => {
                for l in lanes(issue.lanes) {
                    let Event::Iops(n) = *issue.event(l) else {
                        return Err(mismatch(l, "iops", issue.event(l)));
                    };
                    c.iops += n as u64;
                }
                c.warp_instructions += 1;
            }
            Event::SetPath(_) => unreachable!("segments end at SetPath"),
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;

    fn sinks_with<'a>(
        l1: &'a mut Cache,
        l2: &'a mut Cache,
        counters: &'a mut Counters,
    ) -> ReplaySinks<'a> {
        ReplaySinks {
            l1,
            l2,
            counters,
            line_bytes: 128,
            sector_bytes: 32,
            banks: 32,
            bank_width: 4,
        }
    }

    fn caches() -> (Cache, Cache) {
        let l1 = Cache::new(CacheConfig {
            capacity: 128 * 1024,
            line_bytes: 128,
            sector_bytes: 32,
            ways: 4,
        });
        let l2 = Cache::new(CacheConfig {
            capacity: 1024 * 1024,
            line_bytes: 128,
            sector_bytes: 32,
            ways: 16,
        });
        (l1, l2)
    }

    #[test]
    fn coalesced_warp_load() {
        let streams: Vec<Vec<Event>> = (0..32)
            .map(|i| {
                vec![Event::GlobalLoad {
                    addr: 4096 + i * 8,
                    bytes: 8,
                }]
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.global_load_instructions, 1);
        assert_eq!(c.l1_tag_requests_global, 2); // 256 B = 2 lines
        assert_eq!(c.l1_sector_requests, 8);
        assert_eq!(c.l1_sector_misses, 8); // cold
        assert_eq!(c.l2_sector_misses, 8);
        assert_eq!(c.divergent_branches, 0);
    }

    #[test]
    fn second_pass_hits_l1() {
        let streams: Vec<Vec<Event>> = (0..32)
            .map(|i| {
                vec![
                    Event::GlobalLoad {
                        addr: 4096 + i * 8,
                        bytes: 8,
                    },
                    Event::GlobalLoad {
                        addr: 4096 + i * 8,
                        bytes: 8,
                    },
                ]
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.l1_sector_requests, 16);
        assert_eq!(c.l1_sector_misses, 8); // second instruction hits
    }

    #[test]
    fn divergent_paths_are_serialized_and_counted() {
        // Even lanes take path 1, odd lanes path 2; each does one flop op.
        let streams: Vec<Vec<Event>> = (0..32u32)
            .map(|i| {
                vec![
                    Event::SetPath(1 + (i % 2)),
                    Event::Flops(1),
                    Event::SetPath(0),
                ]
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.divergent_branches, 1);
        assert_eq!(c.flops, 32);
        // Two serialized path groups, one flop step each.
        assert_eq!(c.warp_instructions, 2);
        assert_eq!(c.replayed_instructions, 1);
    }

    #[test]
    fn uniform_path_is_not_divergent() {
        let streams: Vec<Vec<Event>> = (0..32)
            .map(|_| vec![Event::SetPath(7), Event::Flops(2), Event::SetPath(0)])
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.divergent_branches, 0);
        assert_eq!(c.flops, 64);
    }

    #[test]
    fn atomic_collision_passes() {
        // All 32 lanes atomically update the same address.
        let streams: Vec<Vec<Event>> = (0..32)
            .map(|_| {
                vec![Event::AtomicRmw {
                    addr: 8192,
                    bytes: 8,
                }]
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.atomic_instructions, 1);
        assert_eq!(c.atomic_passes, 32);
        // Atomics bypass L1 entirely.
        assert_eq!(c.l1_sector_requests, 0);
        assert_eq!(c.l2_sector_requests, 1);
    }

    #[test]
    fn shared_conflicts_counted() {
        // The 16-byte-stride local store pattern (4-way conflict).
        let streams: Vec<Vec<Event>> = (0..32u32)
            .map(|i| {
                vec![Event::LocalStore {
                    offset: i * 16,
                    bytes: 16,
                }]
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.local_instructions, 1);
        assert_eq!(c.shared_wavefronts, 16);
        assert_eq!(c.excessive_shared_wavefronts(), 12);
    }

    #[test]
    fn early_exit_lanes_drop_out() {
        // Lanes 0..8 do work; the rest returned immediately.
        let mut streams: Vec<Vec<Event>> = (0..8)
            .map(|i| {
                vec![Event::GlobalLoad {
                    addr: 1024 + i * 8,
                    bytes: 8,
                }]
            })
            .collect();
        streams.extend((8..32).map(|_| Vec::new()));
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.global_load_instructions, 1);
        assert_eq!(c.l1_sector_requests, 2); // 64 contiguous bytes
    }

    #[test]
    fn ragged_early_return_lanes_are_handled() {
        // A padded-grid bounds guard: half the lanes emit one event and
        // return; the rest continue with more work.  The replayer must
        // keep the survivors in lockstep instead of misaligning events.
        let streams: Vec<Vec<Event>> = (0..32u64)
            .map(|i| {
                if i < 16 {
                    vec![
                        Event::Iops(1),
                        Event::GlobalLoad {
                            addr: 4096 + i * 8,
                            bytes: 8,
                        },
                        Event::Flops(2),
                    ]
                } else {
                    vec![Event::Iops(1)]
                }
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c.global_load_instructions, 1);
        // Only the 16 surviving lanes' addresses coalesce: 128 B = 1 line.
        assert_eq!(c.l1_tag_requests_global, 1);
        assert_eq!(c.flops, 32);
        assert_eq!(c.divergent_branches, 0);
    }

    #[test]
    fn undeclared_divergence_is_an_error() {
        // Lane 1 issues a store where the rest of the warp issues a
        // load, without any set_path declaration: the replayer must
        // surface a recoverable error, not a debug-only assertion.
        let streams: Vec<Vec<Event>> = (0..32u64)
            .map(|i| {
                if i == 1 {
                    vec![Event::LocalStore {
                        offset: 0,
                        bytes: 8,
                    }]
                } else {
                    vec![Event::GlobalLoad {
                        addr: 4096 + i * 8,
                        bytes: 8,
                    }]
                }
            })
            .collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        let err = replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap_err();
        assert_eq!(
            err,
            SimError::LaneDivergenceMismatch {
                lane: 1,
                expected: "global access",
                found: "local store",
            }
        );
    }

    #[test]
    fn empty_warp_is_noop() {
        let streams: Vec<Vec<Event>> = (0..32).map(|_| Vec::new()).collect();
        let (mut l1, mut l2) = caches();
        let mut c = Counters::default();
        replay_warp(&streams, &mut sinks_with(&mut l1, &mut l2, &mut c)).unwrap();
        assert_eq!(c, Counters::default());
    }
}
