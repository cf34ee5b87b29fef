//! Global-memory coalescing: mapping one warp-level memory instruction
//! onto cache lines and sectors.
//!
//! The L1 front end looks one instruction at a time at the addresses of
//! all active lanes, merges them into 128-byte cache-line *tag lookups*
//! and 32-byte *sector requests* (Section IV-D7 of the paper analyses
//! exactly this merging for the k- and i-major work-item orders).

use crate::device::DeviceSpec;

/// Capacity of a [`LineBuffer`]: every lane of the widest warp on 3
/// lines of its own, the most an access below 256 bytes can span on
/// lines of at least [`DeviceSpec::MIN_LINE_BYTES`] = 128 bytes.
pub const LINE_BUFFER_LEN: usize = DeviceSpec::MAX_WARP_SIZE as usize * 3;

/// Caller-owned scratch the coalescer fills with `(line base, sector
/// mask)` pairs, so a warp replay allocates nothing per instruction.
pub type LineBuffer = [(u64, u8); LINE_BUFFER_LEN];

/// Number of sector requests in a coalesced instruction's lines.
#[inline]
pub fn sector_requests(lines: &[(u64, u8)]) -> u64 {
    lines.iter().map(|&(_, m)| m.count_ones() as u64).sum()
}

/// Coalesce the active lanes' `(addr, bytes)` accesses of one warp
/// instruction into lines and sectors: returns the unique `(line base,
/// sector mask)` pairs in ascending line order, one per tag request,
/// written to the front of `out`.
///
/// At most [`DeviceSpec::MAX_WARP_SIZE`] accesses; `line_bytes` must be
/// a power of two of at least [`DeviceSpec::MIN_LINE_BYTES`], split into
/// 1 to 8 power-of-two sectors (the geometry [`DeviceSpec::validate`]
/// admits).  Panics with a message naming the limit otherwise.
///
/// ```
/// use gpu_sim::coalesce::{coalesce, sector_requests, LINE_BUFFER_LEN};
/// let mut buf = [(0, 0); LINE_BUFFER_LEN];
/// // 32 lanes reading consecutive f64s: 256 B = 2 lines, 8 sectors.
/// let dense: Vec<(u64, u8)> = (0..32).map(|i| (4096 + i * 8, 8)).collect();
/// let lines = coalesce(&dense, 128, 32, &mut buf);
/// assert_eq!((lines.len(), sector_requests(lines)), (2, 8));
/// // The 1LP pattern (576-byte stride): every lane its own line.
/// let sparse: Vec<(u64, u8)> = (0..32).map(|i| (4096 + i * 576, 8)).collect();
/// assert_eq!(coalesce(&sparse, 128, 32, &mut buf).len(), 32);
/// ```
pub fn coalesce<'o>(
    accesses: &[(u64, u8)],
    line_bytes: u32,
    sector_bytes: u32,
    out: &'o mut LineBuffer,
) -> &'o [(u64, u8)] {
    assert!(
        accesses.len() <= DeviceSpec::MAX_WARP_SIZE as usize,
        "coalesce: {} accesses exceed the {}-lane limit",
        accesses.len(),
        DeviceSpec::MAX_WARP_SIZE
    );
    let mut lines = Coalescer::new(line_bytes, sector_bytes, out);
    for &(addr, bytes) in accesses {
        lines.push(addr, bytes);
    }
    lines.finish()
}

/// One warp instruction's coalescing in progress: the replayer pushes
/// each active lane's access as it reads the lane's event, then takes
/// the lines with [`finish`](Self::finish).
///
/// Lines are appended in lane order, each merged into the previous one
/// when they match.  Most instructions visit lines in ascending order
/// and are done at that point; the rest (lanes interleaving a few
/// ascending address streams) are sorted and merged once, at the end.
pub(crate) struct Coalescer<'o> {
    out: &'o mut LineBuffer,
    len: usize,
    ascending: bool,
    line_mask: u64,
    sector_shift: u32,
}

impl<'o> Coalescer<'o> {
    /// An empty coalescing into `out`, for the geometry [`coalesce`]
    /// admits; at most [`DeviceSpec::MAX_WARP_SIZE`] accesses may be
    /// pushed.
    pub(crate) fn new(line_bytes: u32, sector_bytes: u32, out: &'o mut LineBuffer) -> Self {
        assert!(
            line_bytes.is_power_of_two() && line_bytes >= DeviceSpec::MIN_LINE_BYTES,
            "coalesce: line_bytes {line_bytes} must be a power of two >= {}",
            DeviceSpec::MIN_LINE_BYTES
        );
        assert!(
            sector_bytes.is_power_of_two()
                && sector_bytes <= line_bytes
                && line_bytes / sector_bytes <= 8,
            "coalesce: sector_bytes {sector_bytes} must be a power of two, 1 to 8 per line"
        );
        Self {
            out,
            len: 0,
            ascending: true,
            line_mask: !(line_bytes as u64 - 1),
            sector_shift: sector_bytes.trailing_zeros(),
        }
    }

    /// Add one lane's `bytes`-wide access at `addr`, sector by sector
    /// (an unaligned access can straddle sectors and even lines).
    #[inline]
    pub(crate) fn push(&mut self, addr: u64, bytes: u8) {
        let end = addr + bytes as u64;
        let mut a = addr;
        while a < end {
            let line = a & self.line_mask;
            let sector = (a - line) >> self.sector_shift;
            self.append(line, 1 << sector);
            a = line + ((sector + 1) << self.sector_shift);
        }
    }

    #[inline]
    fn append(&mut self, line: u64, mask: u8) {
        if let Some(prev) = self.len.checked_sub(1).map(|i| &mut self.out[i]) {
            if prev.0 == line {
                prev.1 |= mask;
                return;
            }
            self.ascending &= prev.0 < line;
        }
        self.out[self.len] = (line, mask);
        self.len += 1;
    }

    /// The unique `(line base, sector mask)` pairs in ascending line
    /// order, one per tag request.
    pub(crate) fn finish(self) -> &'o [(u64, u8)] {
        let Self {
            out,
            len,
            ascending,
            ..
        } = self;
        if ascending {
            return &out[..len];
        }
        // Insertion sort that merges each line into an equal one already
        // placed, so only the unique lines (typically a third of the
        // appended ones) are ever shifted.
        let mut unique = 1;
        for i in 1..len {
            let (line, mask) = out[i];
            let mut at = unique;
            while at > 0 && out[at - 1].0 > line {
                at -= 1;
            }
            if at > 0 && out[at - 1].0 == line {
                out[at - 1].1 |= mask;
            } else {
                out.copy_within(at..unique, at + 1);
                out[at] = (line, mask);
                unique += 1;
            }
        }
        &out[..unique]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const LINE: u32 = 128;
    const SECTOR: u32 = 32;

    fn run(acc: &[(u64, u8)]) -> Vec<(u64, u8)> {
        coalesce(acc, LINE, SECTOR, &mut [(0, 0); LINE_BUFFER_LEN]).to_vec()
    }

    #[test]
    fn fully_coalesced_warp() {
        // 32 lanes x consecutive f64: 256 bytes = 2 lines, 8 sectors.
        let acc: Vec<(u64, u8)> = (0..32).map(|i| (4096 + i * 8, 8)).collect();
        let c = run(&acc);
        assert_eq!(c.len(), 2);
        assert_eq!(sector_requests(&c), 8);
    }

    #[test]
    fn fully_scattered_warp() {
        // 32 lanes with 576-byte stride (the 1LP U-matrix pattern):
        // every lane its own line and sector.
        let acc: Vec<(u64, u8)> = (0..32).map(|i| (8192 + i * 576, 8)).collect();
        let c = run(&acc);
        assert_eq!(c.len(), 32);
        assert_eq!(sector_requests(&c), 32);
    }

    #[test]
    fn same_address_broadcast() {
        let acc: Vec<(u64, u8)> = (0..32).map(|_| (512, 8)).collect();
        let c = run(&acc);
        assert_eq!(c.len(), 1);
        assert_eq!(sector_requests(&c), 1);
    }

    #[test]
    fn stride_48_the_3lp_row_pattern() {
        // Lanes stride 48 bytes (one SU(3) row apart): 32 lanes span
        // 1536 bytes = 12 lines; sectors: addresses i*48 hit sector
        // floor(48i/32)%4 of each line — 3 words per 2 sectors.
        let acc: Vec<(u64, u8)> = (0..32).map(|i| ((i * 48), 8)).collect();
        let c = run(&acc);
        assert_eq!(c.len(), 12);
        // Each 8B access at multiple of 48 touches exactly 1 sector
        // (48*i % 32 is 0 or 16), and distinct i never share a sector
        // except when 48i and 48(i+... ) land in the same 32B window —
        // 48i/32 = 3i/2, distinct for all i. So 32 sectors? No: 3i/2
        // floors collide for i=2j, 2j+1? floor(3*0/2)=0, floor(3/2)=1,
        // floor(6/2)=3, floor(9/2)=4 ... no collisions.
        assert_eq!(sector_requests(&c), 32);
    }

    #[test]
    fn straddling_access_touches_two_sectors() {
        // An 8-byte access at offset 28 crosses the sector boundary.
        let c = run(&[(28, 8)]);
        assert_eq!(c.len(), 1);
        assert_eq!(sector_requests(&c), 2);
    }

    #[test]
    fn straddling_line_boundary() {
        let c = run(&[(124, 8)]);
        assert_eq!(c.len(), 2);
        assert_eq!(sector_requests(&c), 2);
    }

    #[test]
    fn lines_are_sorted_and_unique() {
        let acc = [(700u64, 8u8), (100, 8), (700, 8), (300, 8)];
        let c = run(&acc);
        let lines: Vec<u64> = c.iter().map(|&(l, _)| l).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn widest_warp_fills_the_buffer_exactly() {
        // 64 lanes, each a 255-byte access starting 1 byte before a line
        // boundary: 3 distinct lines per lane, the buffer's capacity.
        let acc: Vec<(u64, u8)> = (0..64).map(|i| (i * 1024 + 127, 255)).collect();
        let c = run(&acc);
        assert_eq!(c.len(), LINE_BUFFER_LEN);
        assert_eq!(sector_requests(&c), 64 * (1 + 4 + 4));
    }

    #[test]
    #[should_panic(expected = "64-lane limit")]
    fn too_many_lanes_panics_with_the_limit() {
        let acc: Vec<(u64, u8)> = (0..65).map(|i| (i * 8, 8)).collect();
        run(&acc);
    }

    #[test]
    #[should_panic(expected = "line_bytes 64 must be a power of two >= 128")]
    fn short_lines_panic_with_the_limit() {
        coalesce(&[(0, 8)], 64, 32, &mut [(0, 0); LINE_BUFFER_LEN]);
    }

    proptest! {
        #[test]
        fn bounds_hold(addrs in proptest::collection::vec(0u64..100_000, 1..32)) {
            let acc: Vec<(u64, u8)> = addrs.iter().map(|&a| (a, 8)).collect();
            let c = run(&acc);
            // At least 1 line, at most 2 per lane (straddle).
            prop_assert!(!c.is_empty());
            prop_assert!(c.len() <= 2 * acc.len());
            prop_assert!(sector_requests(&c) >= c.len() as u64);
            prop_assert!(sector_requests(&c) <= 2 * acc.len() as u64);
        }

        #[test]
        fn sector_mask_consistent(addrs in proptest::collection::vec(0u64..10_000, 1..32)) {
            let acc: Vec<(u64, u8)> = addrs.iter().map(|&a| (a, 8)).collect();
            let c = run(&acc);
            prop_assert!(c.windows(2).all(|w| w[0].0 < w[1].0));
            for &(line, mask) in &c {
                prop_assert_eq!(line % LINE as u64, 0);
                prop_assert!(mask != 0);
            }
        }
    }
}
