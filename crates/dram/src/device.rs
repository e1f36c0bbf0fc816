//! Word-addressable memory devices with fault injection.
//!
//! The scanner (uc-memscan) is generic over [`MemoryDevice`], so the same
//! scan loop runs against the simulated device here and against real host
//! memory (see `uc-memscan::host`). [`VecDevice`] backs the words with a
//! `Vec<u32>` and layers two kinds of faults on top:
//!
//! - **transient flips** mutate the stored value once (the cell's state
//!   changed); they persist until the word is rewritten — exactly how a real
//!   upset behaves under the scanner's read-check-rewrite loop;
//! - **stuck cells** force bits to a fixed value on every read, surviving
//!   rewrites — the model for weak bits and hard faults.

use std::collections::HashMap;

use crate::cell::PolarityMap;
use crate::geometry::{Geometry, WordAddr};
use crate::scramble::LaneScrambler;

/// Abstract word-addressable memory.
pub trait MemoryDevice {
    /// Number of addressable 32-bit words.
    fn len_words(&self) -> u64;

    /// Store `value` at `addr`.
    fn write_word(&mut self, addr: WordAddr, value: u32);

    /// Load the word at `addr` (including any fault effects).
    fn read_word(&mut self, addr: WordAddr) -> u32;
}

/// A stuck-cell fault: on read, bits in `and_mask` are cleared then bits in
/// `or_mask` are set, regardless of what was written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StuckMask {
    /// Bits forced to 0 (1 = force low).
    pub force_low: u32,
    /// Bits forced to 1.
    pub force_high: u32,
}

impl StuckMask {
    pub fn apply(self, value: u32) -> u32 {
        (value & !self.force_low) | self.force_high
    }
}

/// Simulated DRAM backed by a `Vec<u32>`, with geometry, lane scrambling and
/// polarity-aware strike injection.
pub struct VecDevice {
    geometry: Geometry,
    words: Vec<u32>,
    stuck: HashMap<u64, StuckMask>,
    scrambler: LaneScrambler,
    polarity: PolarityMap,
    reads: u64,
    writes: u64,
}

impl VecDevice {
    /// Allocate a device of the given geometry, zero-filled.
    pub fn new(geometry: Geometry, polarity_salt: u64) -> VecDevice {
        let n = geometry.words();
        assert!(
            n <= 1 << 26,
            "VecDevice caps at 64Mi words; use the event-driven path for full nodes"
        );
        VecDevice {
            geometry,
            words: vec![0; n as usize],
            stuck: HashMap::new(),
            scrambler: LaneScrambler::default(),
            polarity: PolarityMap::paper_default(polarity_salt),
            reads: 0,
            writes: 0,
        }
    }

    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    pub fn scrambler(&self) -> &LaneScrambler {
        &self.scrambler
    }

    pub fn polarity(&self) -> &PolarityMap {
        &self.polarity
    }

    /// (reads, writes) performed so far — scan-throughput accounting.
    pub fn traffic(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Flip the given logical bits of the stored word unconditionally.
    /// Models a direct state change; persists until the word is rewritten.
    pub fn inject_flip(&mut self, addr: WordAddr, xor_mask: u32) {
        let w = &mut self.words[addr.0 as usize];
        *w ^= xor_mask;
    }

    /// Inject a *discharge strike* over `span` physically adjacent bit
    /// lanes starting at `start_lane`: only bits currently holding the
    /// row's vulnerable value flip (see [`PolarityMap`]). Returns the XOR
    /// mask of bits that actually flipped.
    pub fn inject_strike(&mut self, addr: WordAddr, start_lane: u32, span: u32) -> u32 {
        let coord = self.geometry.coord(addr);
        let mask = self.scrambler.strike_mask(start_lane, span);
        let stored = self.words[addr.0 as usize];
        let new = self
            .polarity
            .discharge(coord.rank, coord.bank, coord.row, stored, mask);
        self.words[addr.0 as usize] = new;
        stored ^ new
    }

    /// Mark bits permanently stuck. Merges with any existing stuck mask.
    pub fn set_stuck(&mut self, addr: WordAddr, mask: StuckMask) {
        let entry = self.stuck.entry(addr.0).or_insert(StuckMask {
            force_low: 0,
            force_high: 0,
        });
        entry.force_low |= mask.force_low;
        entry.force_high |= mask.force_high;
    }

    /// Remove stuck faults at an address (e.g. page retired / repaired).
    pub fn clear_stuck(&mut self, addr: WordAddr) {
        self.stuck.remove(&addr.0);
    }

    /// Number of words carrying stuck faults.
    pub fn stuck_count(&self) -> usize {
        self.stuck.len()
    }
}

impl MemoryDevice for VecDevice {
    fn len_words(&self) -> u64 {
        self.words.len() as u64
    }

    fn write_word(&mut self, addr: WordAddr, value: u32) {
        self.writes += 1;
        self.words[addr.0 as usize] = value;
    }

    fn read_word(&mut self, addr: WordAddr) -> u32 {
        self.reads += 1;
        let raw = self.words[addr.0 as usize];
        match self.stuck.get(&addr.0) {
            Some(mask) => mask.apply(raw),
            None => raw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> VecDevice {
        VecDevice::new(Geometry::TINY, 1)
    }

    #[test]
    fn read_back_what_was_written() {
        let mut d = tiny();
        d.write_word(WordAddr(100), 0xDEAD_BEEF);
        assert_eq!(d.read_word(WordAddr(100)), 0xDEAD_BEEF);
        assert_eq!(d.read_word(WordAddr(101)), 0);
    }

    #[test]
    fn traffic_counters() {
        let mut d = tiny();
        d.write_word(WordAddr(0), 1);
        d.read_word(WordAddr(0));
        d.read_word(WordAddr(0));
        assert_eq!(d.traffic(), (2, 1));
    }

    #[test]
    fn injected_flip_persists_until_rewrite() {
        let mut d = tiny();
        d.write_word(WordAddr(5), 0xFFFF_FFFF);
        d.inject_flip(WordAddr(5), 0x0000_0100);
        assert_eq!(d.read_word(WordAddr(5)), 0xFFFF_FEFF);
        assert_eq!(d.read_word(WordAddr(5)), 0xFFFF_FEFF, "still corrupted");
        d.write_word(WordAddr(5), 0xFFFF_FFFF);
        assert_eq!(d.read_word(WordAddr(5)), 0xFFFF_FFFF, "rewrite heals");
    }

    #[test]
    fn stuck_bits_survive_rewrites() {
        let mut d = tiny();
        d.set_stuck(
            WordAddr(9),
            StuckMask {
                force_low: 0x1,
                force_high: 0x2,
            },
        );
        d.write_word(WordAddr(9), 0xFFFF_FFFF);
        assert_eq!(d.read_word(WordAddr(9)), 0xFFFF_FFFE | 0x2);
        d.write_word(WordAddr(9), 0x0);
        assert_eq!(d.read_word(WordAddr(9)), 0x2);
        d.clear_stuck(WordAddr(9));
        d.write_word(WordAddr(9), 0x5);
        assert_eq!(d.read_word(WordAddr(9)), 0x5);
    }

    #[test]
    fn stuck_masks_merge() {
        let mut d = tiny();
        d.set_stuck(
            WordAddr(1),
            StuckMask {
                force_low: 0x1,
                force_high: 0,
            },
        );
        d.set_stuck(
            WordAddr(1),
            StuckMask {
                force_low: 0x4,
                force_high: 0,
            },
        );
        d.write_word(WordAddr(1), 0xF);
        assert_eq!(d.read_word(WordAddr(1)), 0xA);
        assert_eq!(d.stuck_count(), 1);
    }

    #[test]
    fn strike_on_all_ones_true_row_flips_down() {
        // Polarity 0.0 salt trick: use PolarityMap::paper_default; instead,
        // find a true-cell row by probing.
        let mut d = tiny();
        let g = d.geometry();
        // Find an address whose row is a true-cell row.
        let addr = (0..g.words())
            .map(WordAddr)
            .find(|a| {
                let c = g.coord(*a);
                d.polarity().vulnerable_value(c.rank, c.bank, c.row) == 1
            })
            .unwrap();
        d.write_word(addr, 0xFFFF_FFFF);
        let flipped = d.inject_strike(addr, 8, 2);
        assert_eq!(flipped.count_ones(), 2, "both lanes held charge");
        let read = d.read_word(addr);
        assert_eq!(read, 0xFFFF_FFFF ^ flipped);
        assert_eq!((!read).count_ones(), 2, "1->0 flips");
    }

    #[test]
    fn strike_on_zeros_true_row_is_harmless() {
        let mut d = tiny();
        let g = d.geometry();
        let addr = (0..g.words())
            .map(WordAddr)
            .find(|a| {
                let c = g.coord(*a);
                d.polarity().vulnerable_value(c.rank, c.bank, c.row) == 1
            })
            .unwrap();
        d.write_word(addr, 0x0000_0000);
        let flipped = d.inject_strike(addr, 8, 4);
        assert_eq!(flipped, 0, "discharge cannot flip uncharged true cells");
        assert_eq!(d.read_word(addr), 0);
    }

    #[test]
    fn strike_on_anti_row_flips_up() {
        let mut d = tiny();
        let g = d.geometry();
        let Some(addr) = (0..g.words()).map(WordAddr).find(|a| {
            let c = g.coord(*a);
            d.polarity().vulnerable_value(c.rank, c.bank, c.row) == 0
        }) else {
            // Tiny geometry may have no anti rows for this salt; acceptable.
            return;
        };
        d.write_word(addr, 0x0000_0000);
        let flipped = d.inject_strike(addr, 0, 3);
        assert_eq!(flipped.count_ones(), 3);
        assert_eq!(d.read_word(addr), flipped, "0 -> 1 flips");
    }

    #[test]
    #[should_panic(expected = "caps at")]
    fn oversized_device_rejected() {
        VecDevice::new(Geometry::NODE_4GB, 0);
    }

    proptest! {
        #[test]
        fn write_read_roundtrip(addr in 0u64..(1 << 16), value in any::<u32>()) {
            let mut d = tiny();
            d.write_word(WordAddr(addr), value);
            prop_assert_eq!(d.read_word(WordAddr(addr)), value);
        }

        #[test]
        fn double_flip_restores(addr in 0u64..(1 << 16), value in any::<u32>(), mask in any::<u32>()) {
            let mut d = tiny();
            d.write_word(WordAddr(addr), value);
            d.inject_flip(WordAddr(addr), mask);
            d.inject_flip(WordAddr(addr), mask);
            prop_assert_eq!(d.read_word(WordAddr(addr)), value);
        }

        #[test]
        fn strike_only_flips_masked_lanes(seed in any::<u64>(), addr in 0u64..(1 << 16), lane in 0u32..32, span in 1u32..9) {
            let mut d = VecDevice::new(Geometry::TINY, seed);
            d.write_word(WordAddr(addr), 0xFFFF_FFFF);
            let flipped = d.inject_strike(WordAddr(addr), lane, span);
            let mask = d.scrambler().strike_mask(lane, span);
            prop_assert_eq!(flipped & !mask, 0, "no flips outside the strike mask");
        }
    }
}
