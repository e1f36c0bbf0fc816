//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven and
//! implemented from scratch like the rest of the workspace's primitives
//! (DESIGN.md §5: no external crates for core machinery).
//!
//! The durable log format uses it twice: one CRC per record frame (so a
//! torn or bit-rotted frame is detected at read time) and one whole-file
//! digest per sealed segment (stored in the directory manifest, so `uc
//! fsck` can verify a segment without trusting its own frames). CRC-32
//! detects every single-bit error and every burst up to 32 bits, which is
//! exactly the damage class torn writes and bit rot produce.

/// Slicing-by-8 lookup tables for the reflected IEEE polynomial, built at
/// compile time. `TABLES[0]` is the classic bytewise table; `TABLES[k]`
/// advances a byte's contribution through `k` further zero bytes, so one
/// step folds eight input bytes with eight independent lookups.
static TABLES: [[u32; 256]; 8] = make_tables();

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Streaming CRC-32 state, for whole-file digests computed as bytes are
/// appended (the writer never has to re-read what it wrote).
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold more bytes into the digest: eight bytes per step, then the
    /// tail one byte at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The digest of everything updated so far. Does not consume the
    /// state; further updates continue the stream.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The polynomial applied one bit at a time: no table, nothing shared
    /// with the implementation under test.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn every_length_and_chunking_matches_the_bitwise_reference() {
        // Seeded bytes (xorshift64), so a failure names a reproducible
        // input; lengths cover every tail size around the 8-byte steps.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..300)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for len in 0..=data.len() {
            let bytes = &data[..len];
            let want = bitwise_crc32(bytes);
            assert_eq!(crc32(bytes), want, "whole, len {len}");
            for chunk in 1..=17 {
                let mut c = Crc32::new();
                for piece in bytes.chunks(chunk) {
                    c.update(piece);
                }
                assert_eq!(c.finish(), want, "len {len} in chunks of {chunk}");
            }
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"START t=0 node=01-01 alloc=3221225472 temp=34.5";
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let data = b"ERROR t=40 node=01-01 vaddr=0x00000100";
        let clean = crc32(data);
        let mut mutated = data.to_vec();
        for i in 0..mutated.len() {
            for bit in 0..8 {
                mutated[i] ^= 1 << bit;
                assert_ne!(crc32(&mutated), clean, "flip at byte {i} bit {bit}");
                mutated[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn finish_is_idempotent() {
        let mut c = Crc32::new();
        c.update(b"abc");
        assert_eq!(c.finish(), c.finish());
        c.update(b"def");
        assert_eq!(c.finish(), crc32(b"abcdef"));
    }
}
