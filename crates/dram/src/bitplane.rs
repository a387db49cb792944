//! Word-level access to row bytes for the bitplane flip engine.
//!
//! The engine views a row as a sequence of `u64` words: word `w` covers bit
//! indices `[64w, 64w + 64)`, and bit `b` of the word is row bit `64w + b`.
//! Because rows are little-endian byte arrays with bit 0 at the LSB of byte
//! 0, this is exactly `u64::from_le_bytes` over bytes `[8w, 8w + 8)` — the
//! same layout [`crate::DramModule::read_u64`] exposes to software.
//!
//! Rows shorter than 8 bytes (or, in principle, any row whose byte count is
//! not a multiple of 8) make the last word a *tail word*: it is loaded
//! zero-padded and stored back truncated, so engine masks must never set
//! padding bits. Mask builders in `vuln.rs`/`retention.rs` only set bits
//! below the row's bit count, which keeps the padding untouched.

/// Number of `u64` words needed to cover `nbits` bits.
pub(crate) fn words_for_bits(nbits: usize) -> usize {
    nbits.div_ceil(64)
}

/// Loads word `w` of `bytes`, zero-padding past the end of the slice.
///
/// A full word loads as one fixed-size read; only a tail word goes through
/// the padded copy, whose variable length would otherwise cost a `memcpy`
/// call per word.
#[inline]
pub(crate) fn load_word(bytes: &[u8], w: usize) -> u64 {
    let lo = w * 8;
    if let Some(word) = bytes.get(lo..lo + 8) {
        return u64::from_le_bytes(word.try_into().expect("8-byte word"));
    }
    let hi = (lo + 8).min(bytes.len());
    let mut buf = [0u8; 8];
    buf[..hi - lo].copy_from_slice(&bytes[lo..hi]);
    u64::from_le_bytes(buf)
}

/// Stores word `w` into `bytes`, truncating past the end of the slice.
///
/// Truncation is only sound when the dropped high bits are zero — i.e. when
/// the caller never set padding bits of a tail word. Debug builds check.
#[inline]
pub(crate) fn store_word(bytes: &mut [u8], w: usize, word: u64) {
    let lo = w * 8;
    if let Some(dst) = bytes.get_mut(lo..lo + 8) {
        dst.copy_from_slice(&word.to_le_bytes());
        return;
    }
    let hi = (lo + 8).min(bytes.len());
    debug_assert!(
        hi - lo == 8 || word >> (8 * (hi - lo)) == 0,
        "tail-word store would drop set padding bits"
    );
    bytes[lo..hi].copy_from_slice(&word.to_le_bytes()[..hi - lo]);
}

/// Number of set bits in `bytes`, counted a 64-byte block at a time: a
/// block whose words OR to zero counts 0 and one whose words AND to all
/// ones counts 512, without a per-word popcount (the x86-64 baseline has no
/// `POPCNT`, so each `count_ones` is a dozen ALU operations). Other blocks
/// and the remaining words count word by word; a ragged tail (a row not a
/// multiple of 8 bytes long) counts byte by byte.
pub(crate) fn count_ones(bytes: &[u8]) -> u64 {
    let count_words = |words: &[[u8; 8]]| -> u64 {
        words
            .iter()
            .map(|w| match u64::from_le_bytes(*w) {
                0 => 0,
                w => u64::from(w.count_ones()),
            })
            .sum()
    };
    let (blocks, rest) = bytes.as_chunks::<64>();
    let mut ones = 0u64;
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        let (any, all) = words
            .iter()
            .map(|w| u64::from_le_bytes(*w))
            .fold((0, !0), |(any, all), w| (any | w, all & w));
        ones += match (any, all) {
            (0, _) => 0,
            (_, u64::MAX) => 512,
            _ => count_words(words),
        };
    }
    let (words, tail) = rest.as_chunks::<8>();
    ones + count_words(words) + tail.iter().map(|b| u64::from(b.count_ones())).sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_layout_matches_bit_helpers() {
        // Bit 0 = LSB of byte 0; bit 9 = bit 1 of byte 1 = word bit 9.
        let mut bytes = vec![0u8; 16];
        crate::retention::set_bit(&mut bytes, 9, true);
        crate::retention::set_bit(&mut bytes, 64, true);
        assert_eq!(load_word(&bytes, 0), 1 << 9);
        assert_eq!(load_word(&bytes, 1), 1);
    }

    #[test]
    fn round_trip_full_words() {
        let mut bytes = vec![0u8; 24];
        store_word(&mut bytes, 1, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(load_word(&bytes, 1), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(load_word(&bytes, 0), 0);
        assert_eq!(load_word(&bytes, 2), 0);
    }

    #[test]
    fn tail_word_loads_zero_padded_and_stores_truncated() {
        let mut bytes = vec![0xFFu8; 4]; // a 32-bit row: one tail word
        assert_eq!(load_word(&bytes, 0), 0xFFFF_FFFF);
        store_word(&mut bytes, 0, 0x1234_5678);
        assert_eq!(bytes, vec![0x78, 0x56, 0x34, 0x12]);
    }

    #[test]
    fn word_access_matches_a_bytewise_reference() {
        // Full words, ragged tails of every length, and a 4 KiB row.
        for len in (1usize..=24).chain([4096]) {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 73 + 5) as u8).collect();
            for w in 0..len.div_ceil(8) {
                let in_row = (len - 8 * w).min(8);
                let expected =
                    (0..in_row).fold(0u64, |acc, i| acc | u64::from(bytes[8 * w + i]) << (8 * i));
                assert_eq!(load_word(&bytes, w), expected, "load len={len} w={w}");

                // A word with no padding bits set, stored byte by byte.
                let word = 0x0123_4567_89AB_CDEFu64 & (u64::MAX >> (64 - 8 * in_row));
                let mut expected_bytes = bytes.clone();
                for i in 0..in_row {
                    expected_bytes[8 * w + i] = (word >> (8 * i)) as u8;
                }
                let mut stored = bytes.clone();
                store_word(&mut stored, w, word);
                assert_eq!(stored, expected_bytes, "store len={len} w={w}");
            }
        }
    }

    #[test]
    fn count_ones_matches_bytewise_count() {
        let bytewise = |bytes: &[u8]| bytes.iter().map(|b| u64::from(b.count_ones())).sum::<u64>();
        for len in [0usize, 1, 7, 8, 9, 24, 4096] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            assert_eq!(count_ones(&bytes), bytewise(&bytes), "len={len}");
        }
        // Blocks that settle at once (all zero, all ones) and blocks one
        // bit away from doing so, around and past the 64-byte block size.
        for len in [63usize, 64, 65, 4096, 4100] {
            let mixed: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let mut one_off_ones = vec![0xFFu8; len];
            one_off_ones[len / 2] = 0xEF;
            let mut one_off_zeros = vec![0u8; len];
            one_off_zeros[len - 1] = 0x80;
            // Uniform blocks interleaved with a mixed one.
            let striped: Vec<u8> = (0..len)
                .map(|i| match i / 64 % 3 {
                    0 => 0xFF,
                    1 => 0x00,
                    _ => mixed[i],
                })
                .collect();
            for (name, bytes) in [
                ("zeros", vec![0u8; len]),
                ("ones", vec![0xFFu8; len]),
                ("one bit off all ones", one_off_ones),
                ("one bit off all zeros", one_off_zeros),
                ("mixed", mixed),
                ("striped", striped),
            ] {
                assert_eq!(count_ones(&bytes), bytewise(&bytes), "{name} len={len}");
            }
        }
    }

    #[test]
    fn words_for_bits_rounds_up() {
        assert_eq!(words_for_bits(0), 0);
        assert_eq!(words_for_bits(1), 1);
        assert_eq!(words_for_bits(64), 1);
        assert_eq!(words_for_bits(65), 2);
    }
}
