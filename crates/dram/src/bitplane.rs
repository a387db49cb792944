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
#[inline]
pub(crate) fn load_word(bytes: &[u8], w: usize) -> u64 {
    let lo = w * 8;
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
    let hi = (lo + 8).min(bytes.len());
    debug_assert!(
        hi - lo == 8 || word >> (8 * (hi - lo)) == 0,
        "tail-word store would drop set padding bits"
    );
    bytes[lo..hi].copy_from_slice(&word.to_le_bytes()[..hi - lo]);
}

/// Number of set bits in `bytes`, counted a word at a time; a ragged tail
/// (a row not a multiple of 8 bytes long) is counted byte by byte.
pub(crate) fn count_ones(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let full: u64 = (&mut words)
        .map(|w| u64::from(u64::from_le_bytes(w.try_into().expect("8-byte chunk")).count_ones()))
        .sum();
    full + words.remainder().iter().map(|b| u64::from(b.count_ones())).sum::<u64>()
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
        assert_eq!(load_word(&mut bytes, 1), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(load_word(&mut bytes, 0), 0);
        assert_eq!(load_word(&mut bytes, 2), 0);
    }

    #[test]
    fn tail_word_loads_zero_padded_and_stores_truncated() {
        let mut bytes = vec![0xFFu8; 4]; // a 32-bit row: one tail word
        assert_eq!(load_word(&bytes, 0), 0xFFFF_FFFF);
        store_word(&mut bytes, 0, 0x1234_5678);
        assert_eq!(bytes, vec![0x78, 0x56, 0x34, 0x12]);
    }

    #[test]
    fn count_ones_matches_bytewise_count() {
        for len in [0usize, 1, 7, 8, 9, 24, 4096] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let bytewise: u64 = bytes.iter().map(|b| u64::from(b.count_ones())).sum();
            assert_eq!(count_ones(&bytes), bytewise, "len={len}");
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
