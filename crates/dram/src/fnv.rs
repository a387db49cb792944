//! Wordwise FNV-1a 64 over a module's contents, streamed without copying.
//!
//! The hash is the recording format's `contents_hash` (version 2): one
//! xor-multiply round per little-endian `u64` word of the concatenated
//! contents, then the trailing partial word (if any) folded byte at a
//! time. [`crate::DramModule::contents_hash`] feeds it row slices straight
//! from the row store.
//!
//! A zero word xors to nothing, so a run of `k` zero words is one multiply
//! by `P^k`. Never-materialized rows and all-zero 64-byte blocks therefore
//! cost one multiply each instead of a round per word.
//!
//! An all-ones word is nearly as cheap: `h ^ !0 = -h - 1 (mod 2^64)`, so
//! its round is the affine map `h ↦ -P·h - P`, and eight of them compose
//! to `h ↦ P^8·h + C` for one constant `C`. An all-ones 64-byte block — a
//! discharged anti-cell row is made of them — is therefore one
//! multiply-add too.
//!
//! The state is small and `Copy`: the module keeps the state before each
//! logical row as a checkpoint, so a journaled trial re-hashes only the
//! rows from its first dirty row onward.

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Eight zero words: one all-zero 64-byte block.
const FNV_PRIME_POW8: u64 = FNV_PRIME.wrapping_pow(8);

/// The additive term of eight all-ones words: one all-ones 64-byte block
/// maps `h` to `FNV_PRIME_POW8 · h + ONES_BLOCK_ADD`, the eight rounds'
/// image of 0 (the multiplier is `(-P)^8 = P^8`).
const ONES_BLOCK_ADD: u64 = {
    let mut h = 0u64;
    let mut i = 0;
    while i < 8 {
        h = (h ^ !0).wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
};

/// Streaming state: chunk boundaries (row boundaries, for rows that are
/// not a multiple of 8 bytes) are invisible in the result. `Copy`, so a
/// state can be kept as a checkpoint and resumed later.
#[derive(Clone, Copy)]
pub(crate) struct ContentsHasher {
    hash: u64,
    pending: [u8; 8],
    npending: usize,
}

impl ContentsHasher {
    pub(crate) fn new() -> Self {
        ContentsHasher { hash: FNV_OFFSET, pending: [0; 8], npending: 0 }
    }

    fn round(&mut self, word: u64) {
        self.hash ^= word;
        self.hash = self.hash.wrapping_mul(FNV_PRIME);
    }

    /// Tops up a pending partial word from `bytes` (zeros when `None`),
    /// returning how many input bytes it consumed. A word still pending
    /// afterwards means the input ran out.
    fn top_up(&mut self, bytes: Option<&[u8]>, len: usize) -> usize {
        if self.npending == 0 {
            return 0;
        }
        let take = len.min(8 - self.npending);
        let dst = &mut self.pending[self.npending..self.npending + take];
        match bytes {
            Some(bytes) => dst.copy_from_slice(&bytes[..take]),
            None => dst.fill(0),
        }
        self.npending += take;
        if self.npending == 8 {
            self.round(u64::from_le_bytes(self.pending));
            self.npending = 0;
        }
        take
    }

    /// Feeds `bytes`.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let bytes = &bytes[self.top_up(Some(bytes), bytes.len())..];
        if self.npending > 0 {
            return;
        }
        let mut blocks = bytes.chunks_exact(64);
        for block in &mut blocks {
            let words: [u64; 8] = std::array::from_fn(|i| {
                u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().expect("8-byte word"))
            });
            if words.iter().fold(0, |acc, w| acc | w) == 0 {
                self.hash = self.hash.wrapping_mul(FNV_PRIME_POW8);
            } else if words.iter().fold(!0, |acc, w| acc & w) == !0 {
                self.hash = self.hash.wrapping_mul(FNV_PRIME_POW8).wrapping_add(ONES_BLOCK_ADD);
            } else {
                for word in words {
                    self.round(word);
                }
            }
        }
        let mut words = blocks.remainder().chunks_exact(8);
        for word in &mut words {
            self.round(u64::from_le_bytes(word.try_into().expect("8-byte word")));
        }
        let tail = words.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.npending = tail.len();
    }

    /// Feeds `len` zero bytes.
    pub(crate) fn zeros(&mut self, len: usize) {
        let len = len - self.top_up(None, len);
        if self.npending > 0 {
            return;
        }
        let words = u32::try_from(len / 8).expect("a row has fewer than 2^32 words");
        self.hash = self.hash.wrapping_mul(FNV_PRIME.wrapping_pow(words));
        self.pending[..len % 8].fill(0);
        self.npending = len % 8;
    }

    /// The hash of everything fed: the trailing partial word goes in byte
    /// at a time, so inputs differing only in a zero-padded tail differ.
    pub(crate) fn finish(mut self) -> u64 {
        for i in 0..self.npending {
            self.hash ^= u64::from(self.pending[i]);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, one word at a time over the whole input.
    fn reference(bytes: &[u8]) -> u64 {
        let mut hash = FNV_OFFSET;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            hash ^= u64::from_le_bytes(word.try_into().unwrap());
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        for &b in words.remainder() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash
    }

    #[test]
    fn chunked_feeds_match_the_definition() {
        // Mostly zeros with scattered bytes, so zero blocks, zero runs and
        // non-zero words all occur at every alignment.
        let sparse: Vec<u8> =
            (0..1000u32).map(|i| if i % 97 < 3 { (i % 251) as u8 + 1 } else { 0 }).collect();
        // All ones, so every aligned block takes the all-ones fold.
        let ones = vec![0xFFu8; 1000];
        // Runs of zeros, ones and other bytes of uneven lengths, so zero,
        // all-ones and mixed blocks alternate at every alignment.
        let mixed: Vec<u8> = (0..1500u32)
            .map(|i| match i / 70 % 3 {
                0 => 0x00,
                1 => 0xFF,
                _ => (i % 251) as u8,
            })
            .collect();
        for data in [sparse, ones, mixed] {
            for chunk in [1, 3, 7, 8, 13, 64, 65, 200] {
                let mut streamed = ContentsHasher::new();
                let mut zeroed = ContentsHasher::new();
                for piece in data.chunks(chunk) {
                    streamed.update(piece);
                    if piece.iter().all(|&b| b == 0) {
                        zeroed.zeros(piece.len());
                    } else {
                        zeroed.update(piece);
                    }
                }
                assert_eq!(streamed.finish(), reference(&data), "chunk {chunk}");
                assert_eq!(zeroed.finish(), reference(&data), "chunk {chunk} with zero runs");
            }
        }
    }

    #[test]
    fn empty_and_tail_only_inputs() {
        assert_eq!(ContentsHasher::new().finish(), reference(&[]));
        let mut h = ContentsHasher::new();
        h.zeros(5);
        assert_eq!(h.finish(), reference(&[0; 5]));
    }
}
