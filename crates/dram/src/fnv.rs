//! Wordwise FNV-1a 64 over a module's contents, streamed without copying.
//!
//! The hash is the recording format's `contents_hash` (version 2): one
//! xor-multiply round per little-endian `u64` word of the concatenated
//! contents, then the trailing partial word (if any) folded byte at a
//! time. [`crate::DramModule::contents_hash`] feeds it row slices straight
//! from the row store, and compact rows of zeros or ones from their bit
//! lists.
//!
//! A zero word's round is the map `h ↦ P·h`, and an all-ones word's the
//! affine map `h ↦ -P·h - P`, since `h ^ !0 = -h - 1 (mod 2^64)`. Affine
//! maps compose (`(a, c)` then `(a', c')` is `(a'·a, a'·c + c')`), so a
//! run of `k` words of one fill is one multiply-add. [`FILL_RUNS`] holds
//! the maps of 0 to 64 zero words and of 0 to 64 all-ones words, and a
//! longer run steps by the 64-word map. [`ContentsHasher::update`] takes
//! an all-zero or all-ones 64-byte block as one 8-word map, and
//! [`ContentsHasher::compact`] feeds a row of zeros or ones but for a few
//! listed bits — what the profiler leaves in every true-cell and
//! anti-cell row — as one map per run of fill words plus one round per
//! word holding a listed bit, reading no row bytes.
//!
//! The state is small and `Copy`: the module keeps the state before each
//! logical row as a checkpoint, so a journaled trial re-hashes only the
//! rows from its first dirty row onward.

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The longest run of fill words one [`FILL_RUNS`] entry maps.
const MAX_RUN: usize = 64;

/// The maps of runs of 0 to [`MAX_RUN`] fill words, indexed by run length:
/// zero words in `[0]`, all-ones words in `[1]` (2 KB, at any row width).
const FILL_RUNS: [[Affine; MAX_RUN + 1]; 2] = [
    Affine::runs(Affine { mul: FNV_PRIME, add: 0 }),
    Affine::runs(Affine { mul: FNV_PRIME.wrapping_neg(), add: FNV_PRIME.wrapping_neg() }),
];

/// The little-endian words of a 64-byte block.
fn block_words(block: &[u8; 64]) -> [u64; 8] {
    std::array::from_fn(|i| u64::from_le_bytes(block.as_chunks::<8>().0[i]))
}

/// An affine map `h ↦ mul·h + add` of the hash state (mod 2^64).
#[derive(Clone, Copy)]
struct Affine {
    mul: u64,
    add: u64,
}

impl Affine {
    /// The maps of 0 to [`MAX_RUN`] rounds of one word, given its round.
    const fn runs(round: Affine) -> [Affine; MAX_RUN + 1] {
        let mut runs = [Affine { mul: 1, add: 0 }; MAX_RUN + 1];
        let mut k = 1;
        while k <= MAX_RUN {
            runs[k] = runs[k - 1].then(round);
            k += 1;
        }
        runs
    }

    /// This map followed by `next`.
    const fn then(self, next: Affine) -> Affine {
        Affine {
            mul: next.mul.wrapping_mul(self.mul),
            add: next.mul.wrapping_mul(self.add).wrapping_add(next.add),
        }
    }

    fn apply(self, h: u64) -> u64 {
        self.mul.wrapping_mul(h).wrapping_add(self.add)
    }
}

/// `h` after `words` fill words whose run maps are `runs`.
fn run(runs: &[Affine; MAX_RUN + 1], words: usize, mut h: u64) -> u64 {
    for _ in 0..words / MAX_RUN {
        h = runs[MAX_RUN].apply(h);
    }
    runs[words % MAX_RUN].apply(h)
}

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

    /// Feeds `bytes`.
    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        if self.npending > 0 {
            // Top up the pending partial word first.
            let take = bytes.len().min(8 - self.npending);
            self.pending[self.npending..self.npending + take].copy_from_slice(&bytes[..take]);
            self.npending += take;
            if self.npending < 8 {
                return;
            }
            self.round(u64::from_le_bytes(self.pending));
            self.npending = 0;
            bytes = &bytes[take..];
        }
        let (blocks, rest) = bytes.as_chunks::<64>();
        for block in blocks {
            let words = block_words(block);
            if words.iter().fold(0, |acc, w| acc | w) == 0 {
                self.hash = FILL_RUNS[0][8].apply(self.hash);
            } else if words.iter().fold(!0, |acc, w| acc & w) == !0 {
                self.hash = FILL_RUNS[1][8].apply(self.hash);
            } else {
                for word in words {
                    self.round(word);
                }
            }
        }
        let (words, tail) = rest.as_chunks::<8>();
        for &word in words {
            self.round(u64::from_le_bytes(word));
        }
        self.pending[..tail.len()].copy_from_slice(tail);
        self.npending = tail.len();
    }

    /// Feeds a compact row: `len` bytes of `fill`, `0x00` or `0xFF`, but
    /// for the bits at `bits` (ascending positions, four little-endian
    /// bytes each). The row is a whole number of words and starts on a
    /// word boundary, so each run of fill words is one map from
    /// [`FILL_RUNS`] and only a word holding a listed bit takes a round.
    pub(crate) fn compact(&mut self, fill: u8, bits: &[[u8; 4]], len: usize) {
        debug_assert!(matches!(fill, 0x00 | 0xFF), "a fill with run maps");
        debug_assert!(
            len.is_multiple_of(8) && self.npending == 0,
            "whole words from a word boundary"
        );
        let runs = &FILL_RUNS[usize::from(fill & 1)];
        let mut bits = bits.iter().map(|b| u32::from_le_bytes(*b) as usize).peekable();
        // `next` is the first word not fed yet.
        let (mut h, mut next) = (self.hash, 0);
        while let Some(bit) = bits.next() {
            let w = bit / 64;
            let mut word = u64::from_le_bytes([fill; 8]) ^ 1 << (bit % 64);
            while let Some(bit) = bits.next_if(|bit| bit / 64 == w) {
                word ^= 1 << (bit % 64);
            }
            h = (run(runs, w - next, h) ^ word).wrapping_mul(FNV_PRIME);
            next = w + 1;
        }
        self.hash = run(runs, len / 8 - next, h);
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
                for piece in data.chunks(chunk) {
                    streamed.update(piece);
                }
                assert_eq!(streamed.finish(), reference(&data), "chunk {chunk}");
            }
        }
    }

    #[test]
    fn a_compact_row_feeds_as_its_expanded_bytes_from_any_state() {
        // (words, listed bits): an empty list; the first, 64th, 65th and
        // last bits; several bits in one word; and for each run length a
        // listed bit between two runs of it, so leading, inner and trailing
        // runs of 63, 64, 65 and 512 words all occur.
        let mut rows: Vec<(usize, Vec<u32>)> = vec![
            (1, vec![]),
            (512, vec![]),
            (1, vec![0, 63]),
            (512, vec![0, 63, 64, 512 * 64 - 1]),
            (8, vec![3, 5, 17, 62, 64, 100, 127, 448, 449]),
        ];
        for run in [63, 64, 65, 512] {
            rows.push((run, vec![]));
            rows.push((2 * run + 1, vec![64 * run as u32 + 5]));
            rows.push((3 * run + 2, vec![64 * run as u32, 64 * (2 * run as u32 + 1) + 63]));
        }
        for (words, bits) in &rows {
            let listed: Vec<[u8; 4]> = bits.iter().map(|b| b.to_le_bytes()).collect();
            for fill in [0x00u8, 0xFF] {
                let mut bytes = vec![fill; 8 * words];
                for &bit in bits {
                    bytes[bit as usize / 8] ^= 1 << (bit % 8);
                }
                for start in [0u64, 1, !0, FNV_OFFSET, 0xDEAD_BEEF_0BAD_F00D] {
                    let state = ContentsHasher { hash: start, pending: [0; 8], npending: 0 };
                    let (mut fed, mut compacted) = (state, state);
                    fed.update(&bytes);
                    compacted.compact(fill, &listed, bytes.len());
                    assert_eq!(
                        compacted.hash, fed.hash,
                        "{words} words of {fill:#x}, bits {bits:?}, from {start:#x}"
                    );
                    assert_eq!(compacted.npending, 0);
                }
            }
        }
    }

    #[test]
    fn empty_and_tail_only_inputs() {
        assert_eq!(ContentsHasher::new().finish(), reference(&[]));
        let mut h = ContentsHasher::new();
        h.update(&[0; 5]);
        assert_eq!(h.finish(), reference(&[0; 5]));
    }
}
