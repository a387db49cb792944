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
//!
//! Those rows are mostly ones the trial never changed, and FNV-1a is not
//! linear in its state, so the checkpoint cannot skip them. A row whose
//! words are mostly uniform compiles instead to a [`RowDigest`]: every
//! zero and all-ones word is one of the affine maps above, and affine
//! maps compose (`(a, c)` then `(a', c')` is `(a'·a, a'·c + c')`), so a
//! run of uniform words between two mixed words (words neither all-zero
//! nor all-ones) is one map. A mixed word `w`'s round is "xor `w`, then
//! multiply by `P`"; the multiply joins the run after it. The digest
//! stores, for each mixed word, the map of the run before it plus `w`,
//! and ends with the map of the trailing run, so
//! [`ContentsHasher::apply`] costs one multiply-add and one xor per mixed
//! word plus one multiply-add — an all-ones row just the last — and reads
//! none of the row's bytes. Rows with partial words, or more than a
//! quarter of their words mixed, get no digest.

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
    const IDENTITY: Affine = Affine { mul: 1, add: 0 };
    /// One zero word's round, and the multiply of a mixed word's round.
    const ZERO_WORD: Affine = Affine { mul: FNV_PRIME, add: 0 };
    /// One all-ones word's round: `(h ^ !0)·P = -P·h - P`.
    const ONES_WORD: Affine =
        Affine { mul: FNV_PRIME.wrapping_neg(), add: FNV_PRIME.wrapping_neg() };
    const ZERO_BLOCK: Affine = Affine { mul: FNV_PRIME_POW8, add: 0 };
    const ONES_BLOCK: Affine = Affine { mul: FNV_PRIME_POW8, add: ONES_BLOCK_ADD };

    /// This map followed by `next`.
    fn then(self, next: Affine) -> Affine {
        Affine {
            mul: next.mul.wrapping_mul(self.mul),
            add: next.mul.wrapping_mul(self.add).wrapping_add(next.add),
        }
    }

    fn apply(self, h: u64) -> u64 {
        self.mul.wrapping_mul(h).wrapping_add(self.add)
    }
}

/// A row's effect on the hash state, compiled from its bytes: what
/// [`ContentsHasher::update`] does with them, without reading them again.
/// See the module doc for the algebra.
#[derive(Clone)]
pub(crate) struct RowDigest {
    /// Each mixed word, after the map of the uniform run before it (the
    /// previous mixed word's multiply included).
    steps: Box<[(Affine, u64)]>,
    /// The map of the trailing run.
    tail: Affine,
}

impl RowDigest {
    /// Compiles `row` (see [`DigestCompiler`]).
    #[cfg(test)]
    pub(crate) fn compile(row: &[u8]) -> Option<RowDigest> {
        let mut compiler = DigestCompiler::new(row.len());
        compiler.feed(row);
        compiler.finish()
    }
}

/// Compiles a [`RowDigest`] from a row fed in order, in chunks that each
/// start at a multiple of 64 bytes.
pub(crate) struct DigestCompiler {
    steps: Vec<(Affine, u64)>,
    /// The map of the uniform run since the last mixed word.
    run: Affine,
    /// A quarter of the row's words.
    max_steps: usize,
    /// The row ends in a partial word, or too many of its words are mixed.
    rejected: bool,
}

impl DigestCompiler {
    /// A compiler for a row of `row_len` bytes.
    pub(crate) fn new(row_len: usize) -> Self {
        DigestCompiler {
            steps: Vec::new(),
            run: Affine::IDENTITY,
            max_steps: row_len / 32,
            rejected: false,
        }
    }

    fn push(&mut self, word: u64) {
        match word {
            0 => self.run = self.run.then(Affine::ZERO_WORD),
            u64::MAX => self.run = self.run.then(Affine::ONES_WORD),
            _ => {
                self.steps.push((self.run, word));
                self.run = Affine::ZERO_WORD;
            }
        }
    }

    /// Feeds the next chunk of the row.
    pub(crate) fn feed(&mut self, chunk: &[u8]) {
        let (blocks, rest) = chunk.as_chunks::<64>();
        let (rest, tail) = rest.as_chunks::<8>();
        if self.rejected || !tail.is_empty() {
            self.rejected = true;
            return;
        }
        for block in blocks {
            let words = block_words(block);
            if words.iter().fold(0, |acc, w| acc | w) == 0 {
                self.run = self.run.then(Affine::ZERO_BLOCK);
            } else if words.iter().fold(!0, |acc, w| acc & w) == !0 {
                self.run = self.run.then(Affine::ONES_BLOCK);
            } else {
                for w in words {
                    self.push(w);
                }
                if self.steps.len() > self.max_steps {
                    self.rejected = true;
                    return;
                }
            }
        }
        for &w in rest {
            self.push(u64::from_le_bytes(w));
        }
    }

    /// The digest of the row fed, or `None` if it ends in a partial word
    /// or more than a quarter of its words are mixed (it hashes as fast
    /// from its contents).
    pub(crate) fn finish(self) -> Option<RowDigest> {
        (!self.rejected && self.steps.len() <= self.max_steps)
            .then(|| RowDigest { steps: self.steps.into_boxed_slice(), tail: self.run })
    }
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
        let (blocks, rest) = bytes.as_chunks::<64>();
        for block in blocks {
            let words = block_words(block);
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
        let (words, tail) = rest.as_chunks::<8>();
        for &word in words {
            self.round(u64::from_le_bytes(word));
        }
        self.pending[..tail.len()].copy_from_slice(tail);
        self.npending = tail.len();
    }

    /// Feeds `len` zero bytes (a row: rows are at most 2^28 bytes).
    pub(crate) fn zeros(&mut self, len: u32) {
        let len = len - self.top_up(None, len as usize) as u32;
        if self.npending > 0 {
            return;
        }
        self.hash = self.hash.wrapping_mul(FNV_PRIME.wrapping_pow(len / 8));
        self.npending = (len % 8) as usize;
        self.pending[..self.npending].fill(0);
    }

    /// Feeds the row `digest` was compiled from. Rows of whole words
    /// start on a word boundary, so no partial word is pending.
    pub(crate) fn apply(&mut self, digest: &RowDigest) {
        debug_assert_eq!(self.npending, 0, "a digested row starts on a word boundary");
        let mut h = self.hash;
        for &(run, word) in &digest.steps {
            h = run.apply(h) ^ word;
        }
        self.hash = digest.tail.apply(h);
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
                        zeroed.zeros(piece.len() as u32);
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
    fn a_digest_applies_as_its_row_updates_from_any_state() {
        // Mixed words at every position of a block and in the trailing
        // words past the last whole block, between zero and all-ones runs.
        let row = |len: usize, mixed: &[usize], ones: std::ops::Range<usize>| -> Vec<u8> {
            let mut words = vec![0u64; len / 8];
            words[ones].fill(!0);
            for &i in mixed {
                words[i] = 0x0123_4567_89AB_CDEF ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
            words.iter().flat_map(|w| w.to_le_bytes()).collect()
        };
        let rows = [
            row(4096, &[], 0..0),
            row(4096, &[], 0..512),
            row(4096, &[0, 7, 8, 63, 64, 200, 511], 100..300),
            row(4096, &(0..128).map(|i| i * 4).collect::<Vec<_>>(), 1..512),
            row(64, &[3, 7], 0..3),
            row(32, &[3], 0..2),
            row(16, &[], 0..1),
            row(8, &[], 0..0),
        ];
        for bytes in &rows {
            let digest = RowDigest::compile(bytes).expect("a quarter of words or fewer is mixed");
            // Fed a 64-byte block at a time, as a compact row is.
            let mut compiler = DigestCompiler::new(bytes.len());
            bytes.chunks(64).for_each(|chunk| compiler.feed(chunk));
            let blockwise = compiler.finish().expect("the same row");
            for start in [0u64, 1, !0, FNV_OFFSET, 0xDEAD_BEEF_0BAD_F00D] {
                let state = ContentsHasher { hash: start, pending: [0; 8], npending: 0 };
                let (mut fed, mut applied, mut applied_blockwise) = (state, state, state);
                fed.update(bytes);
                applied.apply(&digest);
                applied_blockwise.apply(&blockwise);
                assert_eq!(applied.hash, fed.hash, "{}-byte row from {start:#x}", bytes.len());
                assert_eq!(applied_blockwise.hash, fed.hash, "{} bytes blockwise", bytes.len());
                assert_eq!(applied.npending, 0);
            }
        }
        // Past a quarter mixed, or ending in a partial word: no digest.
        assert!(RowDigest::compile(&row(4096, &(0..129).collect::<Vec<_>>(), 0..0)).is_none());
        assert!(RowDigest::compile(&row(64, &[1, 2, 3], 0..0)).is_none());
        assert!(RowDigest::compile(&row(8, &[0], 0..0)).is_none());
        assert!(RowDigest::compile(&[0xFF; 4]).is_none());
        assert!(RowDigest::compile(&[0; 12]).is_none());
    }

    #[test]
    fn empty_and_tail_only_inputs() {
        assert_eq!(ContentsHasher::new().finish(), reference(&[]));
        let mut h = ContentsHasher::new();
        h.zeros(5);
        assert_eq!(h.finish(), reference(&[0; 5]));
    }
}
