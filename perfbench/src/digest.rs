//! Output digests: deterministic results folded into one word per run.

use cta_attack::TrialRecord;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// A wordwise FNV-1a fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// Folds one word.
    pub fn word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
    }

    /// Folds a byte slice eight bytes at a time, with a trailing partial
    /// word folded byte by byte — the recording format's contents hash
    /// when fed row by row with rows a multiple of eight bytes long.
    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.word(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.word(u64::from(b));
        }
    }

    /// The folded value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of one campaign's deterministic outputs: per trial, its
/// contents hash, flip count and success.
pub fn campaign(trials: &[TrialRecord]) -> u64 {
    let mut d = Digest::default();
    for t in trials {
        d.word(t.contents_hash);
        d.word(t.flips.len() as u64);
        d.word(u64::from(t.outcome.success()));
    }
    d.value()
}
