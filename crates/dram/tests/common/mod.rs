//! Shared oracles for the integration tests.

use cta_dram::DramModule;

/// The recording format's `contents_hash` by definition: wordwise FNV-1a
/// 64 over a whole-capacity `peek`, a trailing partial word byte at a
/// time. Independent of the module's streaming hasher and its checkpoints.
pub fn reference_contents_hash(m: &DramModule) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let bytes = m.peek(0, m.capacity_bytes() as usize).expect("whole-capacity peek");
    let mut words = bytes.chunks_exact(8);
    let mut hash = FNV_OFFSET;
    for word in &mut words {
        hash ^= u64::from_le_bytes(word.try_into().expect("8-byte word"));
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    for &b in words.remainder() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}
