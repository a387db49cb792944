//! Seeded mutation fuzz over the golden recordings.
//!
//! Each golden's text is mutated a fixed number of times from a fixed
//! seed: one byte replaced, a span deleted or duplicated, a truncation, or
//! one digit changed. Every mutant goes through the recording loader and
//! through the strict JSON parser plus the snapshot schema, and none of
//! them may panic. A mutant that loads with the golden's exact `spec` is
//! replayed too (so no mutant can ask for a large machine or many
//! threads), and its replay must succeed exactly when its `trials` and
//! `telemetry` equal the golden's.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cta_attack::{replay_recording, Recording, ReplayTarget};
use cta_telemetry::json;
use cta_telemetry::schema::validate_snapshot;

const SEED: u64 = 0x5EED_F022;
const MUTANTS_PER_GOLDEN: usize = 1000;
/// Longest span a deletion or duplication touches.
const MAX_SPAN: usize = 24;

/// SplitMix64: a fixed, dependency-free stream of mutation choices.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One mutant of `text` (ASCII, so every mutant stays valid UTF-8) and
/// the name of the mutation that made it.
fn mutate(text: &str, rng: &mut SplitMix) -> (String, &'static str) {
    let mut bytes = text.as_bytes().to_vec();
    let len = bytes.len();
    let kind = match rng.below(5) {
        0 => {
            // Any printable ASCII byte.
            bytes[rng.below(len)] = b' ' + rng.below(95) as u8;
            "byte replaced"
        }
        1 => {
            let start = rng.below(len);
            let end = (start + 1 + rng.below(MAX_SPAN)).min(len);
            bytes.drain(start..end);
            "span deleted"
        }
        2 => {
            let start = rng.below(len);
            let end = (start + 1 + rng.below(MAX_SPAN)).min(len);
            let span = bytes[start..end].to_vec();
            bytes.splice(end..end, span);
            "span duplicated"
        }
        3 => {
            bytes.truncate(rng.below(len));
            "truncated"
        }
        _ => {
            let digits: Vec<usize> = (0..len).filter(|&i| bytes[i].is_ascii_digit()).collect();
            let at = digits[rng.below(digits.len())];
            bytes[at] = b'0' + ((bytes[at] - b'0') as usize + 1 + rng.below(9)) as u8 % 10;
            "digit changed"
        }
    };
    (String::from_utf8(bytes).expect("ASCII stays UTF-8"), kind)
}

#[test]
fn mutated_goldens_load_validate_and_replay_without_panicking() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/recordings");
    let mut rng = SplitMix(SEED);
    let (mut replayed, mut rejected) = (0, 0);
    for name in ["spray-small", "templating-small"] {
        let text = std::fs::read_to_string(dir.join(format!("{name}.recording.json"))).unwrap();
        assert!(text.is_ascii(), "{name} is ASCII");
        let golden = Recording::from_json_str(&text).unwrap();
        for i in 0..MUTANTS_PER_GOLDEN {
            let (mutant, kind) = mutate(&text, &mut rng);
            let what = format!("{name} mutant {i} ({kind})");

            let loaded = catch_unwind(|| Recording::from_json_str(&mutant))
                .unwrap_or_else(|_| panic!("{what}: the loader panicked"));
            catch_unwind(|| {
                if let Ok(doc) = json::parse(&mutant) {
                    let _ = validate_snapshot(doc.get("telemetry").unwrap_or(&doc));
                }
            })
            .unwrap_or_else(|_| panic!("{what}: json-check's validation panicked"));

            let Ok(recording) = loaded else { continue };
            if recording.spec != golden.spec {
                continue;
            }
            let replay = catch_unwind(AssertUnwindSafe(|| {
                replay_recording(&recording, ReplayTarget::default())
            }))
            .unwrap_or_else(|_| panic!("{what}: the replay panicked"));
            let unchanged =
                recording.trials == golden.trials && recording.telemetry == golden.telemetry;
            assert_eq!(replay.is_ok(), unchanged, "{what}: {replay:?}");
            replayed += 1;
            rejected += usize::from(replay.is_err());
        }
    }
    // The fuzz reached the replay comparison, on both sides of it.
    assert!(rejected > 0 && replayed > rejected, "{replayed} replayed, {rejected} rejected");
}
