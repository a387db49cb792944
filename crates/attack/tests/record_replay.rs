//! Record/replay backbone: a recorded campaign must replay byte-identically,
//! a lossy, retention-disabled or unbuildable recording must be rejected
//! loudly with a typed error, the serialized form must round-trip
//! through the strict JSON layer, and any tampering with the transcript
//! must be detected.

use cta_attack::{
    record_campaign, replay_recording, verify_flip_accounting, CampaignExecutor, ExecutorConfig,
    RecordedAttack, Recording, RecordingError, RecordingSpec, ReplayTarget, SprayAttack,
    TemplatingAttack,
};
use cta_core::DefenseSpec;
use cta_dram::{BlockHammerParams, FlipDirection};
use cta_vm::VmError;

/// A deliberately small spray campaign: two trials, narrow spray, few
/// hammer rows — enough to induce flips at `pf = 0.05` while keeping
/// replays fast.
fn small_spray_spec() -> RecordingSpec {
    let attack =
        SprayAttack { regions: 8, file_pages: 2, max_hammer_rows: 4, flush_per_probe: false };
    RecordingSpec::new(RecordedAttack::Spray(attack), vec![0, 1])
}

fn small_templating_spec() -> RecordingSpec {
    let attack = TemplatingAttack { arena_pages: 96, max_attempts: 4, flush_per_probe: false };
    RecordingSpec::new(RecordedAttack::Templating(attack), vec![3])
}

#[test]
fn spray_recording_replays_identically() {
    let recording = record_campaign(&small_spray_spec()).unwrap();
    assert_eq!(recording.trials.len(), 2);
    let total_flips: u64 = recording.trials.iter().map(|t| t.flips.len() as u64).sum();
    assert!(total_flips > 0, "a recording with zero flips proves nothing");

    let report = replay_recording(&recording, ReplayTarget::default())
        .unwrap_or_else(|e| panic!("replay failed: {e}"));
    assert_eq!(report.trials, 2);
    assert_eq!(report.flips_verified, total_flips);
}

#[test]
fn templating_recording_replays_identically() {
    let recording = record_campaign(&small_templating_spec()).unwrap();
    replay_recording(&recording, ReplayTarget::default())
        .unwrap_or_else(|e| panic!("replay failed: {e}"));
}

#[test]
fn zero_capacity_recording_is_rejected_not_silently_empty() {
    // Regression: flip_log_capacity = 0 used to yield an empty flip log
    // that looked like a successful (flip-free) recording.
    let mut spec = small_spray_spec();
    spec.flip_log_capacity = 0;
    match record_campaign(&spec) {
        Err(RecordingError::RetentionDisabled) => {}
        other => panic!("expected RetentionDisabled, got {other:?}"),
    }
}

#[test]
fn lossy_recording_is_rejected_with_the_drop_count() {
    // A 2-event window wraps immediately on any real campaign.
    let mut spec = small_spray_spec();
    spec.flip_log_capacity = 2;
    match record_campaign(&spec) {
        Err(RecordingError::LossyFlipLog { dropped, retained, .. }) => {
            assert!(dropped > 0, "a lossy log must report what it lost");
            assert_eq!(retained, 2);
        }
        other => panic!("expected LossyFlipLog, got {other:?}"),
    }
}

#[test]
fn replay_rejects_a_lossy_capacity_override_too() {
    // A recording edited (or recorded by older code) to claim a tiny
    // capacity must fail replay the same way, not assert on garbage.
    let mut recording = record_campaign(&small_spray_spec()).unwrap();
    recording.spec.flip_log_capacity = 1;
    match replay_recording(&recording, ReplayTarget::default()) {
        Err(RecordingError::LossyFlipLog { .. }) => {}
        other => panic!("expected LossyFlipLog, got {other:?}"),
    }
}

#[test]
fn serialized_recording_round_trips_exactly() {
    let recording = record_campaign(&small_spray_spec()).unwrap();
    let json = recording.to_json_string().unwrap();
    let parsed = Recording::from_json_str(&json).unwrap();
    assert_eq!(parsed, recording, "JSON round-trip must be lossless");
    // And the round-tripped recording still replays.
    replay_recording(&parsed, ReplayTarget::default()).unwrap();
    // Strictness: the serialized form itself re-parses through the strict
    // JSON layer (no duplicate keys, finite numbers, no trailing junk).
    cta_telemetry::json::parse(&json).unwrap();
}

#[test]
fn tampered_flip_transcript_fails_replay() {
    let mut recording = record_campaign(&small_spray_spec()).unwrap();
    let trial = recording.trials.iter_mut().find(|t| !t.flips.is_empty()).unwrap();
    let seed = trial.seed;
    let event = &mut trial.flips[0];
    event.direction = match event.direction {
        FlipDirection::OneToZero => FlipDirection::ZeroToOne,
        FlipDirection::ZeroToOne => FlipDirection::OneToZero,
    };
    match replay_recording(&recording, ReplayTarget::default()) {
        Err(RecordingError::Mismatch { seed: s, what: "flip transcript", detail }) => {
            assert_eq!(s, seed);
            assert!(detail.contains("event 0"), "{detail}");
        }
        other => panic!("expected flip-transcript mismatch, got {other:?}"),
    }
}

#[test]
fn tampered_contents_hash_fails_replay() {
    let mut recording = record_campaign(&small_spray_spec()).unwrap();
    recording.trials[0].contents_hash ^= 1;
    match replay_recording(&recording, ReplayTarget::default()) {
        Err(RecordingError::Mismatch { what: "contents hash", .. }) => {}
        other => panic!("expected contents-hash mismatch, got {other:?}"),
    }
}

#[test]
fn tampered_telemetry_fails_replay() {
    let mut recording = record_campaign(&small_spray_spec()).unwrap();
    let json = recording.telemetry.to_compact_string().replacen(
        "\"activations\": ",
        "\"activations\": 1",
        1,
    );
    recording.telemetry = cta_telemetry::json::parse(&json).unwrap();
    match replay_recording(&recording, ReplayTarget::default()) {
        Err(RecordingError::Mismatch { what: "telemetry snapshot", .. }) => {}
        other => panic!("expected telemetry mismatch, got {other:?}"),
    }
}

#[test]
fn tampered_trial_seed_fails_replay_on_both_paths() {
    // A trial's seed is part of its transcript: a recording whose second
    // trial names a seed its spec never ran must not replay `ok`.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/recordings");
    let text = std::fs::read_to_string(dir.join("spray-small.recording.json")).unwrap();
    let mutated = text.replacen("{\"seed\": 1, ", "{\"seed\": 999, ", 1);
    assert_ne!(mutated, text, "the golden's second trial has seed 1");
    let recording = Recording::from_json_str(&mutated).unwrap();
    let exec = CampaignExecutor::new(ExecutorConfig { workers: 1, parents_per_worker: 2 });
    for replayed in [
        replay_recording(&recording, ReplayTarget::default()),
        exec.replay(&recording, ReplayTarget::default()),
    ] {
        match replayed {
            Err(RecordingError::Mismatch { seed: 999, what: "trial seed", detail }) => {
                assert_eq!(detail, "recorded 999, replayed 1");
            }
            other => panic!("expected trial-seed mismatch, got {other:?}"),
        }
    }
}

#[test]
fn flip_accounting_cross_checks_counters_against_transcript() {
    let recording = record_campaign(&small_spray_spec()).unwrap();
    // Rebuild a Counters view of the recorded telemetry to doctor it.
    let mut counters = cta_telemetry::Counters::new("recording");
    let total: u64 = recording.trials.iter().map(|t| t.flips.len() as u64).sum();
    counters.set_u64("campaign", "total_flips", total + 1);
    counters.set_u64("dram", "flips_one_to_zero", total);
    counters.set_u64("dram", "flips_zero_to_one", 0);
    match verify_flip_accounting(&counters, &recording.trials) {
        Err(RecordingError::Accounting { what, from_log, from_counters }) => {
            assert!(what.contains("campaign.total_flips"), "{what}");
            assert_eq!(from_log, total);
            assert_eq!(from_counters, total + 1);
        }
        other => panic!("expected accounting drift, got {other:?}"),
    }

    counters.set_u64("campaign", "total_flips", total);
    counters.set_u64("dram", "flips_one_to_zero", total + 2);
    match verify_flip_accounting(&counters, &recording.trials) {
        Err(RecordingError::Accounting { what, .. }) => {
            assert!(what.contains("directional"), "{what}");
        }
        other => panic!("expected directional drift, got {other:?}"),
    }
}

#[test]
fn malformed_documents_are_rejected_with_paths() {
    // Not JSON at all.
    assert!(matches!(Recording::from_json_str("{nope"), Err(RecordingError::Json(_))));
    // Valid JSON, wrong shape.
    match Recording::from_json_str("{}") {
        Err(RecordingError::Malformed { path, .. }) => assert_eq!(path, "version"),
        other => panic!("expected Malformed, got {other:?}"),
    }
    // Wrong version.
    match Recording::from_json_str(r#"{"version": 99}"#) {
        Err(RecordingError::Malformed { path, message }) => {
            assert_eq!(path, "version");
            assert!(message.contains("99"), "{message}");
        }
        other => panic!("expected version error, got {other:?}"),
    }
    // A real recording with a broken telemetry snapshot fails schema
    // validation at parse time.
    let recording = record_campaign(&small_spray_spec()).unwrap();
    let json = recording.to_json_string().unwrap();
    let broken = json.replacen("\"label\": \"recording\"", "\"label\": 7", 1);
    match Recording::from_json_str(&broken) {
        Err(RecordingError::Malformed { path, .. }) => {
            assert!(path.starts_with("telemetry."), "{path}");
        }
        other => panic!("expected telemetry schema failure, got {other:?}"),
    }
}

/// The golden fixtures checked into `fixtures/recordings/`, parsed
/// through the strict loader.
fn golden_fixtures() -> Vec<(String, Recording)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/recordings");
    let mut fixtures = Vec::new();
    for name in ["spray-small", "templating-small"] {
        let path = dir.join(format!("{name}.recording.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("golden fixture {} unreadable: {e}", path.display()));
        fixtures.push((name.to_string(), Recording::from_json_str(&text).unwrap()));
    }
    fixtures
}

#[test]
fn golden_fixtures_reserialize_byte_identically_and_refuse_other_map_gens() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/recordings");
    for name in ["spray-small", "templating-small"] {
        let text = std::fs::read_to_string(dir.join(format!("{name}.recording.json"))).unwrap();
        let recording = Recording::from_json_str(&text).unwrap();
        let written = recording.to_json_string().unwrap();
        assert_eq!(written, text.trim_end(), "{name} must re-serialize exactly");
        // The per-row stream is the only map derivation; a recording made
        // under any other one is refused, not replayed in the wrong universe.
        for map_gen in ["counter", "bogus"] {
            let other =
                text.replacen("\"map_gen\": \"stream\"", &format!("\"map_gen\": \"{map_gen}\""), 1);
            assert_ne!(other, text, "{name} names its map_gen");
            match Recording::from_json_str(&other) {
                Err(RecordingError::Malformed { path, .. }) => assert_eq!(path, "spec.map_gen"),
                other => panic!("{name} with map_gen {map_gen}: expected Malformed, got {other:?}"),
            }
        }
    }
}

#[test]
fn unbuildable_golden_mutations_are_typed_errors_not_panics() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/recordings");
    let text = std::fs::read_to_string(dir.join("spray-small.recording.json")).unwrap();
    let mutate = |from: &str, to: &str| {
        let mutated = text.replacen(from, to, 1);
        assert_ne!(mutated, text, "the golden names `{from}`");
        mutated
    };

    // A zero cell-type period parses, then fails to boot a trial machine.
    let recording =
        Recording::from_json_str(&mutate("\"cell_period_rows\": 64", "\"cell_period_rows\": 0"))
            .unwrap();
    match replay_recording(&recording, ReplayTarget::default()) {
        Err(RecordingError::Vm(VmError::ZeroCellPeriod)) => {}
        other => panic!("cell_period_rows 0: expected Vm(ZeroCellPeriod), got {other:?}"),
    }

    // The spray exploit needs two file pages; fewer is refused at load.
    for pages in ["0", "1"] {
        let mutated = mutate("\"file_pages\": 2", &format!("\"file_pages\": {pages}"));
        match Recording::from_json_str(&mutated) {
            Err(RecordingError::Malformed { path, .. }) => {
                assert_eq!(path, "spec.params.file_pages");
            }
            other => panic!("file_pages {pages}: expected Malformed, got {other:?}"),
        }
    }
}

#[test]
fn out_of_range_probabilities_are_malformed_not_a_hang() {
    // `pf` above 1 asks each row for more vulnerable cells than it has (the
    // generator never finishes); below 0 it silently yields empty maps.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/recordings");
    let text = std::fs::read_to_string(dir.join("spray-small.recording.json")).unwrap();
    let cases = [
        ("\"pf\": 0.05", "\"pf\": 1e9", "spec.disturbance.pf"),
        ("\"pf\": 0.05", "\"pf\": -1", "spec.disturbance.pf"),
        ("\"pf\": 0.05", "\"pf\": 1.5", "spec.disturbance.pf"),
        ("\"reverse_rate\": 0.002", "\"reverse_rate\": -0.1", "spec.disturbance.reverse_rate"),
        ("\"reverse_rate\": 0.002", "\"reverse_rate\": 2", "spec.disturbance.reverse_rate"),
    ];
    for (from, to, want) in cases {
        let mutated = text.replacen(from, to, 1);
        assert_ne!(mutated, text, "the golden names `{from}`");
        match Recording::from_json_str(&mutated) {
            Err(RecordingError::Malformed { path, .. }) => assert_eq!(path, want, "{to}"),
            other => panic!("{to}: expected Malformed at {want}, got {other:?}"),
        }
    }
}

#[test]
fn templating_arena_of_unusable_size_replays_to_a_typed_result() {
    // An arena of 0 or 1 pages once underflowed the templating loop bound
    // (a panic in debug builds, a near-endless loop in release ones), one
    // of 2^51 pages was checked for overlaps one page at a time, and one
    // of 2^52 pages overflowed its byte size.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/recordings");
    let text = std::fs::read_to_string(dir.join("templating-small.recording.json")).unwrap();
    for pages in [0u64, 1, 1 << 51, 1 << 52] {
        let mutated = text.replacen("\"arena_pages\": 96", &format!("\"arena_pages\": {pages}"), 1);
        assert_ne!(mutated, text, "the golden names its arena");
        let recording = Recording::from_json_str(&mutated).unwrap();
        let started = std::time::Instant::now();
        let err = replay_recording(&recording, ReplayTarget::default())
            .expect_err("the golden transcript came from a 96-page arena");
        match (pages, &err) {
            (0, RecordingError::Vm(VmError::Unaligned { value: 0 })) => {}
            (1, RecordingError::Mismatch { .. }) => {}
            (p, RecordingError::Vm(VmError::Alloc(_))) if p == 1 << 51 => {}
            (p, RecordingError::Vm(VmError::RangeOverflow { pages, .. })) if p == 1 << 52 => {
                assert_eq!(*pages, p);
            }
            _ => panic!("arena_pages {pages}: unexpected {err:?}"),
        }
        let elapsed = started.elapsed();
        assert!(elapsed.as_secs() < 30, "arena_pages {pages} took {elapsed:?}");
    }
}

#[test]
fn oversized_spray_file_replays_to_a_typed_error() {
    // A file of 2^40 pages once reserved its frame list from the request
    // (8 TiB), which aborted the process instead of failing allocation.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/recordings");
    let text = std::fs::read_to_string(dir.join("spray-small.recording.json")).unwrap();
    let mutated = text.replacen("\"file_pages\": 2", "\"file_pages\": 1099511627776", 1);
    assert_ne!(mutated, text, "the golden names its file size");
    let recording = Recording::from_json_str(&mutated).unwrap();
    match replay_recording(&recording, ReplayTarget::default()) {
        Err(RecordingError::Vm(VmError::Alloc(cta_mem::AllocError::OutOfMemory { .. }))) => {}
        other => panic!("expected an out-of-memory error, got {other:?}"),
    }
}

#[test]
fn golden_fixtures_replay_byte_identically_under_explicit_no_defense() {
    // The defense refactor's determinism contract: a replay target that
    // names `DefenseSpec::None` explicitly takes the pre-refactor code
    // path bit for bit, so the pre-refactor golden recordings replay
    // unchanged — transcript, contents hash, clock, outcome, telemetry.
    let target = ReplayTarget { defense: DefenseSpec::None };
    for (name, recording) in golden_fixtures() {
        let report = replay_recording(&recording, target)
            .unwrap_or_else(|e| panic!("golden fixture {name} diverged under None: {e}"));
        assert_eq!(report.trials, recording.trials.len(), "{name}");
    }
}

#[test]
fn observer_defense_replays_the_transcript_but_marks_the_telemetry() {
    // A pure observer must not perturb the simulation: the per-trial
    // comparisons (flip transcript, contents, clock, outcome) all pass,
    // and the only divergence is the campaign telemetry, where the
    // defended kernel emits its `defense` counter group.
    let recording = record_campaign(&small_spray_spec()).unwrap();
    let target = ReplayTarget { defense: DefenseSpec::Observer };
    match replay_recording(&recording, target) {
        Err(RecordingError::Mismatch { what: "telemetry snapshot", .. }) => {}
        other => panic!("expected telemetry-only divergence, got {other:?}"),
    }
}

#[test]
fn an_acting_defense_diverges_in_the_flip_transcript_itself() {
    let recording = record_campaign(&small_spray_spec()).unwrap();
    let target = ReplayTarget { defense: DefenseSpec::BlockHammer(BlockHammerParams::default()) };
    assert_eq!(target.to_string(), "defense=blockhammer");
    match replay_recording(&recording, target) {
        Err(RecordingError::Mismatch { .. }) => {}
        Ok(_) => panic!("a throttling defense must not reproduce an undefended recording"),
        Err(other) => panic!("expected a replay mismatch, got {other:?}"),
    }
}

#[test]
fn recording_is_thread_count_invariant() {
    let serial = record_campaign(&small_spray_spec()).unwrap();
    let mut spec = small_spray_spec();
    spec.threads = 4;
    let parallel = record_campaign(&spec).unwrap();
    // The spec differs (threads is recorded), but every observable —
    // trials, transcripts, telemetry — must be identical.
    assert_eq!(parallel.trials, serial.trials);
    assert_eq!(parallel.telemetry, serial.telemetry);
}
