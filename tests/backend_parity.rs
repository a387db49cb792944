//! Cross-crate acceptance: the one row store produces bit-identical attack
//! outcomes, flip transcripts, and telemetry JSON for the same seeds,
//! serial (`threads = 1`) and sharded (`threads = N`) alike, and whether a
//! trial runs on a fresh boot, a fork, or a journaled parent.

use monotonic_cta::attack::{
    record_campaign, replay_recording, RecordedAttack, Recording, RecordingSpec, ReplayTarget,
    SprayAttack, TemplatingAttack,
};
use monotonic_cta::core::SystemBuilder;
use monotonic_cta::dram::DisturbanceParams;
use monotonic_cta::vm::{Kernel, VmError};

fn build(seed: u64, protected: bool) -> Result<Kernel, VmError> {
    SystemBuilder::new(8 << 20)
        .ptp_bytes(512 * 1024)
        .seed(seed)
        .protected(protected)
        .disturbance(DisturbanceParams { pf: 0.05, ..DisturbanceParams::default() })
        .build()
}

#[test]
fn spray_campaigns_agree_across_backends_and_shards() {
    let seeds: Vec<u64> = (0..6).collect();
    let mut spec = RecordingSpec::new(RecordedAttack::Spray(SprayAttack::default()), seeds);
    // The default spray flips tens of thousands of bits per trial; a
    // recording must retain every one.
    spec.flip_log_capacity = 1 << 17;
    let mut reference: Option<Recording> = None;
    for threads in [1usize, 4] {
        spec.threads = threads;
        let recording = record_campaign(&spec).unwrap();
        // The campaign replays byte for byte at this thread count:
        // outcomes, flip transcripts, contents hashes, clocks, and the
        // merged telemetry (campaign summary included).
        if let Err(e) = replay_recording(&recording, ReplayTarget::default()) {
            panic!("threads={threads}: {e}");
        }
        match &reference {
            None => reference = Some(recording),
            Some(r) => {
                assert_eq!(recording.trials, r.trials, "trials differ: threads={threads}");
                assert_eq!(
                    recording.telemetry, r.telemetry,
                    "telemetry differs: threads={threads}"
                );
            }
        }
    }
}

#[test]
fn templating_attack_agrees_across_backends_on_protected_machines() {
    let attack = TemplatingAttack::default();
    let run = |kernel: &mut Kernel| {
        let outcome = attack.run(kernel).unwrap();
        format!("{outcome:?}|{}", kernel.counters("t").to_json())
    };
    let fresh = run(&mut build(3, true).unwrap());
    let mut parent = build(3, true).unwrap();
    assert_eq!(run(&mut parent.fork()), fresh, "forked parent");
    parent.journal_begin();
    assert_eq!(run(&mut parent), fresh, "journaled parent");
    parent.journal_rollback();
}
