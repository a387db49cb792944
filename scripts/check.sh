#!/usr/bin/env sh
# Tier-1 gate for monotonic-cta: formatting, build, full test suite,
# clippy (deny warnings), rustdoc (deny warnings), an examples smoke run,
# the defense-matrix and campaign-executor smokes, a run of every other
# experiment binary, strict JSON + schema checks, golden recording
# replay, the repository benchmark's self-tests and lints, and a telemetry
# sanity sweep.
# Everything here must pass before a change lands.
#
# Usage: scripts/check.sh
#
# The exp-matrix and cta-evaluate smokes write
# telemetry/exp-matrix.telemetry.json, telemetry/cta-evaluate.telemetry.json
# and telemetry/cta-events.jsonl, which the final gate scans for NaN/inf
# and sanitizer flags; the exp-table4 smoke writes its snapshots to a
# scratch directory instead. Performance is measured by the repository
# benchmark (perfbench/, named by BENCHMARK.json), not here.
set -eu

cd "$(dirname "$0")/.."

# Vendored crates keep their upstream formatting: vendor/rustfmt.toml
# disables rustfmt below vendor/, so the workspace-wide check covers the
# first-party packages only. Doc runs per first-party package, because
# `cargo doc --workspace` would document the vendored members too.
FIRST_PARTY="monotonic-cta cta-analysis cta-attack cta-bench cta-core \
    cta-dram cta-ext cta-mem cta-parallel cta-telemetry cta-vm \
    cta-workloads"

echo "==> cargo fmt --all --check (vendor/ excluded by vendor/rustfmt.toml)"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> every test is registered once per test binary"
# A test listed twice in one binary runs twice (the vendored proptest! once
# added a #[test] of its own to bodies that already carried one).
cargo test --workspace -- --list 2>&1 | awk '
    /^ *(Running|Doc-tests) / { bin++; name = $0; next }
    / test$/ && seen[bin, $0]++ == 1 { print name ": " $0 " listed twice"; dup = 1 }
    END { exit dup }'

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# All targets: libraries and binaries, plus unit tests, integration tests,
# examples and benches, vendored crates included.
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo doc --no-deps (first-party packages, deny warnings)"
for pkg in $FIRST_PARTY; do
    RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps -p "$pkg"
done

echo "==> examples smoke (release)"
# Every example under examples/, so a new one cannot skip the smoke.
for src in examples/*.rs; do
    ex=$(basename "$src" .rs)
    echo "--- example: $ex"
    cargo run --release -q --example "$ex" > /dev/null
done

echo "==> defense-matrix smoke (exp-matrix --quick)"
# The attacks x defenses x cell-layouts cross-product, 2 seeds per cell.
# The binary asserts internally that SoftTRR and BlockHammer each reduce
# exploit probability vs `none` in at least one cell; its telemetry lands
# in telemetry/ and gets schema-checked by the json-check gate below.
cargo run --release -q -p cta-bench --bin exp-matrix -- --quick > /dev/null

echo "==> campaign executor smoke (cta evaluate)"
# The persistent executor end to end through its CLI front-end: a small
# multi-tenant queue served from pooled parents with journaled trials,
# streaming one executor event per campaign to telemetry/cta-events.jsonl.
# The stream (and the cta-evaluate snapshot) is schema-checked by the
# json-check gate below.
cargo run --release -q -p cta-bench --bin cta -- evaluate \
    --tenants 2 --campaigns 1 --trials 2 --workers 2 \
    --jsonl telemetry/cta-events.jsonl > /dev/null

echo "==> Table 4 smoke: simulated deltas identical at 1 and 2 threads"
# exp-table4 runs every cell on pooled parents under an undo journal; the
# simulated *_delta_percent values of both overhead:* groups must not
# depend on the worker count (mean_wall_delta_percent is host wall-clock
# and excluded). Snapshots go to a scratch directory and are schema-checked.
table4=$(mktemp -d)
sim_deltas() { # snapshot -> "group key: value" per simulated delta
    awk '/^    "[^"]*": \{/ { group = $1 }
        group ~ /^"overhead:/ && /_delta_percent":/ && !/mean_wall_delta_percent/ {
            print group, $0
        }' "$1"
}
for threads in 1 2; do
    mkdir "$table4/t$threads"
    CTA_TELEMETRY_DIR="$table4/t$threads" cargo run --release -q -p cta-bench \
        --bin exp-table4 -- --threads "$threads" > /dev/null
    sim_deltas "$table4/t$threads/exp-table4.telemetry.json" > "$table4/t$threads.deltas"
    for group in small-host large-host; do
        if ! grep -q "^\"overhead:$group\":" "$table4/t$threads.deltas"; then
            echo "exp-table4 --threads $threads: no simulated deltas in overhead:$group"
            exit 1
        fi
    done
done
if ! cmp -s "$table4/t1.deltas" "$table4/t2.deltas"; then
    echo "exp-table4: simulated deltas differ between 1 and 2 threads"
    diff "$table4/t1.deltas" "$table4/t2.deltas" || true
    exit 1
fi
cargo run --release -q -p cta-bench --bin json-check -- --schema \
    "$table4"/t1/exp-table4.telemetry.json "$table4"/t2/exp-table4.telemetry.json
rm -rf "$table4"

echo "==> experiment binaries: every other exp-* exits 0 with a schema-valid snapshot"
# exp-matrix and exp-table4 have smokes of their own above. The others
# regenerate the paper's tables and figures and assert their claims in
# the binary (exp-ext: the coldboot guard must never boot over remanent
# secrets), so each must exit 0 and leave a snapshot named after it.
exps=$(mktemp -d)
for src in crates/bench/src/bin/exp-*.rs; do
    bin=$(basename "$src" .rs)
    case "$bin" in exp-matrix | exp-table4) continue ;; esac
    CTA_TELEMETRY_DIR="$exps" cargo run --release -q -p cta-bench --bin "$bin" > /dev/null
    if [ ! -f "$exps/$bin.telemetry.json" ]; then
        echo "$bin: no telemetry snapshot"
        exit 1
    fi
done
cargo run --release -q -p cta-bench --bin json-check -- --schema "$exps"/*.telemetry.json
rm -rf "$exps"

echo "==> malformed cta invocations fail with an error, not a panic or an abort"
# Each must be rejected with a message and exit status 1, cta's failure
# status: a panic exits 101, and an abort (a failed allocation) 134.
# Trials are always journaled, so `--isolation` is an unknown argument.
for args in "evaluate --tenants 0" "evaluate --trials 0" \
    "evaluate --campaigns 0" "evaluate --trials 1000000000000" \
    "profile --memory-mb 0" "profile --memory-mb 3" \
    "profile --memory-mb 1073741824" "attack --isolation journal"; do
    status=0
    # shellcheck disable=SC2086 # word-split the argument list on purpose
    cargo run --release -q -p cta-bench --bin cta -- $args > /dev/null 2>&1 \
        || status=$?
    if [ "$status" -ne 1 ]; then
        echo "cta $args: exit status $status (want 1, a usage or boot error)"
        exit 1
    fi
done

echo "==> malformed recordings fail with an error, not a panic, an abort or a hang"
# Mutated copies of the goldens, written to a scratch directory (never
# under fixtures/): an unbounded `pf` must be refused at load, and a
# one-page templating arena, a 2^40-page spray file, a 2^50-byte
# machine and a 2^45-byte one (2^33 rows of 4 KiB, both past the 2^32-row
# cap), a machine of 3 KiB rows (not a power of two), one of 512 MiB
# rows (past the row-width cap), a trial whose seed its spec never ran and
# flips at bit 2^31 + 130 or row 2^32 + 7 (past what a row or a module
# holds, which a 16-byte flip event would truncate to the golden's own
# first flip) must replay to a typed error. Each replay
# must exit 1, replay-check's failure status: not 101 (a panic), 134 (an
# abort) or 124 (`timeout` fired).
mutants=$(mktemp -d)
trap 'rm -rf "$mutants"' EXIT
mutate() { # golden, sed expression, mutant name
    sed "$2" "fixtures/recordings/$1.recording.json" > "$mutants/$3.recording.json"
    if cmp -s "fixtures/recordings/$1.recording.json" "$mutants/$3.recording.json"; then
        echo "mutation '$2' did not apply to $1"
        exit 1
    fi
}
mutate spray-small 's/"pf": 0.05/"pf": 1000000000/' spray-pf-1e9
mutate templating-small 's/"arena_pages": 96/"arena_pages": 1/' templating-arena-1
mutate spray-small 's/"file_pages": 2/"file_pages": 1099511627776/' spray-file-2e40
mutate templating-small 's/"memory_bytes": 8388608/"memory_bytes": 1125899906842624/' \
    templating-memory-2e50
mutate spray-small 's/"memory_bytes": 8388608, "row_bytes": 4096/"memory_bytes": 6291456, "row_bytes": 3072/' \
    spray-rows-3072
mutate spray-small 's/"memory_bytes": 8388608, "row_bytes": 4096/"memory_bytes": 1073741824, "row_bytes": 536870912/' \
    spray-rows-2e29
mutate spray-small 's/"memory_bytes": 8388608/"memory_bytes": 35184372088832/' spray-memory-2e45
mutate spray-small 's/{"seed": 1, /{"seed": 999, /' spray-trial-seed-999
mutate spray-small 's/"flips": \[\[7, 130, 0,/"flips": [[7, 2147483778, 0,/' spray-flip-bit-2e31
mutate spray-small 's/"flips": \[\[7, 130, 0,/"flips": [[4294967303, 130, 0,/' spray-flip-row-2e32
for f in "$mutants"/*.recording.json; do
    status=0
    timeout 60 cargo run --release -q -p cta-bench --bin replay-check -- "$f" \
        > /dev/null 2>&1 || status=$?
    if [ "$status" -ne 1 ]; then
        echo "replay-check $(basename "$f"): exit status $status (want 1, a typed error)"
        exit 1
    fi
done
# An unknown flag is a usage error, not a recording file to open.
status=0
cargo run --release -q -p cta-bench --bin replay-check -- --isolation journal \
    > /dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "replay-check --isolation journal: exit status $status (want 1, a usage error)"
    exit 1
fi

echo "==> strict JSON + schema validation (telemetry/* + golden recordings)"
# Every machine-readable artifact the workspace emits must parse as
# standards-valid JSON (duplicate keys and non-finite numbers rejected)
# AND have the right shape: snapshots carry exactly label/flags/groups
# with flat scalar groups plus any per-binary required keys, and *.jsonl
# streams carry one schema-valid executor event per line. With no
# arguments json-check audits every *.json and *.jsonl under telemetry/.
cargo run --release -q -p cta-bench --bin json-check -- --schema
cargo run --release -q -p cta-bench --bin json-check -- --schema \
    fixtures/recordings/*.recording.json

echo "==> golden recording replay (scoped + executor at 1/3 workers)"
# The checked-in campaign recordings must replay byte-identically — trial
# seeds, flip transcripts, contents hashes, clocks, outcomes, telemetry —
# both through the scoped serial path and through the campaign executor
# at 1 and 3 workers, its trials journaled on pooled parents (scheduling
# and rollback must be invisible in the bytes). After an *intentional*
# simulation change, regenerate with `replay-check --record` and commit
# the diff.
cargo run --release -q -p cta-bench --bin replay-check -- --executor

echo "==> repository benchmark self-tests (perfbench)"
# Its own package, so the workspace run above misses it: pins request
# determinism and the seed-1 digests of all workloads at 1 and 2 workers.
cargo test --release --offline --manifest-path perfbench/Cargo.toml -q

echo "==> repository benchmark lint (perfbench: clippy -D warnings, rustfmt)"
# The workspace clippy and fmt runs above miss it too; clippy lints it
# against the library API it consumes.
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -q -- -D warnings
cargo fmt --manifest-path perfbench/Cargo.toml --all --check

echo "==> telemetry sanity: no NaN/inf, no sanitizer flags"
# Word-boundary patterns: a substring match like `flip_info` or a
# `finance` label must not trip the gate; only real non-finite JSON
# values (NaN/inf/Infinity as standalone tokens) and `non_finite:`
# sanitizer flags do. `_` is a word character, so `\binf\b` cannot match
# inside `flip_info`.
for f in telemetry/exp-matrix.telemetry.json telemetry/cta-evaluate.telemetry.json \
    telemetry/cta-events.jsonl; do
    [ -f "$f" ] || { echo "missing $f"; exit 1; }
    if grep -nE '\bNaN\b|\bnan\b|\binf\b|\bInfinity\b|non_finite:' "$f"; then
        echo "non-finite value or sanitizer flag in $f"
        exit 1
    fi
done

echo "==> check.sh: all gates passed"
