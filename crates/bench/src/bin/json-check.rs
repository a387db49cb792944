//! `json-check` — strict-JSON and schema gate over the workspace's emitted
//! artifacts.
//!
//! Parses every file named on the command line — or, with no arguments,
//! every `*.json` and `*.jsonl` under the telemetry directory — with the
//! strict parser from `cta_telemetry::json`, and fails with the offending
//! position if any of them is not standards-valid JSON. Wired into
//! `scripts/check.sh` so a regressed emitter (a stray `{,` or a
//! non-finite number) fails CI instead of silently rotting the
//! machine-readable record.
//!
//! With `--schema`, each file must additionally have the right *shape*
//! (`cta_telemetry::schema`), chosen by filename:
//!
//! * `*.recording.json` — a campaign recording whose embedded `telemetry`
//!   member must be a schema-valid snapshot;
//! * `*.jsonl` — a JSON Lines stream (strict JSON per line) of campaign
//!   executor events, each with the declared scheduling fields and an
//!   embedded schema-valid snapshot;
//! * anything else — a telemetry snapshot: exactly `label`/`flags`/
//!   `groups` at top level, flat scalar groups, plus any per-binary
//!   required groups/keys/kinds declared for the snapshot's label.
//!
//! Usage:
//!
//! ```text
//! json-check [--schema] [FILE ...]
//! ```

use std::path::{Path, PathBuf};

use cta_telemetry::json::{self, JsonValue};
use cta_telemetry::schema;

/// The default audit set: every telemetry snapshot and event stream. A
/// missing telemetry directory yields no files; a missing
/// explicitly-named file is an error.
fn default_files() -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(cta_bench::telemetry_dir()) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json" || ext == "jsonl"))
        .collect();
    files.sort();
    files
}

/// Validates a JSON Lines stream: every line strict JSON, and (with
/// `--schema`) every line a well-shaped executor event. Returns rendered
/// failure messages (empty ⇒ valid).
fn jsonl_errors(text: &str, check_schema: bool) -> Vec<String> {
    let docs = match cta_telemetry::jsonl::parse_lines(text) {
        Ok(docs) => docs,
        Err(e) => return vec![e.to_string()],
    };
    if !check_schema {
        return Vec::new();
    }
    let mut failures = Vec::new();
    for (index, doc) in docs.iter().enumerate() {
        for e in schema::validate_executor_event(doc) {
            failures.push(format!("line {}: {e}", index + 1));
        }
    }
    failures
}

/// Shape-checks `doc` according to what the filename says it is,
/// returning every violation.
fn schema_errors(path: &Path, doc: &JsonValue) -> Vec<schema::SchemaError> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name.ends_with(".recording.json") {
        // Full recording validation (spec, trials, transcript) is
        // replay-check's job; here the embedded snapshot must be shaped
        // like one.
        return match doc.get("telemetry") {
            Some(telemetry) => schema::validate_snapshot(telemetry)
                .into_iter()
                .map(|e| schema::SchemaError {
                    path: format!("telemetry.{}", e.path),
                    message: e.message,
                })
                .collect(),
            None => vec![schema::SchemaError {
                path: "telemetry".into(),
                message: "recording is missing its telemetry snapshot".into(),
            }],
        };
    }
    schema::validate_snapshot(doc)
}

fn main() {
    let mut check_schema = false;
    let mut args: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--schema" {
            check_schema = true;
        } else {
            args.push(PathBuf::from(arg));
        }
    }
    let files = if args.is_empty() { default_files() } else { args };
    if files.is_empty() {
        println!("json-check: no files to validate");
        return;
    }

    let mode = if check_schema { "strict JSON + schema" } else { "strict JSON" };
    let mut failures = 0u32;
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("json-check: FAIL {}: {e}", path.display());
                failures += 1;
                continue;
            }
        };
        if path.extension().is_some_and(|ext| ext == "jsonl") {
            let errors = jsonl_errors(&text, check_schema);
            if errors.is_empty() {
                println!("json-check: ok   {}", path.display());
            } else {
                for e in &errors {
                    eprintln!("json-check: FAIL {}: {e}", path.display());
                }
                failures += 1;
            }
            continue;
        }
        let doc = match json::parse(&text) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("json-check: FAIL {}: {e}", path.display());
                failures += 1;
                continue;
            }
        };
        if check_schema {
            let errors = schema_errors(path, &doc);
            if !errors.is_empty() {
                for e in &errors {
                    eprintln!("json-check: FAIL {}: {e}", path.display());
                }
                failures += 1;
                continue;
            }
        }
        println!("json-check: ok   {}", path.display());
    }
    if failures > 0 {
        eprintln!("json-check: {failures} of {} files failed the {mode} gate", files.len());
        std::process::exit(1);
    }
    println!("json-check: {} files valid ({mode})", files.len());
}
