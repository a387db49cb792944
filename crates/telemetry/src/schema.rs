//! Shape validation for the workspace's machine-readable artifacts.
//!
//! The strict [`crate::json`] parser proves an emitted file is
//! standards-valid JSON; this module proves it is the *right* JSON. A
//! telemetry snapshot that parses but silently lost its `dram` group, or
//! whose counters turned into floats, would still sail through a
//! syntax-only gate — and every downstream consumer (drift watchers,
//! replay verifiers, dashboards) would misread it. Schema validation turns
//! those shape regressions into CI failures:
//!
//! * [`validate_snapshot`] checks the universal envelope every
//!   [`crate::Counters::to_json`] snapshot has — exactly the top-level keys
//!   `label` / `flags` / `groups`, string flags, flat groups of
//!   number/bool/text values — and then applies the per-binary
//!   [`declarations`]: required groups and keys with declared
//!   [`ValueKind`]s, matched by snapshot-label prefix.
//! * [`validate_executor_event`] checks one line of the campaign
//!   executor's JSONL event stream.
//!
//! Kind checking is necessarily approximate for numbers — JSON has one
//! number type, so a `UInt` declaration is enforced as "non-negative,
//! integral, and exactly representable (≤ 2⁵³)" rather than by token
//! shape. That still catches the real failure modes: a counter emitted as
//! `1.5`, a rate emitted as a string, a boolean flipped to `0`/`1`.

use std::fmt;

use crate::json::JsonValue;

/// The integer range within which every `f64` is exact: `±2^53`. JSON
/// numbers round-trip through `f64`, so declared `UInt` values outside
/// this range could not be validated (or replayed) faithfully.
pub const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0; // 2^53

/// Declared kind of a telemetry value, mirroring [`crate::Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// A monotonic counter: non-negative integral number (≤ 2⁵³).
    UInt,
    /// A derived metric: any finite number.
    Float,
    /// A condition flag: `true` / `false`.
    Bool,
    /// Free-form metadata: a string.
    Text,
}

impl ValueKind {
    /// True when `v` is admissible for this kind.
    #[must_use]
    pub fn admits(self, v: &JsonValue) -> bool {
        match self {
            ValueKind::UInt => match v {
                JsonValue::Number(n) => *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_INT,
                _ => false,
            },
            ValueKind::Float => matches!(v, JsonValue::Number(_)),
            ValueKind::Bool => matches!(v, JsonValue::Bool(_)),
            ValueKind::Text => matches!(v, JsonValue::String(_)),
        }
    }

    /// Human-readable kind name for error messages.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ValueKind::UInt => "uint (non-negative integral number)",
            ValueKind::Float => "float (finite number)",
            ValueKind::Bool => "bool",
            ValueKind::Text => "text (string)",
        }
    }
}

/// One shape violation, addressed by a `.`-separated path into the
/// document (e.g. `groups.dram.flips_one_to_zero`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// Where in the document the violation sits.
    pub path: String,
    /// What is wrong there.
    pub message: String,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

/// A required key within a required group.
#[derive(Debug, Clone, Copy)]
pub struct KeyReq {
    /// Key name inside the group.
    pub key: &'static str,
    /// Declared kind the value must satisfy.
    pub kind: ValueKind,
}

/// A group a snapshot must contain, with its required keys.
#[derive(Debug, Clone, Copy)]
pub struct GroupReq {
    /// Group name under `groups`.
    pub group: &'static str,
    /// Keys the group must contain (it may contain more).
    pub keys: &'static [KeyReq],
}

/// Required shape of one binary's telemetry snapshot, matched by label
/// prefix (labels are `<binary>` or `<binary>-<variant>`).
#[derive(Debug, Clone, Copy)]
pub struct SnapshotSchema {
    /// Snapshot-label prefix this declaration applies to.
    pub label_prefix: &'static str,
    /// Groups (and keys within them) the snapshot must contain.
    pub required: &'static [GroupReq],
}

/// Per-binary snapshot declarations. A snapshot whose label matches no
/// declaration still gets the universal envelope checks; one that matches
/// (longest prefix wins) must additionally carry the declared groups/keys
/// with the declared kinds.
#[must_use]
pub fn declarations() -> &'static [SnapshotSchema] {
    const EXP_TABLE4: &[GroupReq] = &[
        GroupReq { group: "tlb", keys: &[KeyReq { key: "hit_rate", kind: ValueKind::Float }] },
        GroupReq { group: "psc", keys: &[KeyReq { key: "hit_rate", kind: ValueKind::Float }] },
    ];
    // The embedded telemetry of a flip-log recording (cta-attack): replay
    // verifies these counters against the flip-event transcript, so their
    // presence and integer kind are load-bearing.
    const RECORDING: &[GroupReq] = &[
        GroupReq {
            group: "campaign",
            keys: &[
                KeyReq { key: "trials", kind: ValueKind::UInt },
                KeyReq { key: "total_flips", kind: ValueKind::UInt },
                KeyReq { key: "successes", kind: ValueKind::UInt },
                KeyReq { key: "total_rows_hammered", kind: ValueKind::UInt },
                KeyReq { key: "total_sim_time_ns", kind: ValueKind::UInt },
            ],
        },
        GroupReq {
            group: "dram",
            keys: &[
                KeyReq { key: "flips_one_to_zero", kind: ValueKind::UInt },
                KeyReq { key: "flips_zero_to_one", kind: ValueKind::UInt },
                KeyReq { key: "flip_log_retained", kind: ValueKind::UInt },
                KeyReq { key: "flip_log_dropped", kind: ValueKind::UInt },
                KeyReq { key: "activations", kind: ValueKind::UInt },
            ],
        },
    ];
    // The attacks × defenses × cell-layouts cross-product (exp-matrix):
    // the aggregate defense counters and overhead gauges are what the
    // Table-4-style comparison reads, so their presence and kinds gate.
    const EXP_MATRIX: &[GroupReq] = &[
        GroupReq {
            group: "matrix",
            keys: &[
                KeyReq { key: "attacks", kind: ValueKind::UInt },
                KeyReq { key: "defenses", kind: ValueKind::UInt },
                KeyReq { key: "layouts", kind: ValueKind::UInt },
                KeyReq { key: "cells", kind: ValueKind::UInt },
                KeyReq { key: "seeds_per_cell", kind: ValueKind::UInt },
                KeyReq { key: "quick", kind: ValueKind::Bool },
            ],
        },
        GroupReq {
            group: "defense",
            keys: &[
                KeyReq { key: "softtrr_refreshes", kind: ValueKind::UInt },
                KeyReq { key: "blockhammer_blacklisted", kind: ValueKind::UInt },
                KeyReq { key: "anvil_alarms", kind: ValueKind::UInt },
                KeyReq { key: "activations_denied", kind: ValueKind::UInt },
            ],
        },
        GroupReq {
            group: "overhead",
            keys: &[
                KeyReq { key: "catt_delta_percent", kind: ValueKind::Float },
                KeyReq { key: "anvil_delta_percent", kind: ValueKind::Float },
                KeyReq { key: "softtrr_delta_percent", kind: ValueKind::Float },
                KeyReq { key: "blockhammer_delta_percent", kind: ValueKind::Float },
            ],
        },
    ];
    // A campaign merged by the persistent executor carries the same
    // load-bearing counters as a recorded campaign: the executor's merge
    // is pinned byte-identical to the serial recording path, so the shape
    // requirements are shared.
    const EXECUTOR: &[GroupReq] = RECORDING;
    // The campaign service's gauges (`cta evaluate`): the pool memory
    // gauges are what pool footprints are read from.
    const CTA_EVALUATE: &[GroupReq] = &[GroupReq {
        group: "executor",
        keys: &[
            KeyReq { key: "trials_completed", kind: ValueKind::UInt },
            KeyReq { key: "pool_parents", kind: ValueKind::UInt },
            KeyReq { key: "pool_model_cache_bytes", kind: ValueKind::UInt },
            KeyReq { key: "pool_row_store_bytes", kind: ValueKind::UInt },
        ],
    }];
    &[
        SnapshotSchema { label_prefix: "exp-table4", required: EXP_TABLE4 },
        SnapshotSchema { label_prefix: "exp-matrix", required: EXP_MATRIX },
        SnapshotSchema { label_prefix: "recording", required: RECORDING },
        SnapshotSchema { label_prefix: "executor", required: EXECUTOR },
        SnapshotSchema { label_prefix: "cta-evaluate", required: CTA_EVALUATE },
    ]
}

/// Top-level fields of one executor JSONL campaign event, in emission
/// order: scheduling metadata plus the embedded merged-telemetry snapshot.
const EXECUTOR_EVENT_FIELDS: &[KeyReq] = &[
    KeyReq { key: "event", kind: ValueKind::Text },
    KeyReq { key: "seq", kind: ValueKind::UInt },
    KeyReq { key: "tenant", kind: ValueKind::Text },
    KeyReq { key: "campaign", kind: ValueKind::UInt },
    KeyReq { key: "trials", kind: ValueKind::UInt },
    KeyReq { key: "dropped_trials", kind: ValueKind::UInt },
    KeyReq { key: "successes", kind: ValueKind::UInt },
    KeyReq { key: "total_flips", kind: ValueKind::UInt },
    KeyReq { key: "wall_ns", kind: ValueKind::UInt },
    KeyReq { key: "p99_trial_ns", kind: ValueKind::UInt },
];

/// Top-level fields of one executor JSONL `cancelled` event, in emission
/// order. Cancellation drops queued trials before any kernel runs, so
/// there is no merged telemetry to embed — just which campaign lost how
/// many trials.
const EXECUTOR_CANCELLED_FIELDS: &[KeyReq] = &[
    KeyReq { key: "event", kind: ValueKind::Text },
    KeyReq { key: "seq", kind: ValueKind::UInt },
    KeyReq { key: "tenant", kind: ValueKind::Text },
    KeyReq { key: "campaign", kind: ValueKind::UInt },
    KeyReq { key: "dropped_trials", kind: ValueKind::UInt },
];

/// Validates one line of the campaign executor's JSONL stream, dispatching
/// on the `event` member (see EXPERIMENTS.md):
///
/// * `"campaign"` — exactly the declared scheduling fields plus a
///   `telemetry` member that must itself pass [`validate_snapshot`], so a
///   streamed campaign carries the same schema-checked counters as a
///   recorded one;
/// * `"cancelled"` — exactly the drop-accounting fields, with no embedded
///   telemetry (the dropped trials never ran).
///
/// Returns every violation found (empty ⇒ valid).
#[must_use]
pub fn validate_executor_event(doc: &JsonValue) -> Vec<SchemaError> {
    let mut errors = Vec::new();
    let Some(members) = doc.as_object() else {
        return vec![err("$", "executor event must be a JSON object")];
    };
    let (fields, telemetry) = match doc.get("event") {
        Some(JsonValue::String(event)) if event == "campaign" => (EXECUTOR_EVENT_FIELDS, true),
        Some(JsonValue::String(event)) if event == "cancelled" => {
            (EXECUTOR_CANCELLED_FIELDS, false)
        }
        _ => {
            errors.push(err("event", "must be \"campaign\" or \"cancelled\""));
            (EXECUTOR_EVENT_FIELDS, true)
        }
    };
    for (key, _) in members {
        let known = (telemetry && key == "telemetry") || fields.iter().any(|f| f.key == key);
        if !known {
            errors.push(err(key, "unknown executor-event key"));
        }
    }
    for field in fields {
        match doc.get(field.key) {
            None => errors.push(err(field.key, "missing")),
            Some(v) if !field.kind.admits(v) => {
                errors.push(err(field.key, format!("expected {}", field.kind.name())));
            }
            Some(_) => {}
        }
    }
    if telemetry {
        match doc.get("telemetry") {
            None => errors.push(err("telemetry", "missing")),
            Some(snapshot) => {
                for e in validate_snapshot(snapshot) {
                    errors.push(err(format!("telemetry.{}", e.path), e.message));
                }
            }
        }
    }
    errors
}

/// The declaration applying to `label`, if any (longest matching prefix).
#[must_use]
pub fn schema_for(label: &str) -> Option<&'static SnapshotSchema> {
    declarations()
        .iter()
        .filter(|s| label.starts_with(s.label_prefix))
        .max_by_key(|s| s.label_prefix.len())
}

fn err(path: impl Into<String>, message: impl Into<String>) -> SchemaError {
    SchemaError { path: path.into(), message: message.into() }
}

/// Validates a telemetry snapshot: the universal
/// [`crate::Counters::to_json`] envelope plus, when the label matches a
/// per-binary declaration, that binary's required groups/keys/kinds.
/// Returns every violation found (empty ⇒ valid).
#[must_use]
pub fn validate_snapshot(doc: &JsonValue) -> Vec<SchemaError> {
    let mut errors = Vec::new();
    let Some(members) = doc.as_object() else {
        return vec![err("$", "snapshot must be a JSON object")];
    };

    // Exactly the envelope keys — an unknown top-level key means some
    // emitter grew a side channel no consumer knows about.
    for (key, _) in members {
        if !matches!(key.as_str(), "label" | "flags" | "groups") {
            errors.push(err(key, "unknown top-level key (expected label, flags, groups)"));
        }
    }

    let label = match doc.get("label") {
        None => {
            errors.push(err("label", "missing"));
            None
        }
        Some(JsonValue::String(s)) if !s.is_empty() => Some(s.clone()),
        Some(JsonValue::String(_)) => {
            errors.push(err("label", "must be non-empty"));
            None
        }
        Some(_) => {
            errors.push(err("label", "must be a string"));
            None
        }
    };

    match doc.get("flags") {
        None => errors.push(err("flags", "missing")),
        Some(JsonValue::Array(items)) => {
            for (i, item) in items.iter().enumerate() {
                if !matches!(item, JsonValue::String(_)) {
                    errors.push(err(format!("flags[{i}]"), "flags must be strings"));
                }
            }
        }
        Some(_) => errors.push(err("flags", "must be an array")),
    }

    match doc.get("groups") {
        None => errors.push(err("groups", "missing")),
        Some(JsonValue::Object(groups)) => {
            for (name, group) in groups {
                let Some(values) = group.as_object() else {
                    errors.push(err(format!("groups.{name}"), "group must be an object"));
                    continue;
                };
                for (key, value) in values {
                    let flat = matches!(
                        value,
                        JsonValue::Number(_) | JsonValue::Bool(_) | JsonValue::String(_)
                    );
                    if !flat {
                        errors.push(err(
                            format!("groups.{name}.{key}"),
                            "group values must be numbers, booleans, or strings",
                        ));
                    }
                }
            }
        }
        Some(_) => errors.push(err("groups", "must be an object")),
    }

    if let Some(label) = label {
        if let Some(schema) = schema_for(&label) {
            errors.extend(validate_required(doc, schema));
        }
    }
    errors
}

/// Checks `doc` against one declaration's required groups/keys/kinds
/// (assumes the envelope checks ran separately).
#[must_use]
pub fn validate_required(doc: &JsonValue, schema: &SnapshotSchema) -> Vec<SchemaError> {
    let mut errors = Vec::new();
    let groups = doc.get("groups");
    for req in schema.required {
        let Some(group) = groups.and_then(|g| g.get(req.group)) else {
            errors.push(err(
                format!("groups.{}", req.group),
                format!("required group missing (schema `{}`)", schema.label_prefix),
            ));
            continue;
        };
        for key_req in req.keys {
            let path = format!("groups.{}.{}", req.group, key_req.key);
            match group.get(key_req.key) {
                None => errors.push(err(path, "required key missing")),
                Some(v) if !key_req.kind.admits(v) => {
                    errors.push(err(path, format!("expected {}", key_req.kind.name())));
                }
                Some(_) => {}
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::Counters;

    #[test]
    fn live_counters_snapshots_validate() {
        let mut c = Counters::new("exp-anything");
        c.set_u64("dram", "reads", 7);
        c.set_f64("tlb", "hit_rate", 0.5);
        c.set_bool("bench", "quick", true);
        c.set_text("bench", "note", "hi");
        c.flag("checked");
        let doc = parse(&c.to_json()).unwrap();
        assert_eq!(validate_snapshot(&doc), vec![]);
    }

    #[test]
    fn unknown_top_level_key_is_rejected() {
        let doc = parse(r#"{"label": "x", "flags": [], "groups": {}, "extra": 1}"#).unwrap();
        let errors = validate_snapshot(&doc);
        assert!(errors.iter().any(|e| e.path == "extra"), "{errors:?}");
    }

    #[test]
    fn missing_envelope_pieces_are_each_reported() {
        let errors = validate_snapshot(&parse("{}").unwrap());
        for path in ["label", "flags", "groups"] {
            assert!(errors.iter().any(|e| e.path == path), "missing {path}: {errors:?}");
        }
    }

    #[test]
    fn nested_group_values_are_rejected() {
        let doc = parse(r#"{"label": "x", "flags": [], "groups": {"g": {"k": [1]}}}"#).unwrap();
        let errors = validate_snapshot(&doc);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].path, "groups.g.k");
    }

    #[test]
    fn declared_snapshot_must_carry_required_groups() {
        // An exp-table4 label without its tlb group fails the per-binary
        // declaration even though the envelope is fine.
        let doc = parse(r#"{"label": "exp-table4-cta", "flags": [], "groups": {}}"#).unwrap();
        let errors = validate_snapshot(&doc);
        assert!(errors.iter().any(|e| e.path == "groups.tlb"), "{errors:?}");
    }

    #[test]
    fn uint_kind_rejects_fractional_and_negative_numbers() {
        assert!(ValueKind::UInt.admits(&JsonValue::Number(0.0)));
        assert!(ValueKind::UInt.admits(&JsonValue::Number(936.0)));
        assert!(!ValueKind::UInt.admits(&JsonValue::Number(1.5)));
        assert!(!ValueKind::UInt.admits(&JsonValue::Number(-1.0)));
        assert!(!ValueKind::UInt.admits(&JsonValue::Number(MAX_EXACT_INT * 2.0)));
        assert!(!ValueKind::UInt.admits(&JsonValue::Bool(true)));
        assert!(ValueKind::Float.admits(&JsonValue::Number(-0.5)));
        assert!(!ValueKind::Float.admits(&JsonValue::String("0.5".into())));
    }

    #[test]
    fn recording_declaration_enforces_integer_counters() {
        let doc = parse(
            r#"{"label": "recording", "flags": [], "groups": {
                "campaign": {"trials": 2, "total_flips": 1.5, "successes": 0,
                             "total_rows_hammered": 4, "total_sim_time_ns": 9},
                "dram": {"flips_one_to_zero": 1, "flips_zero_to_one": 0,
                         "flip_log_retained": 1, "flip_log_dropped": 0,
                         "activations": 3}}}"#,
        )
        .unwrap();
        let errors = validate_snapshot(&doc);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(errors[0].path, "groups.campaign.total_flips");
    }

    #[test]
    fn schema_for_picks_longest_prefix() {
        assert_eq!(schema_for("exp-table4-cta").unwrap().label_prefix, "exp-table4");
        assert_eq!(schema_for("recording").unwrap().label_prefix, "recording");
        assert!(schema_for("exp-fig1").is_none());
    }

    #[test]
    fn matrix_declaration_requires_defense_counters_and_overhead_gauges() {
        assert_eq!(schema_for("exp-matrix").unwrap().label_prefix, "exp-matrix");
        // A matrix snapshot that lost its defense counters or overhead
        // gauges must fail even with a clean envelope.
        let doc = parse(
            r#"{"label": "exp-matrix", "flags": [], "groups": {
                "matrix": {"attacks": 4, "defenses": 5, "layouts": 3,
                           "cells": 60, "seeds_per_cell": 4, "quick": false},
                "overhead": {"catt_delta_percent": 0.5, "anvil_delta_percent": 1.5,
                             "softtrr_delta_percent": 0.1,
                             "blockhammer_delta_percent": -0.2}}}"#,
        )
        .unwrap();
        let errors = validate_snapshot(&doc);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(errors[0].path, "groups.defense");
    }

    #[test]
    fn executor_event_envelope_validates() {
        let good = parse(
            r#"{"event": "campaign", "seq": 0, "tenant": "t0", "campaign": 3,
                "trials": 2, "dropped_trials": 0, "successes": 1, "total_flips": 9,
                "wall_ns": 120, "p99_trial_ns": 55,
                "telemetry": {"label": "executor", "flags": [], "groups": {
                    "campaign": {"trials": 2, "total_flips": 9, "successes": 1,
                                 "total_rows_hammered": 4, "total_sim_time_ns": 9},
                    "dram": {"flips_one_to_zero": 5, "flips_zero_to_one": 4,
                             "flip_log_retained": 9, "flip_log_dropped": 0,
                             "activations": 30}}}}"#,
        )
        .unwrap();
        assert_eq!(validate_executor_event(&good), vec![]);
    }

    #[test]
    fn executor_event_rejects_drift() {
        // Wrong event name, missing seq, stray key, and an embedded
        // snapshot that lost its campaign group: all reported.
        let bad = parse(
            r#"{"event": "trial", "tenant": "t0", "campaign": 3, "trials": 2,
                "dropped_trials": 0, "successes": 1, "total_flips": 9,
                "wall_ns": 120, "p99_trial_ns": 55, "stray": 1,
                "telemetry": {"label": "executor", "flags": [], "groups": {}}}"#,
        )
        .unwrap();
        let errors = validate_executor_event(&bad);
        let paths: Vec<&str> = errors.iter().map(|e| e.path.as_str()).collect();
        assert!(paths.contains(&"event"), "{errors:?}");
        assert!(paths.contains(&"seq"), "{errors:?}");
        assert!(paths.contains(&"stray"), "{errors:?}");
        assert!(paths.contains(&"telemetry.groups.campaign"), "{errors:?}");
    }

    #[test]
    fn cancelled_event_validates_without_telemetry() {
        let good = parse(
            r#"{"event": "cancelled", "seq": 4, "tenant": "t0", "campaign": 3,
                "dropped_trials": 7}"#,
        )
        .unwrap();
        assert_eq!(validate_executor_event(&good), vec![]);

        // A cancelled event must not smuggle campaign-only members: the
        // dropped trials never ran, so there is no telemetry to embed.
        let bad = parse(
            r#"{"event": "cancelled", "seq": 4, "tenant": "t0", "campaign": 3,
                "dropped_trials": 7, "trials": 9,
                "telemetry": {"label": "executor", "flags": [], "groups": {}}}"#,
        )
        .unwrap();
        let errors = validate_executor_event(&bad);
        let paths: Vec<&str> = errors.iter().map(|e| e.path.as_str()).collect();
        assert!(paths.contains(&"trials"), "{errors:?}");
        assert!(paths.contains(&"telemetry"), "{errors:?}");
    }

    #[test]
    fn cta_evaluate_declaration_requires_the_pool_memory_gauges() {
        assert_eq!(schema_for("cta-evaluate").unwrap().label_prefix, "cta-evaluate");
        let doc = parse(
            r#"{"label": "cta-evaluate", "flags": [], "groups": {
                "executor": {"trials_completed": 4, "pool_parents": 3,
                             "pool_model_cache_bytes": 3672832}}}"#,
        )
        .unwrap();
        let errors = validate_snapshot(&doc);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(errors[0].path, "groups.executor.pool_row_store_bytes");
    }

    #[test]
    fn executor_snapshot_label_shares_recording_shape() {
        let schema = schema_for("executor").unwrap();
        assert_eq!(schema.label_prefix, "executor");
        let doc = parse(r#"{"label": "executor", "flags": [], "groups": {}}"#).unwrap();
        let errors = validate_snapshot(&doc);
        assert!(errors.iter().any(|e| e.path == "groups.campaign"), "{errors:?}");
        assert!(errors.iter().any(|e| e.path == "groups.dram"), "{errors:?}");
    }
}
