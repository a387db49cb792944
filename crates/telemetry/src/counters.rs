//! Counter registry: named groups of values, snapshotted from stat structs,
//! mergeable across shards, and emitted as deterministic JSON.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json::write_escaped;

/// A single telemetry value.
///
/// Monotonic counters are `UInt` and merge by addition; derived metrics
/// (rates, percentages) are `Float`; `Bool` merges by OR; `Text` is
/// first-writer-wins metadata (labels, config descriptions).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A monotonic counter; merges by addition.
    UInt(u64),
    /// A derived metric; merges by addition, sanitized to finite values.
    Float(f64),
    /// A condition flag; merges by logical OR.
    Bool(bool),
    /// Free-form metadata; first writer wins on merge.
    Text(String),
}

/// A named set of values, e.g. everything the DRAM module counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Group {
    values: BTreeMap<String, Value>,
}

impl Group {
    /// Adds `v` to the `key` counter (starting from zero), so repeated
    /// snapshots of per-trial stat structs aggregate naturally.
    pub fn add_u64(&mut self, key: &str, v: u64) {
        match self.values.get_mut(key) {
            Some(Value::UInt(cur)) => *cur = cur.saturating_add(v),
            _ => {
                self.values.insert(key.to_string(), Value::UInt(v));
            }
        }
    }

    /// Overwrites the `key` counter with `v`.
    pub fn set_u64(&mut self, key: &str, v: u64) {
        self.values.insert(key.to_string(), Value::UInt(v));
    }

    /// Overwrites `key` with a float value. Callers should sanitize via
    /// [`Counters::set_f64`]; this low-level setter stores `v` as-is.
    pub fn set_f64(&mut self, key: &str, v: f64) {
        self.values.insert(key.to_string(), Value::Float(v));
    }

    /// Overwrites `key` with a boolean.
    pub fn set_bool(&mut self, key: &str, v: bool) {
        self.values.insert(key.to_string(), Value::Bool(v));
    }

    /// Overwrites `key` with free-form text.
    pub fn set_text(&mut self, key: &str, v: &str) {
        self.values.insert(key.to_string(), Value::Text(v.to_string()));
    }

    /// Looks up a value by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.values.get(key)
    }

    /// Convenience accessor for `UInt` values; `None` for other types.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.values.get(key) {
            Some(Value::UInt(v)) => Some(*v),
            _ => None,
        }
    }

    /// Convenience accessor for `Float` values; `None` for other types.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.values.get(key) {
            Some(Value::Float(v)) => Some(*v),
            _ => None,
        }
    }

    /// Iterates over `(key, value)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of values in the group.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the group holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn merge_from(&mut self, other: &Group) {
        for (key, theirs) in &other.values {
            match (self.values.get_mut(key), theirs) {
                (Some(Value::UInt(a)), Value::UInt(b)) => *a = a.saturating_add(*b),
                (Some(Value::Float(a)), Value::Float(b)) => *a += b,
                (Some(Value::Bool(a)), Value::Bool(b)) => *a |= b,
                (Some(Value::Text(_)), Value::Text(_)) => {} // first writer wins
                (Some(mine), theirs) => *mine = theirs.clone(), // type conflict: last type wins
                (None, theirs) => {
                    self.values.insert(key.clone(), theirs.clone());
                }
            }
        }
    }
}

/// Anything that can snapshot itself into a counter [`Group`].
///
/// Implementations should record raw monotonic counters (`add_u64`) so that
/// snapshots from many trials, shards, or kernels aggregate by addition;
/// derived metrics (hit rates, percentages) belong in the caller via
/// [`Counters::set_f64`], computed after aggregation.
pub trait StatSource {
    /// Default group name for this source, e.g. `"dram"` or `"tlb"`.
    fn group(&self) -> &'static str;

    /// Records this source's counters into `g`.
    fn record(&self, g: &mut Group);
}

/// A labeled registry of counter groups plus condition flags.
///
/// This is the unit of telemetry: one `Counters` per run (or per shard,
/// merged in deterministic order), emitted as one JSON snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Counters {
    label: String,
    groups: BTreeMap<String, Group>,
    flags: BTreeSet<String>,
}

impl Counters {
    /// Creates an empty registry labeled `label` (typically the experiment
    /// or benchmark name; it becomes the `label` field of the snapshot).
    pub fn new(label: &str) -> Self {
        Counters { label: label.to_string(), groups: BTreeMap::new(), flags: BTreeSet::new() }
    }

    /// The snapshot label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Snapshots `src` into its default group (adding to any prior values,
    /// so recording several kernels' stats aggregates them).
    pub fn record(&mut self, src: &dyn StatSource) {
        self.record_as(src.group(), src);
    }

    /// Snapshots `src` into an explicitly named group, for callers that
    /// track several instances of the same source (e.g. per-zone stats).
    pub fn record_as(&mut self, group: &str, src: &dyn StatSource) {
        src.record(self.groups.entry(group.to_string()).or_default());
    }

    /// Adds `v` to a counter, creating the group as needed.
    pub fn add_u64(&mut self, group: &str, key: &str, v: u64) {
        self.groups.entry(group.to_string()).or_default().add_u64(key, v);
    }

    /// Overwrites a counter, creating the group as needed.
    pub fn set_u64(&mut self, group: &str, key: &str, v: u64) {
        self.groups.entry(group.to_string()).or_default().set_u64(key, v);
    }

    /// Stores a float metric. Non-finite values (NaN/±inf) are replaced by
    /// `0.0` and surfaced as a `non_finite:<group>.<key>` flag so snapshots
    /// never poison downstream means while still reporting the condition.
    pub fn set_f64(&mut self, group: &str, key: &str, v: f64) {
        let stored = if v.is_finite() {
            v
        } else {
            self.flags.insert(format!("non_finite:{group}.{key}"));
            0.0
        };
        self.groups.entry(group.to_string()).or_default().set_f64(key, stored);
    }

    /// Stores a boolean, creating the group as needed.
    pub fn set_bool(&mut self, group: &str, key: &str, v: bool) {
        self.groups.entry(group.to_string()).or_default().set_bool(key, v);
    }

    /// Stores free-form text, creating the group as needed.
    pub fn set_text(&mut self, group: &str, key: &str, v: &str) {
        self.groups.entry(group.to_string()).or_default().set_text(key, v);
    }

    /// Raises a named condition flag (idempotent).
    pub fn flag(&mut self, name: &str) {
        self.flags.insert(name.to_string());
    }

    /// True when `name` has been flagged.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.contains(name)
    }

    /// Iterates over raised flags in sorted order.
    pub fn flags(&self) -> impl Iterator<Item = &str> {
        self.flags.iter().map(String::as_str)
    }

    /// Looks up a group by name.
    pub fn group(&self, name: &str) -> Option<&Group> {
        self.groups.get(name)
    }

    /// Iterates over `(name, group)` pairs in sorted name order.
    pub fn groups(&self) -> impl Iterator<Item = (&str, &Group)> {
        self.groups.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds `other` into `self`: `UInt` counters add, `Float` metrics add,
    /// `Bool` flags OR, `Text` keeps the first writer; condition flags
    /// union. Merging shards in index order is deterministic for counters
    /// (integer addition is associative and commutative); float sums should
    /// be folded in a fixed shard order, as `cta-parallel` reductions do.
    pub fn merge(&mut self, other: &Counters) {
        for (name, theirs) in &other.groups {
            self.groups.entry(name.clone()).or_default().merge_from(theirs);
        }
        self.flags.extend(other.flags.iter().cloned());
    }

    /// Returns `self - baseline` per counter: `UInt` values subtract
    /// (saturating at zero), `Float` values subtract, `Bool`/`Text` and
    /// flags are taken from `self`. Groups or keys absent from `baseline`
    /// pass through unchanged — useful for before/after phase deltas.
    pub fn diff(&self, baseline: &Counters) -> Counters {
        let mut out = self.clone();
        for (name, base_group) in &baseline.groups {
            if let Some(group) = out.groups.get_mut(name) {
                for (key, base) in &base_group.values {
                    match (group.values.get_mut(key), base) {
                        (Some(Value::UInt(a)), Value::UInt(b)) => *a = a.saturating_sub(*b),
                        (Some(Value::Float(a)), Value::Float(b)) => *a -= b,
                        _ => {}
                    }
                }
            }
        }
        out
    }

    /// True when any stored float is NaN or infinite (possible after
    /// overflowing float merges even though `set_f64` sanitizes inputs).
    pub fn has_non_finite(&self) -> bool {
        self.groups
            .values()
            .any(|g| g.values.values().any(|v| matches!(v, Value::Float(f) if !f.is_finite())))
    }

    /// Serializes the snapshot as a deterministic JSON object:
    /// `{"label": ..., "flags": [...], "groups": {name: {key: value}}}`.
    /// Keys are emitted in sorted order; non-finite floats are emitted as
    /// `0.0` (JSON has no NaN/inf) — check [`Counters::has_non_finite`] if
    /// that distinction matters.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"label\": ");
        write_escaped(&self.label, &mut out);
        out.push_str(",\n  \"flags\": [");
        for (i, flag) in self.flags.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_escaped(flag, &mut out);
        }
        out.push_str("],\n  \"groups\": {");
        for (gi, (name, group)) in self.groups.iter().enumerate() {
            if gi > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_escaped(name, &mut out);
            out.push_str(": {");
            for (ki, (key, value)) in group.values.iter().enumerate() {
                if ki > 0 {
                    out.push(',');
                }
                out.push_str("\n      ");
                write_escaped(key, &mut out);
                out.push_str(": ");
                push_json_value(&mut out, value);
            }
            if !group.values.is_empty() {
                out.push_str("\n    ");
            }
            out.push('}');
        }
        if !self.groups.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}");
        out
    }

    /// Writes [`Counters::to_json`] (plus a trailing newline) to `path`,
    /// creating parent directories as needed.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json() + "\n")
    }
}

fn push_json_value(out: &mut String, value: &Value) {
    match value {
        Value::UInt(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Float(v) => {
            let v = if v.is_finite() { *v } else { 0.0 };
            // `{:?}` prints the shortest round-trip form, which is valid
            // JSON for finite floats (always contains a '.' or exponent
            // is fine either way).
            let _ = write!(out, "{v:?}");
        }
        Value::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Text(v) => write_escaped(v, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        a: u64,
        b: u64,
    }

    impl StatSource for Fake {
        fn group(&self) -> &'static str {
            "fake"
        }

        fn record(&self, g: &mut Group) {
            g.add_u64("a", self.a);
            g.add_u64("b", self.b);
        }
    }

    #[test]
    fn record_aggregates_across_snapshots() {
        let mut c = Counters::new("t");
        c.record(&Fake { a: 1, b: 10 });
        c.record(&Fake { a: 2, b: 20 });
        let g = c.group("fake").unwrap();
        assert_eq!(g.get_u64("a"), Some(3));
        assert_eq!(g.get_u64("b"), Some(30));
    }

    #[test]
    fn merge_matches_serial_recording() {
        let mut serial = Counters::new("t");
        serial.record(&Fake { a: 1, b: 10 });
        serial.record(&Fake { a: 2, b: 20 });

        let mut shard0 = Counters::new("t");
        shard0.record(&Fake { a: 1, b: 10 });
        let mut shard1 = Counters::new("t");
        shard1.record(&Fake { a: 2, b: 20 });
        shard0.merge(&shard1);

        assert_eq!(serial, shard0);
    }

    #[test]
    fn set_f64_sanitizes_non_finite() {
        let mut c = Counters::new("t");
        c.set_f64("g", "bad", f64::NAN);
        c.set_f64("g", "worse", f64::INFINITY);
        c.set_f64("g", "fine", 1.5);
        assert_eq!(c.group("g").unwrap().get_f64("bad"), Some(0.0));
        assert_eq!(c.group("g").unwrap().get_f64("worse"), Some(0.0));
        assert_eq!(c.group("g").unwrap().get_f64("fine"), Some(1.5));
        assert!(c.has_flag("non_finite:g.bad"));
        assert!(c.has_flag("non_finite:g.worse"));
        assert!(!c.has_non_finite());
    }

    #[test]
    fn diff_subtracts_counters() {
        let mut before = Counters::new("t");
        before.set_u64("g", "n", 5);
        let mut after = Counters::new("t");
        after.set_u64("g", "n", 12);
        after.set_u64("g", "new", 3);
        let d = after.diff(&before);
        assert_eq!(d.group("g").unwrap().get_u64("n"), Some(7));
        assert_eq!(d.group("g").unwrap().get_u64("new"), Some(3));
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let mut c = Counters::new("exp \"x\"");
        c.set_u64("zeta", "k", 1);
        c.set_u64("alpha", "k", 2);
        c.set_f64("alpha", "rate", 0.5);
        c.set_bool("alpha", "ok", true);
        c.set_text("alpha", "note", "line\nbreak");
        c.flag("checked");
        let json = c.to_json();
        assert_eq!(json, c.clone().to_json());
        assert!(json.contains("\"label\": \"exp \\\"x\\\"\""));
        assert!(json.contains("\"flags\": [\"checked\"]"));
        assert!(json.contains("\"line\\nbreak\""));
        // Sorted group order: alpha before zeta.
        let alpha = json.find("\"alpha\"").unwrap();
        let zeta = json.find("\"zeta\"").unwrap();
        assert!(alpha < zeta);
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn every_control_character_round_trips_through_the_json() {
        use crate::json::{self, JsonValue};
        let nasty: String = (0u32..0x20).filter_map(char::from_u32).chain(['"', '\\']).collect();
        let mut c = Counters::new(&nasty);
        c.flag(&nasty);
        c.set_text(&nasty, &nasty, &nasty);
        let text = || JsonValue::String(nasty.clone());
        let want = JsonValue::Object(vec![
            ("label".to_string(), text()),
            ("flags".to_string(), JsonValue::Array(vec![text()])),
            (
                "groups".to_string(),
                JsonValue::Object(vec![(
                    nasty.clone(),
                    JsonValue::Object(vec![(nasty.clone(), text())]),
                )]),
            ),
        ]);
        assert_eq!(json::parse(&c.to_json()), Ok(want));
    }

    #[test]
    fn empty_counters_emit_valid_skeleton() {
        let c = Counters::new("empty");
        let json = c.to_json();
        assert!(json.contains("\"groups\": {}"));
        assert!(json.contains("\"flags\": []"));
    }
}
