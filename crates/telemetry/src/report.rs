//! The on-disk metrics format: a [`MetricsSnapshot`] plus a string
//! metadata block, serialized as one line of versioned JSON. Both
//! `epvf … --metrics-out` and the bench harnesses' `BENCH_<name>.json`
//! files use this shape, so one set of tooling (`epvf metrics-check`,
//! the CI schema gate, ad-hoc `jq`) reads every metrics artifact the
//! repo produces, and files from different runs can be concatenated into
//! NDJSON streams.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::json::{parse, Json};
use crate::snapshot::{MetricsSnapshot, TimerSnapshot};

/// Value of the `schema` field in every emitted document.
pub const SCHEMA_NAME: &str = "epvf-metrics";

/// Current schema version. Bump on any change to the document shape;
/// [`MetricsReport::parse`] rejects documents from other versions so
/// stale artifacts fail loudly instead of mis-parsing.
pub const SCHEMA_VERSION: u64 = 1;

/// A metrics snapshot stamped with provenance metadata, ready to write.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Free-form provenance: command, target, runs, seed, threads,
    /// checkpoint interval, git sha, … (string-valued by design — the
    /// numeric payload lives in the snapshot).
    pub meta: BTreeMap<String, String>,
    /// The metric values.
    pub snapshot: MetricsSnapshot,
}

impl MetricsReport {
    /// Wrap a snapshot with empty metadata.
    pub fn new(snapshot: MetricsSnapshot) -> Self {
        MetricsReport {
            meta: BTreeMap::new(),
            snapshot,
        }
    }

    /// Add one metadata entry (builder-style).
    pub fn with_meta(mut self, key: &str, value: impl Into<String>) -> Self {
        self.meta.insert(key.to_string(), value.into());
        self
    }

    /// Serialize as a single line of JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        let meta = Json::Obj(
            self.meta
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect(),
        );
        let counters = Json::from_u64_map(self.snapshot.counters.iter().map(|(k, &v)| (k, v)));
        let timers = Json::Obj(
            self.snapshot
                .timers
                .iter()
                .map(|(name, t)| {
                    let buckets = Json::Obj(
                        t.buckets
                            .iter()
                            .map(|(&b, &n)| (b.to_string(), Json::UInt(n)))
                            .collect(),
                    );
                    let obj = Json::Obj(vec![
                        ("count".to_string(), Json::UInt(t.count)),
                        ("total_ns".to_string(), Json::UInt(t.total_ns)),
                        ("max_ns".to_string(), Json::UInt(t.max_ns)),
                        ("buckets".to_string(), buckets),
                    ]);
                    (name.clone(), obj)
                })
                .collect(),
        );
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(SCHEMA_NAME.to_string())),
            ("version".to_string(), Json::UInt(SCHEMA_VERSION)),
            ("meta".to_string(), meta),
            ("counters".to_string(), counters),
            ("timers".to_string(), timers),
        ])
        .to_string_compact()
    }

    /// Parse a document produced by [`MetricsReport::to_json`]. Rejects
    /// anything that is not schema `epvf-metrics` version
    /// [`SCHEMA_VERSION`], and any structural mismatch.
    pub fn parse(input: &str) -> Result<MetricsReport, String> {
        let doc = parse(input.trim())?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA_NAME) => {}
            Some(other) => return Err(format!("unknown schema {other:?}")),
            None => return Err("missing schema field".to_string()),
        }
        match doc.get("version").and_then(Json::as_u64) {
            Some(SCHEMA_VERSION) => {}
            Some(v) => {
                return Err(format!(
                    "unsupported schema version {v} (this build reads version {SCHEMA_VERSION})"
                ))
            }
            None => return Err("missing version field".to_string()),
        }

        let mut meta = BTreeMap::new();
        for (k, v) in doc
            .get("meta")
            .and_then(Json::as_obj)
            .ok_or("missing meta object")?
        {
            let s = v
                .as_str()
                .ok_or_else(|| format!("meta.{k} is not a string"))?;
            meta.insert(k.clone(), s.to_string());
        }

        let counters = doc
            .get("counters")
            .and_then(Json::to_u64_map)
            .ok_or("missing or malformed counters object")?;

        let mut timers = BTreeMap::new();
        for (name, t) in doc
            .get("timers")
            .and_then(Json::as_obj)
            .ok_or("missing timers object")?
        {
            let field = |f: &str| {
                t.get(f)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("timer {name} missing {f}"))
            };
            let mut buckets = BTreeMap::new();
            for (b, n) in t
                .get("buckets")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("timer {name} missing buckets"))?
            {
                let idx: u32 = b
                    .parse()
                    .map_err(|_| format!("timer {name} has non-numeric bucket {b:?}"))?;
                buckets.insert(
                    idx,
                    n.as_u64()
                        .ok_or_else(|| format!("timer {name} bucket {b} not an integer"))?,
                );
            }
            timers.insert(
                name.clone(),
                TimerSnapshot {
                    count: field("count")?,
                    total_ns: field("total_ns")?,
                    max_ns: field("max_ns")?,
                    buckets,
                },
            );
        }

        Ok(MetricsReport {
            meta,
            snapshot: MetricsSnapshot { counters, timers },
        })
    }

    /// Write the document (plus a trailing newline, for NDJSON
    /// concatenation) to `path`, creating parent directories as needed.
    /// The write is atomic (temp file + rename): a crash mid-write never
    /// leaves a torn document for `epvf metrics-check` to choke on.
    pub fn write_file(&self, path: &Path) -> io::Result<()> {
        crate::atomic_write(path, (self.to_json() + "\n").as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Ctr, Gauge, Tmr};
    use crate::registry::Registry;

    fn sample_report() -> MetricsReport {
        let r = Registry::new();
        r.add(Ctr::DdgNodesCreated, 1234);
        r.peak(Gauge::AceFrontierPeak, 77);
        r.record_ns(Tmr::DdgBuild, 1500);
        r.record_ns(Tmr::DdgBuild, 9_000_000);
        MetricsReport::new(r.snapshot())
            .with_meta("command", "analyze")
            .with_meta("target", "mm \"tiny\"")
    }

    #[test]
    fn round_trip_preserves_everything() {
        let report = sample_report();
        let line = report.to_json();
        assert!(!line.contains('\n'), "must serialize to a single line");
        let back = MetricsReport::parse(&line).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn rejects_unknown_version() {
        let line = sample_report().to_json();
        let bumped = line.replace("\"version\":1", "\"version\":2");
        let err = MetricsReport::parse(&bumped).unwrap_err();
        assert!(err.contains("version 2"), "{err}");
    }

    #[test]
    fn rejects_foreign_schema() {
        let line = sample_report().to_json();
        let foreign = line.replace("\"schema\":\"epvf-metrics\"", "\"schema\":\"other\"");
        assert!(MetricsReport::parse(&foreign).is_err());
        assert!(MetricsReport::parse("{}").is_err());
        assert!(MetricsReport::parse("not json").is_err());
    }
}
