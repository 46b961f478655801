//! Rule `metrics`: cross-artifact metric-name drift.
//!
//! The exported metric set is a dashboard/alerting contract, golden-pinned
//! in `tests/fixtures/metrics_schema.txt` (one
//! `name|kind|label-keys|definition` line per instrument; this rule reads
//! the name). The runtime test (`tests/metrics_schema.rs`) compares a live
//! scrape against that fixture — but only when it runs, and only for
//! instruments the test's workload happens to register. This rule makes the
//! same contract hold *statically*, in both directions:
//!
//! * every metric-name string literal in the scanned sources (any string
//!   matching `zstream_[a-z0-9_]+` — the workspace's registration prefix)
//!   must name a schema entry, so registering or referencing a metric the
//!   schema does not know fails before any test runs;
//! * every schema entry's name must appear as a literal somewhere in the
//!   scanned sources, so deleting the last registration site (or fat-
//!   fingering the fixture) fails the same way.
//!
//! Collection is literal-based rather than call-site-based on purpose:
//! registration helpers (`per_source("zstream_ingest_events_total")`) and
//! scrape-side references in tests and examples all participate in the
//! contract, and all of them carry the name as a prefixed literal.

use std::collections::BTreeMap;

use crate::config::Config;
use crate::diag::{Diag, Rule};
use crate::lexer::Tok;
use crate::rules::FileCtx;

/// One metric-name literal occurrence.
#[derive(Debug)]
pub struct NameRef {
    pub name: String,
    pub file: String,
    pub line: u32,
}

/// True when `s` is a metric-name literal: the configured prefix followed
/// by at least one `[a-z0-9_]` character, nothing else.
fn is_metric_name(s: &str, prefix: &str) -> bool {
    s.len() > prefix.len()
        && s.starts_with(prefix)
        && s.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// Collects every metric-name literal in the file (test regions included:
/// a test referencing a metric the schema dropped is exactly the drift
/// this rule pins).
pub fn collect_names(ctx: &FileCtx<'_>, out: &mut Vec<NameRef>) {
    for t in &ctx.lexed.tokens {
        if let Tok::Str(s) = &t.tok {
            if is_metric_name(s, &ctx.config.metric_prefix) {
                out.push(NameRef { name: s.clone(), file: ctx.rel.to_string(), line: t.line });
            }
        }
    }
}

/// Cross-file half: compares collected literals against the schema fixture.
/// `schema_rel` is the fixture's display path; `schema_text` its contents.
pub fn check_drift(
    config: &Config,
    schema_rel: &str,
    schema_text: &str,
    refs: &[NameRef],
    diags: &mut Vec<Diag>,
) {
    // name -> fixture line number
    let mut schema: BTreeMap<&str, u32> = BTreeMap::new();
    for (lineno, line) in schema_text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let name = line.split('|').next().unwrap_or(line).trim();
        if !name.is_empty() {
            schema.insert(name, lineno as u32 + 1);
        }
    }
    let mut seen: BTreeMap<&str, bool> = schema.keys().map(|k| (*k, false)).collect();
    for r in refs {
        match seen.get_mut(r.name.as_str()) {
            Some(hit) => *hit = true,
            None => diags.push(Diag {
                file: r.file.clone(),
                line: r.line,
                rule: Rule::Metrics,
                message: format!(
                    "metric name \"{}\" is not in {} — register it there (regenerate with \
                     UPDATE_METRICS_SCHEMA=1) or fix the name",
                    r.name, schema_rel
                ),
            }),
        }
    }
    for (name, hit) in &seen {
        if !*hit && is_metric_name(name, &config.metric_prefix) {
            diags.push(Diag {
                file: schema_rel.to_string(),
                line: schema[name],
                rule: Rule::Metrics,
                message: format!(
                    "schema entry \"{name}\" has no referencing literal anywhere in the \
                     scanned sources — dead metric or renamed without regenerating the schema"
                ),
            });
        }
    }
}
