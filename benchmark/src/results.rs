//! Result rows: what a run prints, and what it appends to the results file
//! stamped with the commit and the host's shape.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::bench::{Metrics, Outcome};
use crate::json::{obj, Json};
use crate::sut::WORKERS;
use crate::workloads::Workload;

/// One run of one workload: what was asked for and what came out.
pub struct Row<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub outcome: &'a Outcome,
}

/// `value` to six significant digits, whatever its magnitude: set-up
/// seconds and events per second share a column.
pub fn sig(value: f64) -> String {
    if value == 0.0 || !value.is_finite() {
        return format!("{value}");
    }
    let decimals = (5 - value.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{value:.decimals$}")
}

fn metric_json(value: f64, unit: &str) -> Json {
    obj([("value", value.into()), ("unit", unit.into())])
}

/// `name -> {"value": .., "unit": ..}` for the metrics `keep` admits.
pub fn metrics_json(metrics: &Metrics, keep: impl Fn(&str) -> bool) -> BTreeMap<String, Json> {
    metrics
        .iter()
        .filter(|(name, _)| keep(name))
        .map(|(name, (value, unit))| (name.to_string(), metric_json(*value, unit)))
        .collect()
}

impl Row<'_> {
    /// The stamped row the results file keeps.
    pub fn stamped(&self) -> Json {
        let (rev, dirty) = git_state();
        let (w, o) = (self.workload, self.outcome);
        obj([
            ("workload", w.name.into()),
            ("seed", self.seed.into()),
            ("seconds", self.seconds.into()),
            ("trace", self.trace.into()),
            ("git_rev", rev.into()),
            ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
            ("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()).into()),
            ("workers", WORKERS.into()),
            ("rustc", rustc_version().into()),
            ("events", w.events.into()),
            ("chunk", w.chunk.into()),
            ("registrations", w.registrations.into()),
            ("paced_eps", w.paced_eps.into()),
            ("pass_seconds", Json::Arr(o.pass_seconds.iter().map(|&s| s.into()).collect())),
            ("expected_matches", o.expected.count.into()),
            ("expected_digest", format!("{:#018x}", o.expected.digest).into()),
            ("ops_attempted", o.attempted.into()),
            ("ops_failed", o.failed.into()),
            ("correct", (o.failed == 0).into()),
            ("metrics", Json::Obj(metrics_json(&o.metrics, |_| true))),
        ])
    }

    /// Prints every metric by name and unit.
    pub fn print_table(&self) {
        let (w, o) = (self.workload, self.outcome);
        println!(
            "\n== {} (seed {}, {} events, chunk {}, {} registration(s), {}) ==",
            w.name,
            self.seed,
            w.events,
            w.chunk,
            w.registrations,
            if self.trace { "traced" } else { "untraced" },
        );
        println!("  why: {}", w.why);
        for (name, (value, unit)) in &o.metrics {
            println!("  {name:<32} {:>20} {unit}", sig(*value));
        }
        println!("  {:<32} {:>20} events", "ops_attempted", o.attempted);
        println!("  {:<32} {:>20} events", "ops_failed", o.failed);
        for note in &o.notes {
            println!("  FAILED: {note}");
        }
    }
}

/// `(HEAD, whether the tree is dirty)`; unknown outside a git checkout.
/// Only asks git when the working directory itself is the repository
/// root, so a run never reads above its own checkout.
fn git_state() -> (String, Option<bool>) {
    if !Path::new(".git").exists() {
        return ("unknown".into(), None);
    }
    let git =
        |args: &[&str]| Command::new("git").args(args).output().ok().filter(|o| o.status.success());
    let rev = git(&["rev-parse", "HEAD"])
        .map_or("unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let dirty = git(&["status", "--porcelain"]).map(|o| !o.stdout.is_empty());
    (rev, dirty)
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Appends `row` to the JSON array in `path`, creating file and directory
/// as needed. The file stays a valid JSON array after every append.
pub fn append(path: &Path, row: &Json) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let body = existing.trim_end().strip_suffix(']').map(str::trim_end).unwrap_or("");
    let content = if body.is_empty() || body == "[" {
        format!("[\n{}\n]\n", row.render())
    } else {
        format!("{body},\n{}\n]\n", row.render())
    };
    std::fs::write(path, content)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sig_keeps_six_digits_at_any_magnitude() {
        assert_eq!(sig(0.000_038_286), "0.0000382860");
        assert_eq!(sig(1.687_81), "1.68781");
        assert_eq!(sig(873_211.797_9), "873212");
        assert_eq!(sig(9_237_324.6), "9237325");
        assert_eq!(sig(0.0), "0");
    }

    #[test]
    fn appended_rows_keep_the_file_a_json_array() {
        // Under the package's own (git-ignored) output directory.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-append-{}", std::process::id()));
        let path = dir.join("nested").join("rows.json");
        for i in 0..3u64 {
            append(&path, &obj([("i", i.into())])).unwrap();
        }
        let rows = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let got: Vec<f64> =
            rows.as_arr().unwrap().iter().map(|r| r.get("i").unwrap().as_f64().unwrap()).collect();
        assert_eq!(got, [0.0, 1.0, 2.0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
