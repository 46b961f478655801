//! The repository's gated benchmark. See `benchmark/README.md`.
//!
//! ```text
//! zstream_benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                   [--out FILE] [--smoke]
//! zstream_benchmark compare A.json B.json [--bounds BENCHMARK.json]
//! zstream_benchmark pin
//! ```

mod affinity;
mod bench;
mod check;
mod compare;
mod json;
mod layers;
mod pace;
mod pass;
mod pinned;
mod results;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::{Budget, Outcome};
use json::Json;
use results::Row;
use workloads::{Workload, DEFAULT_SEED};

/// The end-to-end metrics `BENCHMARK.json` gates, printed by `--trace 0`.
const END_TO_END: [&str; 5] = [
    "throughput_eps",
    "match_latency_p50_ms",
    "match_latency_p95_ms",
    "peak_state_bytes",
    "setup_s",
];

/// The per-layer metrics `BENCHMARK.json` lists, printed by `--trace 1`.
const PER_LAYER: [&str; 28] = [
    "compile_us_per_query",
    "queries_compiled",
    "route_ns_per_event",
    "route_skew",
    "reorder_ns_per_event",
    "reorder_passthrough_ratio",
    "reorder_buffered_peak",
    "kernel_ns_per_row",
    "kernel_select_ratio",
    "engine_ns_per_event",
    "engine_matches_per_event",
    "engine_admit_ratio",
    "engine_peak_bytes",
    "partition_ns_per_event",
    "per_query_ns_per_event",
    "untraced_throughput_eps",
    "ingest_call_us_p50",
    "ingest_call_us_p95",
    "drain_ms",
    "pending_matches_p95",
    "runtime_overhead_ns_per_event",
    "checkpoint_ms",
    "checkpoint_bytes",
    "scrape_us",
    "shard_busy_share",
    "queue_depth_at_scrape",
    "nfa_ns_per_event",
    "trace_overhead_pct",
];

const OUT_DIR: &str = "benchmark/out";
const SMOKE_FACTOR: usize = 50;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        out: Path::new(OUT_DIR).join("results.json"),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number =
            |v: &String| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = number(value()?)?.max(1),
            "--trace" => parsed.trace = number(value()?)? != 0,
            "--out" => parsed.out = PathBuf::from(value()?),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Runs one workload, prints its table and records its row.
fn run_one(w: &Workload, args: &Args, budget: &Budget) -> Result<Outcome, String> {
    let outcome = if args.trace {
        let (outcome, spans) = layers::run(w, args.seed, budget)?;
        let path = Path::new(OUT_DIR).join(format!("trace.{}.json", w.name));
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|_| std::fs::write(&path, spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        outcome
    } else {
        bench::run(w, args.seed, budget)?
    };
    let row = Row {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        outcome: &outcome,
    };
    row.print_table();
    if !args.smoke {
        results::append(&args.out, &row.stamped())
            .map_err(|e| format!("appending to {}: {e}", args.out.display()))?;
    }
    Ok(outcome)
}

fn run(args: &Args) -> Result<bool, String> {
    let mut selected = match &args.workload {
        Some(name) => vec![workloads::by_name(name).ok_or(format!("no workload named {name}"))?],
        None => workloads::all(),
    };
    let budget = if args.smoke { Budget::smoke() } else { Budget::for_seconds(args.seconds) };
    if args.smoke {
        selected = selected.into_iter().map(|w| w.scaled_down(SMOKE_FACTOR)).collect();
        println!("smoke run at 1/{SMOKE_FACTOR} size: metrics are printed, not recorded");
    }
    let contract: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = std::collections::BTreeMap::new();
    for w in &selected {
        let outcome = run_one(w, args, &budget)?;
        attempted += outcome.attempted;
        failed += outcome.failed;
        let kept = results::metrics_json(&outcome.metrics, |n| contract.contains(&n));
        // One workload: the contract's names. Several: `workload.name`.
        metrics.extend(kept.into_iter().map(|(name, m)| match selected.len() {
            1 => (name, m),
            _ => (format!("{}.{name}", w.name), m),
        }));
    }
    // Last line of standard output: what the acceptance driver reads.
    println!(
        "{}",
        json::obj([
            ("correct", (failed == 0).into()),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    );
    Ok(failed == 0)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bounds = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds = PathBuf::from(it.next().ok_or("--bounds needs a file")?);
        } else {
            files.push(arg);
        }
    }
    let [a, b] = files[..] else {
        return Err("usage: compare A.json B.json [--bounds FILE]".into());
    };
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{}: {e}", p.display())))
    };
    let gates = compare::gates(&read(&bounds)?)?;
    compare::compare(&read(Path::new(a))?, &read(Path::new(b))?, &gates)
}

/// Prints the rows of `pinned.rs` for the default seed.
fn pin() -> Result<bool, String> {
    for w in workloads::all() {
        let inp = bench::inputs(&w, DEFAULT_SEED);
        let queries = bench::compile_all(&w)?;
        let exp = bench::expected(&w, &inp, &queries, 0)?.full;
        println!(
            "    Pin {{\n        workload: \"{}\",\n        events: {},\n        \
             input_digest: {:#018x},\n        matches: {},\n        match_digest: {:#018x},\n    }},",
            w.name,
            w.events,
            sut::input_digest(&inp.arrival),
            exp.count,
            exp.digest
        );
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        Some("pin") => pin(),
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("zstream_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names this binary prints are the names `BENCHMARK.json` lists.
    #[test]
    fn contract_names_agree_with_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        let listed: Vec<String> = workloads::all().iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names("workloads"), listed);
    }

    #[test]
    fn smoke_scaling_keeps_every_workload_runnable() {
        for w in workloads::all() {
            let small = w.clone().scaled_down(SMOKE_FACTOR);
            assert!(small.events >= 4 * small.chunk && small.events <= w.events, "{}", w.name);
            assert!(small.nfa_events <= small.events);
        }
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let argv: Vec<String> = "--workload weblog-filter --seed 7 --seconds 12 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("weblog-filter"), 7, 12, true)
        );
        assert!(parse_args(&["--bogus".to_string()]).is_err());
    }
}
