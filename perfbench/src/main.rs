//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tpch_cps|kmeans|lda|join_agg_spill> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). The line before it, `report {...}`, records the host, the
//! cluster shape, the input sizes, the seed, the commit and the sample
//! counts; the same report, and with `--trace 1` the spans, are written
//! under `.bench_out/`. See `perfbench/README.md` for the metrics.

mod harness;
mod measure;
mod probes;
mod trace;
mod workloads;

use harness::{Ctx, Outcome, Workload};
use measure::json_num;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: --workload <tpch_cps|kmeans|lda|join_agg_spill> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    ctx: Ctx,
    /// Run as a peak-memory child of a run (see `harness::peak_child`).
    peak_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        ctx: Ctx {
            seed,
            seconds,
            trace,
        },
        peak_child: argv.iter().any(|a| a == harness::PEAK_CHILD_FLAG),
    })
}

/// What a run of workload `name` yields: its outcome, or as a peak-memory
/// child its peak resident MiB.
enum Yield {
    Run(Outcome),
    Peak(f64),
}

fn dispatch(name: &str, args: &Args) -> Option<Result<Yield, String>> {
    use workloads::*;
    fn go<W: Workload>(args: &Args) -> Result<Yield, String> {
        let result = if args.peak_child {
            harness::peak_child::<W>(args.ctx.seed).map(Yield::Peak)
        } else {
            harness::run::<W>(&args.ctx).map(Yield::Run)
        };
        result.map_err(|e| format!("{}: {e}", W::NAME))
    }
    Some(match name {
        "tpch_cps" => go::<tpch_cps::TpchCps>(args),
        "kmeans" => go::<kmeans::KMeans>(args),
        "lda" => go::<lda::Lda>(args),
        "join_agg_spill" => go::<join_agg_spill::JoinAggSpill>(args),
        _ => return None,
    })
}

/// The checked-out commit, read from `.git` (no process is started);
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or_default().to_string())
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit.to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn report_json(args: &Args, outcome: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields: Vec<(String, String)> = vec![
        ("workload".into(), json_str(&args.workload)),
        ("seed".into(), args.ctx.seed.to_string()),
        ("seconds".into(), json_num(args.ctx.seconds)),
        ("trace".into(), args.ctx.trace.to_string()),
        ("commit".into(), json_str(&git_commit())),
        ("host.nproc".into(), nproc.to_string()),
        ("host.os".into(), json_str(std::env::consts::OS)),
        ("host.arch".into(), json_str(std::env::consts::ARCH)),
        ("cluster.workers".into(), harness::WORKERS.to_string()),
        (
            "cluster.threads_per_worker".into(),
            harness::THREADS.to_string(),
        ),
        ("cluster.transport".into(), json_str("local")),
        (
            "baseline.partitions".into(),
            harness::BASELINE_PARTITIONS.to_string(),
        ),
    ];
    for (k, v) in &outcome.facts {
        let v = if v.parse::<f64>().is_ok() || v == "true" || v == "false" {
            v.clone()
        } else {
            json_str(v)
        };
        fields.push((k.clone(), v));
    }
    fields.push(("metrics".into(), outcome.metrics.to_json()));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Writes the report (and the spans of a traced run) under `.bench_out/`.
fn write_out(args: &Args, report: &str, spans: Option<&str>) -> std::io::Result<()> {
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.ctx.seed, args.ctx.trace as u8
    );
    std::fs::write(
        dir.join(format!("{stem}.report.json")),
        format!("{report}\n"),
    )?;
    if let Some(spans) = spans {
        std::fs::write(dir.join(format!("{stem}.spans.jsonl")), spans)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The cluster's spill and page files go to the temp directory: keep
    // them inside the working directory, and remove them at exit.
    let tmp: PathBuf = std::env::current_dir()
        .unwrap_or_default()
        .join(".bench_tmp")
        .join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    std::env::set_var("TMPDIR", &tmp);
    let result = dispatch(&args.workload, &args);
    let _ = std::fs::remove_dir_all(&tmp);
    if let Some(parent) = tmp.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run uses it
    }
    let outcome = match result {
        None => {
            eprintln!("unknown workload {}\n{USAGE}", args.workload);
            return ExitCode::from(2);
        }
        Some(Err(e)) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::from(1);
        }
        Some(Ok(Yield::Peak(mb))) => {
            println!("{}", json_num(mb));
            return ExitCode::SUCCESS;
        }
        Some(Ok(Yield::Run(o))) => o,
    };
    let report = report_json(&args, &outcome);
    if let Err(e) = write_out(&args, &report, outcome.spans.as_deref()) {
        eprintln!("cannot write .bench_out: {e}");
    }
    println!("report {report}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
    ExitCode::SUCCESS
}
