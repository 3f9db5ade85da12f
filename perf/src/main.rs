//! The repository benchmark.
//!
//! ```text
//! bash perf/run.sh --workload fig5_warm --seed 1 --seconds 30 --trace 0
//! bash perf/run.sh --workload fig5_warm --seed 1 --seconds 30 --trace 1
//! ```
//!
//! Runs one workload for about `--seconds` seconds, checks every output,
//! and prints a provenance line, a detail line and, last, one JSON
//! result line: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with no
//! spans recorded; with `--trace 1` a separate traced run reports the
//! per-layer ones and writes its spans to [`Args::spans_path`]. The exit
//! status is 0 only when every check passed. See `perf/README.md`.

mod common;
mod grid;
mod host;
mod layers;
mod loadgen;
mod provenance;
mod reenact;
mod serve;
mod serve_hot;
mod spans;
mod speed;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use zbp_support::json::Json;

/// The repository's default synthesis seed (0xEC12), used when
/// `--seed` is not given; the recorded digests are for this seed.
pub const DEFAULT_SEED: u64 = 0xEC12;

/// Artifact digests recorded for the default seed: one line each,
/// `<workload[:experiment]> <seed> <digest>`.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

/// The recorded digest of `what` at `seed`, if there is one.
pub fn expected_digest(what: &str, seed: u64) -> Option<String> {
    EXPECTED_DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        if f.next()? == what && f.next()?.parse::<u64>().ok()? == seed {
            f.next().map(str::to_string)
        } else {
            None
        }
    })
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
}

impl Args {
    /// Where a traced run writes its spans, one JSON line each:
    /// `perf/target/spans-<workload>-<seed>.jsonl` in the working
    /// directory.
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(format!("perf/target/spans-{}-{}.jsonl", self.workload, self.seed))
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        serve_bin: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--serve-bin" => args.serve_bin = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.serve_bin.as_os_str().is_empty() {
        return Err("--serve-bin is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|a| {
        let (report, lens) = match a.workload.as_str() {
            "fig5_warm" => (grid::run(&grid::FIG5_WARM, &a)?, vec![("fig5", grid::LEN)]),
            "fig2_cold" => (grid::run(&grid::FIG2_COLD, &a)?, vec![("fig2", grid::LEN)]),
            "serve_hot" => {
                (serve_hot::run(&a)?, serve_hot::MIX.iter().map(|&e| (e, serve_hot::LEN)).collect())
            }
            other => {
                return Err(format!("unknown workload {other:?} (fig5_warm, fig2_cold, serve_hot)"))
            }
        };
        Ok((provenance::block(&a.workload, a.seed, a.trace, &lens), report))
    });
    match outcome {
        Ok((provenance, report)) => {
            for problem in &report.problems {
                eprintln!("check failed: {problem}");
            }
            println!("{}", Json::Obj(vec![("provenance".into(), provenance)]).render());
            println!(
                "{}",
                Json::Obj(vec![("detail".into(), Json::Obj(report.detail.clone()))]).render()
            );
            println!("{}", report.result_json().render());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_digests_are_found_by_workload_and_seed() {
        assert_eq!(expected_digest("fig2_cold", DEFAULT_SEED).map(|d| d.len()), Some(16));
        assert!(expected_digest("serve_hot:fig6", DEFAULT_SEED).is_some());
        assert_eq!(expected_digest("fig2_cold", DEFAULT_SEED + 1), None);
        assert_eq!(expected_digest("fig2", DEFAULT_SEED), None);
    }
}
