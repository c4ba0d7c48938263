//! End-to-end and per-layer benchmark of the ffdl deployment stack.
//!
//! ```text
//! perfbench --workload <mnist_edge|cifar_batch|serve_swap|stream_gru>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` one workload runs for `--seconds` with no tracing and
//! reports the end-to-end metrics. With `--trace 1` the run instead
//! replays every layer of every workload model under in-memory spans and
//! reports the per-layer metrics. Either way the last line of standard
//! output is one JSON object, and the exit code is non-zero when an output
//! check fails. See `README.md` for the workloads and metrics.

mod closed;
mod common;
mod report;
mod serve_swap;
mod stats;
mod stream_gru;
mod trace;
mod traced;

use std::process::ExitCode;

/// The workloads the command runs. `BENCHMARK.json` lists the first two;
/// see `README.md` for why the serving pair is run by hand only.
pub const WORKLOADS: [&str; 4] = ["mnist_edge", "cifar_batch", "serve_swap", "stream_gru"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input and weight derives from.
    pub seed: u64,
    /// Measured run length, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> common::Res<report::Report> {
    let mut report = if args.trace {
        traced::run(args)?
    } else {
        match args.workload.as_str() {
            "mnist_edge" => closed::MNIST_EDGE.run(args)?,
            "cifar_batch" => closed::CIFAR_BATCH.run(args)?,
            "serve_swap" => serve_swap::run(args)?,
            "stream_gru" => stream_gru::run(args)?,
            _ => unreachable!("workload names are validated by parse_args"),
        }
    };
    let mut meta = vec![
        (
            "workload".to_string(),
            report::Json::from(args.workload.as_str()),
        ),
        ("seed".to_string(), args.seed.into()),
        ("seconds".to_string(), args.seconds.into()),
        ("trace".to_string(), args.trace.into()),
        ("nproc".to_string(), common::nproc().into()),
    ];
    meta.append(&mut report.meta);
    report.meta = meta;
    report.check(
        "attempted at least one operation",
        report.attempted > 0,
        format!("{} attempted", report.attempted),
    );
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: an output check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload serve_swap --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_swap", 7, 3.0, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload mnist_edge --trace 2").is_err());
        assert!(parse("--workload mnist_edge --bogus 1").is_err());
        assert!(parse("--workload mnist_edge --seconds 0").is_err());
    }
}
