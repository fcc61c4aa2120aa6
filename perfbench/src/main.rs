//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `perfbench/README.md` for why each exists),
//! checks the program's outputs, prints every metric by name with its
//! unit, and ends with one JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the traced variant and reports
//! the per-layer metrics. Exits 1 when an output check fails, 2 on bad
//! arguments.

#![allow(clippy::disallowed_methods)] // wall-clock measurement is this harness's purpose

mod procfs;
mod replay;
mod report;
mod sim;
mod spans;
mod stats;
mod wire;

use std::path::Path;
use std::process::ExitCode;

use fp_path_oram::CipherMode;

use crate::report::{metric, Kind};
use crate::wire::WireSpec;

/// The workloads, by name.
const WORKLOADS: [&str; 4] = ["sim-mix1", "sim-mix1-trad", "wire-uniform", "wire-hot-rw"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let (name, seed, secs, traced) = (args.workload.as_str(), args.seed, args.seconds, args.traced);
    let outcome = match name {
        "sim-mix1" => sim::run(name, "fork+mac", seed, secs, traced, &out_dir),
        "sim-mix1-trad" => sim::run(name, "traditional", seed, secs, traced, &out_dir),
        "wire-uniform" => {
            let spec = WireSpec {
                theta: 0.0,
                write_fraction: 0.1,
                cipher: CipherMode::Real,
                nominal_rps: 2_000.0,
            };
            wire::run(name, &spec, seed, secs, traced, &out_dir)
        }
        "wire-hot-rw" => {
            let spec = WireSpec {
                theta: 1.2,
                write_fraction: 0.5,
                cipher: CipherMode::Transparent,
                nominal_rps: 5_000.0,
            };
            wire::run(name, &spec, seed, secs, traced, &out_dir)
        }
        _ => unreachable!("workload names are checked by parse_args"),
    };

    for (name, value) in &outcome.values {
        let m = metric(name);
        if matches!(m.kind, Kind::PerLayer) == traced {
            let better = if m.lower_is_better { "lower" } else { "higher" };
            println!(
                "{name:<40} {value:>16.6} {:<6} ({better} is better)",
                m.unit
            );
        }
    }
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    for v in &outcome.violations {
        println!("VIOLATION: {v}");
    }
    println!("{}", outcome.to_json(traced));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
