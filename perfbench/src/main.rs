//! The CORNET end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <plan_ran|daemon_campaigns|daemon_ingest>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (see `perfbench/README.md`). Every input
//! is generated from `--seed`; every output is checked. The last line of
//! standard output is the JSON result; the exit code is 0 only when every
//! check passed.

mod campaigns;
mod daemon;
mod gen;
mod http;
mod ingest;
mod oracle;
mod plan_ran;
mod report;
mod rng;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["plan_ran", "daemon_campaigns", "daemon_ingest"];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The `cornetd` built from the checkout's sources.
    pub cornetd: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
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
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} wants a whole number"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload: workload.to_string(),
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
        },
        cornetd: PathBuf::new(),
    })
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every workload builds the daemon, so the first run in a checkout
    // carries the whole build whichever workload it is.
    args.cornetd = match daemon::build() {
        Ok(bin) => bin,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = match (args.workload.as_str(), args.trace) {
        ("plan_ran", false) => plan_ran::run(&args),
        ("plan_ran", true) => plan_ran::traced(&args),
        ("daemon_campaigns", false) => campaigns::run(&args),
        ("daemon_campaigns", true) => campaigns::traced(&args),
        (_, false) => ingest::run(&args),
        (_, true) => ingest::traced(&args),
    };
    run.print(&args.workload);
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
