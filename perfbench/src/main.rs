//! `perfbench`: end-to-end and per-layer benchmark of MILR serving and
//! healing on the reduced twin networks.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_saturated --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs the named workload and reports its end-to-end
//! metrics; `--trace 1` runs the per-layer suite ([`layers`]). The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any output that
//! disagrees with the independently computed reference makes
//! `correct` false and the exit code 1. See README.md.

mod fixture;
mod heal;
mod layers;
mod report;
mod serving;

use report::Outcome;
use std::process::ExitCode;
use std::time::Duration;

/// The benchmark's workloads, by command-line name.
const WORKLOADS: [&str; 3] = ["serve_saturated", "serve_faulted", "heal_sweep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    if !args.trace && args.workload == "serve_faulted" {
        // The `rayon` stub spawns threads on every parallel call, two per
        // scrub tick here; on a busy host each spawn waits for a core and
        // stretches the certification hold (README.md). Serial calls keep
        // the scrubber on its own thread. Set before any thread starts.
        std::env::set_var("RAYON_NUM_THREADS", "1");
    }
    let outcome: Outcome = if args.trace {
        layers::run(args.seed, budget)
    } else {
        match args.workload.as_str() {
            "serve_saturated" => serving::saturated(args.seed, budget),
            "serve_faulted" => serving::faulted(args.seed, budget),
            _ => heal::sweep(args.seed, budget),
        }
    };
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
