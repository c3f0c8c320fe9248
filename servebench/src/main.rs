//! Serving benchmark of the FlexiQ integer engine.
//!
//! Serves seeded open-loop traffic through the public `Server` /
//! `DecodeServer` API on runtimes built with `ExecMode::Int`, checks
//! every answer against an offline oracle, and prints each metric by
//! name and unit; the last line of standard output is one JSON object.
//!
//! ```sh
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload rnet20_int8 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off;
//! `--trace 1` replays the same traffic with telemetry on and prints the
//! per-layer metrics. See `README.md` beside this package for the
//! workloads and the layer → end-to-end map.

mod env;
mod gen;
mod image;
mod layers;
mod report;
mod stats;
mod traffic;

use flexiq_serve::ServeError;

use crate::report::{Outcome, Values};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    Rnet20Int8,
    Rnet20Q50,
    Rnet20Burst,
    TinylmGen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Rnet20Int8,
        Workload::Rnet20Q50,
        Workload::Rnet20Burst,
        Workload::TinylmGen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Rnet20Int8 => "rnet20_int8",
            Workload::Rnet20Q50 => "rnet20_q50",
            Workload::Rnet20Burst => "rnet20_burst",
            Workload::TinylmGen => "tinylm_gen",
        }
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phases.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

const USAGE: &str = "usage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Admission and execution failures among `offered` requests, as shares
/// (`None` entries were answered).
pub fn error_shares<'a>(
    outcomes: impl Iterator<Item = Option<&'a ServeError>>,
    offered: usize,
    v: &mut Values,
) {
    let (mut rejected, mut shed, mut expired, mut failed) = (0, 0, 0, 0);
    for e in outcomes.flatten() {
        match e {
            ServeError::QueueFull { .. } => rejected += 1,
            ServeError::Shedding => shed += 1,
            ServeError::DeadlineExpired => expired += 1,
            _ => failed += 1,
        }
    }
    let share = |n: usize| n as f64 / offered.max(1) as f64;
    v.set("serve.rejected", share(rejected));
    v.set("serve.shed", share(shed));
    v.set("serve.expired", share(expired));
    v.set("serve.exec_failed", share(failed));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = env::guard(args.trace) {
        eprintln!("refusing to measure: {e}");
        std::process::exit(2);
    }
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let result: Result<Outcome, String> = match args.workload {
        Workload::Rnet20Int8 => image::run(&traffic::RNET20_INT8, &args),
        Workload::Rnet20Q50 => image::run(&traffic::RNET20_Q50, &args),
        Workload::Rnet20Burst => image::run(&traffic::RNET20_BURST, &args),
        Workload::TinylmGen => gen::run(&traffic::TINYLM_GEN, &args),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    };
    let table: &[(&str, &str)] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    print!("{}", report::render(&outcome, table));
    if !outcome.correct {
        eprintln!("output check failed: a served answer differs from its oracle");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse(&argv(
            "--workload tinylm_gen --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::TinylmGen);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(&argv(
            "--workload rnet20_q50 --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse(&argv("--workload rnet20_q50 --seed 1 --trace 0")).is_err());
    }
}
