//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--dbgpd <path>] [--work-dir <dir>]`
//!
//! Runs one workload for about `--seconds` seconds of repetitions,
//! checks every output, prints a human-readable summary, and ends with
//! one JSON line: the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of the traced run (`--trace 1`). Exits 1 when any check
//! fails, 2 on a usage error.

use perfbench::relay::{self, RelayArgs, RelayScale};
use perfbench::report::{self, END_TO_END, PER_LAYER};
use perfbench::sims::{self, WaxmanScale};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload waxman1k_passthrough|dbgpd_relay \
                     --seed N --seconds S --trace 0|1 [--dbgpd PATH] [--work-dir DIR]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    dbgpd: Option<PathBuf>,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut dbgpd = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--dbgpd" => dbgpd = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        dbgpd,
        work_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} | nproc {} cpu \"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        perfbench::host::nproc(),
        perfbench::host::cpu_model()
    );
    let (metrics, ops) = match args.workload.as_str() {
        "waxman1k_passthrough" => sims::run(args.seconds, args.trace, |kind| {
            sims::waxman_rep(&WaxmanScale::FULL, args.seed, kind)
        }),
        "dbgpd_relay" => {
            let Some(dbgpd) = args.dbgpd.clone() else {
                eprintln!("perfbench: dbgpd_relay needs --dbgpd\n{USAGE}");
                return ExitCode::from(2);
            };
            let relay_args = RelayArgs {
                dbgpd,
                work_dir: args.work_dir.clone(),
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                scale: RelayScale::FULL,
            };
            relay::run(&relay_args)
        }
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    if report::print_result(names, &metrics, &ops) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
