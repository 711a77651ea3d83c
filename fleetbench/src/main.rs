//! `fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress to stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Exits 2 on
//! bad arguments, 1 on a run that could not complete, and 3 when the
//! run overruns its time limit.

use std::process::exit;
use std::time::Duration;

use fleetbench::recipe::Workload;
use fleetbench::run;

/// Hard limit on one run; a stalled hub, worker or campaign fails the
/// run by name instead of hanging it.
const RUN_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: fleetbench --workload <campaign|hostile_static|durable_wire> \
                     --seed <n> --seconds <1-60> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2);
    });
    let name = args.workload.name();
    std::thread::spawn(move || {
        std::thread::sleep(RUN_LIMIT);
        eprintln!("{name}: run exceeded {RUN_LIMIT:?}; stopping");
        exit(3);
    });
    let result = if args.trace {
        run::traced(args.workload, args.seed)
    } else {
        run::timed(args.workload, args.seed, args.seconds)
    };
    match result {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("{name}: {e}");
            exit(1);
        }
    }
}
