//! `flowbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints one `metric <name> <value> <unit>` line per
//! metric, then the result as one JSON object on the last line. Exits 2
//! without a result on bad arguments or a run that could not measure, and
//! 3 without one if the run has not finished within 170 seconds.

use std::time::Duration;

use flowbench::{host, run, RunOpts, Scale, DEFAULT_SEED, WORKLOADS};

fn usage() -> String {
    format!(
        "usage: flowbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    )
}

fn parse() -> Result<(String, RunOpts), String> {
    let mut workload = None;
    let mut opts = RunOpts { seed: DEFAULT_SEED, seconds: 10.0, trace: false, scale: Scale::Full };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    Ok((workload, opts))
}

/// A run that has not finished by then is abandoned: the benchmark must
/// end within three minutes even if the program under test hangs.
const WATCHDOG: Duration = Duration::from_secs(170);

fn main() {
    // Before any thread exists: the workload alone sets threads, scheduler
    // and kernel path.
    let cleared = host::clear_als_env();
    // Never joined: it ends with the process.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("flowbench: no result after {} s, giving up", WATCHDOG.as_secs());
        std::process::exit(3);
    });
    let (workload, opts) = parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if !cleared.is_empty() {
        println!("host ignored environment: {}", cleared.join(" "));
    }
    let report = run(&workload, &opts).unwrap_or_else(|e| {
        eprintln!("flowbench {workload}: {e}");
        std::process::exit(2);
    });
    for line in &report.lines {
        println!("{line}");
    }
    if !opts.trace {
        let unmeasured = report.unmeasured();
        if !unmeasured.is_empty() {
            eprintln!("flowbench {workload}: nothing measured for {}", unmeasured.join(", "));
            std::process::exit(2);
        }
    }
    for (name, value, unit) in report.metrics(opts.trace) {
        println!("metric {name} {value} {unit}");
    }
    println!("{}", report.json(opts.trace));
}
