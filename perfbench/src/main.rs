//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary, then as its last stdout line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits 0
//! when every check passed, 1 when one failed, 2 on bad arguments.

use adc_perfbench::run::{run, Params, Size, Workload};

const USAGE: &str = "usage: perfbench --workload <seq-fig11|openloop-sharded|live-loopback> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Params, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Params {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::FULL,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let params = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run(&params);
    println!(
        "perfbench {} seed {} ({})",
        params.workload.name(),
        params.seed,
        if params.trace {
            "traced, per-layer"
        } else {
            "untraced, end-to-end"
        }
    );
    for line in &outcome.lines {
        println!("  {line}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: CHECK FAILED: {problem}");
    }
    println!("{}", outcome.json());
    std::process::exit(if outcome.correct() { 0 } else { 1 });
}
