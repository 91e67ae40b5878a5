//! Benchmark command:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints notes and the machine fingerprint as `#` lines, then, as the
//! last line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics` (each metric a `value` and a
//! `unit`). A traced run also writes its spans as JSON lines under the
//! cargo target directory (`$CARGO_TARGET_DIR`, default `.bench_build`).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::runner::{self, Options};
use perfbench::spec::{Metric, END_TO_END, PER_LAYER};
use perfbench::workloads::{Workload, JOBS};

fn usage(reason: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {reason}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value).ok_or_else(|| format!("no workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        jobs: JOBS,
    })
}

/// `available_parallelism` and the `/proc/cpuinfo` model name.
fn fingerprint() -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"available_parallelism\":{parallelism},\"cpu_model\":\"{}\"}}",
        model.replace(['"', '\\'], "")
    )
}

/// The spans file of a traced run.
fn spans_path(options: &Options) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("perfbench-spans").join(format!(
        "{}-seed{}.jsonl",
        options.workload.name(),
        options.seed
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(reason) => return usage(&reason),
    };
    let machine = fingerprint();
    let outcome = runner::run(&options);

    if options.trace {
        let path = spans_path(&options);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| {
                let header = format!("{{\"machine\":{machine}}}\n");
                std::fs::write(&path, header + &outcome.spans.to_json_lines())
            });
        match written {
            Ok(()) => println!("# spans: {}", path.display()),
            Err(err) => eprintln!(
                "perfbench: could not write spans to {}: {err}",
                path.display()
            ),
        }
    }
    println!(
        "# workload {} seed {} jobs {} trace {}",
        options.workload.name(),
        options.seed,
        options.jobs,
        u8::from(options.trace)
    );
    println!("# machine {machine}");
    for note in &outcome.notes {
        println!("# {note}");
    }

    let spec: &[Metric] = if options.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    for (i, metric) in spec.iter().enumerate() {
        let value = outcome
            .metrics
            .iter()
            .find(|(name, _)| *name == metric.name)
            .map(|&(_, v)| v)
            .expect("the runner reports every metric of the spec");
        let value = if value.is_finite() { value } else { 0.0 };
        println!("# {:<36} {value:>16.6} {}", metric.name, metric.unit);
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
            metric.name, metric.unit
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    ExitCode::SUCCESS
}
