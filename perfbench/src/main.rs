//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Replays one workload over loopback through the real serve stack,
//! prints the host stamp and every metric, and ends with one JSON result
//! line. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones.

use rotary_perfbench::alloc::CountingAlloc;
use rotary_perfbench::workloads::{run, RunParams, Scale, Workload};
use rotary_perfbench::{host, report, trace};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <aqp_paper|front_door|store_soak> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunParams, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    Ok(RunParams {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| s.is_finite() && *s >= 0.0).ok_or("--seconds is required")?,
        trace,
        scale: Scale::Full,
        out_dir: target.join("perfbench"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let params = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = params.out_dir.clone();
    let run = match run(params) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for line in report::stamp(&run, host::peak_rss_mb()) {
        println!("# {line}");
    }
    for problem in &run.problems {
        println!("# CHECK FAILED: {problem}");
    }
    let metrics = if run.params.trace {
        report::per_layer(&run)
    } else {
        for x in report::outcome_rates(&run) {
            println!("# {:<32} {:>16.6} {}", x.name, x.value, x.unit);
        }
        report::end_to_end(&run)
    };
    for x in &metrics {
        println!("# {:<32} {:>16.6} {}", x.name, x.value, x.unit);
    }
    if let Some(traced) = &run.traced {
        let name = run.params.workload.name();
        let files = [
            (format!("spans-{name}.tsv"), &traced.spans),
            (format!("spans-{name}-oracle.tsv"), &traced.oracle_spans),
        ];
        for (file, spans) in files {
            let path = out_dir.join(file);
            let written = std::fs::create_dir_all(&out_dir)
                .and_then(|()| std::fs::write(&path, trace::spans_tsv(spans)));
            match written {
                Ok(()) => println!("# spans written to {}", path.display()),
                Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
            }
        }
    }
    let correct = run.problems.is_empty() && report::failed(&run) == 0;
    println!(
        "{}",
        report::result_json(correct, report::attempted(&run), report::failed(&run), &metrics)
    );
    ExitCode::SUCCESS
}
