//! Time-to-solution benchmark of the lattice-qcd-dd library.
//!
//! ```text
//! perfbench --workload <dd-solve|dd-dist|krylov|serve-wave> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the library through its public entry points on
//! inputs generated from `--seed`, measures for `--seconds`, checks every
//! returned solution against the scalar f64 operator, and prints one JSON
//! object as the last line of standard output: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for the workloads and metrics.

mod dd_dist;
mod dd_solve;
mod host;
mod inputs;
mod krylov;
mod layers;
mod report;
mod serve_wave;
mod solves;

use report::Report;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: &[&str] = &["dd-solve", "dd-dist", "krylov", "serve-wave"];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (one of {})", WORKLOADS.join(", ")));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed: seed.unwrap_or(0), seconds, trace: trace.unwrap_or(false) })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // `QDD_WORKERS` overrides every worker count inside the library; a
    // run under it would time a different configuration than it reports.
    if std::env::var_os("QDD_WORKERS").is_some() {
        eprintln!("perfbench: refusing to run with QDD_WORKERS set; unset it");
        std::process::exit(2);
    }
    let mut rep = Report::new(args.trace);
    rep.line(format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    let workers = match args.workload.as_str() {
        "dd-solve" => format!("{} pool workers", dd_solve::WORKERS),
        "dd-dist" => format!("{} rank threads x 1 worker", dd_dist::RANKS),
        "krylov" => format!("{} pool workers", krylov::WORKERS),
        _ => format!("1 service worker x {} pool workers", serve_wave::SOLVER_WORKERS),
    };
    host::print_fingerprint(&rep, &workers);
    match args.workload.as_str() {
        "dd-solve" => dd_solve::run(&args, &mut rep),
        "dd-dist" => dd_dist::run(&args, &mut rep),
        "krylov" => krylov::run(&args, &mut rep),
        _ => serve_wave::run(&args, &mut rep),
    }
    rep.print_failed_frac();
    rep.finish();
}
