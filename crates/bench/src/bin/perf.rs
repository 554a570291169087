//! `fascia-perf` — run the pinned perf suite and diff perf documents.
//!
//! ```text
//! perf run [--out FILE] [--reps N] [--warmup N] [--smoke] [--filter S] [--quiet]
//! perf compare OLD NEW [--threshold R] [--alpha A]
//! ```
//!
//! `run` writes a `fascia-perf/1` document (default
//! `BENCH_<ISO-date>.json` in the current directory) via `atomic_write`;
//! a `--filter` that selects no benchmark is a usage error.
//! `compare` prints a per-benchmark table and exits non-zero when any
//! benchmark regressed — the contract `scripts/ci.sh` gates on.
//!
//! Environment: `FASCIA_PERF_SLEEP_MS=<ms>` injects a synthetic sleep
//! into every DP step of `run` (a chaos stall that always fires), which
//! exists so the regression gate itself can be validated end to end.
//!
//! Exit codes: 0 success / no regression, 1 significant regression,
//! 2 usage error, 3 I/O error.

use fascia_bench::perf::{
    any_regression, compare, iso_date_utc, render_comparisons, run_suite, PerfDoc, SuiteOpts,
    DEFAULT_ALPHA,
};
use fascia_core::atomic_write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const EXIT_OK: u8 = 0;
const EXIT_REGRESSION: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_IO: u8 = 3;

const USAGE: &str = "usage:
  perf run [--out FILE] [--reps N] [--warmup N] [--smoke] [--filter SUBSTR] [--quiet]
  perf compare OLD.json NEW.json [--threshold RATIO] [--alpha P]
  perf help";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            EXIT_OK
        }
        _ => {
            eprintln!("{USAGE}");
            EXIT_USAGE
        }
    };
    ExitCode::from(code)
}

fn parse_value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
    v.ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag}: invalid value"))
}

fn cmd_run(args: &[String]) -> u8 {
    let mut opts = SuiteOpts {
        verbose: true,
        ..SuiteOpts::default()
    };
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let r = match a.as_str() {
            "--out" => parse_value::<PathBuf>("--out", it.next()).map(|p| out = Some(p)),
            "--reps" => parse_value("--reps", it.next()).map(|n| opts.reps = n),
            "--warmup" => parse_value("--warmup", it.next()).map(|n| opts.warmup = n),
            "--filter" => parse_value("--filter", it.next()).map(|f| opts.filter = Some(f)),
            "--smoke" => {
                opts.smoke = true;
                Ok(())
            }
            "--quiet" => {
                opts.verbose = false;
                Ok(())
            }
            other => Err(format!("unknown flag {other}")),
        };
        if let Err(e) = r {
            eprintln!("perf run: {e}\n{USAGE}");
            return EXIT_USAGE;
        }
    }
    if opts.reps == 0 {
        eprintln!("perf run: --reps must be at least 1");
        return EXIT_USAGE;
    }
    if opts.selected().is_empty() {
        let filter = opts.filter.as_deref().unwrap_or_default();
        eprintln!("perf run: --filter {filter:?} selects no benchmark");
        return EXIT_USAGE;
    }
    if let Ok(ms) = std::env::var("FASCIA_PERF_SLEEP_MS") {
        match ms.parse::<u64>() {
            Ok(ms) => opts.handicap = Some(Duration::from_millis(ms)),
            Err(_) => {
                eprintln!("perf run: FASCIA_PERF_SLEEP_MS must be an integer");
                return EXIT_USAGE;
            }
        }
    }
    let doc = run_suite(&opts);
    let path = out.unwrap_or_else(|| {
        PathBuf::from(format!("BENCH_{}.json", iso_date_utc(doc.created_unix_ms)))
    });
    match atomic_write(&path, &doc.to_json()) {
        Ok(()) => {
            eprintln!(
                "[perf] wrote {} ({} benchmarks)",
                path.display(),
                doc.benchmarks.len()
            );
            EXIT_OK
        }
        Err(e) => {
            eprintln!("perf run: cannot write {}: {e}", path.display());
            EXIT_IO
        }
    }
}

fn cmd_compare(args: &[String]) -> u8 {
    let mut paths: Vec<&String> = Vec::new();
    let mut threshold: Option<f64> = None;
    let mut alpha = DEFAULT_ALPHA;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let r = match a.as_str() {
            "--threshold" => parse_value("--threshold", it.next()).map(|t| threshold = Some(t)),
            "--alpha" => parse_value("--alpha", it.next()).map(|a| alpha = a),
            other if other.starts_with("--") => Err(format!("unknown flag {other}")),
            _ => {
                paths.push(a);
                Ok(())
            }
        };
        if let Err(e) = r {
            eprintln!("perf compare: {e}\n{USAGE}");
            return EXIT_USAGE;
        }
    }
    let [old_path, new_path] = paths[..] else {
        eprintln!("perf compare: need exactly OLD and NEW paths\n{USAGE}");
        return EXIT_USAGE;
    };
    if !(alpha > 0.0 && alpha < 1.0) {
        eprintln!("perf compare: --alpha must be in (0, 1)");
        return EXIT_USAGE;
    }
    let load = |p: &str| -> Result<PerfDoc, (u8, String)> {
        let text = std::fs::read_to_string(p).map_err(|e| (EXIT_IO, format!("{p}: {e}")))?;
        PerfDoc::parse(&text).map_err(|e| (EXIT_USAGE, format!("{p}: {e}")))
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err((c, e)), _) | (_, Err((c, e))) => {
            eprintln!("perf compare: {e}");
            return c;
        }
    };
    let rows = compare(&old, &new, threshold, alpha);
    print!("{}", render_comparisons(&rows));
    if any_regression(&rows) {
        eprintln!("[perf] REGRESSION detected");
        EXIT_REGRESSION
    } else {
        eprintln!("[perf] no significant regression");
        EXIT_OK
    }
}
