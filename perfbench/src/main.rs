//! End-to-end and per-layer benchmark of the FASCIA workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --fascia <path to the release `fascia` binary> --work <dir>
//! ```
//!
//! Every input is generated from `--seed`. The last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the metrics are
//! the end-to-end set with `--trace 0` and the per-layer set with
//! `--trace 1`. Any failed operation or output mismatch makes the exit
//! code 1. `perfbench/DESIGN.md` explains the workloads and metrics.

mod count;
mod host;
mod join;
mod layers;
mod procfs;
mod schedule;
mod spans;
mod stats;
mod svc;

use fascia_obs::json::ObjectWriter;
use spans::Recorder;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Seed whose count and rooted results are pinned in `reference.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Scale divisor for the two million-vertex stand-ins, pinned so every run
/// measures the same problem size.
pub const SCALE: usize = 64;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "portland-u12",
    "road-u12-hash",
    "gdd-slashdot",
    "svc-stream",
];

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub fascia: PathBuf,
    pub work: PathBuf,
    pub bless: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
    /// How the value was formed, or why it is unavailable.
    pub note: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        n: usize,
        note: impl Into<String>,
    ) -> Self {
        Self {
            name,
            value,
            unit,
            n,
            note: note.into(),
        }
    }
}

/// Everything a workload hands back for reporting.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted: count calls, rooted calls or jobs.
    pub attempted: u64,
    /// Operations that returned an error, stopped partial or failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    pub e2e: Vec<Metric>,
    /// Per-layer values (traced runs only).
    pub layers: Vec<Metric>,
    /// `fascia-obs/1` registry of the traced calls.
    pub registry_json: Option<String>,
    /// One JSON object per input: its shape and how it is counted.
    pub inputs: Vec<String>,
    /// Bytes the DP touches per iteration: peak tables plus the CSR graph.
    pub working_set_bytes: u64,
    pub spans: Recorder,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(trace: bool) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            e2e: Vec::new(),
            layers: Vec::new(),
            registry_json: None,
            inputs: Vec::new(),
            working_set_bytes: 0,
            spans: Recorder::new(trace),
            notes: Vec::new(),
        }
    }

    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        fascia: PathBuf::new(),
        work: PathBuf::from(".bench_build/perfbench"),
        bless: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < raw.len() {
        let flag = raw[i].as_str();
        if flag == "--bless" {
            args.bless = true;
            i += 1;
            continue;
        }
        let value = raw
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--fascia" => args.fascia = PathBuf::from(&value),
            "--work" => args.work = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Dataset names resolve at this scale in the daemon too.
    std::env::set_var("FASCIA_SCALE", SCALE.to_string());
    if args.bless {
        return match count::bless() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match args.workload.as_str() {
        "svc-stream" => svc::run(&args),
        name => count::run(&args, name),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    report(&args, out)
}

/// Prints the human-readable report, writes the traced run's artifacts and
/// prints the result line. Exit code 1 when anything failed.
fn report(args: &Args, out: Outcome) -> ExitCode {
    let host = host::Host::probe();
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", host.summary());
    for input in &out.inputs {
        println!("input: {input}");
    }
    println!(
        "dp working set: {:.1} MB vs last-level cache {}",
        out.working_set_bytes as f64 / 1e6,
        host.llc_bytes().map_or("unknown".to_string(), |b| format!(
            "{:.1} MB",
            b as f64 / 1e6
        ))
    );
    for note in &out.notes {
        println!("note: {note}");
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!("end-to-end (untraced calls):");
    for m in &out.e2e {
        print_metric(m, None);
    }
    println!(
        "  {:<28} {:>14} {:<14} n={:<5} {} of {} operations failed",
        "failed_frac", failed_frac, "ratio", out.attempted, out.failed, out.attempted
    );
    if args.trace {
        println!("per-layer (traced run):            value unit           n      moves -> on");
        for m in &out.layers {
            print_metric(m, layers::target(m.name));
        }
        println!("self time by span (traced calls):");
        for (name, st) in out.spans.self_times() {
            println!(
                "  {name:<28} n={:<5} total {:>12.3} ms  self {:>12.3} ms",
                st.count,
                st.total_us / 1e3,
                st.self_us / 1e3
            );
        }
        match write_artifacts(args, &out, &host) {
            Ok(dir) => println!(
                "trace artifacts: {} (render with `fascia report`)",
                dir.display()
            ),
            Err(e) => {
                eprintln!("perfbench: cannot write trace artifacts: {e}");
            }
        }
    }
    for p in &out.problems {
        println!("FAILED: {p}");
    }
    println!("{}", provenance_json(args, &out, &host));
    let correct = out.failed == 0 && out.problems.is_empty();
    let chosen = if args.trace { &out.layers } else { &out.e2e };
    let mut metrics = ObjectWriter::new();
    for m in chosen {
        let mut o = ObjectWriter::new();
        // JSON has no infinity; a failed job's latency is reported as the
        // largest finite number (and the run is already marked incorrect).
        o.field_f64(
            "value",
            if m.value.is_finite() {
                m.value
            } else {
                f64::MAX
            },
        )
        .field_str("unit", m.unit);
        metrics.field_raw(m.name, &o.finish());
    }
    let mut line = ObjectWriter::new();
    line.field_bool("correct", correct)
        .field_u64("attempted", out.attempted.max(1))
        .field_u64("failed", out.failed)
        .field_raw("metrics", &metrics.finish());
    println!("{}", line.finish());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_metric(m: &Metric, target: Option<(&str, &str)>) {
    let moves = target.map_or(String::new(), |(e2e, on)| format!("-> {e2e} on {on}  "));
    println!(
        "  {:<28} {:>14.6} {:<14} n={:<5} {moves}{}",
        m.name, m.value, m.unit, m.n, m.note
    );
}

fn provenance_json(args: &Args, out: &Outcome, host: &host::Host) -> String {
    let mut o = ObjectWriter::new();
    o.field_str("schema", "perfbench-provenance/1")
        .field_str("workload", &args.workload)
        .field_u64("seed", args.seed)
        .field_f64("seconds", args.seconds)
        .field_bool("trace", args.trace)
        .field_raw("host", &host.to_json())
        .field_raw(
            "inputs",
            &fascia_obs::json::array_of(out.inputs.iter().cloned()),
        )
        .field_u64("dp_working_set_bytes", out.working_set_bytes);
    match host.llc_bytes() {
        Some(b) => o.field_u64("llc_bytes", b),
        None => o.field_raw("llc_bytes", "null"),
    };
    o.finish()
}

/// Writes the traced run's spans (Chrome trace JSON), registry
/// (`fascia-obs/1`) and provenance into one directory.
fn write_artifacts(args: &Args, out: &Outcome, host: &host::Host) -> std::io::Result<PathBuf> {
    let dir = args
        .work
        .join(format!("trace-{}-seed{}", args.workload, args.seed));
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join("trace.json"), out.spans.to_chrome_json())?;
    if let Some(reg) = &out.registry_json {
        std::fs::write(dir.join("metrics.json"), reg)?;
    }
    std::fs::write(
        dir.join("provenance.json"),
        provenance_json(args, out, host),
    )?;
    Ok(dir)
}

/// Sleeps until `deadline`, returning at once if it has passed.
pub fn sleep_until(deadline: std::time::Instant) {
    let now = std::time::Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// `d` in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
