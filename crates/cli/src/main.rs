//! `fascia` — command-line interface to the FASCIA subgraph counter.
//!
//! Subcommands:
//!
//! * `count <dataset|path> <template> [opts]` — approximate count,
//! * `exact <dataset|path> <template>` — exhaustive exact count,
//! * `motifs <dataset|path> <size> [opts]` — motif profile over all tree
//!   topologies of a size,
//! * `gdd <dataset|path> [opts]` — graphlet degree distribution for the
//!   U5-2 central orbit,
//! * `sample <dataset|path> <template> <count>` — draw uniform random
//!   occurrences,
//! * `serve --spool <dir>` — resident counting service over a durable job
//!   spool (supervision, retry/backoff, graceful degradation, crash
//!   recovery),
//! * `gen <dataset> <out.txt>` — write a synthetic dataset as an edge list,
//! * `info <dataset|path>` — print network statistics,
//! * `templates` — list the Figure 2 template gallery.
//!
//! `<dataset>` is a Table I name (portland, enron, gnp, slashdot, road,
//! circuit, ecoli, yeast, hpylori, celegans); anything else is treated as
//! an edge-list file path. `<template>` is a Figure 2 name (e.g. U7-2) or
//! `path<k>` / `star<k>`.
//!
//! Exit codes are stable (scripts may rely on them): 0 success, 1 runtime
//! failure, 2 usage error, 3 i/o or input-file error, 4 partial result
//! (memory budget exceeded, deadline passed, or interrupted — a partial
//! estimate and checkpoint may still have been produced).
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod report;
mod serve;

use fascia_core::engine::{count_template, CountConfig, CountError};
use fascia_core::est::EstCollector;
use fascia_core::exact::count_exact;
use fascia_core::gdd::{estimate_gdd, GddHistogram};
use fascia_core::mem::MemCollector;
use fascia_core::motifs::motif_profile;
use fascia_core::parallel::ParallelMode;
use fascia_core::progress::{Progress, ProgressConfig};
use fascia_core::resilience::{atomic_write, CancelToken, Checkpoint, CheckpointConfig};
use fascia_core::sample::sample_embeddings;
use fascia_core::stats::StopRule;
use fascia_graph::datasets::scale_from_env;
use fascia_graph::io::load_edge_list;
use fascia_graph::{Dataset, Graph};
use fascia_obs::{Metrics, MetricsReport, Profiler, RunInfo, Tracer};
use fascia_table::TableKind;
use fascia_template::{NamedTemplate, PartitionStrategy, Template};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The whole process runs under the counting allocator. Disabled (the
/// default) it forwards straight to the system allocator after one
/// relaxed atomic load — `--mem-stats` flips it on for a run, and the
/// fascia-mem/1 document reports what it measured.
#[global_allocator]
static GLOBAL_ALLOC: fascia_obs::alloc::CountingAlloc = fascia_obs::alloc::CountingAlloc;

/// Set by the SIGINT handler; every counting run watches it through a
/// [`CancelToken`], so Ctrl-C flushes a final checkpoint and reports the
/// partial estimate instead of killing the process mid-table.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

const EXIT_OK: i32 = 0;
const EXIT_RUN: i32 = 1;
const EXIT_USAGE: i32 = 2;
const EXIT_IO: i32 = 3;
const EXIT_PARTIAL: i32 = 4;

/// A failure with a stable process exit code. Everything the CLI can
/// reject flows through here — no `panic!`/`unwrap` paths remain (the
/// crate denies `clippy::unwrap_used`).
#[derive(Debug)]
enum CliError {
    /// Bad command line (unknown flag, missing value, malformed number).
    Usage(String),
    /// File problem: graph/template/checkpoint unreadable or malformed.
    Io(String),
    /// The engine rejected an otherwise well-formed request.
    Run(String),
    /// The run ended early and only partial output exists.
    Partial(String),
}

impl CliError {
    fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => EXIT_USAGE,
            CliError::Io(_) => EXIT_IO,
            CliError::Run(_) => EXIT_RUN,
            CliError::Partial(_) => EXIT_PARTIAL,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Io(m) | CliError::Run(m) | CliError::Partial(m) => m,
        }
    }
}

fn main() {
    install_sigint_handler();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {}", e.message());
            if matches!(e, CliError::Usage(_)) {
                eprintln!("run `fascia help` for usage");
            }
            e.exit_code()
        }
    };
    std::process::exit(code);
}

/// Installs a minimal async-signal-safe SIGINT handler (only touches one
/// relaxed atomic). Raw libc `signal` via FFI keeps the CLI free of
/// signal-crate dependencies.
#[cfg(unix)]
fn install_sigint_handler() {
    extern "C" fn on_sigint(_sig: i32) {
        INTERRUPTED.store(true, std::sync::atomic::Ordering::Relaxed);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

/// Whether stderr is an interactive terminal (drives the default for the
/// live progress line). Raw libc `isatty` via FFI, like the signal
/// handler, to stay dependency-free.
#[cfg(unix)]
fn stderr_is_tty() -> bool {
    extern "C" {
        fn isatty(fd: i32) -> i32;
    }
    const STDERR_FILENO: i32 = 2;
    unsafe { isatty(STDERR_FILENO) == 1 }
}

#[cfg(not(unix))]
fn stderr_is_tty() -> bool {
    false
}

fn run(args: &[String]) -> Result<i32, CliError> {
    let Some(cmd) = args.first() else {
        return Err(CliError::Usage(usage_text()));
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "count" => cmd_count(rest),
        "exact" => cmd_exact(rest),
        "motifs" => cmd_motifs(rest),
        "gdd" => cmd_gdd(rest),
        "sample" => cmd_sample(rest),
        "distsim" => cmd_distsim(rest),
        "gen" => cmd_gen(rest),
        "info" => cmd_info(rest),
        "report" => report::cmd_report(rest),
        "serve" => serve::cmd_serve(rest),
        "templates" => {
            cmd_templates();
            Ok(EXIT_OK)
        }
        "help" | "--help" | "-h" => {
            println!("{}", usage_text());
            Ok(EXIT_OK)
        }
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'\n{}",
            usage_text()
        ))),
    }
}

fn usage_text() -> String {
    "usage: fascia <count|exact|motifs|gdd|sample|distsim|serve|gen|info|report|templates|help> ...\n\
     \x20 count  <dataset|file> <template> [--iters N] [--table naive|improved|hash] [--strategy one|balanced] [--parallel serial|inner|outer|auto] [--seed S] [--metrics off|pretty|json|prom] [adaptive flags] [resilience flags] [observability flags]\n\
     \x20 exact  <dataset|file> <template>\n\
     \x20 motifs <dataset|file> <size> [--iters N]\n\
     \x20 gdd    <dataset|file> [--iters N]\n\
     \x20 sample <dataset|file> <template> <count> [--iters N] [--seed S]\n\
     \x20 distsim <dataset|file> <template> <ranks> [--iters N] [--seed S] [--strategy one|balanced] [observability flags]\n\
     \x20 serve  [--spool] DIR [--once] [--stdin] [--chaos SPEC] [--admin-addr HOST:PORT] [--poll-ms N]\n\
     \x20        [--stall-timeout-ms N] [--grace-ms N] [--max-attempts N]\n\
     \x20        [--backoff-base-ms N] [--backoff-cap-ms N]\n\
     \x20        resident counting service: runs fascia-job/1 documents from DIR/jobs (add more any\n\
     \x20        time: a new file wakes an idle daemon at once; --stdin also queues a JSONL\n\
     \x20        stream), writes durable fascia-job-result/1 documents to DIR/results, retries\n\
     \x20        transient failures with capped jittered backoff, degrades to honest partial\n\
     \x20        estimates on deadline/budget, and resumes killed jobs from their checkpoints;\n\
     \x20        --once drains the queue and exits; --chaos (or env FASCIA_CHAOS) runs a\n\
     \x20        deterministic fault schedule, logged to DIR/chaos.events;\n\
     \x20        every lifecycle transition lands in DIR/events/events.jsonl (fascia-events/1);\n\
     \x20        --admin-addr serves read-only /healthz /metrics /jobs /jobs/<id> /version over\n\
     \x20        HTTP (port 0 picks a free port; the bound address lands in DIR/admin.addr)\n\
     \x20 gen    <dataset> <out.txt>\n\
     \x20 info   <dataset|file>\n\
     \x20 report <run-dir> [--baseline BENCH.json] [--html FILE] [--no-html]\n\
     \x20        render one unified terminal + self-contained HTML report from a directory of\n\
     \x20        observability artifacts (fascia-obs/mem/perf/heartbeat JSON, Chrome traces,\n\
     \x20        collapsed profiles); --baseline diffs fascia-perf/1 medians against an archive;\n\
     \x20        a spool dir's events/events.jsonl adds a service section (job table, retry\n\
     \x20        causes, queue-wait / end-to-end latency quantiles)\n\
     \x20 templates\n\
     adaptive flags (every counting subcommand): --adaptive [--epsilon E] [--delta D] [--max-iters M]\n\
     \x20 stop iterating once the estimate is within ±E (relative, default 0.05)\n\
     \x20 at confidence 1-D (default 0.95), hard budget M (default 10000);\n\
     \x20 --iters N becomes the iteration floor; --epsilon/--delta/--max-iters imply --adaptive\n\
     resilience flags (every counting subcommand):\n\
     \x20 --timeout-secs T     stop after T seconds (fractions ok) and report the partial estimate\n\
     \x20 --checkpoint FILE    write an atomic resume checkpoint after every wave and at exit\n\
     \x20 --resume FILE        continue a checkpointed run (count only); adopts the checkpoint's\n\
     \x20                      seed and stop rule unless --seed/--iters/adaptive flags are given\n\
     \x20 --memory-budget B    cap DP-table memory at B bytes (k/m/g suffixes ok); the engine\n\
     \x20                      degrades dense→lazy→hashed layouts before giving up\n\
     observability flags (every counting subcommand):\n\
     \x20 --metrics MODE       off|pretty (stderr table)|json (fascia-obs/1 line)|prom (Prometheus text)\n\
     \x20 --trace FILE         record a flight-recorder timeline and write Chrome trace-event JSON\n\
     \x20                      (load in Perfetto / chrome://tracing); bounded memory, overflow only\n\
     \x20                      drops events (counted), never changes results\n\
     \x20 --trace-buffer N     per-thread trace ring capacity in events (default 16384)\n\
     \x20 --heartbeat FILE     rewrite FILE atomically with a fascia-heartbeat/1 status document\n\
     \x20                      during the run (iteration progress, estimate, CI, ETA)\n\
     \x20 --progress           force the live stderr progress line (default: only when stderr is a TTY)\n\
     \x20 --profile FILE       sample the engine's phase stacks during the run and write collapsed-\n\
     \x20                      stack text (load with inferno-flamegraph or speedscope); with\n\
     \x20                      --metrics pretty the top phases by self time print to stderr too\n\
     \x20 --profile-hz N       sampling rate for --profile (default ~1000)\n\
     \x20 --mem-stats          enable the counting allocator and table access telemetry; emits a\n\
     \x20                      fascia-mem/1 document (own stdout line with --metrics json, summary\n\
     \x20                      on stderr otherwise); observe-only — counts are bitwise unchanged\n\
     \x20 --mem-out FILE       also write the fascia-mem/1 document to FILE (implies --mem-stats)\n\
     \x20 --est-trace FILE     capture the estimator's convergence: a bounded per-iteration ledger\n\
     \x20                      plus per-colorset / per-degree-class variance strata, written to FILE\n\
     \x20                      as a fascia-est/1 document (also its own stdout line with --metrics\n\
     \x20                      json); observe-only — counts are bitwise unchanged\n\
     Ctrl-C cancels cooperatively: the current wave is discarded, a final checkpoint is\n\
     written (with --checkpoint), and the partial estimate is reported.\n\
     exit codes: 0 ok, 1 runtime failure, 2 usage, 3 i/o or bad input file,\n\
     \x20 4 partial result (budget exceeded, timeout, or interrupt)"
        .to_string()
}

fn usage_err(what: &str) -> CliError {
    CliError::Usage(format!("{what}\n{}", usage_text()))
}

fn parse_dataset(name: &str) -> Option<Dataset> {
    Some(match name.to_ascii_lowercase().as_str() {
        "portland" => Dataset::Portland,
        "enron" => Dataset::Enron,
        "gnp" => Dataset::Gnp,
        "slashdot" => Dataset::Slashdot,
        "road" | "paroad" => Dataset::PaRoad,
        "circuit" => Dataset::Circuit,
        "ecoli" => Dataset::EColi,
        "yeast" | "scerevisiae" => Dataset::SCerevisiae,
        "hpylori" => Dataset::HPylori,
        "celegans" => Dataset::CElegans,
        _ => return None,
    })
}

fn load_graph(spec: &str) -> Result<Graph, CliError> {
    if let Some(ds) = parse_dataset(spec) {
        let scale = scale_from_env();
        eprintln!(
            "generating {} stand-in (scale 1/{scale}, FASCIA_SCALE to change)",
            ds.spec().name
        );
        Ok(ds.generate(scale, 0xDA7A))
    } else {
        load_edge_list(spec)
            .map(|(g, _)| g)
            .map_err(|e| CliError::Io(format!("cannot load '{spec}': {e}")))
    }
}

fn parse_template(spec: &str) -> Result<Template, CliError> {
    if let Some(named) = NamedTemplate::by_name(spec) {
        return Ok(named.template());
    }
    if let Some(k) = spec
        .strip_prefix("path")
        .and_then(|s| s.parse::<usize>().ok())
    {
        return Ok(Template::path(k));
    }
    if let Some(k) = spec
        .strip_prefix("star")
        .and_then(|s| s.parse::<usize>().ok())
    {
        return Ok(Template::star(k));
    }
    if std::path::Path::new(spec).exists() {
        return fascia_template::io::load_template(spec)
            .map_err(|e| CliError::Io(format!("cannot load template file '{spec}': {e}")));
    }
    Err(CliError::Usage(format!(
        "unknown template '{spec}' (use U7-2, path5, star6, or a template file path)"
    )))
}

/// Returns the value following flag `rest[i]`, or a usage error naming it.
fn flag_value<'a>(rest: &'a [String], i: usize, flag: &str) -> Result<&'a str, CliError> {
    rest.get(i + 1)
        .map(|s| s.as_str())
        .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
}

/// Parses a flag value, mapping failure to a usage error that names the
/// flag and echoes the offending text.
fn flag_parse<T: std::str::FromStr>(rest: &[String], i: usize, flag: &str) -> Result<T, CliError> {
    let raw = flag_value(rest, i, flag)?;
    raw.parse()
        .map_err(|_| CliError::Usage(format!("{flag}: cannot parse {raw:?}")))
}

/// Parses a byte size with an optional `k`/`m`/`g` suffix (powers of
/// 1024), e.g. `--memory-budget 512m`.
fn parse_size(raw: &str) -> Option<usize> {
    let s = raw.trim().to_ascii_lowercase();
    let (digits, mult) = match s.as_bytes().last()? {
        b'k' => (&s[..s.len() - 1], 1usize << 10),
        b'm' => (&s[..s.len() - 1], 1usize << 20),
        b'g' => (&s[..s.len() - 1], 1usize << 30),
        _ => (s.as_str(), 1usize),
    };
    digits.parse::<usize>().ok()?.checked_mul(mult)
}

/// Observability outputs requested on the command line, plus the clocks
/// that stamp the run metadata in the `--metrics json` report.
struct ObsFlags {
    report: MetricsReport,
    /// Write the Chrome trace-event JSON here after the run (atomically).
    trace_path: Option<PathBuf>,
    /// Write collapsed-stack profile text here after the run (atomically).
    profile_path: Option<PathBuf>,
    /// `--mem-stats`: the counting allocator and table access telemetry
    /// are live for this run; emit a fascia-mem/1 document at the end.
    mem_stats: bool,
    /// Write the fascia-mem/1 document here after the run (atomically).
    mem_out: Option<PathBuf>,
    /// Write the fascia-est/1 document here after the run (atomically).
    est_trace: Option<PathBuf>,
    started_unix_ms: u64,
    t0: Instant,
}

fn parse_flags(rest: &[String]) -> Result<(CountConfig, ObsFlags), CliError> {
    let mut cfg = CountConfig::default();
    let mut report = MetricsReport::Off;
    let mut iters_given = false;
    let mut seed_given = false;
    let mut adaptive = false;
    let mut epsilon = 0.05f64;
    let mut delta = 0.05f64;
    let mut max_iters = StopRule::DEFAULT_MAX_ITERS;
    let mut timeout: Option<Duration> = None;
    let mut resume_path: Option<String> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut trace_buffer: Option<usize> = None;
    let mut profile_path: Option<PathBuf> = None;
    let mut profile_hz: Option<f64> = None;
    let mut heartbeat: Option<PathBuf> = None;
    let mut progress_flag = false;
    let mut mem_stats = false;
    let mut mem_out: Option<PathBuf> = None;
    let mut est_trace: Option<PathBuf> = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--iters" => {
                cfg.iterations = flag_parse(rest, i, "--iters")?;
                iters_given = true;
                i += 2;
            }
            "--adaptive" => {
                adaptive = true;
                i += 1;
            }
            "--epsilon" => {
                epsilon = flag_parse(rest, i, "--epsilon")?;
                adaptive = true;
                i += 2;
            }
            "--delta" => {
                delta = flag_parse(rest, i, "--delta")?;
                adaptive = true;
                i += 2;
            }
            "--max-iters" => {
                max_iters = flag_parse(rest, i, "--max-iters")?;
                adaptive = true;
                i += 2;
            }
            "--seed" => {
                cfg.seed = flag_parse(rest, i, "--seed")?;
                seed_given = true;
                i += 2;
            }
            "--table" => {
                cfg.table = match flag_value(rest, i, "--table")? {
                    "naive" | "dense" => TableKind::Dense,
                    "improved" | "lazy" => TableKind::Lazy,
                    "hash" => TableKind::Hash,
                    other => {
                        return Err(CliError::Usage(format!("unknown table kind '{other}'")));
                    }
                };
                i += 2;
            }
            "--strategy" => {
                cfg.strategy = match flag_value(rest, i, "--strategy")? {
                    "one" | "one-at-a-time" => PartitionStrategy::OneAtATime,
                    "balanced" => PartitionStrategy::Balanced,
                    other => {
                        return Err(CliError::Usage(format!("unknown strategy '{other}'")));
                    }
                };
                i += 2;
            }
            "--metrics" => {
                let raw = flag_value(rest, i, "--metrics")?;
                report = MetricsReport::parse(raw).ok_or_else(|| {
                    CliError::Usage(format!("unknown metrics mode '{raw}' (off|pretty|json)"))
                })?;
                i += 2;
            }
            "--timeout-secs" => {
                let secs: f64 = flag_parse(rest, i, "--timeout-secs")?;
                timeout = Some(Duration::try_from_secs_f64(secs).map_err(|_| {
                    CliError::Usage(format!("--timeout-secs: {secs} is not a valid duration"))
                })?);
                i += 2;
            }
            "--checkpoint" => {
                cfg.checkpoint = Some(CheckpointConfig::new(flag_value(rest, i, "--checkpoint")?));
                i += 2;
            }
            "--resume" => {
                resume_path = Some(flag_value(rest, i, "--resume")?.to_string());
                i += 2;
            }
            "--memory-budget" => {
                let raw = flag_value(rest, i, "--memory-budget")?;
                cfg.memory_budget_bytes = Some(parse_size(raw).ok_or_else(|| {
                    CliError::Usage(format!(
                        "--memory-budget: cannot parse {raw:?} (use bytes with optional k/m/g)"
                    ))
                })?);
                i += 2;
            }
            "--trace" => {
                trace_path = Some(PathBuf::from(flag_value(rest, i, "--trace")?));
                i += 2;
            }
            "--trace-buffer" => {
                trace_buffer = Some(flag_parse(rest, i, "--trace-buffer")?);
                i += 2;
            }
            "--profile" => {
                profile_path = Some(PathBuf::from(flag_value(rest, i, "--profile")?));
                i += 2;
            }
            "--profile-hz" => {
                let hz: f64 = flag_parse(rest, i, "--profile-hz")?;
                if hz.is_nan() || hz <= 0.0 {
                    return Err(CliError::Usage(format!(
                        "--profile-hz: {hz} is not a positive rate"
                    )));
                }
                profile_hz = Some(hz);
                i += 2;
            }
            "--heartbeat" => {
                heartbeat = Some(PathBuf::from(flag_value(rest, i, "--heartbeat")?));
                i += 2;
            }
            "--progress" => {
                progress_flag = true;
                i += 1;
            }
            "--parallel" => {
                cfg.parallel = match flag_value(rest, i, "--parallel")? {
                    "serial" => ParallelMode::Serial,
                    "inner" => ParallelMode::InnerLoop,
                    "outer" => ParallelMode::OuterLoop,
                    "auto" | "hybrid" => ParallelMode::Hybrid,
                    other => {
                        return Err(CliError::Usage(format!("unknown parallel mode '{other}'")));
                    }
                };
                i += 2;
            }
            "--mem-stats" => {
                mem_stats = true;
                i += 1;
            }
            "--mem-out" => {
                mem_out = Some(PathBuf::from(flag_value(rest, i, "--mem-out")?));
                mem_stats = true;
                i += 2;
            }
            "--est-trace" => {
                est_trace = Some(PathBuf::from(flag_value(rest, i, "--est-trace")?));
                i += 2;
            }
            other => {
                return Err(CliError::Usage(format!("unknown flag '{other}'")));
            }
        }
    }
    if let Some(path) = resume_path {
        let ck = Checkpoint::load(std::path::Path::new(&path))
            .map_err(|e| CliError::Io(format!("cannot resume from '{path}': {e}")))?;
        // The checkpoint is authoritative for anything the user did not
        // override; explicit conflicting flags surface as a
        // resume-mismatch error from the engine rather than silently
        // changing the run's meaning.
        if !seed_given {
            cfg.seed = ck.seed;
        }
        if !iters_given && !adaptive {
            match ck.rule.clone() {
                StopRule::FixedIterations(n) => cfg.iterations = n,
                rule @ StopRule::RelativeError { .. } => cfg.stop = Some(rule),
            }
        }
        cfg.resume = Some(ck);
    }
    if adaptive {
        // `--iters` becomes the convergence floor; without it, the
        // library default floor applies.
        let min_iters = if iters_given {
            cfg.iterations.clamp(2, max_iters)
        } else {
            StopRule::DEFAULT_MIN_ITERS.min(max_iters)
        };
        cfg.stop = Some(StopRule::RelativeError {
            epsilon,
            delta,
            min_iters,
            max_iters,
        });
    }
    if report != MetricsReport::Off {
        cfg.metrics = Some(Arc::new(Metrics::new()));
    }
    if mem_stats {
        // Enabled here — after the caller loaded the graph — so the
        // allocator's totals are dominated by attributable DP work, not
        // input parsing. Reset first: the flag is process-global and a
        // prior enable (e.g. in tests driving parse_flags twice) must not
        // leak bytes into this run's document.
        fascia_obs::alloc::reset();
        fascia_obs::alloc::set_enabled(true);
        fascia_table::set_access_tracking(true);
        cfg.mem = Some(Arc::new(MemCollector::new()));
    }
    // The estimator collector rides along whenever its file was requested
    // or the run reports JSON metrics (the fascia-est/1 document is then
    // embedded as its own stdout line next to fascia-obs/1).
    if est_trace.is_some() || report == MetricsReport::Json {
        cfg.est = Some(Arc::new(EstCollector::new()));
    }
    if trace_path.is_some() || trace_buffer.is_some() {
        cfg.tracer = Some(Arc::new(match trace_buffer {
            Some(n) => Tracer::with_capacity(n),
            None => Tracer::new(),
        }));
    }
    if profile_path.is_some() || profile_hz.is_some() {
        let p = Arc::new(match profile_hz {
            Some(hz) => Profiler::with_hz(hz),
            None => Profiler::new(),
        });
        // Sampling starts now and stops in `emit_observability`, so the
        // profile covers the whole command, idle time included — the
        // `(idle)` line keeps the collapsed values summing to wall time.
        p.start();
        cfg.profiler = Some(p);
    }
    // The progress line defaults on for interactive runs; --progress
    // forces it for piped stderr (e.g. when watching a log file).
    let want_line = progress_flag || stderr_is_tty();
    if want_line || heartbeat.is_some() {
        cfg.progress = Some(Arc::new(Progress::new(ProgressConfig {
            stderr_line: want_line,
            heartbeat,
            min_interval: Duration::from_millis(200),
            job_id: None,
        })));
    }
    // Every counting run watches the process-wide interrupt flag; the
    // deadline rides on the same token.
    let mut token = CancelToken::new().external_flag(&INTERRUPTED);
    if let Some(after) = timeout {
        token = token.deadline(after);
    }
    cfg.cancel = Some(token);
    let started_unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    Ok((
        cfg,
        ObsFlags {
            report,
            trace_path,
            profile_path,
            mem_stats,
            mem_out,
            est_trace,
            started_unix_ms,
            t0: Instant::now(),
        },
    ))
}

/// Maps engine failures to exit codes: resource exhaustion and
/// cancellation-before-any-result are "partial" (4), everything else is a
/// runtime failure (1) except resume mismatches, which are usage (2).
fn map_count_err(what: &str, e: CountError) -> CliError {
    match e {
        CountError::BudgetExceeded { .. } | CountError::Cancelled => {
            CliError::Partial(format!("{what}: {e}"))
        }
        CountError::ResumeMismatch(_) => CliError::Usage(format!("{what}: {e}")),
        other => CliError::Run(format!("{what}: {other}")),
    }
}

/// Emits the run's observability outputs: the `--trace` Chrome-trace file
/// (written atomically, like checkpoints) and the collected metrics per
/// the `--metrics` mode. The pretty rendering goes to stderr (keeps
/// stdout parseable); the JSON document — one stdout line — carries the
/// run metadata and, when tracing was on, the `fascia-trace/1` summary.
fn emit_observability(obs: &ObsFlags, cfg: &CountConfig) -> Result<(), CliError> {
    if let (Some(path), Some(tracer)) = (&obs.trace_path, &cfg.tracer) {
        atomic_write(path, &tracer.to_chrome_json())
            .map_err(|e| CliError::Io(format!("cannot write trace '{}': {e}", path.display())))?;
        eprintln!(
            "trace: {} events ({} dropped) -> {}",
            tracer.recorded(),
            tracer.dropped(),
            path.display()
        );
    }
    if let Some(profiler) = &cfg.profiler {
        profiler.stop();
        if let Some(path) = &obs.profile_path {
            atomic_write(path, &profiler.collapsed()).map_err(|e| {
                CliError::Io(format!("cannot write profile '{}': {e}", path.display()))
            })?;
            eprintln!(
                "profile: {} samples ({} truncated) -> {}",
                profiler.samples(),
                profiler.truncated(),
                path.display()
            );
        }
    }
    // Stop measuring before any rendering below, so the report-building
    // allocations are not charged to the run being reported on.
    let mem_doc = if obs.mem_stats {
        // Snapshot first (so the document records that recording was
        // live), then stop measuring before rendering.
        let snap = fascia_obs::alloc::snapshot();
        fascia_obs::alloc::set_enabled(false);
        fascia_table::set_access_tracking(false);
        let doc = cfg
            .mem
            .as_deref()
            .map(|c| c.to_json(Some(&snap)))
            .unwrap_or_else(|| MemCollector::new().to_json(Some(&snap)));
        let frac = snap
            .attributed_fraction()
            .map_or_else(|| "n/a".to_string(), |f| format!("{:.1}%", 100.0 * f));
        eprintln!(
            "mem: {} phases, {} allocated bytes ({frac} attributed), {} peak live bytes",
            snap.phases.len(),
            snap.total_allocated_bytes,
            snap.live_peak_bytes
        );
        if let Some(path) = &obs.mem_out {
            atomic_write(path, &doc).map_err(|e| {
                CliError::Io(format!("cannot write mem stats '{}': {e}", path.display()))
            })?;
            eprintln!("mem: fascia-mem/1 -> {}", path.display());
        }
        Some(doc)
    } else {
        None
    };
    let est_doc = cfg.est.as_deref().map(|c| c.to_json());
    if let (Some(doc), Some(path)) = (&est_doc, &obs.est_trace) {
        atomic_write(path, doc).map_err(|e| {
            CliError::Io(format!("cannot write est trace '{}': {e}", path.display()))
        })?;
        eprintln!("est: fascia-est/1 -> {}", path.display());
    }
    let Some(m) = cfg.metrics.as_deref() else {
        // The `--metrics pretty` top-phase table rides on the metrics
        // report; without a registry the profile file above is the output.
        if let (Some(p), MetricsReport::Pretty) = (&cfg.profiler, obs.report) {
            eprint!("{}", p.render_top());
        }
        return Ok(());
    };
    match obs.report {
        MetricsReport::Off => {}
        MetricsReport::Pretty => {
            eprint!("{}", m.render_pretty());
            if let Some(p) = &cfg.profiler {
                eprint!("{}", p.render_top());
            }
        }
        MetricsReport::Json => {
            let mut run = RunInfo {
                started_unix_ms: obs.started_unix_ms,
                wall_ms: obs.t0.elapsed().as_millis() as u64,
                threads: rayon::current_num_threads() as u64,
                parallel: cfg.parallel.name().to_string(),
                ..RunInfo::default()
            };
            run.probe_host();
            let summary = cfg.tracer.as_ref().map(|t| t.summary_json());
            println!("{}", m.to_json_full(Some(&run), summary.as_deref()));
            // The fascia-mem/1 and fascia-est/1 documents are each their
            // own stdout line, so line-oriented consumers can pick any
            // schema by its tag.
            if let Some(doc) = &mem_doc {
                println!("{doc}");
            }
            if let Some(doc) = &est_doc {
                println!("{doc}");
            }
        }
        MetricsReport::Prom => println!("{}", m.render_prom()),
    }
    Ok(())
}

fn cmd_count(rest: &[String]) -> Result<i32, CliError> {
    let (gspec, tspec) = match rest {
        [g, t, ..] => (g, t),
        _ => return Err(usage_err("count needs <dataset|file> <template>")),
    };
    let g = load_graph(gspec)?;
    let t = parse_template(tspec)?;
    let (cfg, obs) = parse_flags(&rest[2..])?;
    let r = count_template(&g, &t, &cfg).map_err(|e| map_count_err("count failed", e))?;
    println!("estimate: {:.4e}", r.estimate);
    println!("iterations: {}", r.iterations_run);
    if r.resumed_iterations > 0 {
        println!("resumed iterations: {}", r.resumed_iterations);
    }
    if let Some(StopRule::RelativeError { max_iters, .. }) = &cfg.stop {
        if !r.stop_cause.is_partial() {
            println!("iterations saved: {}", max_iters - r.iterations_run);
        }
    }
    println!("std error: {:.4e}", r.std_error);
    if r.estimate != 0.0 {
        println!(
            "95% ci: ±{:.4e} ({:.2}% of estimate)",
            r.ci95,
            100.0 * r.ci95 / r.estimate.abs()
        );
    } else {
        println!("95% ci: ±{:.4e}", r.ci95);
    }
    println!("per-iteration time: {:?}", r.per_iteration_time);
    println!("peak table bytes: {}", r.peak_table_bytes);
    println!("automorphisms: {}", r.automorphisms);
    println!("colorful probability: {:.6}", r.colorful_probability);
    println!("stop cause: {}", r.stop_cause.name());
    emit_observability(&obs, &cfg)?;
    if r.stop_cause.is_partial() {
        eprintln!(
            "run stopped early ({}); the estimate above is partial",
            r.stop_cause.name()
        );
        Ok(EXIT_PARTIAL)
    } else {
        Ok(EXIT_OK)
    }
}

fn cmd_exact(rest: &[String]) -> Result<i32, CliError> {
    let (gspec, tspec) = match rest {
        [g, t, ..] => (g, t),
        _ => return Err(usage_err("exact needs <dataset|file> <template>")),
    };
    let g = load_graph(gspec)?;
    let t = parse_template(tspec)?;
    let start = std::time::Instant::now();
    let count = count_exact(&g, &t);
    println!("exact count: {count}");
    println!("elapsed: {:?}", start.elapsed());
    Ok(EXIT_OK)
}

fn cmd_motifs(rest: &[String]) -> Result<i32, CliError> {
    let (gspec, sizespec) = match rest {
        [g, s, ..] => (g, s),
        _ => return Err(usage_err("motifs needs <dataset|file> <size>")),
    };
    let g = load_graph(gspec)?;
    let size: usize = sizespec
        .parse()
        .map_err(|_| CliError::Usage(format!("motif size: cannot parse {sizespec:?}")))?;
    let (cfg, obs) = parse_flags(&rest[2..])?;
    let p = motif_profile(&g, size, &cfg).map_err(|e| map_count_err("motif scan failed", e))?;
    println!("# topology relative_frequency estimate");
    for (i, (rel, cnt)) in p.relative_frequencies().iter().zip(&p.counts).enumerate() {
        println!("{:>3}  {rel:>12.6}  {cnt:.4e}", i + 1);
    }
    println!("# total elapsed: {:?}", p.elapsed);
    emit_observability(&obs, &cfg)?;
    Ok(EXIT_OK)
}

fn cmd_gdd(rest: &[String]) -> Result<i32, CliError> {
    let Some(gspec) = rest.first() else {
        return Err(usage_err("gdd needs <dataset|file>"));
    };
    let g = load_graph(gspec)?;
    let (cfg, obs) = parse_flags(&rest[1..])?;
    let named = NamedTemplate::U5_2;
    let t = named.template();
    let orbit = named
        .central_orbit()
        .ok_or_else(|| CliError::Run("U5-2 central orbit unavailable".to_string()))?;
    let hist = estimate_gdd(&g, &t, orbit, &cfg).map_err(|e| map_count_err("gdd failed", e))?;
    print_histogram(&hist);
    emit_observability(&obs, &cfg)?;
    Ok(EXIT_OK)
}

fn print_histogram(h: &GddHistogram) {
    println!("# graphlet_degree vertex_count");
    for (j, c) in h.iter() {
        println!("{j} {c}");
    }
}

fn cmd_sample(rest: &[String]) -> Result<i32, CliError> {
    let (gspec, tspec, countspec) = match rest {
        [g, t, c, ..] => (g, t, c),
        _ => return Err(usage_err("sample needs <dataset|file> <template> <count>")),
    };
    let g = load_graph(gspec)?;
    let t = parse_template(tspec)?;
    let count: usize = countspec
        .parse()
        .map_err(|_| CliError::Usage(format!("sample count: cannot parse {countspec:?}")))?;
    let (mut cfg, obs) = parse_flags(&rest[3..])?;
    if cfg.iterations < count {
        cfg.iterations = count.max(100);
    }
    let embeddings =
        sample_embeddings(&g, &t, &cfg, count).map_err(|e| map_count_err("sampling failed", e))?;
    println!(
        "# {} embeddings (graph vertices in template-vertex order)",
        embeddings.len()
    );
    for emb in embeddings {
        let strs: Vec<String> = emb.iter().map(|v| v.to_string()).collect();
        println!("{}", strs.join(" "));
    }
    emit_observability(&obs, &cfg)?;
    Ok(EXIT_OK)
}

fn cmd_gen(rest: &[String]) -> Result<i32, CliError> {
    let (dsspec, out) = match rest {
        [d, o, ..] => (d, o),
        _ => return Err(usage_err("gen needs <dataset> <out.txt>")),
    };
    let ds = parse_dataset(dsspec)
        .ok_or_else(|| CliError::Usage(format!("unknown dataset '{dsspec}'")))?;
    let g = ds.generate(scale_from_env(), 0xDA7A);
    fascia_graph::io::write_edge_list(&g, out)
        .map_err(|e| CliError::Io(format!("write failed: {e}")))?;
    println!(
        "wrote n={} m={} to {}",
        g.num_vertices(),
        g.num_edges(),
        out
    );
    Ok(EXIT_OK)
}

fn cmd_info(rest: &[String]) -> Result<i32, CliError> {
    let Some(gspec) = rest.first() else {
        return Err(usage_err("info needs <dataset|file>"));
    };
    let g = load_graph(gspec)?;
    println!("n: {}", g.num_vertices());
    println!("m: {}", g.num_edges());
    println!("avg degree: {:.2}", g.avg_degree());
    println!("max degree: {}", g.max_degree());
    println!("triangles: {}", fascia_graph::stats::triangle_count(&g));
    println!(
        "global clustering: {:.4}",
        fascia_graph::stats::global_clustering(&g)
    );
    Ok(EXIT_OK)
}

/// The flags `distsim` honours: `count_distributed` reads only the
/// iteration count, seed and partition strategy of its count
/// configuration, and `emit_observability` writes the rest. Any other
/// counting flag would be parsed and then silently dropped.
const DISTSIM_FLAGS: &[&str] = &[
    "--iters",
    "--seed",
    "--strategy",
    "--metrics",
    "--trace",
    "--trace-buffer",
    "--profile",
    "--profile-hz",
    "--mem-stats",
    "--mem-out",
    "--est-trace",
];

fn cmd_distsim(rest: &[String]) -> Result<i32, CliError> {
    use fascia_core::distsim::{count_distributed, DistConfig, PartitionScheme};
    let (gspec, tspec, rankspec) = match rest {
        [g, t, r, ..] => (g, t, r),
        _ => return Err(usage_err("distsim needs <dataset|file> <template> <ranks>")),
    };
    if let Some(flag) = rest[3..]
        .iter()
        .find(|a| a.starts_with("--") && !DISTSIM_FLAGS.contains(&a.as_str()))
    {
        return Err(CliError::Usage(format!(
            "distsim does not take '{flag}': it runs a fixed number of serial iterations \
             and reads only --iters, --seed, --strategy and the observability flags"
        )));
    }
    let g = load_graph(gspec)?;
    let t = parse_template(tspec)?;
    let ranks: usize = rankspec
        .parse()
        .map_err(|_| CliError::Usage(format!("rank count: cannot parse {rankspec:?}")))?;
    if ranks == 0 {
        return Err(CliError::Usage(
            "rank count: 0 ranks cannot hold the graph; need at least 1".to_string(),
        ));
    }
    let (mut count, obs) = parse_flags(&rest[3..])?;
    count.parallel = fascia_core::parallel::ParallelMode::Serial;
    for scheme in [PartitionScheme::Block, PartitionScheme::Hash] {
        let cfg = DistConfig {
            ranks,
            scheme,
            count: count.clone(),
        };
        let r = count_distributed(&g, &t, &cfg).map_err(|e| map_count_err("distsim failed", e))?;
        println!(
            "{scheme:?}: estimate {:.4e}, ghost rows {}, comm bytes {}, imbalance {:.2}",
            r.estimate,
            r.ghost_rows,
            r.comm_bytes,
            r.imbalance(ranks)
        );
    }
    emit_observability(&obs, &count)?;
    Ok(EXIT_OK)
}

fn cmd_templates() {
    for named in NamedTemplate::all() {
        let t = named.template();
        println!("== {} ({} vertices) ==", named.name(), t.size());
        print!("{}", fascia_template::named::ascii_art(&t));
    }
}
