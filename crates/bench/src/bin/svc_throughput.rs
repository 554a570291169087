//! `svc_throughput` — queue throughput of the resident counting service.
//!
//! Measures jobs/second through [`fascia_svc::Service`] end to end
//! (spool submit → supervised run → durable result), once clean and once
//! under a probabilistic chaos schedule, so the supervision overhead and
//! the cost of fault-driven retries are both visible. The shared graph
//! pool is the point of residency: all jobs hit one CSR instance, and
//! the report prints the measured pool hit count.
//!
//! ```text
//! svc_throughput [--jobs N] [--iters N] [--reps N] [--template T] [--chaos SPEC]
//! ```
//!
//! With `FASCIA_PERF_APPEND=<path>` set, the measured repetitions are
//! also appended as a one-line `fascia-perf/1` document (benchmarks
//! `svc_throughput/clean` and `svc_throughput/chaos`, seconds per batch),
//! the same JSON-lines contract the criterion shim uses — so queue
//! throughput is a pinned perf axis that `perf compare` can diff and
//! `BENCH_<date>.json` can archive.

use fascia_bench::perf::{PerfDoc, PerfRecord, DEFAULT_THRESHOLD};
use fascia_core::chaos::ChaosSpec;
use fascia_svc::supervisor::SupervisorConfig;
use fascia_svc::{BackoffPolicy, JobSpec, MonotonicClock, Service, ServiceConfig};
use std::io::Write as _;
use std::time::{Duration, Instant};

struct Opts {
    jobs: usize,
    iters: usize,
    reps: usize,
    template: String,
    chaos: String,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        jobs: 32,
        iters: 8,
        reps: 1,
        template: "path4".to_string(),
        chaos: "seed=9,panic=0.05,io_ckpt=0.1,io_result=0.05".to_string(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--jobs" => opts.jobs = value(i)?.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--iters" => opts.iters = value(i)?.parse().map_err(|e| format!("--iters: {e}"))?,
            "--reps" => opts.reps = value(i)?.parse().map_err(|e| format!("--reps: {e}"))?,
            "--template" => opts.template = value(i)?.clone(),
            "--chaos" => opts.chaos = value(i)?.clone(),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if opts.reps == 0 {
        return Err("--reps must be ≥ 1".to_string());
    }
    Ok(opts)
}

fn run_batch(opts: &Opts, chaos: Option<ChaosSpec>) -> Result<(Duration, String), String> {
    let tag = if chaos.is_some() { "chaos" } else { "clean" };
    let root = std::env::temp_dir().join(format!("fascia-svc-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let svc = Service::open(
        &root,
        ServiceConfig {
            supervisor: SupervisorConfig {
                backoff: BackoffPolicy {
                    base: Duration::from_millis(2),
                    cap: Duration::from_millis(20),
                    ..BackoffPolicy::default()
                },
                poll: Duration::from_millis(2),
                ..SupervisorConfig::default()
            },
            once: true,
            chaos,
        },
    )
    .map_err(|e| format!("cannot open spool: {e}"))?;
    for i in 0..opts.jobs {
        let mut spec = JobSpec::new(&format!("bench-{i:04}"), "circuit", &opts.template);
        spec.iterations = opts.iters;
        spec.seed = 0xBE7C_u64 + i as u64;
        svc.spool()
            .submit(&spec.id, &spec.to_json())
            .map_err(|e| format!("submit: {e}"))?;
    }
    let t0 = Instant::now();
    let summary = svc.run(&MonotonicClock, None);
    let elapsed = t0.elapsed();
    let terminal = summary.completed + summary.partial + summary.failed;
    if terminal != opts.jobs {
        return Err(format!(
            "{tag}: {terminal} terminal results for {} jobs",
            opts.jobs
        ));
    }
    let line = format!(
        "{tag:<6} {:>5} jobs  {:>8.2} jobs/s  completed {:>4}  partial {:>3}  failed {:>3}  \
         attempts {:>4}  pool-hits {:>4}  chaos-events {:>4}  wall {:>7.2?}",
        opts.jobs,
        opts.jobs as f64 / elapsed.as_secs_f64(),
        summary.completed,
        summary.partial,
        summary.failed,
        summary.attempts,
        summary.pool_hits,
        summary.chaos_events,
        elapsed,
    );
    let _ = std::fs::remove_dir_all(&root);
    Ok((elapsed, line))
}

/// Appends the measured batches to `FASCIA_PERF_APPEND` (when set) as a
/// one-line `fascia-perf/1` document, mirroring the criterion shim's
/// JSON-lines append contract.
fn append_perf_records(reps: &[(&'static str, Vec<f64>)]) -> Result<(), String> {
    let Some(path) = std::env::var_os("FASCIA_PERF_APPEND") else {
        return Ok(());
    };
    let mut doc = PerfDoc::new_now();
    for (tag, reps_s) in reps {
        doc.benchmarks.insert(
            format!("svc_throughput/{tag}"),
            PerfRecord {
                warmup: 0,
                threshold: DEFAULT_THRESHOLD,
                peak_table_bytes: 0,
                reps_s: reps_s.clone(),
            },
        );
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("cannot open {}: {e}", path.to_string_lossy()))?;
    writeln!(f, "{}", doc.to_json()).map_err(|e| format!("perf append: {e}"))?;
    eprintln!(
        "svc_throughput: appended fascia-perf/1 record to {}",
        path.to_string_lossy()
    );
    Ok(())
}

fn main() -> std::process::ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("svc_throughput: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let chaos = match opts.chaos.parse::<ChaosSpec>() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("svc_throughput: --chaos: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    println!(
        "service throughput: {} jobs x {} iterations of {} on circuit, {} rep(s)",
        opts.jobs, opts.iters, opts.template, opts.reps
    );
    let mut measured: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for (tag, spec) in [("clean", None), ("chaos", Some(chaos))] {
        let mut reps_s = Vec::with_capacity(opts.reps);
        for rep in 0..opts.reps {
            match run_batch(&opts, spec.clone()) {
                Ok((elapsed, line)) => {
                    if rep == 0 {
                        println!("{line}");
                    }
                    reps_s.push(elapsed.as_secs_f64());
                }
                Err(e) => {
                    eprintln!("svc_throughput: {e}");
                    return std::process::ExitCode::from(1);
                }
            }
        }
        measured.push((tag, reps_s));
    }
    if let Err(e) = append_perf_records(&measured) {
        eprintln!("svc_throughput: {e}");
        return std::process::ExitCode::from(1);
    }
    std::process::ExitCode::SUCCESS
}
