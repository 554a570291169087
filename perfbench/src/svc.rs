//! `svc-stream`: an open-loop Poisson stream of small counting jobs into
//! the release `fascia serve` daemon, run with its default flags plus an
//! admin address. A job's latency runs from its due time until its result
//! file is visible in `results/`; every result is checked against a direct
//! `count_template` of the same spec.

use crate::join::{join, JobObs};
use crate::layers::{self, Layers, Registry};
use crate::procfs::{self, ProcStat};
use crate::schedule::{poisson, Arrival};
use crate::stats::{median, percentile, tail};
use crate::{ms, sleep_until, Args, Metric, Outcome};
use fascia_core::coloring::splitmix64;
use fascia_core::engine::{count_template, CountConfig};
use fascia_core::parallel::ParallelMode;
use fascia_core::resilience::Json;
use fascia_graph::io::write_edge_list;
use fascia_graph::{Dataset, Graph};
use fascia_obs::Metrics;
use fascia_svc::events::read_events;
use fascia_svc::{GraphPool, JobReport, JobSpec, JobStatus, Spool};
use fascia_table::TableKind;
use fascia_template::NamedTemplate;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Offered load in jobs per second: a little under half of what the daemon
/// drains on a 2-core host when its queue never empties (see DESIGN.md).
pub const RATE_PER_S: f64 = 15.0;
/// Fewest jobs per run, so that p95 has at least ten samples beyond it.
const MIN_JOBS: usize = 200;
/// Color-coding iterations per job.
const ITERATIONS: usize = 8;
/// Edge-list files the stream counts on: small protein networks, so the
/// daemon's fixed costs dominate rather than counting.
const FILES: [(Dataset, &str); 3] = [
    (Dataset::HPylori, "hpylori"),
    (Dataset::EColi, "ecoli"),
    (Dataset::SCerevisiae, "yeast"),
];
const TEMPLATES: [NamedTemplate; 4] = [
    NamedTemplate::U5_1,
    NamedTemplate::U5_2,
    NamedTemplate::U7_1,
    NamedTemplate::U7_2,
];
/// Distinct coloring seeds per stream (results repeat, so each distinct
/// spec is counted directly once).
const SEEDS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// How long to wait for stragglers after the last job was due.
const DRAIN: Duration = Duration::from_secs(60);
/// A generator later than this at p95 did not follow its schedule, and the
/// run is invalid.
const MAX_LATE_P95_MS: f64 = 100.0;

/// glibc's starting mmap threshold (128 KiB), pinned for the daemon. Left
/// to adapt, glibc raises it the first time a large block is freed, and from
/// then on frees DP tables into heaps it keeps: the daemon's `VmHWM` read
/// 12 or 18 MB at random from run to run. Pinned, it reads ≈7.9 MB, its
/// live memory.
const MMAP_THRESHOLD: &str = "131072";

/// The `fascia serve` child process. Dropping it kills and reaps it.
struct Daemon {
    child: Child,
    spool: PathBuf,
}

impl Daemon {
    /// Starts the daemon on `spool` and waits until its admin address is
    /// published.
    fn start(fascia: &Path, spool: &Path) -> Result<Self, String> {
        let child = Command::new(fascia)
            .arg("serve")
            .arg("--spool")
            .arg(spool)
            .args(["--admin-addr", "127.0.0.1:0"])
            .env("MALLOC_MMAP_THRESHOLD_", MMAP_THRESHOLD)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", fascia.display()))?;
        let mut d = Daemon {
            child,
            spool: spool.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while !spool.join("admin.addr").exists() {
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("fascia serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("fascia serve did not publish admin.addr within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Let the atomic rename settle before anyone reads the address.
        d.admin_addr()?;
        Ok(d)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn admin_addr(&self) -> Result<String, String> {
        std::fs::read_to_string(self.spool.join("admin.addr"))
            .map(|s| s.trim().to_string())
            .map_err(|e| format!("admin.addr: {e}"))
    }

    /// Stops the daemon with SIGTERM (it drains and prints its summary),
    /// killing it if it has not exited within ten seconds. Returns stdout.
    fn stop(mut self) -> Result<String, String> {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        let pid = i32::try_from(self.pid()).map_err(|_| "pid out of range".to_string())?;
        // SAFETY: kill(2) takes two integers and touches no memory of ours.
        // The child has not been reaped yet, so its pid cannot name another
        // process.
        unsafe {
            kill(pid, SIGTERM);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("fascia serve ignored SIGTERM for 10 s and was killed".into());
                }
            }
        }
        let mut out = String::new();
        if let Some(mut s) = self.child.stdout.take() {
            s.read_to_string(&mut out)
                .map_err(|e| format!("daemon stdout: {e}"))?;
        }
        Ok(out)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One set-up: the edge-list files and a started daemon.
struct Setup {
    daemon: Daemon,
    files: Vec<PathBuf>,
    /// Seconds spent generating the graphs.
    build_s: f64,
}

fn setup(args: &Args, rep: usize) -> Result<Setup, String> {
    let dir = args.work.join(format!("svc-seed{}-r{rep}", args.seed));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir.join("graphs")).map_err(|e| format!("{}: {e}", dir.display()))?;
    let dir = dir
        .canonicalize()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let t = Instant::now();
    let mut files = Vec::new();
    for (i, (dataset, name)) in FILES.iter().enumerate() {
        // Fixed graph seeds: generating these stand-ins takes a
        // seed-dependent number of bisection rounds, which would make
        // `setup_s` vary by seed. The run seed drives the stream instead.
        let g = dataset.generate(1, 0xF11E + i as u64);
        let path = dir.join("graphs").join(format!("{name}.txt"));
        write_edge_list(&g, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        files.push(path);
    }
    let build_s = t.elapsed().as_secs_f64();
    let daemon = Daemon::start(&args.fascia, &dir.join("spool"))?;
    Ok(Setup {
        daemon,
        files,
        build_s,
    })
}

fn job_id(i: usize) -> String {
    format!("job-{i:05}")
}

fn job_seed(seed: u64, slot: usize) -> u64 {
    splitmix64(seed.wrapping_mul(31).wrapping_add(slot as u64))
}

fn now_unix_ms() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64() * 1e3)
}

/// What the generator and the result watcher saw.
struct Stream {
    /// When the stream started, on both clocks.
    t0: Instant,
    wall0_ms: f64,
    late_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    submit_errors: Vec<Option<String>>,
    /// When each result became visible.
    durable: Vec<Option<Instant>>,
}

/// Sends every job when due and watches `results/` until each result is
/// visible or the drain time is up.
fn stream(spool: &Spool, jobs: &[(Arrival, String)], out: &mut Outcome) -> Stream {
    let submitted = AtomicUsize::new(0);
    let last_due = jobs.last().map_or(Duration::ZERO, |j| j.0.due);
    let t0 = Instant::now();
    let wall0_ms = now_unix_ms();
    let mut late_ms = Vec::with_capacity(jobs.len());
    let mut submit_ms = Vec::with_capacity(jobs.len());
    let mut submit_errors = Vec::with_capacity(jobs.len());
    let durable = std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let mut seen: Vec<Option<Instant>> = vec![None; jobs.len()];
            let mut lo = 0;
            let deadline = t0 + last_due + DRAIN;
            while lo < jobs.len() && Instant::now() < deadline {
                let hi = submitted.load(Ordering::Acquire);
                for (i, slot) in seen.iter_mut().enumerate().take(hi).skip(lo) {
                    if slot.is_none() && spool.has_result(&job_id(i)) {
                        *slot = Some(Instant::now());
                    }
                }
                while lo < hi && seen[lo].is_some() {
                    lo += 1;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            seen
        });
        for (i, (arrival, json)) in jobs.iter().enumerate() {
            let due = t0 + arrival.due;
            sleep_until(due);
            let start = Instant::now();
            let res = spool.submit(&job_id(i), json);
            let end = Instant::now();
            submitted.store(i + 1, Ordering::Release);
            late_ms.push(ms(start.saturating_duration_since(due)));
            submit_ms.push(ms(end - start));
            submit_errors.push(res.err().map(|e| e.to_string()));
            let (a, b) = (out.spans.at(start), out.spans.at(end));
            out.spans.push("spool.submit", a, b, None, i as u64);
        }
        watcher.join().expect("the result watcher does not panic")
    });
    Stream {
        t0,
        wall0_ms,
        late_ms,
        submit_ms,
        submit_errors,
        durable,
    }
}

/// The daemon's own mean `svc.queue.wait_ms`, scraped from its admin
/// `/metrics` endpoint.
fn daemon_queue_wait_ms(addr: &str) -> Option<f64> {
    let mut conn = std::net::TcpStream::connect(addr).ok()?;
    conn.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    conn.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
        .ok()?;
    let mut body = String::new();
    conn.read_to_string(&mut body).ok()?;
    let value = |key: &str| {
        body.lines()
            .find_map(|l| l.strip_prefix(key)?.trim().parse::<f64>().ok())
    };
    let (sum, count) = (
        value("svc_queue_wait_ms_sum ")?,
        value("svc_queue_wait_ms_count ")?,
    );
    (count > 0.0).then(|| sum / count)
}

/// One job spec's direct count: estimate bits, peak table bytes, wall.
#[derive(Clone, Copy)]
struct Direct {
    bits: u64,
    peak_table_bytes: usize,
    wall_ms: f64,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::new(args.trace);

    // Set-up, several times; the last daemon serves the stream.
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let span = out.spans.open("setup", None, rep as u64);
        let t = Instant::now();
        let s = setup(args, rep)?;
        setup_s.push(t.elapsed().as_secs_f64());
        build_s.push(s.build_s);
        out.spans.close(span);
        // Dropping an earlier set-up kills its daemon.
        last = Some(s);
    }
    out.notes.push(format!(
        "set-ups (ms): {}",
        setup_s
            .iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let Setup { daemon, files, .. } = last.expect("at least one set-up");
    let spool = Spool::open(&daemon.spool).map_err(|e| format!("spool: {e}"))?;
    let admin = daemon.admin_addr()?;

    // A cold load of each file through a pool of our own: what a pool miss
    // costs the daemon.
    let pool = GraphPool::new(None);
    let mut miss_ms = Vec::new();
    let mut graphs: Vec<Arc<Graph>> = Vec::new();
    for f in &files {
        let t = Instant::now();
        let (g, _) = out
            .spans
            .time("pool.get", None, 0, || pool.get(&f.to_string_lossy()));
        miss_ms.push(ms(t.elapsed()));
        graphs.push(g.map_err(|e| format!("loading {}: {e}", f.display()))?);
    }

    let n_jobs = MIN_JOBS.max((RATE_PER_S * args.seconds).ceil() as usize);
    let schedule = poisson(
        splitmix64(args.seed ^ 0x5EED),
        RATE_PER_S,
        n_jobs,
        (FILES.len(), TEMPLATES.len(), SEEDS),
    );
    let jobs: Vec<(Arrival, String)> = schedule
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let mut spec = JobSpec::new(
                &job_id(i),
                &files[a.file].to_string_lossy(),
                TEMPLATES[a.template].name(),
            );
            spec.iterations = ITERATIONS;
            spec.seed = job_seed(args.seed, a.seed);
            spec.table = TableKind::Lazy;
            spec.parallel = ParallelMode::Serial;
            (*a, spec.to_json())
        })
        .collect();

    let stat0 = procfs::read_stat(Some(daemon.pid())).unwrap_or_default();
    let st = stream(&spool, &jobs, &mut out);
    let stream_wall = st.t0.elapsed().as_secs_f64();
    let stat: ProcStat = procfs::read_stat(Some(daemon.pid()))
        .unwrap_or_default()
        .since(&stat0);
    let peak_rss = procfs::peak_rss_bytes(Some(daemon.pid())).unwrap_or(0);
    let daemon_wait = if args.trace {
        daemon_queue_wait_ms(&admin)
    } else {
        None
    };
    let summary = daemon.stop()?;

    // Output checks: every job completed with the estimate a direct count
    // of its spec gives.
    let registry = Arc::new(Metrics::new());
    let mut direct: HashMap<(usize, usize, usize), Direct> = HashMap::new();
    let mut obs = Vec::with_capacity(jobs.len());
    let mut count_ms = Vec::new();
    for (i, (a, _)) in jobs.iter().enumerate() {
        out.attempted += 1;
        let id = job_id(i);
        let key = (a.file, a.template, a.seed);
        let d = match direct.get(&key) {
            Some(d) => *d,
            None => {
                let cfg = CountConfig {
                    iterations: ITERATIONS,
                    seed: job_seed(args.seed, a.seed),
                    table: TableKind::Lazy,
                    parallel: ParallelMode::Serial,
                    metrics: args.trace.then(|| registry.clone()),
                    ..CountConfig::default()
                };
                let t = Instant::now();
                let r = count_template(&graphs[a.file], &TEMPLATES[a.template].template(), &cfg)
                    .map_err(|e| format!("direct count of {id}'s spec: {e}"))?;
                let d = Direct {
                    bits: r.estimate.to_bits(),
                    peak_table_bytes: r.peak_table_bytes,
                    wall_ms: ms(t.elapsed()),
                };
                direct.insert(key, d);
                d
            }
        };
        count_ms.push(d.wall_ms);
        let verdict = match (
            &st.submit_errors[i],
            std::fs::read_to_string(spool.result_path(&id)),
        ) {
            (Some(e), _) => Err(format!("{id}: submit failed: {e}")),
            (None, Err(e)) => Err(format!("{id}: no result: {e}")),
            (None, Ok(text)) => match JobReport::from_json(&text) {
                Err(e) => Err(format!("{id}: unreadable result: {e}")),
                Ok(r) if r.status != JobStatus::Completed => Err(format!(
                    "{id}: ended {} ({:?})",
                    r.status.name(),
                    r.error.map(|e| e.to_string())
                )),
                Ok(r) if r.estimate.map(f64::to_bits) != Some(d.bits) => Err(format!(
                    "{id}: estimate {:?} differs from the direct count {}",
                    r.estimate,
                    f64::from_bits(d.bits)
                )),
                Ok(_) => Ok(()),
            },
        };
        let ok = verdict.is_ok();
        if let Err(why) = verdict {
            out.fail(why);
        }
        obs.push(JobObs {
            id,
            due_ms: st.wall0_ms + ms(a.due),
            durable_ms: st.durable[i].map(|t| st.wall0_ms + ms(t - st.t0)),
            ok,
        });
    }
    let events = read_events(&spool.events_path());
    let times = join(&obs, &events);
    let late_p95 = percentile(&st.late_ms, 95.0).unwrap_or(0.0);
    if late_p95 > MAX_LATE_P95_MS {
        out.problems.push(format!(
            "invalid run: the generator ran {late_p95:.1} ms late at p95 (limit {MAX_LATE_P95_MS} ms)"
        ));
    }

    let latency: Vec<f64> = times.iter().map(|t| t.latency_ms).collect();
    // Open loop: delivered throughput equals the offered load until the
    // daemon falls behind, when the last results arrive late.
    let first_due_s = jobs.first().map_or(0.0, |j| j.0.due.as_secs_f64());
    let last_durable_s = st
        .durable
        .iter()
        .flatten()
        .map(|t| (*t - st.t0).as_secs_f64())
        .fold(first_due_s, f64::max);
    let collect = |f: fn(&crate::join::JobTimes) -> Option<f64>| {
        times.iter().filter_map(f).collect::<Vec<f64>>()
    };
    let attempt_ms = collect(|t| t.attempt_ms);
    let ok_iters = (obs.iter().filter(|o| o.ok).count() * ITERATIONS) as f64;
    let peak_table = direct
        .values()
        .map(|d| d.peak_table_bytes)
        .max()
        .unwrap_or(0);
    let tail_note = match tail(&latency) {
        Some((p, _)) => format!("tail rule: p{p}"),
        None => "fewer than 20 jobs".to_string(),
    };
    out.e2e = vec![
        Metric::new(
            "setup_s",
            median(&setup_s).unwrap_or(0.0),
            "s",
            SETUP_REPS,
            "median of graph files + daemon start",
        ),
        Metric::new(
            "iters_per_s",
            ok_iters / (last_durable_s - first_due_s).max(1e-9),
            "iter/s",
            jobs.len(),
            "checked iterations delivered per second, first due time to last durable result",
        ),
        Metric::new(
            "peak_table_mb",
            peak_table as f64 / 1e6,
            "MB",
            direct.len(),
            "max peak_table_bytes over the stream's specs",
        ),
        Metric::new(
            "peak_rss_mb",
            peak_rss as f64 / 1e6,
            "MB",
            1,
            "VmHWM of the daemon",
        ),
        Metric::new(
            "job_p50_ms",
            median(&latency).unwrap_or(0.0),
            "ms",
            latency.len(),
            "due time to durable result",
        ),
        Metric::new(
            "job_p95_ms",
            percentile(&latency, 95.0).unwrap_or(0.0),
            "ms",
            latency.len(),
            tail_note,
        ),
    ];

    let largest = graphs
        .iter()
        .max_by_key(|g| g.num_edges())
        .expect("three files");
    out.working_set_bytes = (peak_table + layers::csr_bytes(largest)) as u64;
    for (f, g) in files.iter().zip(&graphs) {
        out.inputs.push(format!(
            "{{\"graph\":\"{}\",\"n\":{},\"m\":{},\"max_degree\":{},\"templates\":\"U5-1 U5-2 U7-1 U7-2\",\
             \"k\":\"5 or 7\",\"layout\":\"improved\",\"mode\":\"serial\",\"threads\":1,\
             \"iterations_per_job\":{ITERATIONS},\"rate_per_s\":{RATE_PER_S},\"jobs\":{n_jobs}}}",
            f.file_name().unwrap_or_default().to_string_lossy(),
            g.num_vertices(),
            g.num_edges(),
            g.max_degree(),
        ));
    }

    if args.trace {
        // Per-job spans from the event log, joined to the due times.
        let origin_us = out.spans.at(st.t0);
        let wall_us = |wall_ms: f64| origin_us + (wall_ms - st.wall0_ms) * 1e3;
        let mut by_job: HashMap<&str, Vec<(&str, f64)>> = HashMap::new();
        for e in &events {
            by_job
                .entry(e.job.as_str())
                .or_default()
                .push((e.kind.name(), e.ts_unix_ms as f64));
        }
        for (i, o) in obs.iter().enumerate() {
            let due = wall_us(o.due_ms);
            let end = o.durable_ms.map_or(due, wall_us);
            let root = out.spans.push("svc.job", due, end, None, i as u64);
            let first = |kind: &str| {
                by_job
                    .get(o.id.as_str())?
                    .iter()
                    .find(|e| e.0 == kind)
                    .map(|e| wall_us(e.1))
            };
            let stages = [
                ("svc.queue_wait", Some(due), first("dequeued")),
                ("svc.dispatch", first("dequeued"), first("attempt-started")),
                ("svc.attempt", first("attempt-started"), first("completed")),
                ("svc.durable", first("completed"), o.durable_ms.map(wall_us)),
            ];
            for (name, a, b) in stages {
                if let (Some(a), Some(b)) = (a, b) {
                    out.spans.push(name, a, b, root, i as u64);
                }
            }
        }

        let mut l = Layers::default();
        l.set(
            "graph.build_s",
            median(&build_s).unwrap_or(0.0),
            SETUP_REPS,
            "Dataset::generate of the three files",
        );
        l.set(
            "graph.csr_mb",
            graphs.iter().map(|g| layers::csr_bytes(g)).sum::<usize>() as f64 / 1e6,
            graphs.len(),
            "computed (n+1)*8 + 2m*4 bytes, all files",
        );
        let span = out.spans.open("probes", None, 0);
        let mut probes = Vec::new();
        for (j, t) in TEMPLATES.iter().enumerate() {
            let tpl = t.template();
            probes.push(layers::probe_static(
                &tpl,
                None,
                largest.num_vertices(),
                tpl.size(),
                j as u64,
                &mut out.spans,
                span,
            ));
        }
        out.spans.close(span);
        let mean = |f: fn(&(f64, f64, f64, f64)) -> f64| {
            probes.iter().map(f).sum::<f64>() / probes.len() as f64
        };
        l.set(
            "partition.build_us",
            mean(|p| p.0),
            TEMPLATES.len(),
            "mean over the 4 templates of the median build",
        );
        l.set(
            "combin.split_build_ms",
            mean(|p| p.1),
            TEMPLATES.len(),
            "mean over the 4 templates",
        );
        l.set(
            "combin.split_mb",
            mean(|p| p.2),
            TEMPLATES.len(),
            "mean over the 4 templates",
        );
        l.set(
            "coloring.ms_per_iter",
            mean(|p| p.3),
            TEMPLATES.len(),
            "random_coloring on the largest file",
        );
        let reg_json = registry.to_json();
        if let Some(reg) = Registry::parse(&reg_json) {
            layers::engine_layers(&reg, "cut.roots.visited", &mut l);
        }
        out.registry_json = Some(reg_json);
        let iters = (jobs.len() * ITERATIONS) as f64;
        l.set(
            "mem.minor_faults_per_iter",
            stat.minflt as f64 / iters,
            jobs.len(),
            "daemon /proc/<pid>/stat minflt over the stream",
        );
        l.set(
            "cpu.sys_frac",
            stat.sys_frac(),
            jobs.len(),
            "daemon stime / (utime + stime)",
        );
        l.set(
            "parallel.cpu_util",
            stat.cpu_s() / stream_wall,
            jobs.len(),
            "daemon CPU s / stream wall s (serial jobs)",
        );
        l.set(
            "spool.submit_ms",
            median(&st.submit_ms).unwrap_or(0.0),
            st.submit_ms.len(),
            "median Spool::submit in the generator",
        );
        let wait = collect(|t| t.queue_wait_ms);
        l.set(
            "svc.queue_wait_p50_ms",
            median(&wait).unwrap_or(0.0),
            wait.len(),
            "due time to dequeued event",
        );
        l.set(
            "svc.queue_wait_p95_ms",
            percentile(&wait, 95.0).unwrap_or(0.0),
            wait.len(),
            "due time to dequeued event",
        );
        let dispatch = collect(|t| t.dispatch_ms);
        l.set(
            "svc.dispatch_ms",
            median(&dispatch).unwrap_or(0.0),
            dispatch.len(),
            "dequeued to attempt-started",
        );
        l.set(
            "svc.attempt_ms",
            median(&attempt_ms).unwrap_or(0.0),
            attempt_ms.len(),
            "attempt-started to completed",
        );
        let durable = collect(|t| t.durable_ms);
        l.set(
            "svc.durable_ms",
            median(&durable).unwrap_or(0.0),
            durable.len(),
            "completed event to result visible",
        );
        l.set(
            "svc.count_ms",
            median(&count_ms).unwrap_or(0.0),
            count_ms.len(),
            "direct count_template of each job's spec",
        );
        let attempts: u32 = times.iter().map(|t| t.attempts).sum();
        l.set(
            "svc.attempts_per_job",
            f64::from(attempts) / times.len() as f64,
            times.len(),
            "attempt-started events per job",
        );
        l.set(
            "pool.miss_ms",
            median(&miss_ms).unwrap_or(0.0),
            miss_ms.len(),
            "cold GraphPool::get per file",
        );
        let hits = Json::parse(summary.trim())
            .ok()
            .and_then(|d| Json::get(d.as_obj()?, "pool_hits").and_then(Json::as_u64));
        if let Some(h) = hits {
            l.set(
                "pool.hit_frac",
                h as f64 / jobs.len() as f64,
                jobs.len(),
                "daemon pool_hits / jobs",
            );
        }
        let late = tail(&st.late_ms).map_or(String::new(), |(p, v)| format!("p{p} = {v:.3} ms; "));
        l.set(
            "gen.late_p95_ms",
            late_p95,
            st.late_ms.len(),
            format!("{late}send time minus due time"),
        );
        out.layers = l.finish(|name| match name {
            "trace.overhead_frac" => {
                "the stream's spans come from the daemon's always-on event log".into()
            }
            "pool.hit_frac" => "the daemon printed no summary".into(),
            "hash.probe_steps_per_insert" | "hash.probe_max" => {
                "jobs use the improved layout".into()
            }
            _ => "no registry data".into(),
        });
        let job_p50 = median(&latency).unwrap_or(0.0);
        let wait_p50 = median(&wait).unwrap_or(0.0);
        out.notes.push(format!(
            "queue wait p50 {wait_p50:.1} ms is {:.0}% of job_p50_ms {job_p50:.1} ms; \
             the daemon's 500 ms idle scan sets most of it",
            100.0 * wait_p50 / job_p50.max(1e-9)
        ));
        out.notes.push(match daemon_wait {
            Some(w) => format!(
                "known defect: the daemon's own svc.queue.wait_ms reads {w:.2} ms on average, \
                 because it stamps `submitted` at dequeue for files dropped into jobs/"
            ),
            None => "the daemon's svc.queue.wait_ms could not be scraped".into(),
        });
    }
    Ok(out)
}
