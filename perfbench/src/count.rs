//! The three in-process counting workloads: `portland-u12`,
//! `road-u12-hash` and `gdd-slashdot`. Each times whole calls into
//! `count_template` / `rooted_counts` and checks every result.

use crate::layers::{self, Layers, Registry};
use crate::procfs::{self, ProcStat};
use crate::stats::{median, normal_p95, percentile};
use crate::{ms, Args, Metric, Outcome, DEFAULT_SEED, SCALE};
use fascia_core::coloring::splitmix64;
use fascia_core::engine::{count_template, rooted_counts, CountConfig};
use fascia_core::parallel::{with_threads, ParallelMode};
use fascia_graph::{Dataset, Graph};
use fascia_obs::Metrics;
use fascia_table::TableKind;
use fascia_template::{NamedTemplate, Template};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Graph set-ups per run: at least `SETUP_MIN`, more while they have taken
/// less than `SETUP_SECONDS`, at most `SETUP_MAX`; `setup_s` is their
/// median, so a millisecond build is still measured steadily.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 40;
const SETUP_SECONDS: f64 = 2.0;

/// How one workload counts.
#[derive(Debug, Clone, Copy)]
struct Spec {
    dataset: Dataset,
    template: NamedTemplate,
    /// Rooted (per-vertex) counting for this orbit instead of a total.
    orbit: Option<u8>,
    run: Engine,
    /// Distinct coloring seeds the timed calls cycle through; each has a
    /// pinned reference for the default seed.
    cycle: usize,
    /// A differently configured engine that must agree bitwise on one
    /// iteration.
    alt: Engine,
}

/// Layout, threading and iterations of one call.
#[derive(Debug, Clone, Copy)]
struct Engine {
    table: TableKind,
    mode: ParallelMode,
    threads: usize,
    iterations: usize,
}

const fn engine(table: TableKind, mode: ParallelMode, threads: usize, iterations: usize) -> Engine {
    Engine {
        table,
        mode,
        threads,
        iterations,
    }
}

fn spec(workload: &str) -> Spec {
    match workload {
        "portland-u12" => Spec {
            dataset: Dataset::Portland,
            template: NamedTemplate::U12_2,
            orbit: None,
            run: engine(TableKind::Lazy, ParallelMode::Serial, 1, 1),
            cycle: 4,
            alt: engine(TableKind::Lazy, ParallelMode::InnerLoop, 2, 1),
        },
        "road-u12-hash" => Spec {
            dataset: Dataset::PaRoad,
            template: NamedTemplate::U12_1,
            orbit: None,
            run: engine(TableKind::Hash, ParallelMode::InnerLoop, 2, 1),
            cycle: 8,
            alt: engine(TableKind::Lazy, ParallelMode::Serial, 1, 1),
        },
        "gdd-slashdot" => Spec {
            dataset: Dataset::Slashdot,
            template: NamedTemplate::U5_2,
            orbit: NamedTemplate::U5_2.central_orbit(),
            run: engine(TableKind::Lazy, ParallelMode::OuterLoop, 2, 40),
            cycle: 8,
            alt: engine(TableKind::Lazy, ParallelMode::Serial, 1, 1),
        },
        other => unreachable!("not a counting workload: {other}"),
    }
}

fn table_name(t: TableKind) -> &'static str {
    match t {
        TableKind::Dense => "naive",
        TableKind::Lazy => "improved",
        TableKind::Hash => "hash",
    }
}

/// Seed of the stand-in graph. It is the same for every run seed, as the
/// paper's inputs are fixed networks, so `setup_s` and the table sizes do
/// not move with the seed; the run seed draws the colorings.
fn graph_seed() -> u64 {
    splitmix64(DEFAULT_SEED ^ 0x6A09_E667_F3BC_C908)
}

/// Coloring seed of call `i` (cycling through `cycle` seeds).
fn call_seed(seed: u64, i: usize, cycle: usize) -> u64 {
    splitmix64(seed.wrapping_mul(0x1_0000).wrapping_add((i % cycle) as u64))
}

/// What one call produced: a fingerprint of its output bits, and
/// accounting.
#[derive(Debug, Clone, Copy)]
struct CallOut {
    /// Bits of the estimate, or FNV-1a over the bits of every per-vertex
    /// rooted count.
    fingerprint: u64,
    iterations: usize,
    peak_table_bytes: usize,
    partial: bool,
}

fn fnv1a(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn call(
    g: &Graph,
    t: &Template,
    spec: &Spec,
    e: Engine,
    seed: u64,
    metrics: Option<Arc<Metrics>>,
) -> Result<CallOut, String> {
    let cfg = CountConfig {
        iterations: e.iterations,
        table: e.table,
        parallel: e.mode,
        seed,
        metrics,
        ..CountConfig::default()
    };
    with_threads(e.threads, || match spec.orbit {
        Some(orbit) => rooted_counts(g, t, orbit, &cfg).map(|r| CallOut {
            fingerprint: fnv1a(&r.per_vertex),
            iterations: e.iterations,
            peak_table_bytes: 0,
            partial: r.stop_cause.is_partial(),
        }),
        None => count_template(g, t, &cfg).map(|r| CallOut {
            fingerprint: r.estimate.to_bits(),
            iterations: r.iterations_run,
            peak_table_bytes: r.peak_table_bytes,
            partial: r.stop_cause.is_partial(),
        }),
    })
    .map_err(|e| e.to_string())
}

/// One timed call.
struct Call {
    index: usize,
    wall: Duration,
    /// `VmHWM` over the call alone; `None` when the kernel would not reset
    /// the high-water mark before it.
    peak_rss: Option<u64>,
    out: Result<CallOut, String>,
}

/// A stretch of back-to-back timed calls.
struct Phase {
    calls: Vec<Call>,
    wall: Duration,
    stat: ProcStat,
}

impl Phase {
    fn iters_per_s(&self) -> Vec<f64> {
        self.calls
            .iter()
            .filter_map(|c| {
                let o = c.out.as_ref().ok()?;
                Some(o.iterations as f64 / c.wall.as_secs_f64())
            })
            .collect()
    }

    fn iterations(&self) -> usize {
        self.calls
            .iter()
            .filter_map(|c| c.out.as_ref().ok().map(|o| o.iterations))
            .sum()
    }
}

struct Ctx<'a> {
    args: &'a Args,
    spec: Spec,
    graph: Graph,
    template: Template,
}

impl Ctx<'_> {
    /// Call number `index`, timed, as a child of span `parent`.
    fn call_at(
        &self,
        index: usize,
        metrics: Option<&Arc<Metrics>>,
        parent: Option<usize>,
        out: &mut Outcome,
    ) -> Call {
        let seed = call_seed(self.args.seed, index, self.spec.cycle);
        let name = if self.spec.orbit.is_some() {
            "core.rooted"
        } else {
            "core.count"
        };
        let reset = procfs::reset_peak_rss();
        let start = Instant::now();
        let (res, _) = out.spans.time(name, parent, index as u64, || {
            call(
                &self.graph,
                &self.template,
                &self.spec,
                self.spec.run,
                seed,
                metrics.cloned(),
            )
        });
        let wall = start.elapsed();
        Call {
            index,
            wall,
            peak_rss: procfs::peak_rss_bytes(None).filter(|_| reset),
            out: res,
        }
    }

    /// Call 0, outside the timed phases. The first call pays one-off costs
    /// (worker threads, the allocator's first growth) that made it up to
    /// 35% slower than the median call on `road-u12-hash`, and the slowest
    /// call of the run. Its output is checked like any other call.
    fn warm_up(&self, out: &mut Outcome) -> Call {
        let parent = out.spans.open("calls.warmup", None, 0);
        let c = self.call_at(0, None, parent, out);
        out.spans.close(parent);
        c
    }

    /// Calls back to back, starting at call index `first`, while the next
    /// call is expected to end within `budget` (at least one call).
    fn phase(
        &self,
        first: usize,
        budget: Duration,
        metrics: Option<&Arc<Metrics>>,
        out: &mut Outcome,
    ) -> Phase {
        let label = if metrics.is_some() {
            "calls.traced"
        } else {
            "calls.untraced"
        };
        let parent = out.spans.open(label, None, 0);
        let stat0 = procfs::read_stat(None).unwrap_or_default();
        let t0 = Instant::now();
        let mut calls: Vec<Call> = Vec::new();
        loop {
            let c = self.call_at(first + calls.len(), metrics, parent, out);
            let wall = c.wall;
            calls.push(c);
            if t0.elapsed() + wall > budget {
                break;
            }
        }
        let wall = t0.elapsed();
        let stat = procfs::read_stat(None).unwrap_or_default().since(&stat0);
        out.spans.close(parent);
        Phase { calls, wall, stat }
    }
}

fn references(workload: &str) -> Vec<(usize, u64)> {
    include_str!("../reference.txt")
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            (f.next()? == workload).then_some(())?;
            let idx = f.next()?.parse().ok()?;
            let bits = u64::from_str_radix(f.next()?, 16).ok()?;
            Some((idx, bits))
        })
        .collect()
}

/// Checks every call: no error, no partial stop, the pinned reference for
/// the default seed, and equality with the first call of the same seed.
fn check(calls: &[&Call], spec: &Spec, workload: &str, seed: u64, out: &mut Outcome) {
    let pinned: HashMap<usize, u64> = if seed == DEFAULT_SEED {
        references(workload).into_iter().collect()
    } else {
        HashMap::new()
    };
    let mut first: HashMap<usize, u64> = HashMap::new();
    for c in calls {
        out.attempted += 1;
        let slot = c.index % spec.cycle;
        match &c.out {
            Err(e) => out.fail(format!("call {} returned an error: {e}", c.index)),
            Ok(o) if o.partial => out.fail(format!("call {} stopped partial", c.index)),
            Ok(o) => {
                if seed == DEFAULT_SEED && pinned.get(&slot) != Some(&o.fingerprint) {
                    out.fail(format!(
                        "call {} output {:016x} differs from the pinned reference {:?}",
                        c.index,
                        o.fingerprint,
                        pinned.get(&slot).map(|b| format!("{b:016x}"))
                    ));
                } else if *first.entry(slot).or_insert(o.fingerprint) != o.fingerprint {
                    out.fail(format!("call {} is not deterministic in its seed", c.index));
                }
            }
        }
    }
}

/// Runs one counting workload.
pub fn run(args: &Args, workload: &str) -> Result<Outcome, String> {
    let spec = spec(workload);
    let mut out = Outcome::new(args.trace);

    // Set-up: build the stand-in graph several times; keep the last.
    let setup_span = out.spans.open("setup", None, 0);
    let mut setups: Vec<f64> = Vec::new();
    let mut graph = None;
    while setups.len() < SETUP_MIN
        || (setups.len() < SETUP_MAX && setups.iter().sum::<f64>() < SETUP_SECONDS)
    {
        let r = setups.len();
        let t = Instant::now();
        let (g, _) = out.spans.time("graph.build", setup_span, r as u64, || {
            spec.dataset.generate(SCALE, graph_seed())
        });
        setups.push(t.elapsed().as_secs_f64());
        graph = Some(g);
    }
    out.spans.close(setup_span);
    let graph = graph.expect("at least one set-up");
    let template = spec.template.template();
    let k = template.size();
    let ctx = Ctx {
        args,
        spec,
        graph,
        template,
    };

    // Untraced calls give the end-to-end numbers; a traced run spends half
    // its time on them and half on calls with the engine registry attached.
    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let warm = ctx.warm_up(&mut out);
    let plain = ctx.phase(1, budget, None, &mut out);
    // The high-water mark of one call swings with how the allocator's
    // per-thread arenas happened to fill, so the run reports the median
    // call's; where the kernel cannot reset the mark, the process's.
    let call_peaks: Vec<f64> = plain
        .calls
        .iter()
        .filter_map(|c| c.peak_rss.map(|b| b as f64))
        .collect();
    let (peak_rss, peak_rss_n, peak_rss_note) = if call_peaks.len() == plain.calls.len() {
        (
            median(&call_peaks).unwrap_or(0.0),
            call_peaks.len(),
            "median over timed calls of VmHWM, reset before each",
        )
    } else {
        (
            procfs::peak_rss_bytes(None).unwrap_or(0) as f64,
            1,
            "VmHWM of this process (the kernel refused a reset)",
        )
    };
    let registry = Arc::new(Metrics::new());
    let traced = args
        .trace
        .then(|| ctx.phase(1 + plain.calls.len(), budget, Some(&registry), &mut out));

    // Output checks, outside the timed region.
    let check_span = out.spans.open("check", None, 0);
    let all: Vec<&Call> = std::iter::once(&warm)
        .chain(&plain.calls)
        .chain(traced.iter().flat_map(|p| &p.calls))
        .collect();
    check(&all, &spec, workload, args.seed, &mut out);
    let seed0 = call_seed(args.seed, 0, spec.cycle);
    let one = Engine {
        iterations: 1,
        ..spec.run
    };
    let primary = if spec.run.iterations == 1 {
        warm.out.clone()
    } else {
        call(&ctx.graph, &ctx.template, &spec, one, seed0, None)
    };
    // The alternative run carries its own registry: for rooted counts its
    // table gauge is the only report of DP table bytes.
    let alt_registry = Arc::new(Metrics::new());
    let (alt, _) = out.spans.time("core.alt", check_span, 0, || {
        call(
            &ctx.graph,
            &ctx.template,
            &spec,
            spec.alt,
            seed0,
            Some(alt_registry.clone()),
        )
    });
    match (&primary, &alt) {
        (Ok(p), Ok(a)) if p.fingerprint == a.fingerprint => {}
        _ => out.fail(format!(
            "first iteration disagrees between {} {} and {} {}: {:?} vs {:?}",
            table_name(spec.run.table),
            spec.run.mode.name(),
            table_name(spec.alt.table),
            spec.alt.mode.name(),
            primary.map(|o| o.fingerprint),
            alt.map(|o| o.fingerprint)
        )),
    }

    out.spans.close(check_span);
    let peak_table = match spec.orbit {
        Some(_) => alt_registry.gauge("table.bytes.peak").get() as usize,
        None => all
            .iter()
            .filter_map(|c| c.out.as_ref().ok().map(|o| o.peak_table_bytes))
            .max()
            .unwrap_or(0),
    };
    let g = &ctx.graph;
    let csr_bytes = layers::csr_bytes(g);
    out.working_set_bytes = (peak_table + csr_bytes) as u64;
    out.inputs.push(format!(
        "{{\"graph\":\"{}\",\"n\":{},\"m\":{},\"max_degree\":{},\"template\":\"{}\",\"k\":{k},\
         \"orbit\":{},\"layout\":\"{}\",\"mode\":\"{}\",\"threads\":{},\"iterations_per_call\":{}}}",
        spec.dataset.spec().name,
        g.num_vertices(),
        g.num_edges(),
        g.max_degree(),
        spec.template.name(),
        spec.orbit.map_or("null".to_string(), |o| o.to_string()),
        table_name(spec.run.table),
        spec.run.mode.name(),
        spec.run.threads,
        spec.run.iterations
    ));

    out.notes.push(format!(
        "graph builds (ms): {}",
        setups
            .iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let walls: Vec<f64> = plain.calls.iter().map(|c| ms(c.wall)).collect();
    out.notes.push(format!(
        "untraced call VmHWM (MB): {}",
        call_peaks
            .iter()
            .map(|b| format!("{:.1}", b / 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.notes.push(format!(
        "warm-up call {:.1} ms; untraced call latencies (ms): {}; CPU user {:.2} s, sys {:.2} s, {} minor faults",
        ms(warm.wall),
        walls
            .iter()
            .map(|w| format!("{w:.1}"))
            .collect::<Vec<_>>()
            .join(" "),
        plain.stat.utime as f64 / 100.0,
        plain.stat.stime as f64 / 100.0,
        plain.stat.minflt
    ));
    let ips = plain.iters_per_s();
    let calls = plain.calls.len();
    // A run holds 5 to 20 calls, so the nearest-rank p95 is the slowest
    // one, and on a shared host that spread by more than 25% from run to
    // run. The normal-model estimate follows the spread of all calls.
    let p95_note = format!(
        "median + 1.645 sigma, sigma from neighbouring calls' differences; the slowest call was {:.1} ms",
        percentile(&walls, 100.0).unwrap_or(0.0)
    );
    out.e2e = vec![
        Metric::new(
            "setup_s",
            median(&setups).unwrap_or(0.0),
            "s",
            setups.len(),
            "median graph build",
        ),
        Metric::new(
            "iters_per_s",
            median(&ips).unwrap_or(0.0),
            "iter/s",
            ips.len(),
            "median over timed calls",
        ),
        Metric::new(
            "peak_table_mb",
            peak_table as f64 / 1e6,
            "MB",
            all.len(),
            if spec.orbit.is_some() {
                "table.bytes.peak of one serial iteration"
            } else {
                "max CountResult::peak_table_bytes"
            },
        ),
        Metric::new(
            "peak_rss_mb",
            peak_rss / 1e6,
            "MB",
            peak_rss_n,
            peak_rss_note,
        ),
        Metric::new(
            "job_p50_ms",
            median(&walls).unwrap_or(0.0),
            "ms",
            calls,
            "median call latency",
        ),
        Metric::new(
            "job_p95_ms",
            normal_p95(&walls).unwrap_or(0.0),
            "ms",
            calls,
            p95_note,
        ),
    ];

    if let Some(traced) = traced {
        let mut l = Layers::default();
        l.set(
            "graph.build_s",
            median(&setups).unwrap_or(0.0),
            setups.len(),
            "Dataset::generate",
        );
        l.set(
            "graph.csr_mb",
            csr_bytes as f64 / 1e6,
            1,
            "computed (n+1)*8 + 2m*4 bytes",
        );
        let probes = out.spans.open("probes", None, 0);
        let (part_us, split_ms, split_mb, color_ms) = layers::probe_static(
            &ctx.template,
            spec.orbit,
            g.num_vertices(),
            k,
            seed0,
            &mut out.spans,
            probes,
        );
        out.spans.close(probes);
        l.set("partition.build_us", part_us, 9, "PartitionTree::build");
        l.set(
            "combin.split_build_ms",
            split_ms,
            3,
            "BinomialTable + SplitTable + PositionSplitTable",
        );
        l.set(
            "combin.split_mb",
            split_mb,
            1,
            "SplitTable + PositionSplitTable bytes",
        );
        l.set(
            "coloring.ms_per_iter",
            color_ms,
            5,
            "random_coloring(n, k, seed)",
        );
        let reg_json = registry.to_json();
        if let Some(reg) = Registry::parse(&reg_json) {
            let shard = match spec.run.mode {
                ParallelMode::OuterLoop => "engine.iterations.total",
                _ => "cut.roots.visited",
            };
            layers::engine_layers(&reg, shard, &mut l);
        }
        out.registry_json = Some(reg_json);
        let iters = plain.iterations().max(1) as f64;
        l.set(
            "mem.minor_faults_per_iter",
            plain.stat.minflt as f64 / iters,
            plain.iterations(),
            "/proc/self/stat minflt over untraced calls",
        );
        l.set(
            "cpu.sys_frac",
            plain.stat.sys_frac(),
            calls,
            "stime / (utime + stime)",
        );
        l.set(
            "parallel.cpu_util",
            plain.stat.cpu_s() / (plain.wall.as_secs_f64() * spec.run.threads as f64),
            calls,
            format!("CPU s / (wall s x {} threads)", spec.run.threads),
        );
        let traced_ips = median(&traced.iters_per_s()).unwrap_or(0.0);
        let plain_ips = median(&ips).unwrap_or(0.0);
        l.set(
            "trace.overhead_frac",
            1.0 - traced_ips / plain_ips.max(f64::MIN_POSITIVE),
            traced.calls.len(),
            format!("traced {traced_ips:.4} vs untraced {plain_ips:.4} iter/s"),
        );
        out.layers = l.finish(|name| {
            if name.starts_with("hash.") {
                format!(
                    "the {} layout makes no hash inserts",
                    table_name(spec.run.table)
                )
            } else {
                "measured on svc-stream only".to_string()
            }
        });
    }
    Ok(out)
}

/// Prints the pinned references of every counting workload at the default
/// seed, in `reference.txt` format.
pub fn bless() -> Result<(), String> {
    for workload in ["portland-u12", "road-u12-hash", "gdd-slashdot"] {
        let spec = spec(workload);
        let graph = spec.dataset.generate(SCALE, graph_seed());
        let template = spec.template.template();
        for i in 0..spec.cycle {
            let seed = call_seed(DEFAULT_SEED, i, spec.cycle);
            let o = call(&graph, &template, &spec, spec.run, seed, None)?;
            println!("{workload} {i} {:016x}", o.fingerprint);
        }
    }
    Ok(())
}
