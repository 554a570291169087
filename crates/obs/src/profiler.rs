//! Signal-free in-process sampling profiler.
//!
//! The metrics registry answers *how much*, the flight recorder *when* —
//! this module answers **where the nanoseconds went** without either the
//! cost of tracing every event or the platform baggage of signal-based
//! profilers (`SIGPROF` handlers, unwinders, frame pointers). The design
//! is split in two halves with very different performance budgets:
//!
//! * **Publication (hot path)**: each instrumented thread keeps a small
//!   fixed-depth stack of *current phase* frames in a per-thread
//!   `PhaseSlot`. Entering a phase is one relaxed store plus one
//!   release `fetch_add`; leaving is one release `fetch_sub`. No locks,
//!   no allocation, ever — the same discipline as the sharded counters
//!   and the trace rings. Phase names are interned up front (a short
//!   mutex, once per run) so the hot path carries a `u32` [`PhaseId`].
//! * **Sampling (watcher thread)**: [`Profiler::start`] spawns one
//!   watcher thread that wakes at a configurable period, reads every
//!   slot's published stack, and aggregates identical stacks into a
//!   sample count. All maps and locks live on the watcher side; the
//!   profiled threads never see them.
//!
//! Because samples are statistical, the occasional torn read (a frame
//! store racing the watcher's load) merely misattributes one sample —
//! it can never corrupt memory or a counting result. Threads beyond
//! [`PROFILE_SHARDS`] wrap onto shared slots, which coarsens (but never
//! breaks) attribution, exactly like the sharded counters.
//!
//! # Output
//!
//! [`Profiler::collapsed`] renders the classic collapsed-stack text
//! (`frame;frame;frame value` per line) loadable directly by
//! `inferno-flamegraph` and speedscope; values are nanoseconds
//! apportioned from the measured sampling window. [`Profiler::report`]
//! aggregates self/total time per phase and [`Profiler::render_top`]
//! formats the top table embedded in `--metrics pretty`.
//!
//! ```
//! use fascia_obs::Profiler;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let p = Arc::new(Profiler::with_period(Duration::from_micros(200)));
//! let work = p.intern("work");
//! p.start();
//! {
//!     let _g = p.enter(work);
//!     std::thread::sleep(Duration::from_millis(30));
//! }
//! p.stop();
//! assert!(p.samples() > 0);
//! assert!(p.collapsed().contains("work "));
//! ```

use crate::counter::{thread_slot, Counter, SHARDS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Number of per-thread phase slots. Matches [`SHARDS`] so a profile
/// sample, a trace event, and a counter shard produced by the same thread
/// all land at the same index; more threads than this wrap around and
/// share slots (coarser attribution, never an error).
pub const PROFILE_SHARDS: usize = SHARDS;

/// Maximum published stack depth per thread. Deeper nesting keeps the
/// depth bookkeeping balanced but drops the frame (counted by
/// [`Profiler::truncated`]); the engine's phase nesting is ≤ 4 deep, so
/// truncation only occurs under deliberate abuse.
pub const MAX_PHASE_DEPTH: usize = 8;

/// Default sampling period of [`Profiler::new`] (≈ 1 kHz).
pub const DEFAULT_SAMPLE_PERIOD: Duration = Duration::from_millis(1);

/// Interned phase-name handle; obtained from [`Profiler::intern`] once
/// per run and carried through hot loops instead of the string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseId(u32);

/// One thread's published phase stack: a depth cursor plus a fixed frame
/// array. Writers (the owning thread, or several threads after slot
/// wrap-around) store a frame then bump the depth with release ordering;
/// the watcher loads the depth with acquire ordering and reads only the
/// frames below it. Every race this admits misattributes at most one
/// sample.
#[derive(Debug)]
struct PhaseSlot {
    depth: AtomicUsize,
    frames: [AtomicU32; MAX_PHASE_DEPTH],
}

impl PhaseSlot {
    fn new() -> Self {
        Self {
            depth: AtomicUsize::new(0),
            frames: Default::default(),
        }
    }
}

/// The sampling profiler. Cheap to share (`Arc<Profiler>`); publication
/// methods take `&self` and are lock- and allocation-free.
#[derive(Debug)]
pub struct Profiler {
    slots: Box<[PhaseSlot]>,
    names: Mutex<Vec<String>>,
    period: Duration,
    running: AtomicBool,
    watcher: Mutex<Option<JoinHandle<()>>>,
    window_start: Mutex<Option<Instant>>,
    /// Wall nanoseconds covered by completed sampling windows.
    window_ns: AtomicU64,
    /// Aggregated samples: published stack (raw frame ids) → tick count.
    /// Touched only by the watcher while sampling and by readers after
    /// [`Profiler::stop`].
    samples: Mutex<BTreeMap<Vec<u32>, u64>>,
    /// Total watcher ticks.
    ticks: AtomicU64,
    /// Ticks during which no slot published any phase.
    idle_ticks: AtomicU64,
    /// Frames dropped because a stack exceeded [`MAX_PHASE_DEPTH`].
    truncated: Counter,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// A profiler sampling at [`DEFAULT_SAMPLE_PERIOD`] (≈ 1 kHz).
    pub fn new() -> Profiler {
        Profiler::with_period(DEFAULT_SAMPLE_PERIOD)
    }

    /// A profiler sampling every `period` (floored at 50 µs so a
    /// misconfigured rate cannot melt a core).
    pub fn with_period(period: Duration) -> Profiler {
        let mut slots = Vec::with_capacity(PROFILE_SHARDS);
        slots.resize_with(PROFILE_SHARDS, PhaseSlot::new);
        Profiler {
            slots: slots.into_boxed_slice(),
            names: Mutex::new(Vec::new()),
            period: period.max(Duration::from_micros(50)),
            running: AtomicBool::new(false),
            watcher: Mutex::new(None),
            window_start: Mutex::new(None),
            window_ns: AtomicU64::new(0),
            samples: Mutex::new(BTreeMap::new()),
            ticks: AtomicU64::new(0),
            idle_ticks: AtomicU64::new(0),
            truncated: Counter::new(),
        }
    }

    /// A profiler sampling `hz` times per second (clamped to a sane
    /// range; `hz ≤ 0` falls back to the default rate).
    pub fn with_hz(hz: f64) -> Profiler {
        if hz > 0.0 {
            Profiler::with_period(Duration::from_secs_f64((1.0 / hz).clamp(5e-5, 1.0)))
        } else {
            Profiler::new()
        }
    }

    /// The configured sampling period.
    pub fn period(&self) -> Duration {
        self.period
    }

    /// Interns `name`, returning its stable id. Takes a short mutex —
    /// call once per run outside hot loops, like trace-name interning.
    pub fn intern(&self, name: &str) -> PhaseId {
        let mut names = self.names.lock().unwrap();
        if let Some(i) = names.iter().position(|n| n == name) {
            return PhaseId(i as u32);
        }
        names.push(name.to_string());
        PhaseId((names.len() - 1) as u32)
    }

    /// Every interned phase name, in id order — the run's phase
    /// taxonomy, whether or not a tick ever sampled a phase.
    pub fn phase_names(&self) -> Vec<String> {
        self.names.lock().unwrap().clone()
    }

    /// Publishes `id` as the current thread's innermost phase until the
    /// returned guard drops. One relaxed store + one release `fetch_add`;
    /// never a lock or allocation.
    #[inline]
    pub fn enter(&self, id: PhaseId) -> PhaseGuard<'_> {
        let slot = &self.slots[thread_slot() % PROFILE_SHARDS];
        let d = slot.depth.load(Ordering::Relaxed);
        if d < MAX_PHASE_DEPTH {
            slot.frames[d].store(id.0, Ordering::Relaxed);
        } else {
            self.truncated.inc();
        }
        slot.depth.fetch_add(1, Ordering::Release);
        PhaseGuard { slot }
    }

    /// Starts the watcher thread. Idempotent: a running profiler ignores
    /// further `start` calls. Sampling windows accumulate across
    /// start/stop pairs.
    pub fn start(self: &Arc<Self>) {
        if self.running.swap(true, Ordering::SeqCst) {
            return;
        }
        *self.window_start.lock().unwrap() = Some(Instant::now());
        let p = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("fascia-profiler".into())
            .spawn(move || {
                while p.running.load(Ordering::Relaxed) {
                    p.tick();
                    std::thread::sleep(p.period);
                }
            });
        match handle {
            Ok(h) => *self.watcher.lock().unwrap() = Some(h),
            // Thread spawn failure degrades to "no samples", never a panic.
            Err(_) => self.running.store(false, Ordering::SeqCst),
        }
    }

    /// Stops the watcher thread and closes the current sampling window.
    /// Idempotent; call before reading reports.
    pub fn stop(&self) {
        if !self.running.swap(false, Ordering::SeqCst) {
            return;
        }
        if let Some(h) = self.watcher.lock().unwrap().take() {
            let _ = h.join();
        }
        if let Some(t0) = self.window_start.lock().unwrap().take() {
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.window_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// One watcher wake-up: read every slot's published stack and fold it
    /// into the aggregation map.
    fn tick(&self) {
        let mut agg = self.samples.lock().unwrap();
        let mut any = false;
        for slot in self.slots.iter() {
            let d = slot.depth.load(Ordering::Acquire);
            if d == 0 {
                continue;
            }
            any = true;
            let d = d.min(MAX_PHASE_DEPTH);
            let stack: Vec<u32> = slot.frames[..d]
                .iter()
                .map(|f| f.load(Ordering::Relaxed))
                .collect();
            *agg.entry(stack).or_insert(0) += 1;
        }
        drop(agg);
        if !any {
            self.idle_ticks.fetch_add(1, Ordering::Relaxed);
        }
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// Stack samples recorded so far (one per active slot per tick).
    pub fn samples(&self) -> u64 {
        self.samples.lock().unwrap().values().sum()
    }

    /// Total watcher ticks so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Ticks that found no published phase anywhere.
    pub fn idle_ticks(&self) -> u64 {
        self.idle_ticks.load(Ordering::Relaxed)
    }

    /// Frames dropped to [`MAX_PHASE_DEPTH`] truncation.
    pub fn truncated(&self) -> u64 {
        self.truncated.get()
    }

    /// Wall nanoseconds covered by completed sampling windows (plus the
    /// live window, if sampling is still running).
    pub fn window_ns(&self) -> u64 {
        let live = self
            .window_start
            .lock()
            .unwrap()
            .map_or(0, |t0| t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        self.window_ns.load(Ordering::Relaxed) + live
    }

    /// Nanoseconds one tick represents: the measured window apportioned
    /// evenly over the ticks that actually fired (robust to an
    /// oversleeping watcher under load).
    fn ns_per_tick(&self) -> f64 {
        let ticks = self.ticks().max(1);
        self.window_ns() as f64 / ticks as f64
    }

    /// Renders collapsed-stack text: one `frame;frame;frame value` line
    /// per distinct stack, values in nanoseconds apportioned from the
    /// measured sampling window, lines sorted. Idle ticks render as a
    /// single `(idle)` line so the values of all lines sum to the wall
    /// time of the window (for serial workloads; concurrently active
    /// threads each contribute their own samples, so parallel profiles
    /// sum to CPU time instead, as sampling profilers usually do).
    /// Loadable directly by `inferno-flamegraph` and speedscope.
    pub fn collapsed(&self) -> String {
        let names = self.names.lock().unwrap().clone();
        let agg = self.samples.lock().unwrap();
        let per_tick = self.ns_per_tick();
        let mut lines: BTreeMap<String, u64> = BTreeMap::new();
        for (stack, count) in agg.iter() {
            let key = stack
                .iter()
                .map(|&f| name_of_raw(&names, f))
                .collect::<Vec<_>>()
                .join(";");
            *lines.entry(key).or_insert(0) += count;
        }
        drop(agg);
        let idle = self.idle_ticks();
        if idle > 0 {
            *lines.entry("(idle)".to_string()).or_insert(0) += idle;
        }
        let mut out = String::new();
        for (key, count) in &lines {
            let ns = (*count as f64 * per_tick).round() as u64;
            out.push_str(key);
            out.push(' ');
            out.push_str(&ns.to_string());
            out.push('\n');
        }
        out
    }

    /// Per-phase self/total attribution, sorted by self time descending.
    /// *Self* counts samples where the phase was the innermost frame;
    /// *total* counts samples where it appeared anywhere in the stack
    /// (once per sample, so totals of nested phases overlap by design).
    pub fn report(&self) -> Vec<PhaseStat> {
        let names = self.names.lock().unwrap().clone();
        let agg = self.samples.lock().unwrap();
        let per_tick = self.ns_per_tick();
        let mut stats: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (stack, count) in agg.iter() {
            if let Some(&leaf) = stack.last() {
                stats.entry(name_of_raw(&names, leaf)).or_insert((0, 0)).0 += count;
            }
            let mut seen: Vec<u32> = Vec::with_capacity(stack.len());
            for &f in stack {
                if !seen.contains(&f) {
                    seen.push(f);
                    stats.entry(name_of_raw(&names, f)).or_insert((0, 0)).1 += count;
                }
            }
        }
        let mut out: Vec<PhaseStat> = stats
            .into_iter()
            .map(|(name, (self_samples, total_samples))| PhaseStat {
                name: name.to_string(),
                self_ns: (self_samples as f64 * per_tick).round() as u64,
                total_ns: (total_samples as f64 * per_tick).round() as u64,
                self_samples,
                total_samples,
            })
            .collect();
        out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
        out
    }

    /// Renders the top-phases table shown under `--metrics pretty`:
    /// sampling header plus up to twelve phases by self time.
    pub fn render_top(&self) -> String {
        use std::fmt::Write as _;
        let ticks = self.ticks();
        let window_ms = self.window_ns() as f64 / 1e6;
        let hz = if self.period.as_secs_f64() > 0.0 {
            1.0 / self.period.as_secs_f64()
        } else {
            0.0
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {ticks} samples @ {hz:.0} Hz over {window_ms:.1} ms \
             (idle {}, truncated {})",
            self.idle_ticks(),
            self.truncated()
        );
        let report = self.report();
        if report.is_empty() {
            return out;
        }
        let total = self.samples().max(1);
        let _ = writeln!(
            out,
            "  {:<36} {:>12} {:>12} {:>7}",
            "phase", "self_ms", "total_ms", "self%"
        );
        for stat in report.iter().take(12) {
            let _ = writeln!(
                out,
                "  {:<36} {:>12.2} {:>12.2} {:>6.1}%",
                stat.name,
                stat.self_ns as f64 / 1e6,
                stat.total_ns as f64 / 1e6,
                100.0 * stat.self_samples as f64 / total as f64,
            );
        }
        out
    }
}

/// Resolves a raw frame id defensively: a torn read may surface an id the
/// intern table does not (yet) know.
fn name_of_raw(names: &[String], raw: u32) -> &str {
    names.get(raw as usize).map(String::as_str).unwrap_or("?")
}

/// One phase's aggregated attribution from [`Profiler::report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Interned phase name.
    pub name: String,
    /// Nanoseconds sampled with this phase innermost.
    pub self_ns: u64,
    /// Nanoseconds sampled with this phase anywhere on the stack.
    pub total_ns: u64,
    /// Raw sample count behind [`PhaseStat::self_ns`].
    pub self_samples: u64,
    /// Raw sample count behind [`PhaseStat::total_ns`].
    pub total_samples: u64,
}

/// RAII guard from [`Profiler::enter`]: pops the published phase when
/// dropped (one release `fetch_sub`).
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    slot: &'a PhaseSlot,
}

impl Drop for PhaseGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.slot.depth.fetch_sub(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_and_deduplicating() {
        let p = Profiler::new();
        let a = p.intern("alpha");
        let b = p.intern("beta");
        assert_ne!(a, b);
        assert_eq!(p.intern("alpha"), a);
        assert_eq!(p.phase_names(), ["alpha", "beta"]);
    }

    #[test]
    fn enter_publishes_and_drop_pops() {
        let p = Profiler::new();
        let a = p.intern("a");
        let b = p.intern("b");
        let slot = &p.slots[thread_slot() % PROFILE_SHARDS];
        assert_eq!(slot.depth.load(Ordering::Relaxed), 0);
        {
            let _ga = p.enter(a);
            assert_eq!(slot.depth.load(Ordering::Relaxed), 1);
            assert_eq!(slot.frames[0].load(Ordering::Relaxed), 0);
            {
                let _gb = p.enter(b);
                assert_eq!(slot.depth.load(Ordering::Relaxed), 2);
                assert_eq!(slot.frames[1].load(Ordering::Relaxed), 1);
            }
            assert_eq!(slot.depth.load(Ordering::Relaxed), 1);
        }
        assert_eq!(slot.depth.load(Ordering::Relaxed), 0);
        assert_eq!(p.truncated(), 0);
    }

    #[test]
    fn overflow_truncates_counts_and_rebalances() {
        let p = Profiler::new();
        let id = p.intern("deep");
        let mut guards = Vec::new();
        for _ in 0..(MAX_PHASE_DEPTH + 5) {
            guards.push(p.enter(id));
        }
        assert_eq!(p.truncated(), 5);
        let slot = &p.slots[thread_slot() % PROFILE_SHARDS];
        assert_eq!(slot.depth.load(Ordering::Relaxed), MAX_PHASE_DEPTH + 5);
        drop(guards);
        assert_eq!(slot.depth.load(Ordering::Relaxed), 0);
        // A fresh push after the overflow lands correctly again.
        let _g = p.enter(id);
        assert_eq!(slot.depth.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn sampler_attributes_work_and_idle() {
        let p = Arc::new(Profiler::with_period(Duration::from_micros(100)));
        let work = p.intern("work");
        p.start();
        p.start(); // idempotent
        {
            let _g = p.enter(work);
            std::thread::sleep(Duration::from_millis(40));
        }
        std::thread::sleep(Duration::from_millis(10));
        p.stop();
        p.stop(); // idempotent
        assert!(p.ticks() > 0, "watcher never ticked");
        assert!(p.samples() > 0, "no work samples collected");
        let collapsed = p.collapsed();
        assert!(collapsed.contains("work "), "collapsed: {collapsed}");
        // The trailing sleep shows up as idle.
        assert!(p.idle_ticks() > 0);
        assert!(collapsed.contains("(idle) "), "collapsed: {collapsed}");
        // Values sum to ~the sampling window by construction.
        let sum: u64 = collapsed
            .lines()
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum();
        let window = p.window_ns();
        let drift = (sum as f64 - window as f64).abs() / window as f64;
        assert!(drift < 0.01, "sum {sum} vs window {window}");
    }

    #[test]
    fn report_splits_self_and_total() {
        let p = Arc::new(Profiler::with_period(Duration::from_micros(100)));
        let outer = p.intern("outer");
        let inner = p.intern("inner");
        p.start();
        {
            let _o = p.enter(outer);
            std::thread::sleep(Duration::from_millis(15));
            {
                let _i = p.enter(inner);
                std::thread::sleep(Duration::from_millis(15));
            }
        }
        p.stop();
        let report = p.report();
        let o = report.iter().find(|s| s.name == "outer").unwrap();
        let i = report.iter().find(|s| s.name == "inner").unwrap();
        assert!(o.total_samples >= o.self_samples);
        assert!(
            o.total_samples >= i.total_samples,
            "outer encloses inner: {report:?}"
        );
        assert!(i.self_samples == i.total_samples, "inner is always a leaf");
        let top = p.render_top();
        assert!(top.contains("profile:"));
        assert!(top.contains("outer"));
    }

    #[test]
    fn stop_without_start_is_a_noop() {
        let p = Profiler::new();
        p.stop();
        assert_eq!(p.ticks(), 0);
        assert_eq!(p.window_ns(), 0);
        assert!(p.collapsed().is_empty());
        assert!(p.report().is_empty());
    }

    #[test]
    fn render_top_with_zero_samples_has_no_nan() {
        // A profiler that never ticked (0 samples, 0 ns window) must render
        // a well-formed header: every division is behind a max(1) or an
        // explicit zero guard. NaN/inf here would poison `--metrics pretty`.
        let p = Profiler::new();
        let top = p.render_top();
        assert!(top.contains("profile: 0 samples"), "{top}");
        assert!(!top.contains("NaN") && !top.contains("inf"), "{top}");
        // Interned-but-never-sampled phases must not divide by the zero
        // sample count either.
        let p = Profiler::new();
        let _ = p.intern("never-sampled");
        let top = p.render_top();
        assert!(!top.contains("NaN") && !top.contains("inf"), "{top}");
    }

    #[test]
    fn with_hz_clamps_garbage() {
        assert_eq!(Profiler::with_hz(0.0).period(), DEFAULT_SAMPLE_PERIOD);
        assert_eq!(Profiler::with_hz(-3.0).period(), DEFAULT_SAMPLE_PERIOD);
        assert!(Profiler::with_hz(1e9).period() >= Duration::from_micros(50));
        assert_eq!(Profiler::with_hz(100.0).period(), Duration::from_millis(10));
    }
}
