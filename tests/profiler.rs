//! Sampling-profiler suite: counting results must be bitwise identical
//! with the profiler absent, attached, and depth-overflowing; the
//! collapsed-stack export must parse line-by-line and its values must sum
//! to roughly the sampling window; and on a serial run the profiler must
//! attribute ≥ 90% of wall time to named engine phases.

use fascia::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_graph() -> Graph {
    fascia::graph::gen::gnm(300, 1_200, 0xBEEF)
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn results_are_bitwise_identical_with_profiler_absent_attached_and_overflowing() {
    let g = test_graph();
    let t = Template::path(5);
    for mode in [ParallelMode::Serial, ParallelMode::OuterLoop] {
        let base = CountConfig {
            iterations: 20,
            seed: 0x7A5C_1A00,
            parallel: mode,
            ..CountConfig::default()
        };
        let plain = count_template(&g, &t, &base).expect("unprofiled run");

        let profiler = Arc::new(Profiler::with_period(Duration::from_micros(200)));
        profiler.start();
        let profiled_cfg = CountConfig {
            profiler: Some(Arc::clone(&profiler)),
            ..base.clone()
        };
        let profiled = count_template(&g, &t, &profiled_cfg).expect("profiled run");
        profiler.stop();
        assert!(
            bitwise_eq(&plain.per_iteration, &profiled.per_iteration),
            "profiling changed the per-iteration series ({mode:?})"
        );

        // Pre-filling this thread's stack slot to MAX_PHASE_DEPTH forces
        // every engine publish on it down the truncation path; the
        // numbers still must not move.
        let deep = Arc::new(Profiler::with_period(Duration::from_micros(200)));
        let pad = deep.intern("pad");
        let _guards: Vec<_> = (0..fascia::obs::MAX_PHASE_DEPTH)
            .map(|_| deep.enter(pad))
            .collect();
        deep.start();
        let deep_cfg = CountConfig {
            profiler: Some(Arc::clone(&deep)),
            ..base.clone()
        };
        let overflowed = count_template(&g, &t, &deep_cfg).expect("overflowing run");
        deep.stop();
        assert!(
            bitwise_eq(&plain.per_iteration, &overflowed.per_iteration),
            "depth overflow changed the per-iteration series ({mode:?})"
        );
        if mode == ParallelMode::Serial {
            assert!(
                deep.truncated() > 0,
                "a saturated stack slot must count truncations"
            );
        }
    }
}

/// Runs a serial count sized to take a few hundred milliseconds and
/// returns the profiler (stopped) plus the measured wall time of the
/// whole sampling window.
fn profiled_serial_run() -> (Arc<Profiler>, Duration) {
    let g = fascia::graph::gen::gnm(2_000, 8_000, 17);
    let t = Template::path(5);
    // Calibrate iterations so the run is long enough to sample densely
    // (aiming for ~0.4 s) without dragging the test out on a slow box.
    let probe = CountConfig {
        iterations: 2,
        parallel: ParallelMode::Serial,
        seed: 3,
        ..CountConfig::default()
    };
    let start = Instant::now();
    count_template(&g, &t, &probe).expect("probe run");
    let per_iter = (start.elapsed().as_secs_f64() / 2.0).max(1e-6);
    let iterations = ((0.4 / per_iter) as usize).clamp(8, 5_000);

    let profiler = Arc::new(Profiler::with_period(Duration::from_micros(500)));
    let cfg = CountConfig {
        iterations,
        parallel: ParallelMode::Serial,
        seed: 3,
        profiler: Some(Arc::clone(&profiler)),
        ..CountConfig::default()
    };
    let start = Instant::now();
    profiler.start();
    count_template(&g, &t, &cfg).expect("profiled run");
    profiler.stop();
    let wall = start.elapsed();
    (profiler, wall)
}

#[test]
fn collapsed_stacks_parse_and_sum_to_the_sampling_window() {
    let (profiler, wall) = profiled_serial_run();
    assert!(profiler.ticks() > 50, "only {} ticks", profiler.ticks());
    let collapsed = profiler.collapsed();
    let mut sum_ns = 0u64;
    for line in collapsed.lines() {
        // Every line is `frame;frame;frame value` with a u64 value —
        // exactly what inferno-flamegraph and speedscope ingest.
        let (stack, value) = line.rsplit_once(' ').expect("stack/value split");
        assert!(!stack.is_empty(), "empty stack in: {line}");
        assert!(
            stack.split(';').all(|f| !f.is_empty()),
            "empty frame in: {line}"
        );
        sum_ns += value
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("bad value in: {line}"));
    }
    // Serial run: one active thread, so line values apportion the window
    // and must sum back to it (idle included) within rounding.
    let window = profiler.window_ns();
    let drift = (sum_ns as f64 - window as f64).abs() / window as f64;
    assert!(
        drift < 0.02,
        "collapsed sums to {sum_ns} ns, window {window} ns"
    );
    // And the window itself tracks the measured wall time of the run.
    let wall_ns = wall.as_nanos() as f64;
    assert!(
        (window as f64 - wall_ns).abs() / wall_ns < 0.25,
        "window {window} ns vs wall {wall_ns} ns"
    );
}

#[test]
fn profiler_attributes_most_wall_time_to_named_phases() {
    let (profiler, _wall) = profiled_serial_run();
    let total = profiler.ticks();
    let idle = profiler.idle_ticks();
    assert!(total > 50, "only {total} ticks");
    // The profiler brackets the count call tightly, so nearly every
    // sample should land in a named engine phase: neither idle nor an
    // unknown frame.
    let unknown: u64 = profiler
        .collapsed()
        .lines()
        .filter(|l| l.contains('?'))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
        .sum();
    assert_eq!(unknown, 0, "unresolvable frames in the collapsed output");
    let attributed = (total - idle) as f64 / total as f64;
    assert!(
        attributed >= 0.90,
        "only {:.1}% of {total} samples attributed ({idle} idle)",
        attributed * 100.0
    );
    // The taxonomy covers the span names the flight recorder uses. It is
    // read from the interned names: a short phase such as `coloring` may
    // draw no sample at all in one run.
    let taxonomy = profiler.phase_names();
    for expect in ["iteration", "coloring", "wave"] {
        assert!(
            taxonomy.iter().any(|n| n == expect),
            "phase {expect} missing: {taxonomy:?}"
        );
    }
    let report = profiler.report();
    let names: Vec<&str> = report.iter().map(|s| s.name.as_str()).collect();
    assert!(
        names.iter().any(|n| n.starts_with("dp.n")),
        "no DP node phases in: {names:?}"
    );
    // Self time never exceeds total time, and the DP nodes dominate the
    // engine's self time on this workload.
    for s in &report {
        assert!(s.self_ns <= s.total_ns, "{s:?}");
        assert!(s.self_samples <= s.total_samples, "{s:?}");
    }
}
