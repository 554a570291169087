//! Resilience suite: resume determinism, cooperative cancellation,
//! memory-budget degradation, and worker panic isolation.
//!
//! The load-bearing property is *bitwise* resume determinism for
//! `FixedIterations` runs: because iteration `i` derives its coloring from
//! `iteration_seed(seed, i)`, a run killed at any wave and resumed from
//! its checkpoint must reproduce the uninterrupted run's per-iteration
//! series — and therefore its estimate — bit for bit.

use fascia::core::Chaos;
use fascia::obs::Metrics;
use fascia::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn test_graph() -> Graph {
    fascia::graph::gen::gnm(80, 240, 0xBEEF)
}

fn ck_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fascia_resilience_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn kill_then_resume_is_bitwise_identical_to_uninterrupted_run() {
    let g = test_graph();
    let t = Template::path(5);
    for mode in [ParallelMode::Serial, ParallelMode::OuterLoop] {
        let base = CountConfig {
            iterations: 40,
            seed: 0x0D15_EA5E,
            parallel: mode,
            ..CountConfig::default()
        };
        let clean = count_template(&g, &t, &base).expect("clean run");
        assert_eq!(clean.iterations_run, 40);

        // Kill the run mid-flight at iteration 17 (the whole wave holding
        // it is discarded) while checkpointing every wave.
        let path = ck_path(&format!("kill_{mode:?}.ckpt"));
        std::fs::remove_file(&path).ok();
        let killed_cfg = CountConfig {
            checkpoint: Some(CheckpointConfig::new(&path)),
            chaos: Some(Arc::new(Chaos::new("cancel_at=17".parse().unwrap()))),
            ..base.clone()
        };
        let killed = count_template(&g, &t, &killed_cfg);
        let done_at_kill = match &killed {
            Ok(r) => {
                assert!(r.stop_cause.is_partial(), "{:?}", r.stop_cause);
                assert!(r.iterations_run < 40);
                // The partial estimate is the mean of a prefix of the
                // clean series.
                assert!(bitwise_eq(
                    &r.per_iteration,
                    &clean.per_iteration[..r.iterations_run]
                ));
                r.iterations_run
            }
            // Cancellation before the first wave completed: no estimate.
            Err(CountError::Cancelled) => 0,
            Err(e) => panic!("unexpected failure: {e}"),
        };

        // The checkpoint on disk matches what the killed run reported.
        let ck = Checkpoint::load(&path).expect("checkpoint parses");
        assert_eq!(ck.iterations_done(), done_at_kill);
        assert!(bitwise_eq(
            &ck.per_iteration,
            &clean.per_iteration[..done_at_kill]
        ));

        // Resume completes the original 40 and reproduces the clean run
        // exactly.
        let resume_cfg = CountConfig {
            resume: Some(ck),
            ..base.clone()
        };
        let resumed = count_template(&g, &t, &resume_cfg).expect("resumed run");
        assert_eq!(resumed.iterations_run, 40);
        assert_eq!(resumed.resumed_iterations, done_at_kill);
        assert!(
            bitwise_eq(&resumed.per_iteration, &clean.per_iteration),
            "resume diverged from uninterrupted run in mode {mode:?}"
        );
        assert_eq!(resumed.estimate.to_bits(), clean.estimate.to_bits());
        assert_eq!(resumed.stop_cause, StopCause::Completed);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn adaptive_run_resumes_and_converges_like_the_uninterrupted_one() {
    let g = test_graph();
    let t = Template::path(4);
    let rule = StopRule::RelativeError {
        epsilon: 0.10,
        delta: 0.05,
        min_iters: 8,
        max_iters: 4000,
    };
    let base = CountConfig {
        seed: 0xADA7,
        stop: Some(rule),
        parallel: ParallelMode::Serial,
        ..CountConfig::default()
    };
    let clean = count_template(&g, &t, &base).expect("clean adaptive run");
    assert!(!clean.stop_cause.is_partial());

    let path = ck_path("adaptive.ckpt");
    std::fs::remove_file(&path).ok();
    let killed_cfg = CountConfig {
        checkpoint: Some(CheckpointConfig::new(&path)),
        chaos: Some(Arc::new(Chaos::new("cancel_at=10".parse().unwrap()))),
        ..base.clone()
    };
    let _ = count_template(&g, &t, &killed_cfg);
    let ck = Checkpoint::load(&path).expect("checkpoint parses");

    let resume_cfg = CountConfig {
        resume: Some(ck),
        ..base.clone()
    };
    let resumed = count_template(&g, &t, &resume_cfg).expect("resumed adaptive run");
    assert!(!resumed.stop_cause.is_partial());
    // Same seed and per-index colorings: the resumed run walks the same
    // series, so it converges at the same point with the same estimate.
    assert_eq!(resumed.iterations_run, clean.iterations_run);
    assert_eq!(resumed.estimate.to_bits(), clean.estimate.to_bits());
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_rejects_mismatched_run_configuration() {
    let g = test_graph();
    let t = Template::path(5);
    let base = CountConfig {
        iterations: 20,
        seed: 42,
        parallel: ParallelMode::Serial,
        ..CountConfig::default()
    };
    let path = ck_path("mismatch.ckpt");
    std::fs::remove_file(&path).ok();
    let ck_cfg = CountConfig {
        checkpoint: Some(CheckpointConfig::new(&path)),
        ..base.clone()
    };
    count_template(&g, &t, &ck_cfg).expect("checkpointed run");
    let ck = Checkpoint::load(&path).expect("checkpoint parses");

    // Wrong graph.
    let other = fascia::graph::gen::gnm(81, 240, 0xBEEF);
    let cfg = CountConfig {
        resume: Some(ck.clone()),
        ..base.clone()
    };
    assert!(matches!(
        count_template(&other, &t, &cfg),
        Err(CountError::ResumeMismatch(_))
    ));

    // Wrong seed.
    let cfg = CountConfig {
        resume: Some(ck.clone()),
        seed: 43,
        ..base.clone()
    };
    assert!(matches!(
        count_template(&g, &t, &cfg),
        Err(CountError::ResumeMismatch(_))
    ));

    // Wrong template size.
    let cfg = CountConfig {
        resume: Some(ck),
        ..base.clone()
    };
    assert!(matches!(
        count_template(&g, &Template::path(4), &cfg),
        Err(CountError::ResumeMismatch(_))
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn cancelled_token_and_zero_deadline_stop_before_any_iteration() {
    let g = test_graph();
    let t = Template::path(4);
    let token = CancelToken::new();
    token.cancel();
    let cfg = CountConfig {
        iterations: 50,
        cancel: Some(token),
        ..CountConfig::default()
    };
    assert!(matches!(
        count_template(&g, &t, &cfg),
        Err(CountError::Cancelled)
    ));

    let cfg = CountConfig {
        iterations: 50,
        cancel: Some(CancelToken::new().deadline(Duration::ZERO)),
        ..CountConfig::default()
    };
    assert!(matches!(
        count_template(&g, &t, &cfg),
        Err(CountError::Cancelled)
    ));
}

#[test]
fn memory_budget_degrades_layout_before_failing() {
    // The circuit network is sparse enough that the hashed layout is far
    // smaller than lazy/dense — giving the degradation ladder real room.
    let g = Dataset::Circuit.generate(1, 0xDA7A);
    let t = Template::path(7);
    let base = CountConfig {
        iterations: 10,
        seed: 7,
        parallel: ParallelMode::Serial,
        table: TableKind::Dense,
        ..CountConfig::default()
    };
    let clean = count_template(&g, &t, &base).expect("unbudgeted run");

    // Walk the budget down from the unbudgeted peak: runs first succeed
    // without degradation, then succeed by falling back to cheaper
    // layouts (counted in the metric), then fail with a typed error.
    // 2% steps: comfortably finer than the ~13% budget band in which the
    // dense layout no longer fits but hashed still does.
    let mut budget = clean.peak_table_bytes.max(1);
    let mut saw_fallback = false;
    let mut saw_exhaustion = false;
    for _ in 0..400 {
        let metrics = Arc::new(Metrics::new());
        let cfg = CountConfig {
            memory_budget_bytes: Some(budget),
            metrics: Some(metrics.clone()),
            ..base.clone()
        };
        match count_template(&g, &t, &cfg) {
            Ok(r) => {
                assert!(r.estimate.is_finite());
                if metrics.counter("engine.degrade.layout_fallbacks").get() > 0 {
                    saw_fallback = true;
                }
            }
            Err(CountError::BudgetExceeded {
                required,
                budget: b,
            }) => {
                assert!(required > b, "required {required} vs budget {b}");
                saw_exhaustion = true;
                break;
            }
            Err(e) => panic!("unexpected failure at budget {budget}: {e}"),
        }
        budget = budget * 49 / 50;
    }
    assert!(saw_fallback, "no budget triggered a layout fallback");
    assert!(saw_exhaustion, "no budget was small enough to fail");
}

#[test]
fn injected_panic_is_retried_without_poisoning_the_estimate() {
    let g = test_graph();
    let t = Template::path(5);
    let base = CountConfig {
        iterations: 20,
        seed: 0xFA11,
        parallel: ParallelMode::Serial,
        ..CountConfig::default()
    };
    let clean = count_template(&g, &t, &base).expect("clean run");

    let metrics = Arc::new(Metrics::new());
    let cfg = CountConfig {
        chaos: Some(Arc::new(Chaos::new("panic_at=3".parse().unwrap()))),
        metrics: Some(metrics.clone()),
        ..base.clone()
    };
    let r = count_template(&g, &t, &cfg).expect("run with injected panic");
    assert_eq!(r.iterations_run, 20);
    assert!(r.estimate.is_finite());
    assert_eq!(metrics.counter("engine.iterations.poisoned").get(), 1);
    assert_eq!(metrics.counter("engine.iterations.retried").get(), 1);
    // Only the retried iteration (salted seed) may differ from the clean
    // series; every other iteration is untouched by the fault.
    for (i, (a, b)) in r.per_iteration.iter().zip(&clean.per_iteration).enumerate() {
        if i != 3 {
            assert_eq!(a.to_bits(), b.to_bits(), "iteration {i} diverged");
        }
    }
    // The clean estimate sits inside the faulted run's CI and vice versa
    // (one resampled iteration must not poison the whole estimate).
    assert!(
        (r.estimate - clean.estimate).abs() <= r.ci95.max(clean.ci95),
        "retry skewed the estimate: {} vs {}",
        r.estimate,
        clean.estimate
    );
}

#[test]
fn checkpoint_counts_writes_and_carries_peak_bytes_across_resume() {
    let g = test_graph();
    let t = Template::path(5);
    let path = ck_path("peak.ckpt");
    std::fs::remove_file(&path).ok();
    let metrics = Arc::new(Metrics::new());
    let cfg = CountConfig {
        iterations: 12,
        seed: 5,
        parallel: ParallelMode::Serial,
        checkpoint: Some(CheckpointConfig::new(&path)),
        metrics: Some(metrics.clone()),
        ..CountConfig::default()
    };
    let r = count_template(&g, &t, &cfg).expect("checkpointed run");
    assert!(metrics.counter("engine.checkpoint.writes").get() > 0);

    let ck = Checkpoint::load(&path).expect("checkpoint parses");
    assert_eq!(ck.peak_table_bytes, r.peak_table_bytes);
    let resumed = count_template(
        &g,
        &t,
        &CountConfig {
            resume: Some(ck),
            iterations: 12,
            seed: 5,
            parallel: ParallelMode::Serial,
            ..CountConfig::default()
        },
    )
    .expect("resume of a finished run");
    // Nothing left to execute, but the report still covers the whole
    // logical run.
    assert_eq!(resumed.iterations_run, 12);
    assert_eq!(resumed.resumed_iterations, 12);
    assert_eq!(resumed.peak_table_bytes, r.peak_table_bytes);
    assert_eq!(resumed.estimate.to_bits(), r.estimate.to_bits());
    std::fs::remove_file(&path).ok();
}
