//! Flight-recorder suite: counting results must be bitwise identical with
//! tracing absent, enabled, and overflowing; the recorded timeline must
//! cover the engine's event taxonomy; and the Chrome-trace export must be
//! a valid JSON array with monotone per-tid timestamps.

use fascia::core::Chaos;
use fascia::obs::Tracer;
use fascia::prelude::*;
use std::sync::Arc;

fn test_graph() -> Graph {
    fascia::graph::gen::gnm(80, 240, 0xBEEF)
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn results_are_bitwise_identical_with_tracing_absent_enabled_and_dropping() {
    let g = test_graph();
    let t = Template::path(5);
    for mode in [ParallelMode::Serial, ParallelMode::OuterLoop] {
        let base = CountConfig {
            iterations: 20,
            seed: 0x7A5C_1A00,
            parallel: mode,
            ..CountConfig::default()
        };
        let plain = count_template(&g, &t, &base).expect("untraced run");

        let tracer = Arc::new(Tracer::new());
        let traced_cfg = CountConfig {
            tracer: Some(Arc::clone(&tracer)),
            ..base.clone()
        };
        let traced = count_template(&g, &t, &traced_cfg).expect("traced run");
        assert!(
            bitwise_eq(&plain.per_iteration, &traced.per_iteration),
            "tracing changed the per-iteration series ({mode:?})"
        );
        assert_eq!(tracer.dropped(), 0, "default rings must not overflow here");
        assert!(tracer.recorded() > 0);

        // A tiny ring overflows immediately; results still must not move.
        let tiny = Arc::new(Tracer::with_capacity(8));
        let dropping_cfg = CountConfig {
            tracer: Some(Arc::clone(&tiny)),
            ..base.clone()
        };
        let dropping = count_template(&g, &t, &dropping_cfg).expect("dropping run");
        assert!(
            bitwise_eq(&plain.per_iteration, &dropping.per_iteration),
            "ring overflow changed the per-iteration series ({mode:?})"
        );
        assert!(tiny.dropped() > 0, "an 8-slot ring must drop events");
    }
}

#[test]
fn engine_timeline_covers_the_event_taxonomy() {
    let g = test_graph();
    let t = Template::path(5);
    let tracer = Arc::new(Tracer::new());
    let ck =
        std::env::temp_dir().join(format!("fascia-trace-taxonomy-{}.ckpt", std::process::id()));
    std::fs::remove_file(&ck).ok();
    let cfg = CountConfig {
        iterations: 6,
        parallel: ParallelMode::Serial,
        tracer: Some(Arc::clone(&tracer)),
        checkpoint: Some(CheckpointConfig::new(&ck)),
        chaos: Some(Arc::new(Chaos::new("panic_at=2".parse().unwrap()))),
        ..CountConfig::default()
    };
    count_template(&g, &t, &cfg).expect("run");
    std::fs::remove_file(&ck).ok();

    let names: std::collections::HashSet<String> = tracer
        .events()
        .iter()
        .map(|e| tracer.name_of(e.name))
        .collect();
    for expected in [
        "iteration",
        "coloring",
        "wave",
        "checkpoint.flush",
        "panic.retry",
    ] {
        assert!(
            names.contains(expected),
            "missing event {expected:?}: {names:?}"
        );
    }
    assert!(
        names.iter().any(|n| n.starts_with("dp.n")),
        "missing per-subtemplate spans: {names:?}"
    );
    assert!(
        names.contains("table.build"),
        "missing table.build instants: {names:?}"
    );
}

#[test]
fn resume_and_adaptive_runs_record_their_events() {
    let g = test_graph();
    let t = Template::path(4);
    let ck = std::env::temp_dir().join(format!("fascia-trace-resume-{}.ckpt", std::process::id()));
    std::fs::remove_file(&ck).ok();
    let first = CountConfig {
        iterations: 10,
        parallel: ParallelMode::Serial,
        checkpoint: Some(CheckpointConfig::new(&ck)),
        chaos: Some(Arc::new(Chaos::new("cancel_at=4".parse().unwrap()))),
        ..CountConfig::default()
    };
    let partial = count_template(&g, &t, &first).expect("partial run");
    assert_eq!(partial.stop_cause, StopCause::Cancelled);

    let tracer = Arc::new(Tracer::new());
    let resumed_cfg = CountConfig {
        iterations: 10,
        parallel: ParallelMode::Serial,
        resume: Some(Checkpoint::load(&ck).expect("load checkpoint")),
        tracer: Some(Arc::clone(&tracer)),
        ..CountConfig::default()
    };
    count_template(&g, &t, &resumed_cfg).expect("resumed run");
    std::fs::remove_file(&ck).ok();
    let names: Vec<String> = tracer
        .events()
        .iter()
        .map(|e| tracer.name_of(e.name))
        .collect();
    assert!(names.iter().any(|n| n == "checkpoint.resume"));

    // Adaptive runs sample the running CI into the trace.
    let tracer = Arc::new(Tracer::new());
    let adaptive = CountConfig {
        stop: Some(StopRule::relative_error(0.5, 0.05)),
        parallel: ParallelMode::Serial,
        tracer: Some(Arc::clone(&tracer)),
        ..CountConfig::default()
    };
    count_template(&g, &t, &adaptive).expect("adaptive run");
    let names: Vec<String> = tracer
        .events()
        .iter()
        .map(|e| tracer.name_of(e.name))
        .collect();
    assert!(
        names.iter().any(|n| n == "adaptive.ci_permille"),
        "missing adaptive CI samples: {names:?}"
    );
}

#[test]
fn chrome_export_parses_and_is_monotone_per_tid() {
    let g = test_graph();
    let t = Template::path(5);
    let tracer = Arc::new(Tracer::new());
    let cfg = CountConfig {
        iterations: 8,
        parallel: ParallelMode::OuterLoop,
        tracer: Some(Arc::clone(&tracer)),
        ..CountConfig::default()
    };
    count_template(&g, &t, &cfg).expect("run");

    let text = tracer.to_chrome_json();
    let doc = Json::parse(&text).expect("trace JSON parses");
    let events = doc.as_arr().expect("top level is an array");
    assert!(!events.is_empty());
    let mut last_ts: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for ev in events {
        let obj = ev.as_obj().expect("event is an object");
        for key in ["name", "cat", "ph", "pid", "tid", "ts"] {
            assert!(Json::get(obj, key).is_some(), "event missing {key:?}");
        }
        let ph = Json::get(obj, "ph").and_then(Json::as_str).expect("ph");
        assert!(matches!(ph, "X" | "i" | "C"), "unexpected phase {ph:?}");
        if ph == "X" {
            assert!(Json::get(obj, "dur").is_some(), "span without dur");
        }
        let tid = Json::get(obj, "tid").and_then(Json::as_u64).expect("tid");
        let ts = Json::get(obj, "ts").and_then(Json::as_f64).expect("ts");
        let prev = last_ts.insert(tid, ts).unwrap_or(f64::NEG_INFINITY);
        assert!(ts >= prev, "ts went backwards on tid {tid}: {prev} -> {ts}");
    }
}

#[test]
fn rooted_counts_trace_like_count_template() {
    let g = test_graph();
    let t = Template::path(4);
    let tracer = Arc::new(Tracer::new());
    let cfg = CountConfig {
        iterations: 5,
        parallel: ParallelMode::Serial,
        tracer: Some(Arc::clone(&tracer)),
        ..CountConfig::default()
    };
    rooted_counts(&g, &t, 0, &cfg).expect("rooted run");
    let names: Vec<String> = tracer
        .events()
        .iter()
        .map(|e| tracer.name_of(e.name))
        .collect();
    for expected in ["iteration", "coloring", "wave"] {
        assert!(names.iter().any(|n| n == expected), "missing {expected:?}");
    }
}

/// Pins the sink × phase matrix: which engine phases reach the trace as
/// spans and the metrics registry as histograms, under which names. A
/// phase added to (or dropped from) a sink fails the exact-set checks;
/// the per-subtemplate names must agree across both sinks.
#[test]
fn each_sink_sees_exactly_its_phases() {
    use fascia::core::MemCollector;
    use fascia::obs::EventKind;
    use std::collections::BTreeSet;

    let g = test_graph();
    let t = NamedTemplate::U5_2.template();
    let ck = std::env::temp_dir().join(format!("fascia-trace-phases-{}.ckpt", std::process::id()));
    let base = CountConfig {
        iterations: 3,
        parallel: ParallelMode::Serial,
        ..CountConfig::default()
    };
    let plain = count_template(&g, &t, &base).expect("plain run");
    let (metrics, tracer) = (Arc::new(Metrics::new()), Arc::new(Tracer::new()));
    let cfg = CountConfig {
        metrics: Some(Arc::clone(&metrics)),
        tracer: Some(Arc::clone(&tracer)),
        profiler: Some(Arc::new(Profiler::new())),
        mem: Some(Arc::new(MemCollector::new())),
        checkpoint: Some(CheckpointConfig::new(&ck)),
        ..base.clone()
    };
    let observed = count_template(&g, &t, &cfg).expect("observed run");
    std::fs::remove_file(&ck).ok();
    assert_eq!(observed.estimate.to_bits(), plain.estimate.to_bits());

    let mut spans = tracer.events();
    spans.retain(|e| e.kind == EventKind::Span);
    let span_names: BTreeSet<String> = spans.iter().map(|e| tracer.name_of(e.name)).collect();
    // Node names without their `dp.` prefix, as the trace spans carry them.
    let nodes: BTreeSet<&str> = span_names
        .iter()
        .filter_map(|n| n.strip_prefix("dp."))
        .collect();
    let pt = PartitionTree::build(&t, PartitionStrategy::OneAtATime).expect("partition");
    assert_eq!(nodes.len(), pt.unique_order().len(), "{nodes:?}");
    let expected = |fixed: &[&str], prefix: &str| -> BTreeSet<String> {
        let nodes = nodes.iter().map(|n| format!("{prefix}{n}"));
        fixed.iter().map(|f| f.to_string()).chain(nodes).collect()
    };
    let trace_phases = ["iteration", "coloring", "wave", "checkpoint.flush"];
    assert_eq!(span_names, expected(&trace_phases, "dp."));

    let doc = Json::parse(&metrics.to_json()).expect("metrics JSON parses");
    let hists = Json::get(doc.as_obj().expect("object"), "histograms").and_then(Json::as_obj);
    let hist_names: BTreeSet<String> = hists
        .expect("histograms")
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    let metrics_phases = ["engine.iteration_ns", "engine.coloring_ns"];
    assert_eq!(hist_names, expected(&metrics_phases, "engine.dp_ns."));

    // Every per-subtemplate span nests inside an iteration span of its
    // own thread.
    let tracer = &tracer;
    let bounds = |prefix: &'static str| {
        let named = spans
            .iter()
            .filter(move |e| tracer.name_of(e.name).starts_with(prefix));
        named.map(|e| (e.tid, e.ts_ns, e.ts_ns + e.dur_ns))
    };
    let iterations: Vec<_> = bounds("iteration").collect();
    assert_eq!(iterations.len(), 3);
    for (tid, start, end) in bounds("dp.") {
        let inside = |&(t, s, e): &(u32, u64, u64)| t == tid && s <= start && end <= e;
        assert!(
            iterations.iter().any(inside),
            "node span outside every iteration"
        );
    }
}
