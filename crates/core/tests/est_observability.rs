//! fascia-est/1 coverage from the outside: the estimator-observability
//! rail must be observe-only (bitwise-identical `CountResult` with the
//! collector absent vs. attached, across every parallel mode),
//! its per-stratum variance shares must sum to ~100% within each
//! taxonomy, and the document must survive the depth-capped parser.

use std::sync::Arc;

use fascia_core::resilience::Json;
use fascia_core::stats::StopRule;
use fascia_core::{count_template, CountConfig, EstCollector, ParallelMode};
use fascia_graph::gen::gnm;
use fascia_template::Template;

fn get<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    Json::get(v.as_obj()?, key)
}

/// The acceptance contract: for every parallel mode, attaching an
/// estimator collector changes neither the final estimate nor the
/// iteration count nor any per-iteration value — bit for bit.
#[test]
fn est_instrumentation_does_not_change_counts() {
    let g = gnm(40, 130, 97);
    let t = Template::path(5);
    for parallel in [
        ParallelMode::Serial,
        ParallelMode::InnerLoop,
        ParallelMode::OuterLoop,
    ] {
        let base = CountConfig {
            iterations: 8,
            parallel,
            seed: 4321,
            ..CountConfig::default()
        };
        let collector = Arc::new(EstCollector::new());
        let attached = CountConfig {
            est: Some(Arc::clone(&collector)),
            ..base.clone()
        };
        let off = count_template(&g, &t, &base).unwrap();
        let on = count_template(&g, &t, &attached).unwrap();
        assert_eq!(off.estimate, on.estimate, "estimate drifted ({parallel:?})");
        assert_eq!(
            off.iterations_run, on.iterations_run,
            "iteration count drifted ({parallel:?})"
        );
        assert_eq!(
            off.per_iteration, on.per_iteration,
            "series drifted ({parallel:?})"
        );
        assert_eq!(collector.iterations(), on.iterations_run as u64);
    }
}

/// Adaptive runs must also be untouched: the collector sees exactly the
/// iterations the stop rule executed, and the convergence trajectory in
/// the ledger matches the run's final statistics.
#[test]
fn est_attached_adaptive_run_matches_and_fills_ledger() {
    let g = gnm(40, 130, 7);
    let t = Template::path(4);
    let base = CountConfig {
        stop: Some(StopRule::relative_error(0.05, 0.05)),
        parallel: ParallelMode::Serial,
        seed: 99,
        ..CountConfig::default()
    };
    let collector = Arc::new(EstCollector::new());
    let attached = CountConfig {
        est: Some(Arc::clone(&collector)),
        ..base.clone()
    };
    let off = count_template(&g, &t, &base).unwrap();
    let on = count_template(&g, &t, &attached).unwrap();
    assert_eq!(off.per_iteration, on.per_iteration);
    assert_eq!(collector.iterations(), on.iterations_run as u64);

    let doc = collector.to_json();
    let v = Json::parse(&doc).expect("fascia-est/1 parses");
    assert_eq!(
        get(&v, "schema").and_then(Json::as_str),
        Some("fascia-est/1")
    );
    assert!(get(&v, "adaptive").is_some());
    let apriori = get(&v, "apriori_iterations")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(apriori > 0, "AYZ bound resolved");
    let entries = get(&v, "ledger")
        .and_then(|l| get(l, "entries"))
        .and_then(Json::as_arr)
        .unwrap();
    assert!(!entries.is_empty());
    // The last ledger entry's running mean is the final estimate (up to
    // the streaming-vs-batch summation difference: the engine recomputes
    // the reported estimate from the full series, the ledger records the
    // running Welford mean).
    let last = entries.last().unwrap();
    let last_mean = get(last, "mean").and_then(Json::as_f64).unwrap();
    assert!(
        (last_mean - on.estimate).abs() <= 1e-12 * on.estimate.abs(),
        "trajectory ends at the estimate: {last_mean} vs {est}",
        est = on.estimate
    );
}

/// Variance decomposition: within each stratum taxonomy the per-stratum
/// shares sum to ~100%, each iteration's stratum sums reassemble the
/// iteration total, and both taxonomies see every iteration.
#[test]
fn est_stratum_shares_sum_to_100_percent() {
    let g = gnm(60, 240, 11);
    let t = Template::path(4);
    let collector = Arc::new(EstCollector::new());
    let cfg = CountConfig {
        iterations: 12,
        parallel: ParallelMode::Serial,
        seed: 5,
        est: Some(Arc::clone(&collector)),
        ..CountConfig::default()
    };
    let res = count_template(&g, &t, &cfg).unwrap();
    assert!(res.estimate > 0.0, "test wants a non-degenerate run");
    let doc = collector.to_json();
    let v = Json::parse(&doc).unwrap();
    let strata = get(&v, "strata").unwrap();
    for taxonomy in ["colorset", "degree_class"] {
        let tax = get(strata, taxonomy).unwrap();
        let classes = get(tax, "classes").and_then(Json::as_arr).unwrap();
        assert!(!classes.is_empty(), "{taxonomy}: strata recorded");
        if taxonomy == "colorset" {
            // One stratum per color: the decomposition must not collapse
            // into a single degenerate bucket.
            assert_eq!(classes.len(), t.size(), "{taxonomy}: k color strata");
        }
        let mut share_total = 0.0;
        let mut mean_total = 0.0;
        for c in classes {
            let n = get(c, "n").and_then(Json::as_u64).unwrap();
            assert_eq!(n, res.iterations_run as u64, "{taxonomy}: full series");
            share_total += get(c, "share_pct").and_then(Json::as_f64).unwrap();
            mean_total += get(c, "mean").and_then(Json::as_f64).unwrap();
        }
        assert!(
            (share_total - 100.0).abs() < 1e-6,
            "{taxonomy}: shares sum to {share_total}"
        );
        // Stratum means reassemble the estimate: each iteration's stratum
        // sums equal that iteration's scaled total.
        assert!(
            (mean_total - res.estimate).abs() <= 1e-9 * res.estimate.abs().max(1.0),
            "{taxonomy}: stratum means sum to {mean_total}, estimate {est}",
            est = res.estimate
        );
    }
}

/// The ledger's memory bound holds against a long run: the retained
/// entry count stays at the cap while the stride grows, and the document
/// still parses.
#[test]
fn est_ledger_stays_bounded_on_long_runs() {
    let g = gnm(20, 40, 3);
    let t = Template::path(3);
    let collector = Arc::new(EstCollector::with_ledger_cap(16));
    let cfg = CountConfig {
        iterations: 300,
        parallel: ParallelMode::Serial,
        seed: 8,
        est: Some(Arc::clone(&collector)),
        ..CountConfig::default()
    };
    count_template(&g, &t, &cfg).unwrap();
    let doc = collector.to_json();
    let v = Json::parse(&doc).unwrap();
    let ledger = get(&v, "ledger").unwrap();
    assert_eq!(
        get(ledger, "offered").and_then(Json::as_u64),
        Some(300),
        "every iteration offered"
    );
    let entries = get(ledger, "entries").and_then(Json::as_arr).unwrap();
    assert!(entries.len() <= 17, "bounded: {} entries", entries.len());
    let stride = get(ledger, "stride").and_then(Json::as_u64).unwrap();
    assert!(stride.is_power_of_two() && stride > 1);
}

/// The rendered fascia-est/1 document is pinned byte for byte, and parses
/// back through the same depth-capped reader that guards checkpoint
/// resume. Built from a fixed seeded run, so the golden is deterministic.
#[test]
fn est_document_golden_round_trip() {
    let g = gnm(24, 60, 42);
    let t = Template::path(4);
    let collector = Arc::new(EstCollector::with_ledger_cap(8));
    let cfg = CountConfig {
        iterations: 10,
        parallel: ParallelMode::Serial,
        seed: 7,
        est: Some(Arc::clone(&collector)),
        ..CountConfig::default()
    };
    count_template(&g, &t, &cfg).unwrap();
    let doc = collector.to_json();

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/est.json");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(golden_path, &doc).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden missing; run once with BLESS=1 to create it");
    assert_eq!(doc, golden, "fascia-est/1 serialization drifted");

    let v = Json::parse(&doc).unwrap();
    assert_eq!(
        get(&v, "schema").and_then(Json::as_str),
        Some("fascia-est/1")
    );
    assert_eq!(get(&v, "iterations").and_then(Json::as_u64), Some(10));
    assert!(get(&v, "stalled").is_some());
    assert!(get(&v, "apriori_exhausted").is_some());
}
