//! Integration tests of the `fascia-perf` harness: the Mann–Whitney gate
//! against hand-computed null distributions, schema round-trips, a golden
//! file pinning the `fascia-perf/1` serialization, the compare verdict
//! rules, and an end-to-end run of the (filtered) pinned suite including
//! the injected-regression check the gate exists for.

use fascia_bench::perf::{
    any_regression, compare, default_suite, mad, mann_whitney, median, render_comparisons,
    run_suite, PerfDoc, PerfRecord, SuiteOpts, Verdict, DEFAULT_THRESHOLD,
};
use std::collections::BTreeMap;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Mann–Whitney against hand-computed values
// ---------------------------------------------------------------------------

/// Fully separated samples: every `new` beats every `old`, so `U = 9`,
/// and exactly one of the `C(6,3) = 20` label arrangements reaches it:
/// `p = 1/20 = 0.05` exactly.
#[test]
fn mwu_separated_samples_exact() {
    let r = mann_whitney(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]);
    assert_eq!(r.u, 9.0);
    assert!((r.p_greater - 0.05).abs() < 1e-12, "p = {}", r.p_greater);
}

/// Interleaved samples land on the null mean `U = nm/2 = 10`. The exact
/// tail is the sum of the Gaussian-binomial counts for `u ≥ 10`
/// (7+5+5+3+2+1+1 = 24 of the C(8,4) = 70 arrangements): `p = 24/70`.
#[test]
fn mwu_interleaved_samples_exact() {
    let r = mann_whitney(&[1.0, 3.0, 5.0, 7.0], &[2.0, 4.0, 6.0, 8.0]);
    assert_eq!(r.u, 10.0);
    assert!(
        (r.p_greater - 24.0 / 70.0).abs() < 1e-12,
        "p = {}",
        r.p_greater
    );
}

/// A cross-sample tie credits 0.5 to U and forces the tie-corrected
/// normal path: `U = 1 + 0.5 + 2 = 3.5` here.
#[test]
fn mwu_ties_use_half_credit() {
    let r = mann_whitney(&[1.0, 2.0], &[2.0, 3.0]);
    assert_eq!(r.u, 3.5);
    assert!(
        r.p_greater > 0.0 && r.p_greater < 0.5,
        "p = {}",
        r.p_greater
    );
}

/// With the samples swapped, `U = 0` and `P(U ≥ 0)` is certain.
#[test]
fn mwu_reversed_direction_is_not_significant() {
    let r = mann_whitney(&[4.0, 5.0, 6.0], &[1.0, 2.0, 3.0]);
    assert_eq!(r.u, 0.0);
    assert!((r.p_greater - 1.0).abs() < 1e-12);
}

#[test]
fn mwu_empty_samples_are_inconclusive() {
    assert_eq!(mann_whitney(&[], &[1.0]).p_greater, 1.0);
    assert_eq!(mann_whitney(&[1.0], &[]).p_greater, 1.0);
}

/// All pooled values identical: zero variance, no evidence either way.
#[test]
fn mwu_constant_samples_are_inconclusive() {
    let r = mann_whitney(&[2.0, 2.0, 2.0], &[2.0, 2.0, 2.0]);
    assert_eq!(r.p_greater, 1.0);
}

// ---------------------------------------------------------------------------
// Document round-trip, JSONL merge, and the golden file
// ---------------------------------------------------------------------------

fn sample_doc() -> PerfDoc {
    let mut benchmarks = BTreeMap::new();
    benchmarks.insert(
        "count/serial/improved/small".to_string(),
        PerfRecord {
            warmup: 1,
            threshold: 1.3,
            peak_table_bytes: 1_048_576,
            reps_s: vec![0.25, 0.5, 1.0],
        },
    );
    benchmarks.insert(
        "count/outer/hash/large".to_string(),
        PerfRecord {
            warmup: 2,
            threshold: 1.5,
            peak_table_bytes: 2_048,
            reps_s: vec![0.125],
        },
    );
    PerfDoc {
        created_unix_ms: 1_754_460_000_000,
        threads: 8,
        cpu_model: Some("Example CPU @ 3.00GHz".to_string()),
        kernel: Some("6.0.0-example".to_string()),
        git_sha: Some("0123456789abcdef".to_string()),
        benchmarks,
    }
}

#[test]
fn document_round_trips_through_json() {
    let doc = sample_doc();
    let parsed = PerfDoc::parse(&doc.to_json()).unwrap();
    assert_eq!(parsed, doc);
    // Derived statistics come back identical because they are recomputed
    // from reps_s, never trusted from the file.
    let rec = &parsed.benchmarks["count/serial/improved/small"];
    assert_eq!(rec.median_s(), 0.5);
    assert_eq!(rec.mad_s(), 0.25);
}

#[test]
fn parse_merges_jsonl_streams_and_defaults_missing_fields() {
    // A full document followed by two appended lines that carry no
    // created/threads/threshold (as older archive appends did): those
    // records pick up the default threshold, and later lines win on
    // benchmark-name collisions.
    let text = format!(
        "{}\n{}\n{}\n",
        sample_doc().to_json(),
        r#"{"schema":"fascia-perf/1","benchmarks":{"engine_trace_overhead/absent":{"warmup":1,"reps_s":[0.001,0.002]}}}"#,
        r#"{"schema":"fascia-perf/1","benchmarks":{"count/outer/hash/large":{"warmup":9,"reps_s":[0.5]}}}"#,
    );
    let doc = PerfDoc::parse(&text).unwrap();
    assert_eq!(doc.created_unix_ms, 1_754_460_000_000);
    assert_eq!(doc.threads, 8);
    assert_eq!(doc.benchmarks.len(), 3);
    let shim = &doc.benchmarks["engine_trace_overhead/absent"];
    assert_eq!(shim.threshold, DEFAULT_THRESHOLD);
    assert_eq!(shim.reps_s, vec![0.001, 0.002]);
    // Pre-memory-axis producers parse with the additive default.
    assert_eq!(shim.peak_table_bytes, 0);
    // The appended lines carry no provenance; the full document's survives
    // the merge.
    assert_eq!(doc.cpu_model.as_deref(), Some("Example CPU @ 3.00GHz"));
    assert_eq!(doc.git_sha.as_deref(), Some("0123456789abcdef"));
    // The later line replaced the earlier record wholesale.
    assert_eq!(doc.benchmarks["count/outer/hash/large"].warmup, 9);
}

#[test]
fn parse_rejects_bad_documents() {
    assert!(PerfDoc::parse("").is_err());
    assert!(PerfDoc::parse("not json").is_err());
    assert!(PerfDoc::parse(r#"{"schema":"fascia-perf/2","benchmarks":{}}"#).is_err());
    // Zero reps would make every statistic meaningless.
    let err = PerfDoc::parse(r#"{"schema":"fascia-perf/1","benchmarks":{"b":{"reps_s":[]}}}"#)
        .unwrap_err();
    assert!(err.contains("zero reps"), "got: {err}");
    // Line numbers point at the offending line of a stream.
    let text = format!("{}\nnonsense\n", sample_doc().to_json());
    let err = PerfDoc::parse(&text).unwrap_err();
    assert!(err.starts_with("line 2:"), "got: {err}");
}

/// Pins the exact `fascia-perf/1` serialization. The schema is a
/// compatibility surface (CI baselines are checked-in files), so drift
/// must be deliberate: re-bless with
/// `BLESS=1 cargo test -p fascia-bench --test perf`.
#[test]
fn serialization_matches_golden_file() {
    let rendered = format!("{}\n", sample_doc().to_json());
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/perf.json");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(golden_path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file exists");
    assert_eq!(
        rendered, golden,
        "fascia-perf/1 serialization drifted from the golden file; \
         if intentional, re-bless with BLESS=1"
    );
}

// ---------------------------------------------------------------------------
// The checked-in archives
// ---------------------------------------------------------------------------

fn repo_file(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The archives `perf compare` is pointed at must keep parsing: the
/// 08-08 archive is a two-line JSON-lines stream (the suite document plus
/// an appended service-batch line), and both BENCH files must diff
/// against each other row for row.
#[test]
fn checked_in_archives_parse_and_compare() {
    let parse =
        |name: &str| PerfDoc::parse(&repo_file(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    let aug06 = parse("BENCH_2026-08-06.json");
    let aug08 = parse("BENCH_2026-08-08.json");
    let baseline = parse("scripts/perf_baseline.json");
    assert!(!baseline.benchmarks.is_empty());
    let count_ids = |doc: &PerfDoc| {
        doc.benchmarks
            .keys()
            .filter(|id| id.starts_with("count/"))
            .count()
    };
    assert_eq!(count_ids(&aug06), 18);
    assert_eq!(count_ids(&aug08), 18);
    for id in ["svc_throughput/clean", "svc_throughput/chaos"] {
        assert!(
            aug08.benchmarks.contains_key(id),
            "08-08 archive lacks {id}"
        );
    }
    assert_eq!(aug08.benchmarks.len(), 20);
    // Every cell of today's full suite lines up with an archived record.
    for spec in default_suite(false) {
        assert!(aug08.benchmarks.contains_key(&spec.id), "{}", spec.id);
    }
    let rows = compare(&aug06, &aug08, None, 0.01);
    let mut ids: Vec<&String> = aug06
        .benchmarks
        .keys()
        .chain(aug08.benchmarks.keys())
        .collect();
    ids.sort();
    ids.dedup();
    let row_ids: Vec<&String> = rows.iter().map(|r| &r.name).collect();
    assert_eq!(row_ids, ids);
}

// ---------------------------------------------------------------------------
// Compare verdict rules
// ---------------------------------------------------------------------------

fn doc_of(entries: &[(&str, &[f64])]) -> PerfDoc {
    let mut benchmarks = BTreeMap::new();
    for (name, reps) in entries {
        benchmarks.insert(
            name.to_string(),
            PerfRecord {
                warmup: 0,
                threshold: DEFAULT_THRESHOLD,
                reps_s: reps.to_vec(),
                ..PerfRecord::default()
            },
        );
    }
    PerfDoc {
        created_unix_ms: 0,
        threads: 1,
        benchmarks,
        ..PerfDoc::default()
    }
}

const OLD_REPS: [f64; 7] = [0.100, 0.101, 0.102, 0.103, 0.104, 0.105, 0.106];

#[test]
fn compare_identical_documents_is_all_similar() {
    let doc = doc_of(&[("a", &OLD_REPS), ("b", &[0.5])]);
    let rows = compare(&doc, &doc, None, 0.01);
    assert!(
        rows.iter().all(|r| r.verdict == Verdict::Similar),
        "{rows:?}"
    );
    assert!(!any_regression(&rows));
}

#[test]
fn compare_flags_significant_slowdown() {
    let old = doc_of(&[("a", &OLD_REPS)]);
    let slow: Vec<f64> = OLD_REPS.iter().map(|x| x * 2.5).collect();
    let new = doc_of(&[("a", &slow)]);
    let rows = compare(&old, &new, None, 0.01);
    assert_eq!(rows[0].verdict, Verdict::Regressed);
    // Complete separation of 7-vs-7 samples: p = 1/C(14,7) = 1/3432.
    let p = rows[0].p_greater.unwrap();
    assert!((p - 1.0 / 3432.0).abs() < 1e-12, "p = {p}");
    assert!(any_regression(&rows));
    assert!(render_comparisons(&rows).contains("REGRESSED"));
}

/// A significant but tiny slowdown stays below the ratio threshold:
/// significance alone must not fail the gate.
#[test]
fn compare_tolerates_small_significant_shifts() {
    let old = doc_of(&[("a", &OLD_REPS)]);
    let slight: Vec<f64> = OLD_REPS.iter().map(|x| x * 1.05).collect();
    let new = doc_of(&[("a", &slight)]);
    let rows = compare(&old, &new, None, 0.01);
    assert_eq!(rows[0].verdict, Verdict::Similar, "{rows:?}");
}

/// A big ratio without significance (noisy overlapping samples) also
/// stays Similar — the two conditions are conjunctive.
#[test]
fn compare_requires_significance_for_large_samples() {
    let old = doc_of(&[("a", &[0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 5.0])]);
    let new = doc_of(&[("a", &[0.1, 0.1, 0.1, 0.1, 0.1, 5.0, 5.0])]);
    let rows = compare(&old, &new, None, 0.01);
    assert!(rows[0].ratio > DEFAULT_THRESHOLD || rows[0].verdict == Verdict::Similar);
    assert_eq!(rows[0].verdict, Verdict::Similar, "{rows:?}");
}

/// Fewer than 4 reps on either side (the 1-rep CI smoke) falls back to
/// the ratio-only rule with no p-value.
#[test]
fn compare_small_samples_use_ratio_only() {
    let old = doc_of(&[("a", &[0.1]), ("b", &[0.1])]);
    let new = doc_of(&[("a", &[0.25]), ("b", &[0.11])]);
    let rows = compare(&old, &new, None, 0.01);
    let a = rows.iter().find(|r| r.name == "a").unwrap();
    let b = rows.iter().find(|r| r.name == "b").unwrap();
    assert_eq!(a.verdict, Verdict::Regressed);
    assert_eq!(a.p_greater, None);
    assert_eq!(b.verdict, Verdict::Similar);
    // The rendered table exposes the fallback: per-cell rep counts and
    // MAD columns show 1-rep cells whose `p` is `-` (ratio-only verdict).
    assert_eq!((a.old_n, a.new_n), (1, 1));
    assert_eq!((a.old_mad_s, a.new_mad_s), (0.0, 0.0));
    let table = render_comparisons(&rows);
    let header = table.lines().next().unwrap();
    for col in ["old_n", "new_n", "old_mad", "new_mad"] {
        assert!(header.contains(col), "missing {col} in {header:?}");
    }
    let row_a = table.lines().find(|l| l.starts_with("a ")).unwrap();
    assert!(row_a.contains(" 1 "), "rep count visible in {row_a:?}");
    assert!(row_a.ends_with("REGRESSED"));
}

#[test]
fn compare_detects_improvement_additions_and_removals() {
    let fast: Vec<f64> = OLD_REPS.iter().map(|x| x * 0.4).collect();
    let old = doc_of(&[("kept", &OLD_REPS), ("gone", &[0.5])]);
    let mut new = doc_of(&[("kept", &fast), ("fresh", &[0.5])]);
    new.benchmarks.get_mut("kept").unwrap().threshold = 1.3;
    let rows = compare(&old, &new, None, 0.01);
    let verdict = |name: &str| rows.iter().find(|r| r.name == name).unwrap().verdict;
    assert_eq!(verdict("kept"), Verdict::Improved);
    assert_eq!(verdict("gone"), Verdict::Removed);
    assert_eq!(verdict("fresh"), Verdict::Added);
    assert!(!any_regression(&rows));
}

#[test]
fn compare_threshold_override_wins() {
    let old = doc_of(&[("a", &OLD_REPS)]);
    let slow: Vec<f64> = OLD_REPS.iter().map(|x| x * 2.5).collect();
    let new = doc_of(&[("a", &slow)]);
    let rows = compare(&old, &new, Some(3.0), 0.01);
    assert_eq!(rows[0].verdict, Verdict::Similar, "{rows:?}");
}

// ---------------------------------------------------------------------------
// End-to-end: the pinned suite and the injected-regression check
// ---------------------------------------------------------------------------

fn quick_opts() -> SuiteOpts {
    SuiteOpts {
        reps: 5,
        warmup: 1,
        smoke: true,
        filter: Some("improved".to_string()),
        ..SuiteOpts::default()
    }
}

/// Two identically-configured runs of the (filtered) smoke suite must
/// compare clean, and the emitted document must survive its own
/// serialization.
#[test]
fn suite_self_comparison_is_clean() {
    let a = run_suite(&quick_opts());
    let b = run_suite(&quick_opts());
    assert_eq!(a.benchmarks.len(), 1, "filter should keep exactly one spec");
    let rec = &a.benchmarks["count/serial/improved/small"];
    assert_eq!(rec.reps_s.len(), 5);
    assert!(rec.median_s() > 0.0);
    assert!(median(&rec.reps_s) >= mad(&rec.reps_s));
    // The memory axis rides along: a real counting run builds tables.
    assert!(rec.peak_table_bytes > 0, "suite must measure table memory");
    let rows = compare(&a, &b, None, 0.01);
    assert!(
        !any_regression(&rows),
        "identical configs compared dirty: {}",
        render_comparisons(&rows)
    );
    let round = PerfDoc::parse(&a.to_json()).unwrap();
    assert_eq!(round, a);
}

/// The reason the handicap hook exists: a synthetic sleep injected into
/// every DP step must be caught by the gate as a significant regression.
#[test]
fn injected_sleep_is_flagged_as_regression() {
    let base = run_suite(&quick_opts());
    let rec = &base.benchmarks["count/serial/improved/small"];
    // Scale the sleep to the machine: each rep executes ≥ 4 DP steps
    // (4 iterations × ≥ 1 subtemplate node), so sleeping a quarter of
    // the base median per step at least doubles the rep time — far past
    // the 1.3× threshold regardless of absolute speed.
    let sleep_ms = (rec.median_s() * 1e3 / 4.0).clamp(2.0, 250.0);
    let slow = run_suite(&SuiteOpts {
        handicap: Some(Duration::from_millis(sleep_ms as u64)),
        ..quick_opts()
    });
    let rows = compare(&base, &slow, None, 0.05);
    assert_eq!(rows.len(), 1);
    assert_eq!(
        rows[0].verdict,
        Verdict::Regressed,
        "sleep {sleep_ms} ms/step not flagged: {}",
        render_comparisons(&rows)
    );
    assert!(rows[0].ratio > DEFAULT_THRESHOLD);
    assert!(rows[0].p_greater.unwrap() < 0.05);
}

// ---------------------------------------------------------------------------
// The perf binary's usage errors and exit codes
// ---------------------------------------------------------------------------

fn perf_bin(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("perf binary runs")
}

/// `--alpha 0` would make the significance test unpassable and so turn
/// the gate off; it must be a usage error (2), while a valid alpha on a
/// regressed pair exits 1. A `--filter` that selects no benchmark must
/// also be a usage error rather than an empty document.
#[test]
fn perf_binary_rejects_gate_disabling_and_empty_selections() {
    let dir = std::env::temp_dir().join(format!("fascia-perf-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let old_path = dir.join("old.json");
    let new_path = dir.join("new.json");
    let slow: Vec<f64> = OLD_REPS.iter().map(|x| x * 2.5).collect();
    std::fs::write(&old_path, doc_of(&[("a", &OLD_REPS)]).to_json()).unwrap();
    std::fs::write(&new_path, doc_of(&[("a", &slow)]).to_json()).unwrap();
    let (old, new) = (old_path.to_str().unwrap(), new_path.to_str().unwrap());

    let code = |out: &std::process::Output| out.status.code();
    assert_eq!(
        code(&perf_bin(&["compare", old, new, "--alpha", "0"])),
        Some(2)
    );
    assert_eq!(
        code(&perf_bin(&["compare", old, new, "--alpha", "-0.5"])),
        Some(2)
    );
    assert_eq!(
        code(&perf_bin(&["compare", old, new, "--alpha", "0.05"])),
        Some(1)
    );

    let empty = dir.join("empty.json");
    let out = perf_bin(&[
        "run",
        "--filter",
        "no-such-cell",
        "--quiet",
        "--out",
        empty.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no-such-cell"),
        "message must name the filter"
    );
    assert!(!empty.exists(), "no document may be written");
    let _ = std::fs::remove_dir_all(&dir);
}
