//! End-to-end tests of the `fascia` binary.

use std::process::Command;

fn fascia() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fascia"))
}

#[test]
fn templates_lists_gallery() {
    let out = fascia().arg("templates").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in ["U3-1", "U3-2", "U5-2", "U7-2", "U10-2", "U12-2"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn info_reports_circuit_stats() {
    let out = fascia().args(["info", "circuit"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("n: 252"));
    assert!(text.contains("m: 399"));
}

#[test]
fn count_and_exact_agree_on_circuit() {
    let exact_out = fascia()
        .args(["exact", "circuit", "U3-1"])
        .output()
        .unwrap();
    assert!(exact_out.status.success());
    let exact_text = String::from_utf8(exact_out.stdout).unwrap();
    let exact: f64 = exact_text
        .lines()
        .find_map(|l| l.strip_prefix("exact count: "))
        .unwrap()
        .parse()
        .unwrap();

    let out = fascia()
        .args(["count", "circuit", "U3-1", "--iters", "500", "--seed", "9"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let est: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("estimate: "))
        .unwrap()
        .parse()
        .unwrap();
    let err = (est - exact).abs() / exact;
    assert!(err < 0.1, "estimate {est} vs exact {exact}");
}

#[test]
fn adaptive_count_stops_early_and_reports_ci() {
    let out = fascia()
        .args([
            "count",
            "circuit",
            "U3-1",
            "--adaptive",
            "--epsilon",
            "0.05",
            "--delta",
            "0.05",
            "--max-iters",
            "5000",
            "--seed",
            "9",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let iters: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("iterations: "))
        .unwrap()
        .parse()
        .unwrap();
    assert!(iters < 5000, "adaptive run used the whole budget: {text}");
    let saved: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("iterations saved: "))
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(iters + saved, 5000, "got: {text}");
    assert!(text.contains("std error: "), "got: {text}");
    assert!(text.contains("95% ci: "), "got: {text}");

    // And it lands near the exact count.
    let exact_out = fascia()
        .args(["exact", "circuit", "U3-1"])
        .output()
        .unwrap();
    let exact: f64 = String::from_utf8(exact_out.stdout)
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("exact count: "))
        .unwrap()
        .parse()
        .unwrap();
    let est: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("estimate: "))
        .unwrap()
        .parse()
        .unwrap();
    let err = (est - exact).abs() / exact;
    assert!(err < 0.15, "estimate {est} vs exact {exact}");
}

#[test]
fn sample_prints_valid_embeddings() {
    let out = fascia()
        .args(["sample", "circuit", "path4", "5", "--iters", "200"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let rows: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(rows.len(), 5);
    for row in rows {
        let ids: Vec<u32> = row.split_whitespace().map(|x| x.parse().unwrap()).collect();
        assert_eq!(ids.len(), 4);
        assert!(ids.iter().all(|&v| v < 252));
    }
}

#[test]
fn gen_roundtrips_through_file_input() {
    let dir = std::env::temp_dir().join("fascia_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("circuit.txt");
    let out = fascia()
        .args(["gen", "circuit", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let info = fascia()
        .args(["info", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(info.status.success());
    let text = String::from_utf8(info.stdout).unwrap();
    assert!(text.contains("n: 252"), "got: {text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_command_exits_nonzero() {
    let out = fascia().arg("bogus").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn unknown_template_exits_nonzero() {
    let out = fascia()
        .args(["count", "circuit", "U9-9"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

fn exit_code(out: &std::process::Output) -> i32 {
    out.status.code().unwrap_or(-1)
}

#[test]
fn help_documents_exit_codes_and_resilience_flags() {
    let out = fascia().arg("help").output().unwrap();
    assert_eq!(exit_code(&out), 0);
    let text = String::from_utf8(out.stdout).unwrap();
    for needle in [
        "exit codes:",
        "--timeout-secs",
        "--checkpoint",
        "--resume",
        "--memory-budget",
    ] {
        assert!(text.contains(needle), "help is missing {needle}: {text}");
    }
}

#[test]
fn usage_errors_exit_2() {
    // Missing positional arguments.
    let out = fascia().args(["count", "circuit"]).output().unwrap();
    assert_eq!(exit_code(&out), 2);
    // Unknown flag (previously silently ignored).
    let out = fascia()
        .args(["count", "circuit", "U3-1", "--bogus"])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 2);
    // Malformed flag value (previously a panic via expect()).
    let out = fascia()
        .args(["count", "circuit", "U3-1", "--iters", "many"])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 2);
    // Flag at end of line with no value (previously an index panic).
    let out = fascia()
        .args(["count", "circuit", "U3-1", "--iters"])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 2);
}

#[test]
fn distsim_zero_ranks_is_a_usage_error() {
    let out = fascia()
        .args(["distsim", "circuit", "U5-2", "0", "--iters", "2"])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 2, "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("rank count: 0"), "{stderr}");
    let out = fascia()
        .args(["distsim", "circuit", "U5-2", "1", "--iters", "2"])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 0, "{out:?}");
}

/// `distsim` rejects, by name, every counting flag its simulation would
/// ignore, and still takes the ones it reads plus the observability
/// flags.
#[test]
fn distsim_rejects_counting_flags_it_ignores() {
    let base = ["distsim", "circuit", "U5-2", "2", "--iters", "2"];
    for extra in [
        &["--table", "hash"][..],
        &["--memory-budget", "1"],
        &["--adaptive"],
        &["--epsilon", "0.1"],
        &["--delta", "0.1"],
        &["--max-iters", "9"],
        &["--parallel", "inner"],
        &["--parallel", "serial"],
        &["--timeout-secs", "5"],
        &["--checkpoint", "unused.ckpt"],
        &["--heartbeat", "unused.json"],
        &["--progress"],
    ] {
        let out = fascia().args(base).args(extra).output().unwrap();
        assert_eq!(exit_code(&out), 2, "{extra:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains(&format!("'{}'", extra[0])),
            "{extra:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{extra:?} ran the simulation");
    }
    let out = fascia()
        .args(base)
        .args(["--seed", "3", "--strategy", "balanced", "--metrics", "json"])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Block: estimate"), "{stdout}");
    assert!(stdout.contains("\"schema\":\"fascia-obs/1\""), "{stdout}");
}

#[test]
fn missing_input_file_exits_3() {
    let out = fascia()
        .args(["info", "/definitely/not/a/real/file.txt"])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 3);
    let out = fascia()
        .args([
            "count",
            "circuit",
            "U3-1",
            "--resume",
            "/definitely/not/a/real/checkpoint.json",
        ])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 3);
}

#[test]
fn timeout_zero_checkpoints_then_resume_matches_fresh_run() {
    let dir = std::env::temp_dir().join("fascia_cli_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("run.ckpt");
    std::fs::remove_file(&ck).ok();

    let fresh = fascia()
        .args(["count", "circuit", "U3-1", "--iters", "300", "--seed", "7"])
        .output()
        .unwrap();
    assert_eq!(exit_code(&fresh), 0);
    let fresh_text = String::from_utf8(fresh.stdout).unwrap();
    let fresh_estimate = fresh_text
        .lines()
        .find(|l| l.starts_with("estimate: "))
        .unwrap()
        .to_string();

    // A zero deadline cancels before any iteration completes: partial
    // exit code, but a valid (empty) checkpoint is still flushed.
    let timed = fascia()
        .args([
            "count",
            "circuit",
            "U3-1",
            "--iters",
            "300",
            "--seed",
            "7",
            "--timeout-secs",
            "0",
            "--checkpoint",
            ck.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(exit_code(&timed), 4, "stderr: {:?}", timed.stderr);
    assert!(ck.exists(), "cancelled run should still flush a checkpoint");

    // Resume adopts the checkpoint's seed and stop rule — no flags needed
    // — and reproduces the uninterrupted run exactly.
    let resumed = fascia()
        .args(["count", "circuit", "U3-1", "--resume", ck.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(exit_code(&resumed), 0, "stderr: {:?}", resumed.stderr);
    let resumed_text = String::from_utf8(resumed.stdout).unwrap();
    assert!(
        resumed_text.contains(&fresh_estimate),
        "resume diverged from fresh run:\nfresh: {fresh_text}\nresumed: {resumed_text}"
    );
    assert!(resumed_text.contains("iterations: 300"), "{resumed_text}");
    assert!(
        resumed_text.contains("stop cause: completed"),
        "{resumed_text}"
    );
    std::fs::remove_file(&ck).ok();
}

#[test]
fn memory_budget_degrades_layout_and_reports_metric() {
    // The engine splits the budget across outer-loop workers, so scale by
    // the machine's thread count to pin the per-worker limit at 128 KiB —
    // inside the band where path7 on circuit must fall back from the
    // preferred lazy layout to hashed, but still completes.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let budget = (128 * 1024 * threads).to_string();
    let out = fascia()
        .args([
            "count",
            "circuit",
            "path7",
            "--iters",
            "20",
            "--seed",
            "9",
            "--memory-budget",
            &budget,
            "--metrics",
            "json",
        ])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 0, "stderr: {:?}", out.stderr);
    let text = String::from_utf8(out.stdout).unwrap();
    let fallbacks: u64 = text
        .split("\"engine.degrade.layout_fallbacks\":{\"total\":")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    assert!(fallbacks > 0, "expected layout fallbacks, got: {text}");
    assert!(text.contains("stop cause: completed"), "{text}");
}

#[test]
fn impossible_memory_budget_exits_4() {
    let out = fascia()
        .args([
            "count",
            "circuit",
            "U3-1",
            "--iters",
            "5",
            "--memory-budget",
            "1",
        ])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 4);
}

#[cfg(unix)]
#[test]
fn sigint_reports_partial_estimate_and_exits_4() {
    use std::io::Read;
    let mut child = fascia()
        .args([
            "count", "circuit", "path7", "--iters", "50000", "--seed", "3",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    // Let a few waves complete, then interrupt cooperatively.
    std::thread::sleep(std::time::Duration::from_millis(500));
    let _ = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .unwrap();
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(4));
    let mut text = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut text)
        .unwrap();
    assert!(text.contains("estimate: "), "no partial estimate: {text}");
    assert!(text.contains("stop cause: cancelled"), "{text}");
}

#[test]
fn motifs_scan_size_four() {
    let out = fascia()
        .args(["motifs", "circuit", "4", "--iters", "50"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    // 2 topologies of size 4.
    let rows = text.lines().filter(|l| !l.starts_with('#')).count();
    assert_eq!(rows, 2, "got: {text}");
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fascia_cli_obs_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

#[test]
fn trace_flag_writes_valid_perfetto_json() {
    use fascia_core::resilience::Json;
    let path = tmp_path("run.trace.json");
    std::fs::remove_file(&path).ok();
    let out = fascia()
        .args(["count", "circuit", "U5-2", "--iters", "20", "--seed", "9"])
        .arg("--trace")
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("trace:"), "missing trace summary: {stderr}");

    // The exported document must parse with the same depth-capped parser
    // that guards checkpoint resume, be a top-level array, and keep
    // timestamps monotone within each thread track.
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = Json::parse(&text).expect("trace file parses");
    let events = doc.as_arr().expect("top level is an array");
    assert!(!events.is_empty());
    let mut last_ts: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    let mut names: std::collections::HashSet<String> = std::collections::HashSet::new();
    for ev in events {
        let obj = ev.as_obj().expect("event object");
        for key in ["name", "ph", "pid", "tid", "ts"] {
            assert!(Json::get(obj, key).is_some(), "missing {key}");
        }
        names.insert(
            Json::get(obj, "name")
                .and_then(Json::as_str)
                .unwrap()
                .to_string(),
        );
        let tid = Json::get(obj, "tid").and_then(Json::as_u64).unwrap();
        let ts = Json::get(obj, "ts").and_then(Json::as_f64).unwrap();
        let prev = last_ts.insert(tid, ts).unwrap_or(f64::NEG_INFINITY);
        assert!(ts >= prev, "ts not monotone on tid {tid}");
    }
    assert!(names.contains("iteration"), "{names:?}");
    assert!(names.contains("wave"), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("dp.n")), "{names:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn heartbeat_file_has_stable_shape() {
    use fascia_core::resilience::Json;
    let path = tmp_path("run.heartbeat.json");
    std::fs::remove_file(&path).ok();
    let out = fascia()
        .args(["count", "circuit", "U3-1", "--iters", "40", "--seed", "3"])
        .arg("--heartbeat")
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&path).expect("heartbeat written");
    let doc = Json::parse(&text).expect("heartbeat parses");
    let obj = doc.as_obj().expect("heartbeat is an object");
    assert_eq!(
        Json::get(obj, "schema").and_then(Json::as_str),
        Some("fascia-heartbeat/1")
    );
    assert_eq!(
        Json::get(obj, "status").and_then(Json::as_str),
        Some("finished")
    );
    assert_eq!(
        Json::get(obj, "stop_cause").and_then(Json::as_str),
        Some("completed")
    );
    assert_eq!(
        Json::get(obj, "iterations_done").and_then(Json::as_u64),
        Some(40)
    );
    assert_eq!(Json::get(obj, "budget").and_then(Json::as_u64), Some(40));
    for key in [
        "pid",
        "phase",
        "percent",
        "estimate",
        "elapsed_secs",
        "updates",
    ] {
        assert!(Json::get(obj, key).is_some(), "missing {key}: {text}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn metrics_prom_emits_exposition_format() {
    let out = fascia()
        .args([
            "count",
            "circuit",
            "U3-1",
            "--iters",
            "30",
            "--seed",
            "5",
            "--metrics",
            "prom",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("# TYPE"), "missing TYPE lines: {text}");
    assert!(
        text.contains("_bucket{le=\"+Inf\"}"),
        "missing +Inf bucket: {text}"
    );
    assert!(text.contains("_sum"), "missing _sum: {text}");
    assert!(text.contains("_count"), "missing _count: {text}");
}

#[test]
fn metrics_json_carries_run_metadata_and_trace_summary() {
    let out = fascia()
        .args([
            "count",
            "circuit",
            "U3-1",
            "--iters",
            "25",
            "--seed",
            "7",
            "--metrics",
            "json",
            "--trace-buffer",
            "4096",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    let line = text
        .lines()
        .find(|l| l.contains("fascia-obs/1"))
        .expect("metrics JSON line");
    for key in [
        "\"run\"",
        "\"started_unix_ms\"",
        "\"wall_ms\"",
        "\"threads\"",
        "\"parallel\"",
        "fascia-trace/1",
        "\"ring_capacity\":4096",
    ] {
        assert!(line.contains(key), "missing {key}: {line}");
    }
}

/// Multi-line `--metrics json` stdout contract: every emitted JSON line
/// is a standalone document — it parses through the depth-capped parser
/// on its own and carries a known schema tag — so run scripts can split
/// stdout by line and archive each document independently.
#[test]
fn metrics_json_stdout_lines_are_standalone_tagged_documents() {
    use fascia_core::resilience::Json;
    let out = fascia()
        .args([
            "count",
            "circuit",
            "U3-1",
            "--iters",
            "10",
            "--seed",
            "3",
            "--metrics",
            "json",
            "--mem-stats",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    const KNOWN: [&str; 4] = [
        "fascia-obs/1",
        "fascia-mem/1",
        "fascia-est/1",
        "fascia-ckpt/1",
    ];
    let mut seen = Vec::new();
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let doc = Json::parse(line)
            .unwrap_or_else(|e| panic!("stdout line is not standalone JSON ({e:?}): {line}"));
        let schema = doc
            .as_obj()
            .and_then(|o| Json::get(o, "schema"))
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("stdout JSON line has no schema tag: {line}"));
        assert!(KNOWN.contains(&schema), "unknown schema {schema:?}: {line}");
        seen.push(schema.to_string());
    }
    for expected in ["fascia-obs/1", "fascia-mem/1", "fascia-est/1"] {
        assert!(
            seen.iter().any(|s| s == expected),
            "missing a {expected} stdout line; saw {seen:?}"
        );
    }
}

#[test]
fn trace_does_not_change_the_estimate() {
    let plain = fascia()
        .args(["count", "circuit", "U3-1", "--iters", "60", "--seed", "11"])
        .output()
        .unwrap();
    assert!(plain.status.success());
    let path = tmp_path("identity.trace.json");
    std::fs::remove_file(&path).ok();
    let traced = fascia()
        .args(["count", "circuit", "U3-1", "--iters", "60", "--seed", "11"])
        .arg("--trace")
        .arg(&path)
        // Tiny buffer: overflow must also leave the result untouched.
        .args(["--trace-buffer", "8"])
        .output()
        .unwrap();
    assert!(traced.status.success());
    std::fs::remove_file(&path).ok();
    let line = |out: &[u8]| {
        String::from_utf8_lossy(out)
            .lines()
            .find(|l| l.starts_with("estimate: "))
            .unwrap()
            .to_string()
    };
    assert_eq!(line(&plain.stdout), line(&traced.stdout));
}

#[test]
fn profile_flag_writes_collapsed_stacks() {
    let path = tmp_path("run.collapsed");
    std::fs::remove_file(&path).ok();
    let out = fascia()
        .args(["count", "circuit", "U5-2", "--iters", "400", "--seed", "9"])
        .arg("--profile")
        .arg(&path)
        .args(["--profile-hz", "4000"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("profile: "), "stderr: {stderr}");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(!text.is_empty(), "empty profile file");
    let mut stacks = Vec::new();
    for line in text.lines() {
        // The collapsed format speedscope/inferno ingest: stack, space,
        // integer value.
        let (stack, value) = line.rsplit_once(' ').unwrap();
        assert!(value.parse::<u64>().is_ok(), "bad value in: {line}");
        stacks.push(stack.to_string());
    }
    assert!(
        stacks
            .iter()
            .any(|s| s.split(';').any(|f| f == "iteration")),
        "no iteration frame in: {stacks:?}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn profile_top_table_shows_in_pretty_metrics() {
    let out = fascia()
        .args(["count", "circuit", "U5-2", "--iters", "400", "--seed", "9"])
        .args(["--profile-hz", "4000"])
        .args(["--metrics", "pretty"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("profile: ") && stderr.contains(" Hz over "),
        "no sampling header in: {stderr}"
    );
    assert!(stderr.contains("iteration"), "no phase rows in: {stderr}");
}

#[test]
fn profile_rejects_nonpositive_rate() {
    let out = fascia()
        .args(["count", "circuit", "U3-1", "--iters", "10"])
        .args(["--profile-hz", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--profile-hz"), "stderr: {stderr}");
}

#[test]
fn mem_stats_attributes_allocations_without_changing_the_estimate() {
    use fascia_core::resilience::Json;
    let mem_path = tmp_path("run.mem.json");
    std::fs::remove_file(&mem_path).ok();
    let plain = fascia()
        .args(["count", "circuit", "U7-2", "--iters", "6", "--seed", "5"])
        .args(["--parallel", "serial"])
        .output()
        .unwrap();
    assert!(plain.status.success(), "{plain:?}");
    let measured = fascia()
        .args(["count", "circuit", "U7-2", "--iters", "6", "--seed", "5"])
        .args(["--parallel", "serial", "--metrics", "json", "--mem-stats"])
        .arg("--mem-out")
        .arg(&mem_path)
        .output()
        .unwrap();
    assert!(measured.status.success(), "{measured:?}");

    // Observe-only: the instrumented run prints the identical estimate.
    let line = |out: &[u8]| {
        String::from_utf8_lossy(out)
            .lines()
            .find(|l| l.starts_with("estimate: "))
            .unwrap()
            .to_string()
    };
    assert_eq!(line(&plain.stdout), line(&measured.stdout));

    // Both schema documents print as their own stdout lines.
    let stdout = String::from_utf8_lossy(&measured.stdout);
    assert!(stdout.lines().any(|l| l.contains("\"fascia-obs/1\"")));
    let mem_line = stdout
        .lines()
        .find(|l| l.starts_with("{\"schema\":\"fascia-mem/1\""))
        .expect("fascia-mem/1 stdout line");
    let stderr = String::from_utf8_lossy(&measured.stderr);
    assert!(stderr.contains("mem: "), "summary on stderr: {stderr}");

    // The written file matches the stdout line and meets the attribution
    // bar: at least 90% of allocated bytes land in a named phase.
    let text = std::fs::read_to_string(&mem_path).unwrap();
    assert_eq!(text.trim_end(), mem_line);
    let doc = Json::parse(&text).unwrap();
    let obj = doc.as_obj().unwrap();
    let alloc = Json::get(obj, "allocator").and_then(Json::as_obj).unwrap();
    assert_eq!(Json::get(alloc, "enabled").and_then(Json::as_f64), None);
    assert!(matches!(
        Json::get(alloc, "enabled"),
        Some(Json::Bool(true))
    ));
    let frac = Json::get(alloc, "attributed_fraction")
        .and_then(Json::as_f64)
        .unwrap();
    assert!(frac >= 0.90, "attribution below the bar: {frac}");
    // Per-node table stats with access patterns rode along.
    let tables = Json::get(obj, "tables").and_then(Json::as_obj).unwrap();
    assert!(!tables.is_empty());
    assert!(tables.iter().all(|(k, _)| k.starts_with("dp.n")));
    assert!(
        tables
            .iter()
            .any(|(_, v)| v.as_obj().is_some_and(|t| Json::get(t, "access").is_some())),
        "access sections present: {text}"
    );
    std::fs::remove_file(&mem_path).ok();
}

#[test]
fn report_renders_a_run_directory_and_sweeps_stale_temp_files() {
    let dir = std::env::temp_dir().join(format!("fascia-report-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let hb = dir.join("hb.json");
    // A predecessor that died between write and rename left this behind;
    // the run's clean exit must sweep it.
    let stale = dir.join("hb.json.tmp");
    std::fs::write(&stale, "{\"torn\":").unwrap();
    let out = fascia()
        .args(["count", "circuit", "U5-2", "--iters", "4", "--seed", "3"])
        .args(["--parallel", "serial", "--metrics", "json", "--mem-stats"])
        .arg("--mem-out")
        .arg(dir.join("mem.json"))
        .arg("--heartbeat")
        .arg(&hb)
        .arg("--trace")
        .arg(dir.join("trace.json"))
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(hb.exists());
    assert!(!stale.exists(), "clean exit removes stale .tmp files");
    // The metrics document goes to stdout; archive it like a run script.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let obs_line = stdout
        .lines()
        .find(|l| l.contains("\"fascia-obs/1\""))
        .unwrap();
    std::fs::write(dir.join("metrics.json"), obs_line).unwrap();

    let report = fascia().arg("report").arg(&dir).output().unwrap();
    assert!(report.status.success(), "{report:?}");
    let text = String::from_utf8_lossy(&report.stdout);
    for needle in ["Overview", "Allocator", "DP tables", "Metrics"] {
        assert!(text.contains(needle), "missing {needle}:\n{text}");
    }
    let html = std::fs::read_to_string(dir.join("report.html")).unwrap();
    assert!(html.starts_with("<!doctype html>"), "html rendered");
    assert!(html.contains("DP tables"));

    // --no-html skips the file; a custom --html path lands elsewhere.
    let custom = dir.join("custom.html");
    let again = fascia()
        .arg("report")
        .arg(&dir)
        .arg("--html")
        .arg(&custom)
        .output()
        .unwrap();
    assert!(again.status.success(), "{again:?}");
    assert!(custom.exists());
    std::fs::remove_dir_all(&dir).ok();
}
