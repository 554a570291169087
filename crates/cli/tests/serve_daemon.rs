//! Daemon-mode intake of `fascia serve`: a real daemon with its default
//! flags picks up a job file as soon as it lands, sleeps without busy
//! polling when idle, and leaves its idle wait at once on SIGTERM.

#![cfg(target_os = "linux")]

use fascia_svc::{JobSpec, Spool, IDLE_RESCAN};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("fascia-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Polls `ready` every millisecond; panics after `limit`.
fn wait_for(what: &str, limit: Duration, mut ready: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !ready() {
        assert!(t0.elapsed() < limit, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Voluntary context switches summed over every thread of `pid`.
fn voluntary_switches(pid: u32) -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).unwrap() {
        let status = std::fs::read_to_string(task.unwrap().path().join("status"));
        total += status
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                    .and_then(|v| v.trim().parse::<u64>().ok())
            })
            .unwrap_or(0);
    }
    total
}

/// The daemon under test; killed and reaped if the test panics first.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn sigterm(child: &Child) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    // SAFETY: kill(2) takes two integers and touches no memory of ours;
    // the child is not reaped yet, so its pid names no other process.
    unsafe {
        kill(child.id() as i32, SIGTERM);
    }
}

#[test]
fn idle_daemon_wakes_on_submit_sleeps_quietly_and_stops_on_sigterm() {
    let root = tmp_dir("intake");
    let spool = Spool::open(&root).unwrap();
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_fascia"))
            .args(["serve", "--admin-addr", "127.0.0.1:0", "--spool"])
            .arg(&root)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let child = &mut daemon.0;
    wait_for("admin.addr", Duration::from_secs(10), || {
        root.join("admin.addr").exists()
    });

    // One job at a time, each into a daemon that has idled ≥ 100 ms, so
    // every pickup starts from the idle wait.
    let mut latencies = Vec::new();
    for i in 0..5 {
        std::thread::sleep(Duration::from_millis(120));
        let mut spec = JobSpec::new(&format!("wake-{i}"), "circuit", "path3");
        spec.iterations = 2;
        spec.seed = 11 + i;
        let t0 = Instant::now();
        spool.submit(&spec.id, &spec.to_json()).unwrap();
        wait_for("a result", Duration::from_secs(30), || {
            spool.has_result(&spec.id)
        });
        latencies.push(t0.elapsed());
    }
    latencies.sort();
    assert!(
        latencies[2] < Duration::from_millis(100),
        "median submit-to-result {:?} (all: {latencies:?})",
        latencies[2]
    );

    // Idle: no busy polling. The fallback rescan wakes the daemon a few
    // times in 2 s; a millisecond poll would switch ~2,000 times.
    std::thread::sleep(Duration::from_millis(150));
    let before = voluntary_switches(child.id());
    std::thread::sleep(Duration::from_secs(2));
    let switches = voluntary_switches(child.id()).saturating_sub(before);
    assert!(switches < 50, "{switches} voluntary switches in 2 s idle");

    // SIGTERM interrupts the idle wait: the daemon drains and exits
    // within one fallback interval.
    let t0 = Instant::now();
    sigterm(child);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "daemon ignored SIGTERM for 10 s"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    let exit = t0.elapsed();
    assert!(status.success(), "{status}");
    assert!(exit < IDLE_RESCAN, "exit took {exit:?} after SIGTERM");
    let _ = std::fs::remove_dir_all(&root);
}
