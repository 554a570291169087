//! `fascia serve` — the supervised resident counting service.
//!
//! Thin argument layer over [`fascia_svc::Service`]: parse the spool
//! path and supervision knobs, optionally ingest a JSONL job stream
//! from stdin, then hand control to the service loop. SIGINT/SIGTERM
//! set the shared stop flag (and interrupt an idle daemon's wait), so a
//! signalled daemon finishes (or detaches) the job in flight, dumps
//! `chaos.events`, and exits with its summary — anything harsher
//! (SIGKILL) is exactly what the spool's durable state machine recovers
//! from on the next start.

use crate::{flag_parse, flag_value, usage_err, CliError, EXIT_OK, INTERRUPTED};
use fascia_core::chaos::{ChaosSpec, CHAOS_ENV};
use fascia_svc::{
    AdminConfig, AdminServer, AdminState, BackoffPolicy, MonotonicClock, Service, ServiceConfig,
    SupervisorConfig,
};
use std::time::Duration;

pub(crate) fn cmd_serve(rest: &[String]) -> Result<i32, CliError> {
    let mut spool: Option<String> = None;
    let mut cfg = ServiceConfig::default();
    let mut from_stdin = false;
    let mut admin_addr: Option<String> = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--spool" => {
                spool = Some(flag_value(rest, i, "--spool")?.to_string());
                i += 1;
            }
            "--once" => cfg.once = true,
            "--stdin" => from_stdin = true,
            "--admin-addr" => {
                admin_addr = Some(flag_value(rest, i, "--admin-addr")?.to_string());
                i += 1;
            }
            "--chaos" => {
                let raw = flag_value(rest, i, "--chaos")?;
                cfg.chaos = Some(
                    raw.parse::<ChaosSpec>()
                        .map_err(|e| CliError::Usage(format!("--chaos: {e}")))?,
                );
                i += 1;
            }
            "--poll-ms" => {
                cfg.supervisor.poll = Duration::from_millis(flag_parse(rest, i, "--poll-ms")?);
                i += 1;
            }
            "--stall-timeout-ms" => {
                cfg.supervisor.stall_timeout =
                    Duration::from_millis(flag_parse(rest, i, "--stall-timeout-ms")?);
                i += 1;
            }
            "--grace-ms" => {
                cfg.supervisor.grace = Duration::from_millis(flag_parse(rest, i, "--grace-ms")?);
                i += 1;
            }
            "--max-attempts" => {
                let n: u32 = flag_parse(rest, i, "--max-attempts")?;
                if n == 0 {
                    return Err(CliError::Usage("--max-attempts must be ≥ 1".into()));
                }
                cfg.supervisor.backoff.max_attempts = n;
                i += 1;
            }
            "--backoff-base-ms" => {
                cfg.supervisor.backoff.base =
                    Duration::from_millis(flag_parse(rest, i, "--backoff-base-ms")?);
                i += 1;
            }
            "--backoff-cap-ms" => {
                cfg.supervisor.backoff.cap =
                    Duration::from_millis(flag_parse(rest, i, "--backoff-cap-ms")?);
                i += 1;
            }
            other if !other.starts_with("--") && spool.is_none() => {
                spool = Some(other.to_string());
            }
            other => return Err(usage_err(&format!("serve: unknown flag '{other}'"))),
        }
        i += 1;
    }
    let Some(spool) = spool else {
        return Err(usage_err("serve needs a spool directory (--spool DIR)"));
    };
    // The environment schedule applies when no --chaos flag overrides it
    // (the chaos-soak script and soak gate drive the service this way).
    if cfg.chaos.is_none() {
        if let Ok(raw) = std::env::var(CHAOS_ENV) {
            cfg.chaos = Some(
                raw.parse::<ChaosSpec>()
                    .map_err(|e| CliError::Usage(format!("{CHAOS_ENV}: {e}")))?,
            );
        }
    }
    sanity_check(&cfg.supervisor)?;
    install_sigterm_handler();

    let svc = Service::open(&spool, cfg)
        .map_err(|e| CliError::Io(format!("cannot open spool {spool:?}: {e}")))?;
    if from_stdin {
        let stdin = std::io::stdin();
        let (accepted, rejected) = svc
            .ingest_jsonl(&MonotonicClock, stdin.lock())
            .map_err(|e| CliError::Io(format!("stdin job stream: {e}")))?;
        eprintln!("fascia-svc: queued {accepted} job(s), rejected {rejected}");
    }
    // The admin plane is opt-in and read-only: it scrapes the shared
    // metrics registry and the spool's files, so enabling it cannot
    // perturb job execution or chaos replay. The bound address (useful
    // with port 0) is announced on stderr and in `<spool>/admin.addr`.
    let admin = match admin_addr.as_deref() {
        Some(addr) => {
            let state = AdminState {
                spool: svc.spool().clone(),
                metrics: svc.metrics(),
            };
            let server = AdminServer::start(addr, state, AdminConfig::default())
                .map_err(|e| CliError::Io(format!("cannot bind admin addr {addr:?}: {e}")))?;
            let bound = server.local_addr().to_string();
            let _ = fascia_core::resilience::atomic_write(
                &svc.spool().root().join("admin.addr"),
                &format!("{bound}\n"),
            );
            eprintln!("fascia-svc: admin endpoint on http://{bound}");
            Some(server)
        }
        None => None,
    };
    let summary = svc.run(&MonotonicClock, Some(&INTERRUPTED));
    if let Some(server) = admin {
        server.shutdown();
        let _ = std::fs::remove_file(svc.spool().root().join("admin.addr"));
    }
    println!("{}", summary.to_json());
    if summary.result_write_failures > 0 {
        return Err(CliError::Run(format!(
            "{} result(s) could not be recorded",
            summary.result_write_failures
        )));
    }
    Ok(EXIT_OK)
}

fn sanity_check(sup: &SupervisorConfig) -> Result<(), CliError> {
    let BackoffPolicy { base, cap, .. } = sup.backoff;
    if base > cap {
        return Err(CliError::Usage(format!(
            "--backoff-base-ms ({}ms) exceeds --backoff-cap-ms ({}ms)",
            base.as_millis(),
            cap.as_millis()
        )));
    }
    if sup.poll.is_zero() || sup.stall_timeout.is_zero() {
        return Err(CliError::Usage(
            "--poll-ms and --stall-timeout-ms must be positive".into(),
        ));
    }
    Ok(())
}

/// SIGTERM drains like SIGINT: same stop flag the counting subcommands
/// watch, same raw-FFI idiom as `install_sigint_handler`.
#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" fn on_sigterm(_sig: i32) {
        INTERRUPTED.store(true, std::sync::atomic::Ordering::Relaxed);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}
