//! Wake-on-submit for the daemon's idle wait (DESIGN.md §16).
//!
//! An idle daemon blocks on a Linux inotify watch of `<spool>/jobs/`
//! instead of sleeping a fixed interval, so a job starts as soon as its
//! file lands: [`Spool::submit`](crate::Spool::submit) stages a `.tmp`
//! and renames it into place (`IN_MOVED_TO`), and an operator's `cp`
//! ends in a close-write (`IN_CLOSE_WRITE`). Any event only means
//! "rescan now"; the scan itself still reads the whole directory in
//! byte-sorted order, so which events arrived (or were merged, or lost
//! to `IN_Q_OVERFLOW`) never changes what runs or in which order.
//!
//! The wait also returns after [`IDLE_RESCAN`] without an event. That
//! fallback covers what the watch cannot see: a failed `inotify_init1`
//! (instance limit, non-Linux hosts), writes made by another machine on
//! a network filesystem, and a stop signal that landed on some other
//! thread than the one blocked in `poll`.

use crate::clock::Clock;
use std::path::Path;
use std::time::Duration;

/// How long an idle daemon waits without a watch event before it
/// rescans `jobs/` anyway. Without a watch it is the whole idle sleep.
pub const IDLE_RESCAN: Duration = Duration::from_millis(500);

/// An inotify watch on the spool's `jobs/` directory, or nothing when
/// one could not be set up (the wait then sleeps [`IDLE_RESCAN`]).
#[derive(Debug)]
pub struct JobsWatch {
    #[cfg(target_os = "linux")]
    fd: Option<std::os::fd::OwnedFd>,
}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_char, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        pub fn inotify_init1(flags: i32) -> i32;
        pub fn inotify_add_watch(fd: i32, pathname: *const c_char, mask: u32) -> i32;
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: i32) -> i32;
        pub fn read(fd: i32, buf: *mut c_void, count: usize) -> isize;
    }

    pub const IN_NONBLOCK: i32 = 0o4000;
    pub const IN_CLOEXEC: i32 = 0o2_000_000;
    pub const IN_CLOSE_WRITE: u32 = 0x08;
    pub const IN_MOVED_TO: u32 = 0x80;
    pub const POLLIN: i16 = 0x1;
}

impl JobsWatch {
    /// Watches `jobs_dir`. Register it before the first scan: a file
    /// that lands after registration either shows up in that scan or
    /// leaves an event that ends the next wait.
    #[cfg(target_os = "linux")]
    pub fn new(jobs_dir: &Path) -> Self {
        use std::os::fd::FromRawFd;
        use std::os::unix::ffi::OsStrExt;
        let Ok(path) = std::ffi::CString::new(jobs_dir.as_os_str().as_bytes()) else {
            return Self { fd: None };
        };
        // SAFETY: inotify_init1 takes flags only and returns a new fd or -1.
        let raw = unsafe { sys::inotify_init1(sys::IN_NONBLOCK | sys::IN_CLOEXEC) };
        if raw < 0 {
            return Self { fd: None };
        }
        // SAFETY: `raw` is a freshly created descriptor nothing else owns;
        // the OwnedFd closes it on every path from here on.
        let fd = unsafe { std::os::fd::OwnedFd::from_raw_fd(raw) };
        // SAFETY: `path` is a NUL-terminated string that outlives the call.
        let wd = unsafe {
            sys::inotify_add_watch(raw, path.as_ptr(), sys::IN_MOVED_TO | sys::IN_CLOSE_WRITE)
        };
        Self {
            fd: (wd >= 0).then_some(fd),
        }
    }

    #[cfg(not(target_os = "linux"))]
    pub fn new(_jobs_dir: &Path) -> Self {
        Self {}
    }

    /// Discards every queued event. Call right before a scan, so events
    /// for files that scan will see do not end the next wait early.
    pub fn drain(&self) {
        #[cfg(target_os = "linux")]
        if let Some(fd) = &self.fd {
            use std::os::fd::AsRawFd;
            let mut buf = [0u8; 4096];
            // SAFETY: read writes at most `buf.len()` bytes into `buf`. The
            // fd is non-blocking, so the loop ends at EAGAIN (-1).
            while unsafe { sys::read(fd.as_raw_fd(), buf.as_mut_ptr().cast(), buf.len()) } > 0 {}
        }
    }

    /// Blocks until a job file lands in `jobs/`, a signal interrupts the
    /// wait, or [`IDLE_RESCAN`] passes; without a watch, sleeps
    /// [`IDLE_RESCAN`] on `clock` (virtual time under a `TestClock`).
    pub fn wait(&self, clock: &dyn Clock) {
        #[cfg(target_os = "linux")]
        if let Some(fd) = &self.fd {
            use std::os::fd::AsRawFd;
            let mut pfd = sys::PollFd {
                fd: fd.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            };
            // SAFETY: poll reads and writes exactly the one PollFd passed.
            // Every outcome (event, timeout, EINTR) means "rescan now".
            unsafe {
                sys::poll(&mut pfd, 1, IDLE_RESCAN.as_millis() as i32);
            }
            return;
        }
        clock.sleep(IDLE_RESCAN);
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::clock::{MonotonicClock, TestClock};
    use std::time::Instant;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("fascia-watch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn a_renamed_file_ends_the_wait_and_drain_rearms_it() {
        let dir = tmp_dir("rename");
        let watch = JobsWatch::new(&dir);
        std::fs::write(dir.join("a.json.tmp"), "{}").unwrap();
        std::fs::rename(dir.join("a.json.tmp"), dir.join("a.json")).unwrap();
        let t0 = Instant::now();
        watch.wait(&MonotonicClock);
        assert!(t0.elapsed() < IDLE_RESCAN / 2, "queued event ends the wait");
        // Drained, nothing new lands: the wait runs to the fallback.
        watch.drain();
        let t0 = Instant::now();
        watch.wait(&MonotonicClock);
        assert!(t0.elapsed() >= IDLE_RESCAN - Duration::from_millis(20));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn without_a_watch_the_wait_sleeps_on_the_clock() {
        let watch = JobsWatch::new(Path::new("/nonexistent/fascia-jobs"));
        let clock = TestClock::new();
        let t0 = clock.monotonic();
        watch.wait(&clock);
        assert_eq!(clock.monotonic() - t0, IDLE_RESCAN);
    }
}
