//! Rooted counting holds O(n) state however many iterations it runs:
//! each iteration's per-vertex row sums fold into one running
//! accumulator instead of being kept until the end.
//!
//! This binary installs the counting allocator, so every heap operation
//! in the process is measured. One test function on purpose: the
//! allocator counters are process-global, and concurrently running test
//! functions would race on them.

use fascia_core::engine::{rooted_counts, CountConfig};
use fascia_core::parallel::ParallelMode;
use fascia_graph::gen::gnm;
use fascia_obs::alloc::{self, CountingAlloc};
use fascia_template::Template;

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn rooted_live_peak_does_not_grow_with_iterations() {
    let n = 3_000;
    let g = gnm(n, 9_000, 41);
    let t = Template::path(4);
    let live_peak = |iterations: usize| -> u64 {
        let cfg = CountConfig {
            iterations,
            parallel: ParallelMode::Serial,
            seed: 17,
            ..CountConfig::default()
        };
        alloc::reset();
        alloc::set_enabled(true);
        let r = rooted_counts(&g, &t, 1, &cfg).unwrap();
        let peak = alloc::snapshot().live_peak_bytes;
        alloc::set_enabled(false);
        assert_eq!(r.per_vertex.len(), n);
        peak
    };
    let short = live_peak(8);
    let long = live_peak(64);
    // Slack for the O(iterations) scalar series (16 bytes an iteration)
    // and allocator rounding; keeping every iteration's row sums would
    // add 56 · 8 · n bytes here.
    let slack = 8 * n as u64;
    assert!(
        long <= short + slack,
        "live peak grew from {short} bytes at 8 iterations to {long} at 64"
    );
}
