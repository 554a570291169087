//! Figure 6 — peak dynamic-table memory on the Portland network with the
//! U*-2 templates: naive layout vs improved (lazy) layout vs improved with
//! labels.
//!
//! Shape to reproduce: improved saves ~20% over naive on unlabeled
//! templates (non-induced counts have low selectivity), and >90% once
//! labels prune most vertices.
//!
//! Memory is *measured*, not estimated: each run attaches a fresh
//! `fascia_obs::Metrics` registry and reads back the `table.bytes.peak`
//! gauge, which tracks the exact allocated bytes (`TableStats`) of the
//! live DP tables within an iteration.
//!
//! Run: `cargo run --release -p fascia-bench --bin fig06_memory_portland [--full]`

use fascia_bench::{BenchOpts, Report};
use fascia_core::engine::{count_template, count_template_labeled, CountConfig};
use fascia_core::parallel::ParallelMode;
use fascia_graph::{random_labels, Dataset};
use fascia_obs::Metrics;
use fascia_table::TableKind;
use fascia_template::NamedTemplate;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn main() {
    let opts = BenchOpts::from_env_and_args();
    let g = opts.load(Dataset::Portland);
    let graph_labels = random_labels(g.num_vertices(), 8, opts.seed ^ 0x1ABE15);
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x7E4);
    let mut report = Report::new("Fig 6: peak table memory, Portland, U*-2", "measured bytes");
    for named in NamedTemplate::complex() {
        let t = named.template();
        let mk = |kind: TableKind| CountConfig {
            iterations: 1,
            table: kind,
            parallel: ParallelMode::InnerLoop,
            metrics: Some(Arc::new(Metrics::new())),
            ..opts.base_config()
        };
        let peak = |cfg: &CountConfig| {
            let m = cfg.metrics.as_deref().expect("metrics attached");
            m.gauge("table.bytes.peak").get()
        };
        let cfg = mk(TableKind::Dense);
        count_template(&g, &t, &cfg).expect("dense");
        let naive = peak(&cfg);
        let cfg = mk(TableKind::Lazy);
        count_template(&g, &t, &cfg).expect("lazy");
        let improved = peak(&cfg);
        let labels: Vec<u8> = (0..named.size()).map(|_| rng.gen_range(0..8)).collect();
        let tl = named.template().with_labels(labels).expect("labels");
        let cfg = mk(TableKind::Lazy);
        count_template_labeled(&g, &graph_labels, &tl, &cfg).expect("labeled");
        let labeled = peak(&cfg);
        report.push("naive", named.name(), naive as f64);
        report.push("improved", named.name(), improved as f64);
        report.push("labeled", named.name(), labeled as f64);
        let mib = |bytes: u64| bytes as f64 / (1u64 << 20) as f64;
        eprintln!(
            "[fig06] {}: naive {:.2} MiB, improved {:.2} MiB ({:.1}% saved), labeled {:.2} MiB ({:.1}% saved)",
            named.name(),
            mib(naive),
            mib(improved),
            100.0 * (1.0 - improved as f64 / naive as f64),
            mib(labeled),
            100.0 * (1.0 - labeled as f64 / naive as f64),
        );
    }
    report.print();
}
