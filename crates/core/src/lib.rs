//! FASCIA core: the color-coding approximate subgraph counting engine.
//!
//! This crate ties the substrates together into the paper's system:
//!
//! * [`coloring`] — seeded random vertex colorings (Alg. 1, line 4),
//! * [`engine`] — the bottom-up dynamic program over a template partition
//!   tree (Alg. 2), with selectable table layouts, partition strategies,
//!   and parallel modes, plus labeled counting and per-vertex (rooted)
//!   counts,
//! * [`parallel`] — the paper's two OpenMP loops mapped onto rayon: inner
//!   (over graph vertices) and outer (over color-coding iterations),
//! * [`exact`] — the naive exhaustive counter and embedding enumerator
//!   used for error analysis (§V-D) and the §V-C comparison,
//! * [`enumerate`] — a pruned enumeration baseline standing in for MODA,
//! * [`motifs`] — motif finding over all tree topologies of a size
//!   (§V-E),
//! * [`gdd`] — graphlet degree distributions and Pržulj's agreement
//!   (§V-F),
//! * [`stats`] — streaming (Welford) and batch statistics over
//!   per-iteration estimates, plus the adaptive [`StopRule`] that lets the
//!   engine stop as soon as the running confidence interval is tight
//!   instead of exhausting the pessimistic a-priori iteration bound,
//! * [`resilience`] — checkpoint/resume of partial runs and cooperative
//!   cancellation with deadlines (memory-budget degradation and worker
//!   panic isolation live in the engine itself; see DESIGN.md §11),
//! * [`chaos`] — seed-scheduled fault injection (worker panics,
//!   cancellation, IO errors, DP stalls, budget squeezes).
//!
//! Every entry point accepts an optional [`fascia_obs::Metrics`] registry
//! via [`engine::CountConfig::metrics`]; see the `metrics` module docs for
//! the metric names the engine records, and the `instruments` module for
//! which engine phases each observer sees.

pub mod chaos;
pub mod coloring;
pub mod directed;
pub mod distsim;
pub mod engine;
pub mod enumerate;
pub mod est;
pub mod exact;
pub mod gdd;
pub(crate) mod instruments;
pub(crate) mod kernel;
pub mod mem;
pub(crate) mod metrics;
pub mod motifs;
pub mod parallel;
pub mod progress;
pub mod resilience;
pub mod sample;
pub mod stats;

pub use chaos::{Chaos, ChaosParseError, ChaosRun, ChaosSpec, IoSite, CHAOS_ENV};
pub use engine::{
    count_template, count_template_labeled, rooted_counts, CountConfig, CountError, CountResult,
};
pub use est::EstCollector;
pub use mem::{MemCollector, NodeMemStats};
pub use parallel::ParallelMode;
pub use progress::{Progress, ProgressConfig, ProgressSnapshot};
pub use resilience::{
    atomic_write, atomic_write_durable, CancelToken, Checkpoint, CheckpointConfig, Json, StopCause,
};
pub use sample::sample_embeddings;
pub use stats::{count_until_converged, normal_quantile, EstimateStats, StopRule, Welford};
