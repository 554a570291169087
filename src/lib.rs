//! # FASCIA-rs
//!
//! A Rust reproduction of **FASCIA** — *Fast Approximate Subgraph Counting
//! and Enumeration* (G. M. Slota and K. Madduri, ICPP 2013): shared-memory
//! parallel approximate counting of non-induced tree-template occurrences
//! in large graphs via the Alon–Yuster–Zwick color-coding technique.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! ```
//! use fascia::prelude::*;
//!
//! // A small ring graph and the 3-vertex path template.
//! let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
//! let t = Template::path(3);
//! let cfg = CountConfig { iterations: 500, ..CountConfig::default() };
//! let result = count_template(&g, &t, &cfg).unwrap();
//! // The ring contains exactly 6 paths on 3 vertices.
//! assert!((result.estimate - 6.0).abs() < 1.5);
//! ```
//!
//! Crate map:
//!
//! * [`combin`] — combinatorial number system color-set indexing and
//!   precomputed split tables,
//! * [`graph`] — CSR graphs, generators, Table I dataset registry,
//! * [`template`] — templates, canonical forms, automorphisms, free-tree
//!   generation, partition trees,
//! * [`table`] — the three dynamic-table layouts,
//! * [`core`] — the counting engine, exact baselines, motif finding,
//!   graphlet degree distributions, adaptive iteration control
//!   ([`core::stats`]).

pub use fascia_combin as combin;
pub use fascia_core as core;
pub use fascia_graph as graph;
pub use fascia_obs as obs;
pub use fascia_table as table;
pub use fascia_template as template;

/// Most-used items in one import.
pub mod prelude {
    pub use fascia_combin::{colorful_probability, iterations_for};
    pub use fascia_core::directed::{count_directed, count_exact_directed};
    pub use fascia_core::distsim::{count_distributed, DistConfig, DistResult, PartitionScheme};
    pub use fascia_core::engine::{
        count_template, count_template_labeled, rooted_counts, CountConfig, CountError,
        CountResult, RootedResult,
    };
    pub use fascia_core::exact::{count_exact, count_exact_labeled, enumerate_embeddings};
    pub use fascia_core::gdd::{estimate_gdd, gdd_agreement, GddHistogram};
    pub use fascia_core::motifs::{motif_profile, MotifProfile};
    pub use fascia_core::parallel::{with_threads, ParallelMode};
    pub use fascia_core::progress::{Progress, ProgressConfig, ProgressSnapshot};
    pub use fascia_core::resilience::{
        atomic_write, CancelToken, Checkpoint, CheckpointConfig, CheckpointError, Json, StopCause,
    };
    pub use fascia_core::sample::sample_embeddings;
    pub use fascia_core::stats::{count_until_converged, EstimateStats, StopRule, Welford};
    pub use fascia_graph::datasets::scale_from_env;
    pub use fascia_graph::digraph::DiGraph;
    pub use fascia_graph::{random_labels, Dataset, Graph};
    pub use fascia_obs::{Metrics, Profiler, Tracer};
    pub use fascia_table::TableKind;
    pub use fascia_template::directed::DiTemplate;
    pub use fascia_template::{NamedTemplate, PartitionStrategy, PartitionTree, Template};
}
