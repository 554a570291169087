//! Shared immutable graph pool.
//!
//! The resident service's reason to exist: concurrent and consecutive
//! jobs over the same graph share one immutable CSR instance behind an
//! `Arc` instead of re-reading and re-building it per run. Entries are
//! keyed by the job's graph spec string (edge-list path or Table I
//! dataset name) and live for the service's lifetime — the CSR is
//! read-only, so sharing is safe by construction.
//!
//! Loads are a chaos IO site ([`IoSite::GraphLoad`]): the schedule can
//! fail a load before any bytes are read, and because the fault
//! coordinate includes the load ordinal, a retried job rolls a fresh
//! coordinate — injected load failures are transient, like the NFS
//! flakes they model.

use crate::job::JobError;
use fascia_core::chaos::{ChaosRun, IoSite};
use fascia_graph::datasets::scale_from_env;
use fascia_graph::io::load_edge_list;
use fascia_graph::{Dataset, Graph};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Seed used for generated stand-in datasets (same as the CLI, so a
/// service job over `"yeast"` counts the same graph `fascia count
/// yeast …` would).
const DATASET_SEED: u64 = 0xDA7A;

/// The pool. One per service; cheap to share behind an `Arc`.
#[derive(Debug)]
pub struct GraphPool {
    graphs: Mutex<HashMap<String, Arc<Graph>>>,
    /// Service-scope chaos run for load faults (the engine's counting
    /// runs claim their own indices).
    chaos: Option<ChaosRun>,
    loads: AtomicU64,
    hits: AtomicU64,
}

impl GraphPool {
    /// An empty pool; `chaos` injects load faults when scheduled.
    pub fn new(chaos: Option<ChaosRun>) -> Self {
        Self {
            graphs: Mutex::new(HashMap::new()),
            chaos,
            loads: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// The graph for `spec`, loading and caching it on first use.
    /// Injected and real IO failures are [`JobError::GraphLoad`]
    /// (transient); an unknown dataset name falls through to the
    /// filesystem and reports the path error.
    pub fn get(&self, spec: &str) -> Result<Arc<Graph>, JobError> {
        if let Some(g) = self
            .graphs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(spec)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(g.clone());
        }
        // Fault check outside the cache: only actual loads can fail,
        // and each (re)load rolls a fresh coordinate.
        if let Some(cr) = &self.chaos {
            let op = self.loads.fetch_add(1, Ordering::Relaxed);
            if let Some(e) = cr.io_error(IoSite::GraphLoad, op) {
                return Err(JobError::GraphLoad(format!("cannot load {spec:?}: {e}")));
            }
        }
        let g = Arc::new(load_spec(spec)?);
        self.graphs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(spec.to_string())
            .or_insert_with(|| g.clone());
        Ok(g)
    }

    /// (resident graphs, cache hits served) — for the service summary.
    pub fn stats(&self) -> (usize, u64) {
        let resident = self.graphs.lock().unwrap_or_else(|e| e.into_inner()).len();
        (resident, self.hits.load(Ordering::Relaxed))
    }
}

/// Table I dataset names, matching the CLI's vocabulary.
fn parse_dataset(name: &str) -> Option<Dataset> {
    Some(match name.to_ascii_lowercase().as_str() {
        "portland" => Dataset::Portland,
        "enron" => Dataset::Enron,
        "gnp" => Dataset::Gnp,
        "slashdot" => Dataset::Slashdot,
        "road" | "paroad" => Dataset::PaRoad,
        "circuit" => Dataset::Circuit,
        "ecoli" => Dataset::EColi,
        "yeast" | "scerevisiae" => Dataset::SCerevisiae,
        "hpylori" => Dataset::HPylori,
        "celegans" => Dataset::CElegans,
        _ => return None,
    })
}

fn load_spec(spec: &str) -> Result<Graph, JobError> {
    if let Some(ds) = parse_dataset(spec) {
        return Ok(ds.generate(scale_from_env(), DATASET_SEED));
    }
    load_edge_list(spec)
        .map(|(g, _)| g)
        .map_err(|e| JobError::GraphLoad(format!("cannot load {spec:?}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    /// A per-test file: tests run in parallel, and one test's remove or
    /// re-create must not race another's load.
    fn tmp_edge_list(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("fascia-pool-test-{tag}-{}.txt", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "0 1\n1 2\n2 3\n3 0\n0 2").unwrap();
        path
    }

    #[test]
    fn caches_one_instance_per_spec() {
        let path = tmp_edge_list("cache");
        let spec = path.to_string_lossy().to_string();
        let pool = GraphPool::new(None);
        let a = pool.get(&spec).unwrap();
        let b = pool.get(&spec).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second get must share the CSR");
        assert_eq!(pool.stats(), (1, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_transient_graph_load_error() {
        let pool = GraphPool::new(None);
        let err = pool.get("/nonexistent/fascia-graph.txt").unwrap_err();
        assert_eq!(err.kind(), "graph-load");
        assert!(err.is_transient());
    }

    #[test]
    fn injected_load_faults_are_transient_across_retries() {
        use fascia_core::chaos::{Chaos, ChaosSpec};
        // io_graph=1 always fails: every get() is a fresh op coordinate,
        // all of which fire at probability 1.
        let spec: ChaosSpec = "io_graph=1".parse().unwrap();
        let chaos = Arc::new(Chaos::new(spec));
        let path = tmp_edge_list("faults");
        let gspec = path.to_string_lossy().to_string();
        let pool = GraphPool::new(Some(chaos.begin_run()));
        assert!(pool.get(&gspec).is_err());
        assert!(pool.get(&gspec).is_err());
        // A probabilistic spec would let a later op through; prove the
        // op ordinal advances by checking the event log grew per call.
        assert_eq!(chaos.events().len(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
