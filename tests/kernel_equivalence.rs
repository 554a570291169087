//! Entry-point golden: the exact bits every public counting entry point
//! produced when a scalar reference kernel and the vectorized kernel were
//! both in the engine and enforced bitwise equal. Any kernel or driver
//! refactor must reproduce them unedited.
//!
//! Pinned here, per configuration:
//!
//! * `count_template` / `count_template_labeled` `per_iteration` over
//!   parallel mode × table layout (concrete and budget-gated) × partition
//!   strategy, unlabeled and labeled, plus seeded random small inputs,
//!   and under memory budgets with and without a triangle base case;
//! * `peak_table_bytes` per layout, including the naive layout's
//!   single-vertex tables;
//! * the `rooted_counts` `per_vertex` vector (fixed and adaptive rules);
//! * `count_directed` `per_iteration` under every mode and layout;
//! * `count_distributed` `per_iteration`, communication and load tallies;
//! * `sample_embeddings` output.
//!
//! Floats are stored as the hex of their IEEE-754 bits, so a one-ulp
//! change fails. Regenerate with
//! `BLESS=1 cargo test --offline --test kernel_equivalence` only when a
//! change to the counts is intended.

use fascia::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Mutex;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/entry_points.json"
);

type Entries = Vec<(String, Vec<String>)>;

/// Serializes blessing, which rewrites the one shared golden file.
static BLESS_LOCK: Mutex<()> = Mutex::new(());

fn bits(xs: &[f64]) -> Vec<String> {
    xs.iter().map(|x| format!("{:016x}", x.to_bits())).collect()
}

fn render(doc: &BTreeMap<String, Vec<String>>) -> String {
    let lines: Vec<String> = doc
        .iter()
        .map(|(k, vs)| {
            let vals: Vec<String> = vs.iter().map(|v| format!("\"{v}\"")).collect();
            format!("  \"{k}\": [{}]", vals.join(", "))
        })
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// Parses the one-entry-per-line document [`render`] writes.
fn parse(text: &str) -> BTreeMap<String, Vec<String>> {
    let mut doc = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let (key, vals) = rest.split_once("\": [").expect("golden entry line");
        let vals = vals.strip_suffix(']').expect("golden entry closes");
        let vals: Vec<String> = if vals.is_empty() {
            Vec::new()
        } else {
            vals.split(", ")
                .map(|v| v.trim_matches('"').to_string())
                .collect()
        };
        doc.insert(key.to_string(), vals);
    }
    doc
}

/// Runs `cases` in a two-worker pool (outer-loop budget splits and wave
/// sizes follow the worker count, so the pool pins them) and compares the
/// group's entries with the golden — or, under `BLESS`, replaces that
/// group's entries in it.
fn check_in_pool(group: &str, cases: impl FnOnce() -> Entries + Send) {
    let entries = with_threads(2, cases);
    let prefix = format!("{group}/");
    assert!(entries.iter().all(|(k, _)| k.starts_with(&prefix)));
    if std::env::var_os("BLESS").is_some() {
        let _guard = BLESS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut doc = std::fs::read_to_string(GOLDEN)
            .map(|t| parse(&t))
            .unwrap_or_default();
        doc.retain(|k, _| !k.starts_with(&prefix));
        doc.extend(entries);
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, render(&doc)).unwrap();
        return;
    }
    let doc = parse(
        &std::fs::read_to_string(GOLDEN)
            .expect("golden missing; run once with BLESS=1 to create it"),
    );
    let pinned: Vec<&String> = doc.keys().filter(|k| k.starts_with(&prefix)).collect();
    assert_eq!(
        pinned.len(),
        entries.len(),
        "{group}: golden has {} entries, run produced {}",
        pinned.len(),
        entries.len()
    );
    for (key, got) in &entries {
        let want = doc
            .get(key)
            .unwrap_or_else(|| panic!("{key}: not in the golden"));
        assert_eq!(got, want, "{key}: bits differ from the golden");
    }
}

const MODES: [(ParallelMode, &str); 3] = [
    (ParallelMode::Serial, "serial"),
    (ParallelMode::InnerLoop, "inner"),
    (ParallelMode::OuterLoop, "outer"),
];

const STRATEGIES: [(PartitionStrategy, &str); 2] = [
    (PartitionStrategy::OneAtATime, "one"),
    (PartitionStrategy::Balanced, "balanced"),
];

fn outcome(r: Result<CountResult, CountError>) -> Vec<String> {
    match r {
        Ok(r) => bits(&r.per_iteration),
        Err(e) => vec![format!("error {e}").replace([',', '"'], ";")],
    }
}

fn named_templates() -> Vec<(&'static str, Template)> {
    vec![
        ("P4", Template::path(4)),
        ("P7", Template::path(7)),
        ("S5", Template::star(5)),
        ("U5-2", NamedTemplate::U5_2.template()),
        ("U7-2", NamedTemplate::U7_2.template()),
        (
            "tri+1",
            Template::from_edges(4, &[(0, 1), (1, 2), (0, 2), (0, 3)]).unwrap(),
        ),
    ]
}

/// Every parallel mode × concrete table layout, both strategies, plus
/// one run with more colors than template vertices.
#[test]
fn kernels_agree_across_modes_and_layouts() {
    let g = fascia::graph::gen::gnm(220, 800, 33);
    check_in_pool("modes", || {
        let mut out = Entries::new();
        for (name, t) in named_templates() {
            for (parallel, mname) in MODES {
                for table in TableKind::all() {
                    let cfg = CountConfig {
                        iterations: 4,
                        table,
                        parallel,
                        seed: 97,
                        ..CountConfig::default()
                    };
                    out.push((
                        format!("modes/{name}/{mname}/{}", table.name()),
                        outcome(count_template(&g, &t, &cfg)),
                    ));
                }
            }
            let cfg = CountConfig {
                iterations: 3,
                colors: Some(t.size() + 1),
                parallel: ParallelMode::Serial,
                seed: 5,
                ..CountConfig::default()
            };
            out.push((
                format!("modes/{name}/extra-color"),
                outcome(count_template(&g, &t, &cfg)),
            ));
        }
        out
    });
}

/// The budget-gated path goes through the layout-erased `AnyTable`: a
/// roomy budget keeps the preferred layout, tight ones degrade down the
/// ladder (or fail, which is pinned too).
#[test]
fn kernels_agree_under_memory_budgets() {
    let g = fascia::graph::gen::gnm(180, 650, 7);
    let t = NamedTemplate::U5_2.template();
    check_in_pool("budget", || {
        let mut out = Entries::new();
        for budget in [usize::MAX / 2, 400_000, 120_000, 40_000] {
            for (parallel, mname) in MODES {
                for table in TableKind::all() {
                    let cfg = CountConfig {
                        iterations: 4,
                        table,
                        parallel,
                        seed: 97,
                        memory_budget_bytes: Some(budget),
                        ..CountConfig::default()
                    };
                    out.push((
                        format!("budget/{budget}/{mname}/{}", table.name()),
                        outcome(count_template(&g, &t, &cfg)),
                    ));
                }
            }
        }
        out
    });
}

/// The budget ladder over a template with a triangle base case: the
/// triangle table goes through the same gate and layout choice as the
/// cut tables.
#[test]
fn kernels_agree_under_memory_budgets_with_triangles() {
    let g = fascia::graph::gen::gnm(180, 650, 7);
    let t = Template::from_edges(4, &[(0, 1), (1, 2), (0, 2), (0, 3)]).unwrap();
    check_in_pool("budget-tri", || {
        let mut out = Entries::new();
        for budget in [usize::MAX / 2, 400_000, 120_000, 40_000] {
            for (parallel, mname) in MODES {
                for table in TableKind::all() {
                    let cfg = CountConfig {
                        iterations: 4,
                        table,
                        parallel,
                        seed: 97,
                        memory_budget_bytes: Some(budget),
                        ..CountConfig::default()
                    };
                    out.push((
                        format!("budget-tri/{budget}/{mname}/{}", table.name()),
                        outcome(count_template(&g, &t, &cfg)),
                    ));
                }
            }
        }
        out
    });
}

/// Peak table bytes of serial runs per layout: what each layout
/// allocates for cut, triangle and (naive layout) single-vertex tables.
/// The labeled run skips the single-vertex rows of unmatched vertices.
/// U12-2 is the named template whose min-peak evaluation order differs
/// from the active-then-passive post-order, so it pins that order's peak.
#[test]
fn peak_table_bytes_match_golden() {
    let g = fascia::graph::gen::gnm(200, 700, 29);
    let labels = random_labels(g.num_vertices(), 3, 5);
    let tri1 = Template::from_edges(4, &[(0, 1), (1, 2), (0, 2), (0, 3)]).unwrap();
    let templates = [
        ("P4", Template::path(4)),
        ("U5-2", NamedTemplate::U5_2.template()),
        ("tri+1", tri1.clone()),
        ("U12-2", NamedTemplate::U12_2.template()),
    ];
    let cfg = |table| CountConfig {
        iterations: 3,
        table,
        parallel: ParallelMode::Serial,
        seed: 19,
        ..CountConfig::default()
    };
    let peak = |r: Result<CountResult, CountError>| match r {
        Ok(r) => vec![r.peak_table_bytes.to_string()],
        Err(e) => vec![format!("error {e}").replace([',', '"'], ";")],
    };
    check_in_pool("bytes", || {
        let mut out = Entries::new();
        for (name, t) in &templates {
            for table in TableKind::all() {
                out.push((
                    format!("bytes/{name}/{}", table.name()),
                    peak(count_template(&g, t, &cfg(table))),
                ));
            }
        }
        let labeled = tri1.with_labels(vec![0, 1, 1, 2]).unwrap();
        out.push((
            "bytes/tri+1-labeled/naive".to_string(),
            peak(count_template_labeled(
                &g,
                &labels,
                &labeled,
                &cfg(TableKind::Dense),
            )),
        ));
        out
    });
}

/// Labeled counting prunes through the label checks on the active and
/// passive sides and in the triangle base case.
#[test]
fn kernels_agree_on_labeled_templates() {
    let g = fascia::graph::gen::gnm(160, 560, 11);
    let labels = random_labels(g.num_vertices(), 3, 77);
    let templates = [
        (
            "P5",
            Template::path(5).with_labels(vec![0, 1, 2, 0, 1]).unwrap(),
        ),
        (
            "tri+1",
            Template::from_edges(4, &[(0, 1), (1, 2), (0, 2), (0, 3)])
                .unwrap()
                .with_labels(vec![0, 1, 1, 2])
                .unwrap(),
        ),
    ];
    check_in_pool("labeled", || {
        let mut out = Entries::new();
        for (name, t) in templates {
            for (parallel, mname) in MODES {
                for table in TableKind::all() {
                    for (strategy, sname) in STRATEGIES {
                        let cfg = CountConfig {
                            iterations: 4,
                            table,
                            parallel,
                            strategy,
                            seed: 41,
                            ..CountConfig::default()
                        };
                        out.push((
                            format!("labeled/{name}/{mname}/{}/{sname}", table.name()),
                            outcome(count_template_labeled(&g, &labels, &t, &cfg)),
                        ));
                    }
                }
            }
            let cfg = CountConfig {
                iterations: 4,
                parallel: ParallelMode::Serial,
                seed: 41,
                memory_budget_bytes: Some(60_000),
                ..CountConfig::default()
            };
            out.push((
                format!("labeled/{name}/budget"),
                outcome(count_template_labeled(&g, &labels, &t, &cfg)),
            ));
        }
        out
    });
}

/// Both partition strategies (different cut-node shapes, so different
/// split/removal tables) in every mode.
#[test]
fn kernels_agree_across_partition_strategies() {
    let g = fascia::graph::gen::gnm(150, 520, 19);
    let templates = [
        ("spider221", Template::spider(&[2, 2, 1])),
        ("U7-2", NamedTemplate::U7_2.template()),
    ];
    check_in_pool("strategy", || {
        let mut out = Entries::new();
        for (name, t) in templates {
            for (strategy, sname) in STRATEGIES {
                for (parallel, mname) in MODES {
                    for table in TableKind::all() {
                        let cfg = CountConfig {
                            iterations: 3,
                            strategy,
                            parallel,
                            table,
                            seed: 13,
                            ..CountConfig::default()
                        };
                        out.push((
                            format!("strategy/{name}/{sname}/{mname}/{}", table.name()),
                            outcome(count_template(&g, &t, &cfg)),
                        ));
                    }
                }
            }
        }
        out
    });
}

/// Seeded random small tree templates on random graphs, any layout.
#[test]
fn kernels_agree_on_random_inputs() {
    let mut rng = SmallRng::seed_from_u64(0xE9_7A1C);
    check_in_pool("random", || {
        let mut out = Entries::new();
        for case in 0..24 {
            let n = rng.gen_range(12usize..48);
            let m = (n * 3).min(n * (n - 1) / 2);
            let g = fascia::graph::gen::gnm(n, m, rng.gen_range(1u64..2000));
            let size = rng.gen_range(2usize..7);
            let parents: Vec<u8> = (0..size - 1)
                .map(|i| rng.gen_range(0..i + 1) as u8)
                .collect();
            let t = Template::from_parents(&parents).unwrap();
            let table = TableKind::all()[rng.gen_range(0usize..3)];
            let cfg = CountConfig {
                iterations: 2,
                table,
                parallel: ParallelMode::Serial,
                seed: rng.gen(),
                ..CountConfig::default()
            };
            out.push((
                format!("random/{case:02}"),
                outcome(count_template(&g, &t, &cfg)),
            ));
        }
        out
    });
}

/// Per-vertex rooted counts: fixed budgets in every mode and layout, and
/// an adaptive rule whose stop point depends on the streamed totals.
#[test]
fn rooted_counts_match_golden() {
    let g = fascia::graph::gen::gnm(120, 420, 61);
    let templates = [
        ("P3", Template::path(3), 0u8),
        ("P3", Template::path(3), 1),
        (
            "U5-2",
            NamedTemplate::U5_2.template(),
            NamedTemplate::U5_2.central_orbit().unwrap_or(0),
        ),
        ("S4", Template::star(4), 1),
    ];
    check_in_pool("rooted", || {
        let mut out = Entries::new();
        for (name, t, orbit) in templates {
            for (parallel, mname) in MODES {
                for table in TableKind::all() {
                    let cfg = CountConfig {
                        iterations: 5,
                        parallel,
                        table,
                        seed: 3,
                        ..CountConfig::default()
                    };
                    let r = rooted_counts(&g, &t, orbit, &cfg);
                    out.push((
                        format!("rooted/{name}/o{orbit}/{mname}/{}", table.name()),
                        match r {
                            Ok(r) => bits(&r.per_vertex),
                            Err(e) => vec![format!("error {e}")],
                        },
                    ));
                }
            }
            for (parallel, mname) in MODES {
                let cfg = CountConfig {
                    stop: Some(StopRule::RelativeError {
                        epsilon: 0.2,
                        delta: 0.1,
                        min_iters: 3,
                        max_iters: 60,
                    }),
                    parallel,
                    seed: 9,
                    ..CountConfig::default()
                };
                let r = rooted_counts(&g, &t, orbit, &cfg).unwrap();
                out.push((
                    format!("rooted/{name}/o{orbit}/{mname}/adaptive"),
                    bits(&r.per_vertex),
                ));
            }
        }
        out
    });
}

/// Directed counts: every mode and layout must reproduce the serial
/// pass's bits.
#[test]
fn count_directed_matches_golden() {
    let g = DiGraph::orient_randomly(&fascia::graph::gen::gnm(140, 520, 17), 5);
    let templates = [
        ("path3", DiTemplate::directed_path(3)),
        ("path5", DiTemplate::directed_path(5)),
        ("out4", DiTemplate::out_star(4)),
        ("in4", DiTemplate::in_star(4)),
        (
            "mixed5",
            DiTemplate::from_arcs(5, &[(0, 1), (2, 0), (1, 3), (4, 1)]).unwrap(),
        ),
    ];
    check_in_pool("directed", || {
        let mut out = Entries::new();
        for (name, t) in templates {
            for (parallel, mname) in MODES {
                for table in TableKind::all() {
                    let cfg = CountConfig {
                        iterations: 4,
                        parallel,
                        table,
                        seed: 88,
                        ..CountConfig::default()
                    };
                    out.push((
                        format!("directed/{name}/{mname}/{}", table.name()),
                        outcome(count_directed(&g, &t, &cfg)),
                    ));
                }
            }
        }
        out
    });
}

/// Simulated distributed runs: estimates plus the communication and load
/// tallies, for every rank count and partition scheme.
#[test]
fn count_distributed_matches_golden() {
    let g = fascia::graph::gen::gnm(130, 460, 9);
    let templates = [
        ("P4", Template::path(4)),
        ("U5-2", NamedTemplate::U5_2.template()),
        ("tri", Template::triangle()),
    ];
    check_in_pool("distsim", || {
        let mut out = Entries::new();
        for (name, t) in templates {
            for ranks in [1usize, 3, 8] {
                for (scheme, sname) in [
                    (PartitionScheme::Block, "block"),
                    (PartitionScheme::Hash, "hash"),
                ] {
                    let cfg = DistConfig {
                        ranks,
                        scheme,
                        count: CountConfig {
                            iterations: 3,
                            parallel: ParallelMode::Serial,
                            seed: 77,
                            ..CountConfig::default()
                        },
                    };
                    let r = count_distributed(&g, &t, &cfg).unwrap();
                    let mut vals = bits(&r.per_iteration);
                    vals.push(r.comm_bytes.to_string());
                    vals.push(r.max_rank_rows.to_string());
                    vals.push(r.ghost_rows.to_string());
                    vals.push(r.total_rows.to_string());
                    vals.extend(r.per_step_bytes.iter().map(|b| b.to_string()));
                    out.push((format!("distsim/{name}/r{ranks}/{sname}"), vals));
                }
            }
        }
        out
    });
}

/// Sampled embeddings, in draw order.
#[test]
fn sample_embeddings_match_golden() {
    let g = fascia::graph::gen::gnm(90, 330, 23);
    let templates = [
        ("P4", Template::path(4)),
        ("U5-2", NamedTemplate::U5_2.template()),
        (
            "tri+1",
            Template::from_edges(4, &[(0, 1), (1, 2), (0, 2), (0, 3)]).unwrap(),
        ),
    ];
    check_in_pool("sample", || {
        let mut out = Entries::new();
        for (name, t) in templates {
            let cfg = CountConfig {
                iterations: 6,
                seed: 31,
                ..CountConfig::default()
            };
            let embs = sample_embeddings(&g, &t, &cfg, 20).unwrap();
            out.push((
                format!("sample/{name}"),
                embs.iter()
                    .map(|e| {
                        e.iter()
                            .map(|v| v.to_string())
                            .collect::<Vec<_>>()
                            .join("-")
                    })
                    .collect(),
            ));
        }
        out
    });
}
