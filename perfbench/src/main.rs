//! The repository benchmark: one workload per process, measured end to end
//! (untraced) or per layer (traced). See `perfbench/README.md`.
//!
//! ```text
//! ingrass-perfbench --workload <ingest|serve_bulk|serve_sharded|serve_durable>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod checks;
mod ingest;
mod probes;
mod serve;
mod stats;
mod trace;

use checks::Checks;
use ingrass_repro::config::KrylovConfig;
use ingrass_repro::core::{ResistanceBackend, SetupConfig, ShardedBatchReport, UpdateReport};
use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Tracer;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("update_ops_per_s", "1/s"),
    ("recover_s", "s"),
    ("offtree_density_final", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, named by module. A workload that does not cross a
/// layer reports 0 for it (see the README's table).
pub const PER_LAYER: &[(&str, &str)] = &[
    // The serving latencies: reported, not bounded (see the README).
    ("visible.p50_s", "s"),
    ("visible.tail_s", "s"),
    ("answer.p50_s", "s"),
    ("answer.tail_s", "s"),
    ("resistance.embed_s", "s"),
    ("lrd.build_s", "s"),
    ("connectivity.build_s", "s"),
    ("engine.apply_s", "s"),
    ("engine.included", "count"),
    ("engine.merged", "count"),
    ("engine.redistributed", "count"),
    ("engine.deleted", "count"),
    ("engine.relinked", "count"),
    ("engine.vacuous", "count"),
    ("engine.resetups", "count"),
    ("snapshot.publish_s", "s"),
    ("snapshot.patched", "count"),
    ("snapshot.refactored", "count"),
    ("ordering.order_s", "s"),
    ("ordering.min_degree_s", "s"),
    ("cholesky.numeric_s", "s"),
    ("cholesky.factor_nnz", "count"),
    ("cholesky.factor_flops", "flop"),
    ("cholesky.trisolve_s", "s"),
    ("csr.spmv_s", "s"),
    ("solve.pcg_s", "s"),
    ("solve.iters", "count"),
    ("traffic.admit_s", "s"),
    ("solve.queue_s", "s"),
    ("shard.apply_s", "s"),
    ("shard.publish_s", "s"),
    ("shard.boundary_nodes", "count"),
    ("shard.imbalance", "ratio"),
    ("store.append_s", "s"),
    ("store.checkpoint_s", "s"),
    ("store.wal_bytes", "bytes"),
    ("store.snapshot_bytes", "bytes"),
    ("store.replayed_batches", "count"),
    ("baselines.grass_rerun_s", "s"),
    ("quality.kappa_final", "ratio"),
    ("quality.kappa_stale", "ratio"),
    ("quality.kappa_grass", "ratio"),
];

/// State shared by every workload of one run.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    /// Scratch directory inside the checkout (stores of `serve_durable`,
    /// span files of traced runs).
    pub work_dir: PathBuf,
}

impl Run {
    /// Median self time of the spans named `span`, into per-layer `metric`,
    /// for each `(metric, span)` pair that has spans.
    pub fn layer_medians(&mut self, pairs: &[(&'static str, &str)]) {
        let st = self.tracer.self_times();
        for &(metric, span) in pairs {
            if let Some(v) = st.get(span) {
                self.layer.insert(metric, stats::median(v));
            }
        }
    }
}

/// Per-layer names of the engine counters in `Counts::engine`, in order.
const ENGINE_COUNTS: [&str; 7] = [
    "engine.included",
    "engine.merged",
    "engine.redistributed",
    "engine.deleted",
    "engine.relinked",
    "engine.vacuous",
    "engine.resetups",
];

/// Per-pass counters of the engine and snapshot layers.
#[derive(Default)]
pub struct Counts {
    pub engine: [usize; 7],
    pub patched: usize,
    pub refactored: usize,
}

impl Counts {
    pub fn add_update(&mut self, r: &UpdateReport) {
        for (c, v) in self.engine.iter_mut().zip([
            r.included,
            r.merged,
            r.redistributed,
            r.deleted,
            r.relinked,
            r.vacuous,
            usize::from(r.resetup.is_some()),
        ]) {
            *c += v;
        }
    }

    pub fn add_sharded(&mut self, r: &ShardedBatchReport) {
        for u in r.shard_reports.iter().flatten() {
            self.add_update(u);
            // A shard re-setup is the coordinator's, counted below.
            self.engine[6] -= usize::from(u.resetup.is_some());
        }
        self.engine[0] += r.boundary_inserted;
        self.engine[3] += r.boundary_deleted;
        self.engine[4] += r.boundary_relinked;
        self.engine[5] += r.boundary_vacuous;
        self.engine[6] += usize::from(r.resetup.is_some());
    }

    /// Stores the engine counters as per-layer metrics.
    pub fn record_engine(&self, run: &mut Run) {
        for (name, v) in ENGINE_COUNTS.into_iter().zip(self.engine) {
            run.layer.insert(name, v as f64);
        }
    }
}

/// Engine setup configuration: the paper's Krylov embedding at width 1.
pub fn setup_config(seed: u64) -> SetupConfig {
    SetupConfig::default()
        .with_seed(seed)
        .with_resistance(ResistanceBackend::Krylov(KrylovConfig {
            threads: Some(1),
            ..KrylovConfig::default()
        }))
}

fn usage() -> ! {
    eprintln!(
        "usage: ingrass-perfbench --workload <ingest|serve_bulk|serve_sharded|serve_durable> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    // The worker width is pinned to one thread for every ambient-width
    // stage; config structs with a `threads` field are pinned where built.
    std::env::set_var("INGRASS_THREADS", "1");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut i = 0;
    while i + 1 < argv.len() {
        let v = &argv[i + 1];
        match argv[i].as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => seed = v.parse::<u64>().ok(),
            "--seconds" => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0 && s.is_finite()),
            "--trace" => traced = matches!(v.as_str(), "0" | "1").then(|| v == "1"),
            _ => usage(),
        }
        i += 2;
    }
    if i != argv.len() {
        usage();
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        usage()
    };

    let work_dir = PathBuf::from("perfbench/.work");
    std::fs::create_dir_all(&work_dir).expect("create perfbench/.work in the checkout");
    let mut run = Run {
        seed,
        seconds,
        tracer: Tracer::new(traced),
        checks: Checks::default(),
        attempted: 0,
        failed: 0,
        e2e: BTreeMap::new(),
        layer: BTreeMap::new(),
        work_dir,
    };
    match workload.as_str() {
        "ingest" => ingest::run(&mut run),
        "serve_bulk" => serve::run(&mut run, serve::Kind::Bulk),
        "serve_sharded" => serve::run(&mut run, serve::Kind::Sharded),
        "serve_durable" => serve::run(&mut run, serve::Kind::Durable),
        _ => usage(),
    }
    run.e2e.insert("peak_rss_mb", stats::peak_rss_mib());

    for f in &run.checks.failures {
        eprintln!("check failed: {f}");
    }
    let e2e_line = format_metrics(END_TO_END, &run.e2e);
    let metrics = if traced {
        // The traced run's end-to-end figures, for the overhead comparison.
        println!("traced end-to-end: {e2e_line}");
        let path = run.work_dir.join(format!("spans-{workload}-{seed}.jsonl"));
        if let Err(e) = run.tracer.write_jsonl(&path) {
            eprintln!("writing {}: {e}", path.display());
        }
        format_metrics(PER_LAYER, &run.layer)
    } else {
        // The latencies have no bound but are measured untraced too.
        println!(
            "untraced latencies: {}",
            format_metrics(&PER_LAYER[..4], &run.layer)
        );
        e2e_line
    };
    let finite = run
        .e2e
        .values()
        .chain(run.layer.values())
        .all(|v| v.is_finite());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        run.checks.ok() && finite,
        run.attempted.max(1),
        run.failed,
    );
}

fn format_metrics(table: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
