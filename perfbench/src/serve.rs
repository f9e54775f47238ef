//! The serving workloads. One client in a closed loop: each write batch
//! is applied and waited on until `SnapshotReader::current()` returns its
//! sequence, then each request goes through `AdmissionQueue::offer`,
//! `ConcurrentSolveService::submit` and `drain` and is waited on until its
//! answer is back.
//!
//! * `serve_bulk` — a mono `SnapshotEngine` on a delaunay_n18-class mesh;
//! * `serve_sharded` — the same inputs served by `ShardedEngine` (S = 4);
//! * `serve_durable` — a `PersistentEngine` (default `StorePolicy`) on a
//!   power grid with small batches, crashed and recovered repeatedly
//!   within each pass.

use crate::checks::{self, EdgeMap};
use crate::ingest::edges_of;
use crate::{probes, setup_config, stats, Counts, Run};
use ingrass_repro::core::state::ServingState;
use ingrass_repro::core::{LrdHierarchy, SetupReport, SnapshotReader, SparsifierSnapshot};
use ingrass_repro::linalg::CsrMatrix;
use ingrass_repro::par::derive_seed;
use ingrass_repro::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Bulk,
    Sharded,
    Durable,
}

/// Fraction of delaunay_n18's 260k nodes for the mesh workloads: 2.6k
/// nodes, 7.8k edges.
const MESH_SCALE: f64 = 0.01;
/// Batches of the mesh churn stream (paper-shaped mix, 24 % of the
/// off-tree edge count in total).
const MESH_BATCHES: usize = 40;
/// Solve requests after each mesh batch.
const MESH_REQUESTS: usize = 3;
/// Fraction of G2_circuit's 150k nodes for `serve_durable`: 1.5k nodes.
const GRID_SCALE: f64 = 0.01;
/// Batches of `serve_durable`, each of 1–4 operations. The store crashes
/// 32 batches after each checkpoint (default `StorePolicy`: one every 64
/// batches), the mean distance for a crash at a random point: after
/// batches 32, 96, 160 and 224. The cost of a recovery is set by how many
/// refactoring publishes its 32-batch replay holds, which differs from one
/// crash point to the next, so a run needs many crash points for a steady
/// median.
const GRID_BATCHES: usize = 224;
/// Off-tree density of the serving sparsifiers (a preconditioner-grade
/// basis, as the repository's serve scenarios use).
const DENSITY: f64 = 0.30;
/// Shards of `serve_sharded`.
const SHARDS: usize = 4;
/// Set-ups timed at the start of every pass (the last one serves a
/// `serve_durable` pass).
const SETUPS_PER_PASS: usize = 2;
/// Restores from the exported start state timed at the start of every
/// mesh pass (the last one serves the pass).
const RESTORES_PER_PASS: usize = 3;
/// Recoveries of the store at each `serve_durable` crash point.
const RECOVERIES: usize = 2;
/// Tail percentile of `answer_*`: 3 × 40 × 5 and 224 × 3 requests leave
/// at least 12 samples above p98.
const ANSWER_TAIL: f64 = 0.98;
/// Residual bound every answer is checked against (the solve service's
/// PCG stops at a relative residual of 1e-8).
const ANSWER_TOL: f64 = 1e-6;

/// Tail percentiles and the passes that keep ten samples beyond them.
impl Kind {
    fn min_passes(self) -> usize {
        match self {
            Kind::Bulk | Kind::Sharded => 5,
            Kind::Durable => 3,
        }
    }

    /// Tail percentile of `visible_*`: 40 batches × 5 passes leave 10
    /// samples above p95; 224 batches × 3 passes leave 14 above p98.
    pub fn visible_tail(self) -> f64 {
        match self {
            Kind::Bulk | Kind::Sharded => 0.95,
            Kind::Durable => 0.98,
        }
    }
}

/// Generator seed of the served graph. The graph, its initial sparsifier
/// and the engine set-up are the deployment and stay fixed; `--seed`
/// draws the traffic: every pass's update stream and request terminals.
const GRAPH_SEED: u64 = 1;

struct Fixture {
    kind: Kind,
    n: usize,
    g0: Graph,
    h0: Graph,
    requests: usize,
}

fn fixture(kind: Kind) -> Fixture {
    let (g0, requests) = match kind {
        Kind::Bulk | Kind::Sharded => (
            TestCase::DelaunayN18.build(MESH_SCALE, GRAPH_SEED),
            MESH_REQUESTS,
        ),
        Kind::Durable => (TestCase::G2Circuit.build(GRID_SCALE, GRAPH_SEED), 1),
    };
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g0, DENSITY)
        .expect("initial GRASS sparsifier")
        .graph;
    Fixture {
        kind,
        n: g0.num_nodes(),
        g0,
        h0,
        requests,
    }
}

impl Fixture {
    /// The update stream of pass `pass`: every pass starts from the same
    /// engine state and takes a fresh stream drawn from the run's seed.
    fn batches(&self, seed: u64, pass: usize) -> Vec<Vec<UpdateOp>> {
        let stream_seed = derive_seed(seed, 1 + pass as u64);
        let mut cfg = ChurnConfig::paper_shaped(&self.g0, stream_seed);
        match self.kind {
            Kind::Bulk | Kind::Sharded => {
                cfg.ops_per_batch = (cfg.ops_per_batch * cfg.batches / MESH_BATCHES).max(1);
                cfg.batches = MESH_BATCHES;
                let churn = ChurnStream::generate(&self.g0, &cfg);
                churn
                    .batches()
                    .iter()
                    .map(|b| churn_to_update_ops(b))
                    .collect()
            }
            Kind::Durable => {
                // One paper-shaped stream of single operations, cut into
                // batches of 1–4 in stream order (so every delete and
                // reweight still names a live edge).
                cfg.batches = 4 * GRID_BATCHES;
                cfg.ops_per_batch = 1;
                let ops: Vec<UpdateOp> = ChurnStream::generate(&self.g0, &cfg)
                    .batches()
                    .iter()
                    .flat_map(|b| churn_to_update_ops(b))
                    .collect();
                let mut batches = Vec::with_capacity(GRID_BATCHES);
                let mut at = 0;
                for b in 0..GRID_BATCHES {
                    let len = 1 + (derive_seed(stream_seed ^ 0xba7c, b as u64) % 4) as usize;
                    batches.push(ops[at..at + len].to_vec());
                    at += len;
                }
                batches
            }
        }
    }
}

/// Right-hand side of request `j` of a pass: unit current between two
/// seed-derived terminals.
fn rhs(seed: u64, n: usize, j: u64) -> Vec<f64> {
    let u = (derive_seed(seed ^ 0x5e21, 2 * j) % n as u64) as usize;
    let mut v = (derive_seed(seed ^ 0x5e21, 2 * j + 1) % n as u64) as usize;
    if v == u {
        v = (v + 1) % n;
    }
    let mut b = vec![0.0; n];
    b[u] = 1.0;
    b[v] = -1.0;
    b
}

enum Writer {
    Mono(SnapshotEngine),
    Sharded(ShardedEngine),
    Durable(PersistentEngine),
}

impl Writer {
    fn reader(&self) -> SnapshotReader {
        match self {
            Writer::Mono(e) => e.reader(),
            Writer::Sharded(e) => e.reader(),
            Writer::Durable(e) => e.reader(),
        }
    }

    fn sparsifier(&self) -> Graph {
        match self {
            Writer::Mono(e) => e.engine().sparsifier_graph(),
            Writer::Sharded(e) => e.assembled_graph().expect("assembled sharded sparsifier"),
            Writer::Durable(e) => e.engine().engine().sparsifier_graph(),
        }
    }

    /// The engine's own setup phase timings (the sharded engine sets up
    /// one engine per shard and reports none for the whole).
    fn setup_report(&self) -> Option<&SetupReport> {
        match self {
            Writer::Mono(e) => Some(e.engine().setup_report()),
            Writer::Sharded(_) => None,
            Writer::Durable(e) => Some(e.engine().engine().setup_report()),
        }
    }

    fn hierarchy(&self) -> &LrdHierarchy {
        match self {
            Writer::Mono(e) => e.engine().hierarchy(),
            Writer::Sharded(e) => e.hierarchy(),
            Writer::Durable(e) => e.engine().engine().hierarchy(),
        }
    }
}

fn bytes_with_prefix(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Samples of one run.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    visible: Vec<f64>,
    answer: Vec<f64>,
    recover: Vec<f64>,
    update_s: f64,
    update_ops: usize,
    iterations: usize,
    solves: usize,
}

pub fn run(run: &mut Run, kind: Kind) {
    let seed = run.seed;
    let fx = fixture(kind);
    let n = fx.n;
    let cfg = setup_config(GRAPH_SEED);
    let ucfg = UpdateConfig::default();
    let shard_cfg = ShardedConfig::default()
        .with_shards(SHARDS)
        .with_threads(Some(1));
    let policy = StorePolicy::default();
    let svc = ConcurrentSolveService::new(SolveConfig {
        threads: Some(1),
        ..SolveConfig::default()
    });
    let mut queue: AdmissionQueue<Vec<f64>> = AdmissionQueue::new(TrafficConfig::default());
    let mut s = Samples::default();

    enum Start {
        Mono(Box<ServingState>),
        Sharded(Box<ingrass_repro::core::state::ShardedState>),
    }
    let mut start: Option<Start> = None;
    let t_start = run.tracer.now();
    let mut pass = 0usize;
    // The final state of the first pass: every run completes it, so what is
    // measured on it does not depend on how many passes fit in the run.
    let mut first: Option<(Writer, EdgeMap)> = None;
    while pass < kind.min_passes() || run.tracer.now() - t_start < run.seconds {
        let id0 = (pass as u64 + 1) * 1_000_000;
        // Set-up samples, spread over the run: full set-ups up to the
        // first readable snapshot (for the store, including its initial
        // durable snapshot).
        let mut writer = None;
        for rep in 0..SETUPS_PER_PASS {
            let id = id0 + 900_000 + rep as u64;
            let dir = run.work_dir.join(format!("store-{seed}-{pass}-{rep}"));
            let t0 = run.tracer.now();
            let made = match kind {
                Kind::Bulk => SnapshotEngine::setup(&fx.h0, &cfg)
                    .map(Writer::Mono)
                    .map_err(|e| e.to_string()),
                Kind::Sharded => ShardedEngine::setup(&fx.h0, &cfg, &shard_cfg)
                    .map(Writer::Sharded)
                    .map_err(|e| e.to_string()),
                Kind::Durable => {
                    let _ = std::fs::remove_dir_all(&dir);
                    PersistentEngine::create(&dir, &fx.h0, &cfg, policy)
                        .map(Writer::Durable)
                        .map_err(|e| e.to_string())
                }
            };
            let t1 = run.tracer.now();
            run.attempted += 1;
            let sp = run.tracer.record("engine.setup", t0, t1, None, id);
            match made {
                Ok(w) => {
                    s.setup.push(t1 - t0);
                    if let Some(rep) = w.setup_report() {
                        crate::ingest::record_setup_phases(&mut run.tracer, rep, t0, sp, id);
                    }
                    if let Some(Writer::Durable(old)) = writer.replace(w) {
                        let old_dir = old.dir().to_path_buf();
                        drop(old);
                        let _ = std::fs::remove_dir_all(old_dir);
                    }
                }
                Err(e) => {
                    run.failed += 1;
                    run.checks.record("setup", Err(e));
                }
            }
        }
        // The mesh passes all start from the state exported after the
        // first set-up; restoring it is their `recover_s`.
        if kind != Kind::Durable {
            if start.is_none() {
                start = match writer.take() {
                    Some(Writer::Mono(e)) => Some(Start::Mono(Box::new(e.export_state()))),
                    Some(Writer::Sharded(e)) => Some(Start::Sharded(Box::new(e.export_state()))),
                    _ => None,
                };
            }
            let Some(st) = &start else { break };
            writer = None;
            for rep in 0..RESTORES_PER_PASS {
                let id = id0 + 800_000 + rep as u64;
                let (t0, restored, t1) = match st {
                    Start::Mono(st) => {
                        let st = (**st).clone();
                        let t0 = run.tracer.now();
                        let w = SnapshotEngine::from_state(st).map(Writer::Mono);
                        (t0, w, run.tracer.now())
                    }
                    Start::Sharded(st) => {
                        let st = (**st).clone();
                        let t0 = run.tracer.now();
                        let w = ShardedEngine::from_state(st).map(Writer::Sharded);
                        (t0, w, run.tracer.now())
                    }
                };
                run.attempted += 1;
                run.tracer.record("engine.from_state", t0, t1, None, id);
                match restored {
                    Ok(w) => {
                        s.recover.push(t1 - t0);
                        writer = Some(w);
                    }
                    Err(e) => {
                        run.failed += 1;
                        run.checks.record("from_state", Err(e.to_string()));
                    }
                }
            }
        }
        let Some(writer) = writer else { break };
        let batches = fx.batches(seed, pass);
        let Some(done) = serve_pass(
            run,
            &fx,
            &batches,
            writer,
            &svc,
            &mut queue,
            &ucfg,
            &mut s,
            id0,
            pass == 0,
        ) else {
            break;
        };
        first.get_or_insert(done);
        pass += 1;
    }
    eprintln!(
        "{kind:?}: n={n}, {pass} passes, {} batches, {} requests",
        s.visible.len(),
        s.answer.len()
    );

    run.e2e.insert("setup_s", stats::median(&s.setup));
    run.e2e
        .insert("update_ops_per_s", s.update_ops as f64 / s.update_s);
    run.layer.insert("visible.p50_s", stats::median(&s.visible));
    run.layer.insert(
        "visible.tail_s",
        stats::percentile(&s.visible, kind.visible_tail()),
    );
    run.layer.insert("answer.p50_s", stats::median(&s.answer));
    run.layer
        .insert("answer.tail_s", stats::percentile(&s.answer, ANSWER_TAIL));
    run.e2e.insert("recover_s", stats::median(&s.recover));
    let Some((writer, live)) = first else { return };
    let g_final = Graph::from_edges(n, &live.edges()).expect("final graph");
    let h_final = writer.sparsifier();
    run.e2e.insert(
        "offtree_density_final",
        SparsifierDensity::new(n)
            .report_graphs(&h_final, &g_final)
            .off_tree,
    );

    if run.tracer.enabled() {
        run.layer
            .insert("solve.iters", s.iterations as f64 / s.solves.max(1) as f64);
        run.layer_medians(&[
            ("resistance.embed_s", "resistance.embed"),
            ("lrd.build_s", "lrd.build"),
            ("connectivity.build_s", "connectivity.build"),
            ("engine.apply_s", "engine.apply"),
            ("snapshot.publish_s", "snapshot.publish"),
            ("solve.pcg_s", "solve.pcg"),
            ("traffic.admit_s", "traffic.admit"),
            ("shard.apply_s", "shard.apply_batch"),
            ("shard.publish_s", "shard.publish"),
            ("store.append_s", "store.apply_batch"),
            ("store.checkpoint_s", "store.checkpoint_batch"),
        ]);
        let st = run.tracer.self_times();
        if let (Some(sub), Some(dr)) = (st.get("solve.submit"), st.get("solve.drain")) {
            let q: Vec<f64> = sub.iter().zip(dr).map(|(a, b)| a + b).collect();
            run.layer.insert("solve.queue_s", stats::median(&q));
        }
        probes::run_probes(
            run,
            writer.hierarchy(),
            n,
            &edges_of(&h_final),
            &g_final.laplacian(),
        );
        let kappa = |h: &Graph| checks::kappa(&g_final, h).unwrap_or(f64::NAN);
        run.layer.insert("quality.kappa_final", kappa(&h_final));
        run.layer.insert("quality.kappa_stale", kappa(&fx.h0));
        eprintln!(
            "{kind:?} quality: kappa(G_final, H_final) {:.1}, stale H0 {:.1}",
            run.layer["quality.kappa_final"], run.layer["quality.kappa_stale"]
        );
    }
}

/// Solves one request through the admission queue and the solve service;
/// returns the answer, or records the failure.
#[allow(clippy::too_many_arguments)]
fn request(
    run: &mut Run,
    queue: &mut AdmissionQueue<Vec<f64>>,
    svc: &ConcurrentSolveService,
    snap: &Arc<SparsifierSnapshot>,
    lap: &Arc<CsrMatrix>,
    b: Vec<f64>,
    id: u64,
    s: &mut Samples,
) -> Option<Vec<f64>> {
    let tr = &mut run.tracer;
    let t0 = tr.now();
    let admitted = queue.offer(0, t0, b);
    let mut dispatched = queue.dispatch(tr.now(), 1);
    let t1 = tr.now();
    run.attempted += 1;
    if let Err(e) = admitted {
        run.failed += 1;
        run.checks.record("offer", Err(format!("{e:?}")));
        return None;
    }
    let Some(d) = dispatched.pop() else {
        run.failed += 1;
        run.checks
            .record("dispatch", Err("admitted request not dispatched".into()));
        return None;
    };
    let ticket = svc.submit(snap, lap, d.payload);
    let t2 = tr.now();
    let round = svc.drain();
    let t3 = tr.now();
    if let Err(e) = ticket {
        run.failed += 1;
        run.checks.record("submit", Err(e.to_string()));
        return None;
    }
    let root = tr.record("request", t0, t3, None, id);
    tr.record("traffic.admit", t0, t1, root, id);
    tr.record("solve.submit", t1, t2, root, id);
    let drain = tr.record("solve.drain", t2, t3, root, id);
    tr.record_tail("solve.pcg", round.solve_seconds, drain, id);
    s.answer.push(t3 - t0);
    let Some(served) = round.served.into_iter().next() else {
        run.failed += 1;
        run.checks.record("drain", Err("no answer returned".into()));
        return None;
    };
    s.iterations += served.result.iterations;
    s.solves += 1;
    run.checks.record(
        "PCG converged",
        if served.result.converged {
            Ok(())
        } else {
            Err(format!(
                "not converged after {} iterations",
                served.result.iterations
            ))
        },
    );
    Some(served.x)
}

/// One pass over the fixture's batches. Returns the writer and the
/// benchmark's own copy of the final graph, or `None` after a failure.
#[allow(clippy::too_many_arguments)]
fn serve_pass(
    run: &mut Run,
    fx: &Fixture,
    batches: &[Vec<UpdateOp>],
    mut writer: Writer,
    svc: &ConcurrentSolveService,
    queue: &mut AdmissionQueue<Vec<f64>>,
    ucfg: &UpdateConfig,
    s: &mut Samples,
    id0: u64,
    first_pass: bool,
) -> Option<(Writer, EdgeMap)> {
    let n = fx.n;
    let reader = writer.reader();
    let mut live = EdgeMap::new(edges_of(&fx.g0));
    let mut counts = Counts::default();
    let snapshot_every = StorePolicy::default().snapshot_every as usize;
    let mut sequence = reader.current().sequence();
    let mut request_id = id0;
    for (b, ops) in batches.iter().enumerate() {
        live.apply(ops);
        let id = id0 + b as u64;
        let tr = &mut run.tracer;
        let t0 = tr.now();
        let applied: Result<(u64, f64, f64), String> = match &mut writer {
            Writer::Mono(e) => e
                .apply_batch(ops, ucfg)
                .map_err(|e| e.to_string())
                .and_then(|r| {
                    let p = r.publish.ok_or("non-empty batch not published")?;
                    let ta = tr.now();
                    let sp = tr.record("snapshot.apply_batch", t0, ta, None, id);
                    tr.record_head("engine.apply", r.update.elapsed.as_secs_f64(), sp, id);
                    tr.record_tail("snapshot.publish", p.publish_seconds, sp, id);
                    counts.add_update(&r.update);
                    counts.patched += usize::from(p.factor_updated);
                    counts.refactored += usize::from(!p.factor_updated);
                    Ok((p.sequence, ta, ta - t0))
                }),
            Writer::Durable(e) => e
                .apply_batch(ops, ucfg)
                .map_err(|e| e.to_string())
                .and_then(|r| {
                    let p = r.publish.ok_or("non-empty batch not published")?;
                    let ta = tr.now();
                    let name = if (b + 1) % snapshot_every == 0 {
                        "store.checkpoint_batch"
                    } else {
                        "store.apply_batch"
                    };
                    let sp = tr.record(name, t0, ta, None, id);
                    tr.record_head("engine.apply", r.update.elapsed.as_secs_f64(), sp, id);
                    tr.record_tail("snapshot.publish", p.publish_seconds, sp, id);
                    counts.add_update(&r.update);
                    counts.patched += usize::from(p.factor_updated);
                    counts.refactored += usize::from(!p.factor_updated);
                    Ok((
                        p.sequence,
                        ta,
                        r.update.elapsed.as_secs_f64() + p.publish_seconds,
                    ))
                }),
            Writer::Sharded(e) => e
                .apply_batch(ops, ucfg)
                .map_err(|e| e.to_string())
                .and_then(|r| {
                    let ta = tr.now();
                    let p = e.publish().map_err(|e| e.to_string())?;
                    let tb = tr.now();
                    let sp = tr.record("shard.apply_batch", t0, ta, None, id);
                    let engines: f64 = r
                        .shard_reports
                        .iter()
                        .flatten()
                        .map(|u| u.elapsed.as_secs_f64())
                        .sum();
                    tr.record_head("engine.apply", engines, sp, id);
                    tr.record("shard.publish", ta, tb, None, id);
                    counts.add_sharded(&r);
                    if first_pass && b + 1 == batches.len() {
                        if let Some(st) = &p.shard {
                            run.layer
                                .insert("shard.boundary_nodes", st.boundary_nodes as f64);
                            run.layer.insert("shard.imbalance", st.imbalance_ratio);
                        }
                    }
                    Ok((p.sequence, tb, tb - t0))
                }),
        };
        run.attempted += 1;
        // `written` is when the apply (and publish) calls returned;
        // `update_s` is their time, without the store's WAL append and
        // checkpoints, which `store.append_s` and `store.checkpoint_s`
        // report.
        let (seq, written, update_s) = match applied {
            Ok(v) => v,
            Err(e) => {
                run.failed += 1;
                run.checks.record("apply", Err(e));
                return None;
            }
        };
        // Wait until the reader serves this batch's snapshot.
        let mut snap = reader.current();
        let mut spins = 0u32;
        while snap.sequence() < seq && spins < 1_000_000 {
            std::hint::spin_loop();
            snap = reader.current();
            spins += 1;
        }
        let t1 = run.tracer.now();
        run.tracer.record("reader.current", written, t1, None, id);
        s.visible.push(t1 - t0);
        s.update_s += update_s;
        s.update_ops += ops.len();
        run.checks.record(
            "reader sees the batch's sequence",
            checks::same_value(
                &(snap.sequence(), seq),
                &(sequence + 1, sequence + 1),
                "sequence",
            ),
        );
        sequence = seq;
        run.checks.record(
            "snapshot checksum",
            if snap.verify_checksum() {
                Ok(())
            } else {
                Err("checksum mismatch".into())
            },
        );

        let edges = live.edges();
        let lap = Arc::new(
            Graph::from_edges(n, &edges)
                .expect("live graph")
                .laplacian(),
        );
        for _ in 0..fx.requests {
            let b = rhs(run.seed, n, request_id);
            let x = request(run, queue, svc, &snap, &lap, b.clone(), request_id, s)?;
            run.checks.record(
                "answer residual",
                checks::residual(&edges, &x, &b, ANSWER_TOL),
            );
            request_id += 1;
        }
        if let Writer::Durable(p) = &writer {
            if (b + 1) % snapshot_every == snapshot_every / 2 {
                let crash_id = id0 + 500_000 + 100 * b as u64;
                recover_crash_image(run, fx, p, svc, queue, &lap, s, crash_id, first_pass)?;
            }
        }
    }
    if let Writer::Durable(p) = &writer {
        // The engine stays readable in memory; its store is done with.
        let _ = std::fs::remove_dir_all(p.dir());
    }
    if first_pass {
        counts.record_engine(run);
        if fx.kind != Kind::Sharded {
            run.layer.insert("snapshot.patched", counts.patched as f64);
            run.layer
                .insert("snapshot.refactored", counts.refactored as f64);
        }
    }
    Some((writer, live))
}

/// Recovers `RECOVERIES` times from a crash image of the store: a copy of
/// its directory as it stands once `apply_batch` has returned (the WAL
/// record is fsync'd by then), which is what a crash at this point leaves
/// on disk. Each recovery is checked against the live engine's state and
/// an answer computed on it; the live engine serves on. (A store that is
/// recovered and then written and crashed again loses batches on its
/// next recovery, see `CHANGES.md`, so the crashes are not chained.)
#[allow(clippy::too_many_arguments)]
fn recover_crash_image(
    run: &mut Run,
    fx: &Fixture,
    p: &PersistentEngine,
    svc: &ConcurrentSolveService,
    queue: &mut AdmissionQueue<Vec<f64>>,
    lap: &Arc<CsrMatrix>,
    s: &mut Samples,
    crash_id: u64,
    first_pass: bool,
) -> Option<()> {
    let live_dir = p.dir();
    let dir = PathBuf::from(format!("{}-crash", live_dir.display()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = copy_dir(live_dir, &dir) {
        run.checks.record("crash image", Err(e.to_string()));
        return None;
    }
    let policy = p.policy();
    let before = checks::normalized(p.engine().export_state());
    let b = rhs(run.seed, fx.n, u64::MAX / 2);
    // Recovery-check requests are not serving traffic: keep them out of
    // the answer samples.
    let kept = (s.answer.len(), s.iterations, s.solves);
    let answer_before = request(
        run,
        queue,
        svc,
        &p.reader().current(),
        lap,
        b.clone(),
        crash_id + 99,
        s,
    )?;
    if first_pass {
        run.layer
            .insert("store.wal_bytes", bytes_with_prefix(&dir, "wal-") as f64);
        run.layer.insert(
            "store.snapshot_bytes",
            bytes_with_prefix(&dir, "snap-") as f64,
        );
    }
    for k in 0..RECOVERIES {
        let t0 = run.tracer.now();
        let opened = PersistentEngine::open(&dir, policy);
        let t1 = run.tracer.now();
        run.attempted += 1;
        run.tracer
            .record("store.open", t0, t1, None, crash_id + k as u64);
        let (rec, report) = match opened {
            Ok(v) => v,
            Err(e) => {
                run.failed += 1;
                run.checks.record("open", Err(e.to_string()));
                return None;
            }
        };
        s.recover.push(t1 - t0);
        run.layer
            .insert("store.replayed_batches", report.replayed_batches as f64);
        run.checks.record(
            "recovered state equals the state before the crash",
            checks::same_value(
                &checks::normalized(rec.engine().export_state()),
                &before,
                "serving state",
            ),
        );
        let answer = request(
            run,
            queue,
            svc,
            &rec.reader().current(),
            lap,
            b.clone(),
            crash_id + 10 + k as u64,
            s,
        )?;
        run.checks.record(
            "recovered answer is bit-identical",
            checks::same_bits(&answer, &answer_before),
        );
    }
    s.answer.truncate(kept.0);
    (s.iterations, s.solves) = (kept.1, kept.2);
    let _ = std::fs::remove_dir_all(&dir);
    Some(())
}

/// Copies the regular files of the flat directory `from` into `to`.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
