//! `ingest`: the paper's Table II protocol. A 10 % GRASS sparsifier of a
//! G2_circuit-class power grid, inGRASS setup, then the 10-batch
//! `InsertionStream::paper_default`, repeated on fresh engines over the
//! same inputs until the run's time is spent. Nothing is factored, solved
//! or written to disk outside the traced mode's probes.

use crate::checks::{self, EdgeMap};
use crate::trace::Tracer;
use crate::{probes, setup_config, stats, Counts, Run};
use ingrass_repro::core::SetupReport;
use ingrass_repro::core::UpdateOp;
use ingrass_repro::par::derive_seed;
use ingrass_repro::prelude::*;

/// Fraction of G2_circuit's 150k nodes: about 7.7k nodes, 17k edges.
const SCALE: f64 = 0.05;
/// Off-tree density of the initial GRASS sparsifier (paper protocol).
const DENSITY: f64 = 0.10;
/// Passes run at least, so the tail percentile keeps ten samples beyond it.
const MIN_PASSES: usize = 100;
/// The tail percentile: 10 batches × at least 100 passes leave ≥ 10
/// samples above p99.
const TAIL: f64 = 0.99;

pub fn edges_of(g: &Graph) -> Vec<(usize, usize, f64)> {
    g.edges()
        .iter()
        .map(|e| (e.u.index(), e.v.index(), e.weight))
        .collect()
}

/// Child spans of a setup span from the phase timings setup reports
/// about itself; the phases run in this order from the start of the call.
pub fn record_setup_phases(
    tr: &mut Tracer,
    rep: &SetupReport,
    t0: f64,
    parent: Option<usize>,
    id: u64,
) {
    let res = rep.resistance_time.as_secs_f64();
    let lrd = rep.lrd_time.as_secs_f64();
    let conn = rep.connectivity_time.as_secs_f64();
    tr.record("resistance.embed", t0, t0 + res, parent, id);
    tr.record("lrd.build", t0 + res, t0 + res + lrd, parent, id);
    tr.record(
        "connectivity.build",
        t0 + res + lrd,
        t0 + res + lrd + conn,
        parent,
        id,
    );
}

pub fn run(run: &mut Run) {
    let seed = run.seed;
    let g0 = TestCase::G2Circuit.build(SCALE, seed);
    let n = g0.num_nodes();
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g0, DENSITY)
        .expect("initial GRASS sparsifier")
        .graph;
    let stream = InsertionStream::paper_default(&g0, derive_seed(seed, 1));
    let mut g_final = EdgeMap::new(edges_of(&g0));
    let mut inserted_weight = 0.0;
    for batch in stream.batches() {
        let ops: Vec<UpdateOp> = batch
            .iter()
            .map(|&(u, v, weight)| UpdateOp::Insert { u, v, weight })
            .collect();
        g_final.apply(&ops);
        inserted_weight += batch.iter().map(|e| e.2).sum::<f64>();
    }
    let expected_weight = h0.total_weight() + inserted_weight;
    let g_final_graph = Graph::from_edges(n, &g_final.edges()).expect("final graph");

    let cfg = setup_config(seed);
    let ucfg = UpdateConfig::default();
    let (mut setup, mut visible, mut answer, mut recover) = (vec![], vec![], vec![], vec![]);
    let (mut apply_total, mut ops_total) = (0.0, 0usize);
    let mut first: Option<Vec<(usize, usize, f64)>> = None;
    let mut last_engine = None;
    let start = run.tracer.now();
    let mut pass = 0usize;
    'passes: while pass < MIN_PASSES || run.tracer.now() - start < run.seconds {
        let id0 = (pass * 100) as u64;
        let tr = &mut run.tracer;
        let t0 = tr.now();
        let made = InGrassEngine::setup(&h0, &cfg);
        let t1 = tr.now();
        run.attempted += 1;
        let mut engine = match made {
            Ok(e) => e,
            Err(e) => {
                run.failed += 1;
                run.checks.record("setup", Err(e.to_string()));
                break;
            }
        };
        setup.push(t1 - t0);
        let sp = tr.record("engine.setup", t0, t1, None, id0);
        record_setup_phases(tr, engine.setup_report(), t0, sp, id0);

        let mut counts = Counts::default();
        for (b, batch) in stream.batches().iter().enumerate() {
            let id = id0 + b as u64 + 1;
            let tr = &mut run.tracer;
            let t0 = tr.now();
            let r = engine.insert_batch(batch, &ucfg);
            let t1 = tr.now();
            run.attempted += 1;
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    run.failed += 1;
                    run.checks.record("insert_batch", Err(e.to_string()));
                    break 'passes;
                }
            };
            tr.record("engine.apply", t0, t1, None, id);
            visible.push(t1 - t0);
            apply_total += t1 - t0;
            ops_total += batch.len();
            counts.add_update(&r);
            // The client's read after each batch: a copy of the updated
            // sparsifier, the deliverable of the paper's protocol.
            let t0 = tr.now();
            let h = engine.sparsifier_graph();
            let t1 = tr.now();
            run.attempted += 1;
            tr.record("engine.sparsifier_graph", t0, t1, None, id);
            answer.push(t1 - t0);
            std::hint::black_box(h);
        }

        let h_final = edges_of(&engine.sparsifier_graph());
        let state = engine.export_state();
        let tr = &mut run.tracer;
        let t0 = tr.now();
        let restored = InGrassEngine::from_state(state);
        let t1 = tr.now();
        run.attempted += 1;
        tr.record("engine.from_state", t0, t1, None, id0);
        match restored {
            Ok(r) => {
                recover.push(t1 - t0);
                run.checks.record(
                    "restored sparsifier",
                    checks::same_edges(&edges_of(&r.sparsifier_graph()), &h_final),
                );
            }
            Err(e) => {
                run.failed += 1;
                run.checks.record("from_state", Err(e.to_string()));
            }
        }
        match &first {
            None => {
                run.checks.record(
                    "sparsifier weight = initial + inserted",
                    checks::total_weight(&h_final, expected_weight, 1e-9),
                );
                run.checks.record(
                    "sparsifier ⊆ final graph",
                    checks::subgraph(&h_final, &g_final),
                );
                run.checks.record(
                    "sparsifier spans and is connected",
                    checks::spanning_connected(n, &h_final),
                );
                counts.record_engine(run);
                first = Some(h_final);
            }
            Some(f) => run.checks.record(
                "passes give identical sparsifiers",
                checks::same_edges(&h_final, f),
            ),
        }
        last_engine = Some(engine);
        pass += 1;
    }
    eprintln!("ingest: n={n}, {pass} passes, {} batches", visible.len());

    run.e2e.insert("setup_s", stats::median(&setup));
    run.e2e
        .insert("update_ops_per_s", ops_total as f64 / apply_total);
    run.layer.insert("visible.p50_s", stats::median(&visible));
    run.layer
        .insert("visible.tail_s", stats::percentile(&visible, TAIL));
    run.layer.insert("answer.p50_s", stats::median(&answer));
    run.layer
        .insert("answer.tail_s", stats::percentile(&answer, TAIL));
    run.e2e.insert("recover_s", stats::median(&recover));
    let Some(engine) = last_engine else { return };
    let h_final = engine.sparsifier_graph();
    let density = SparsifierDensity::new(n)
        .report_graphs(&h_final, &g_final_graph)
        .off_tree;
    run.e2e.insert("offtree_density_final", density);

    // Quality comparison of every run, after the timed passes: the updated
    // sparsifier should be no worse than the stale initial one. It is
    // reported, not counted in `correct`: the engine fails it on some
    // seeds only (see the README's "Standing failure").
    let (k_final, k_stale, parity) = checks::kappa_not_worse(&g_final_graph, &h_final, &h0);
    eprintln!(
        "ingest quality: kappa(G_final, H_final) {k_final:.1}, kappa(G_final, H0) {k_stale:.1}"
    );
    match parity {
        Ok(()) => eprintln!("kappa parity (reported, not gated): pass"),
        Err(e) => eprintln!("kappa parity (reported, not gated): FAIL: {e}"),
    }
    run.layer.insert("quality.kappa_final", k_final);
    run.layer.insert("quality.kappa_stale", k_stale);

    if run.tracer.enabled() {
        run.layer_medians(&[
            ("resistance.embed_s", "resistance.embed"),
            ("lrd.build_s", "lrd.build"),
            ("connectivity.build_s", "connectivity.build"),
            ("engine.apply_s", "engine.apply"),
        ]);
        probes::run_probes(
            run,
            engine.hierarchy(),
            n,
            &edges_of(&h_final),
            &g_final_graph.laplacian(),
        );
        // The paper's reference: GRASS re-run on the final graph at the
        // density inGRASS reached.
        let mut h_grass = None;
        for rep in 0..3u64 {
            let t0 = run.tracer.now();
            let out = GrassSparsifier::default().by_offtree_density(&g_final_graph, density);
            let t1 = run.tracer.now();
            run.tracer
                .record("baselines.grass_rerun", t0, t1, None, rep);
            h_grass = out.ok().map(|o| o.graph);
        }
        run.layer_medians(&[("baselines.grass_rerun_s", "baselines.grass_rerun")]);
        let k_grass = h_grass.as_ref().map_or(f64::NAN, |h| {
            checks::kappa(&g_final_graph, h).unwrap_or(f64::NAN)
        });
        run.layer.insert("quality.kappa_grass", k_grass);
        eprintln!("ingest quality: kappa(G_final, GRASS re-run) {k_grass:.1}");
    }
}
