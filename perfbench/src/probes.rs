//! Layer probes of the traced mode: the elimination ordering, numeric
//! factorization, triangular solves and SpMV, each called directly on the
//! live sparsifier (`L_H`) or graph (`L_G`) of the workload's final state.

use crate::Run;
use ingrass_repro::core::{lrd_nested_dissection_order, LrdHierarchy};
use ingrass_repro::linalg::{min_degree_order, CsrMatrix, SparseCholesky};

/// `L_H` grounded at its last node (row and column `n − 1` removed), the
/// matrix a sparsifier preconditioner factors.
fn grounded_laplacian(n: usize, h: &[(usize, usize, f64)]) -> CsrMatrix {
    let g = n - 1;
    let mut t = Vec::with_capacity(4 * h.len());
    for &(u, v, w) in h {
        if u != g {
            t.push((u, u, w));
        }
        if v != g {
            t.push((v, v, w));
        }
        if u != g && v != g {
            t.push((u, v, -w));
            t.push((v, u, -w));
        }
    }
    CsrMatrix::from_triplets(g, g, &t)
}

/// Runs every probe and stores the per-layer medians in `run.layer`.
pub fn run_probes(
    run: &mut Run,
    hierarchy: &LrdHierarchy,
    n: usize,
    h: &[(usize, usize, f64)],
    l_g: &CsrMatrix,
) {
    let lh = grounded_laplacian(n, h);
    let tr = &mut run.tracer;
    // One ordering each: on chord-laden sparsifiers they take seconds.
    let t0 = tr.now();
    let perm = lrd_nested_dissection_order(hierarchy, h.iter().map(|e| (e.0, e.1)), Some(n - 1));
    let t1 = tr.now();
    tr.record("ordering.order", t0, t1, None, 0);
    let t0 = tr.now();
    std::hint::black_box(min_degree_order(&lh));
    let t1 = tr.now();
    tr.record("ordering.min_degree", t0, t1, None, 0);
    let mut factor = None;
    for rep in 0..5u64 {
        let t0 = tr.now();
        let f = SparseCholesky::factor_with_order(&lh, &perm);
        let t1 = tr.now();
        tr.record("cholesky.numeric", t0, t1, None, rep);
        match f {
            Ok(f) => factor = Some(f),
            Err(e) => run.checks.record("probe factorization", Err(e.to_string())),
        }
    }
    let Some(factor) = factor else { return };
    let b: Vec<f64> = (0..n - 1).map(|i| ((i % 7) as f64) - 3.0).collect();
    let mut x = vec![0.0; n - 1];
    for rep in 0..50u64 {
        let t0 = tr.now();
        factor.solve_into(&b, &mut x);
        let t1 = tr.now();
        tr.record("cholesky.trisolve", t0, t1, None, rep);
    }
    let xg: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
    let mut y = vec![0.0; n];
    for rep in 0..200u64 {
        let t0 = tr.now();
        l_g.matvec(&xg, &mut y);
        let t1 = tr.now();
        tr.record("csr.spmv", t0, t1, None, rep);
    }
    std::hint::black_box((&x, &y));
    run.layer.insert("cholesky.factor_nnz", factor.nnz() as f64);
    run.layer
        .insert("cholesky.factor_flops", factor.flops_estimate());
    run.layer_medians(&[
        ("ordering.order_s", "ordering.order"),
        ("ordering.min_degree_s", "ordering.min_degree"),
        ("cholesky.numeric_s", "cholesky.numeric"),
        ("cholesky.trisolve_s", "cholesky.trisolve"),
        ("csr.spmv_s", "csr.spmv"),
    ]);
}
