//! Output checks. Each is computed by the benchmark's own code from its
//! own copy of the inputs — never from the program's view of them — or is
//! a property the method must have.

use ingrass_repro::core::state::ServingState;
use ingrass_repro::core::UpdateOp;
use ingrass_repro::prelude::{estimate_condition_number, ConditionOptions, Graph};
use std::collections::BTreeMap;
use std::time::Duration;

/// The benchmark's own copy of a live graph: canonical `(min, max)` edge
/// keys to weights, mutated with the same semantics the update ops carry
/// (an insert on a live edge adds weight, a delete removes the edge, a
/// reweight overwrites a live edge's weight).
#[derive(Debug, Clone)]
pub struct EdgeMap {
    edges: BTreeMap<(u32, u32), f64>,
}

fn key(u: usize, v: usize) -> (u32, u32) {
    (u.min(v) as u32, u.max(v) as u32)
}

impl EdgeMap {
    pub fn new(edges: impl IntoIterator<Item = (usize, usize, f64)>) -> Self {
        let mut m = EdgeMap {
            edges: BTreeMap::new(),
        };
        for (u, v, w) in edges {
            *m.edges.entry(key(u, v)).or_insert(0.0) += w;
        }
        m
    }

    pub fn apply(&mut self, ops: &[UpdateOp]) {
        for op in ops {
            match *op {
                UpdateOp::Insert { u, v, weight } => {
                    *self.edges.entry(key(u, v)).or_insert(0.0) += weight
                }
                UpdateOp::Delete { u, v } => {
                    self.edges.remove(&key(u, v));
                }
                UpdateOp::Reweight { u, v, weight } => {
                    if let Some(w) = self.edges.get_mut(&key(u, v)) {
                        *w = weight;
                    }
                }
            }
        }
    }

    pub fn contains(&self, u: usize, v: usize) -> bool {
        self.edges.contains_key(&key(u, v))
    }

    pub fn edges(&self) -> Vec<(usize, usize, f64)> {
        self.edges
            .iter()
            .map(|(&(u, v), &w)| (u as usize, v as usize, w))
            .collect()
    }
}

/// A serving state with the setup's wall-clock timings zeroed, as
/// `tests/persistence_recovery.rs` normalises states before comparing them.
pub fn normalized(mut s: ServingState) -> ServingState {
    let r = &mut s.engine.setup_report;
    r.resistance_time = Duration::ZERO;
    r.lrd_time = Duration::ZERO;
    r.connectivity_time = Duration::ZERO;
    r.total_time = Duration::ZERO;
    s
}

/// κ(L_G, L_H) = λmax/λmin by `estimate_condition_number` (its fast
/// profile, fixed Lanczos seed).
pub fn kappa(g: &Graph, h: &Graph) -> Result<f64, String> {
    estimate_condition_number(g, h, &ConditionOptions::fast())
        .map(|e| e.kappa)
        .map_err(|e| e.to_string())
}

/// κ(G, H) ≤ κ(G, H0): an updated sparsifier `h` is spectrally no worse
/// than the stale `h0` it was updated from. Returns both κ values and the
/// verdict.
pub fn kappa_not_worse(g: &Graph, h: &Graph, h0: &Graph) -> (f64, f64, Result<(), String>) {
    let (k, k0) = match (kappa(g, h), kappa(g, h0)) {
        (Ok(k), Ok(k0)) => (k, k0),
        (Err(e), _) | (_, Err(e)) => return (f64::NAN, f64::NAN, Err(e)),
    };
    let verdict = if k.is_finite() && k <= k0 {
        Ok(())
    } else {
        Err(format!(
            "kappa {k:.1} of the updated sparsifier exceeds {k0:.1} of the stale one"
        ))
    };
    (k, k0, verdict)
}

/// Collected check failures of one run.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            if self.failures.len() < 20 {
                self.failures.push(format!("{what}: {e}"));
            } else if self.failures.len() == 20 {
                self.failures
                    .push("further failures suppressed".to_string());
            }
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// `‖L_G x − b‖ / ‖b‖ ≤ tol`, with `L_G` applied edge by edge from `edges`.
pub fn residual(
    edges: &[(usize, usize, f64)],
    x: &[f64],
    b: &[f64],
    tol: f64,
) -> Result<(), String> {
    if x.len() != b.len() {
        return Err(format!(
            "answer has {} entries, right-hand side {}",
            x.len(),
            b.len()
        ));
    }
    let mut r: Vec<f64> = b.iter().map(|v| -v).collect();
    for &(u, v, w) in edges {
        let d = w * (x[u] - x[v]);
        r[u] += d;
        r[v] -= d;
    }
    let norm = |v: &[f64]| v.iter().map(|a| a * a).sum::<f64>().sqrt();
    let rel = norm(&r) / norm(b);
    if rel.is_finite() && rel <= tol {
        Ok(())
    } else {
        Err(format!("relative residual {rel:e} exceeds {tol:e}"))
    }
}

/// The total weight of `h` equals `expected` within a relative `tol`.
pub fn total_weight(h: &[(usize, usize, f64)], expected: f64, tol: f64) -> Result<(), String> {
    let total: f64 = h.iter().map(|e| e.2).sum();
    let rel = (total - expected).abs() / expected.abs();
    if rel <= tol {
        Ok(())
    } else {
        Err(format!(
            "total weight {total} differs from {expected} by {rel:e} (relative)"
        ))
    }
}

/// Every edge of `h` is an edge of `g`.
pub fn subgraph(h: &[(usize, usize, f64)], g: &EdgeMap) -> Result<(), String> {
    match h.iter().find(|&&(u, v, _)| !g.contains(u, v)) {
        None => Ok(()),
        Some(&(u, v, _)) => Err(format!("edge ({u}, {v}) is not an edge of the graph")),
    }
}

/// `h` touches all `n` nodes and is connected (breadth-first search).
pub fn spanning_connected(n: usize, h: &[(usize, usize, f64)]) -> Result<(), String> {
    let mut adj = vec![Vec::new(); n];
    for &(u, v, w) in h {
        if u >= n || v >= n || w.is_nan() || w <= 0.0 {
            return Err(format!("edge ({u}, {v}, {w}) is invalid for {n} nodes"));
        }
        adj[u].push(v);
        adj[v].push(u);
    }
    let mut seen = vec![false; n];
    let mut queue = vec![0usize];
    let mut reached = 0;
    if n > 0 {
        seen[0] = true;
    }
    while let Some(u) = queue.pop() {
        reached += 1;
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                queue.push(v);
            }
        }
    }
    if reached == n {
        Ok(())
    } else {
        Err(format!("reaches {reached} of {n} nodes"))
    }
}

/// Two edge lists are identical, weights bit for bit.
pub fn same_edges(a: &[(usize, usize, f64)], b: &[(usize, usize, f64)]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} edges against {}", a.len(), b.len()));
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.0 != y.0 || x.1 != y.1 || x.2.to_bits() != y.2.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!("edge {i} differs: {:?} against {:?}", a[i], b[i])),
    }
}

/// Two vectors are identical bit for bit.
pub fn same_bits(a: &[f64], b: &[f64]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} entries against {}", a.len(), b.len()));
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!("entry {i} differs: {} against {}", a[i], b[i])),
    }
}

/// Two values are equal.
pub fn same_value<T: PartialEq>(a: &T, b: &T, what: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what} differs"))
    }
}

#[cfg(test)]
mod tests {
    //! Each check passes on a correct input and fails on a deliberately
    //! corrupted copy of it.
    use super::*;
    use crate::ingest::edges_of as ingest_edges;
    use ingrass_repro::prelude::*;

    fn path(n: usize) -> Vec<(usize, usize, f64)> {
        (0..n - 1).map(|i| (i, i + 1, 1.0 + i as f64)).collect()
    }

    /// Solves a path Laplacian exactly: current 1 in at node 0, out at n−1.
    fn path_answer(edges: &[(usize, usize, f64)], n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[n - 1] = -1.0;
        let mut x = vec![0.0; n];
        for &(u, v, w) in edges {
            x[v] = x[u] - 1.0 / w;
        }
        (x, b)
    }

    #[test]
    fn residual_rejects_a_perturbed_answer() {
        let e = path(6);
        let (mut x, b) = path_answer(&e, 6);
        assert!(residual(&e, &x, &b, 1e-12).is_ok());
        x[3] += 1e-3;
        assert!(residual(&e, &x, &b, 1e-6).is_err());
    }

    #[test]
    fn residual_rejects_a_dropped_edge_weight() {
        let e = path(6);
        let (x, b) = path_answer(&e, 6);
        let mut dropped = e.clone();
        dropped[2].2 = 0.0;
        assert!(residual(&dropped, &x, &b, 1e-6).is_err());
    }

    #[test]
    fn total_weight_rejects_a_dropped_edge_weight() {
        let e = path(5);
        let w: f64 = e.iter().map(|e| e.2).sum();
        assert!(total_weight(&e, w, 1e-9).is_ok());
        let mut dropped = e.clone();
        dropped.pop();
        assert!(total_weight(&dropped, w, 1e-9).is_err());
    }

    #[test]
    fn subgraph_rejects_a_foreign_edge() {
        let g = EdgeMap::new(path(5));
        assert!(subgraph(&path(5)[..2], &g).is_ok());
        assert!(subgraph(&[(0, 4, 1.0)], &g).is_err());
    }

    #[test]
    fn spanning_connected_rejects_a_dropped_edge() {
        let e = path(5);
        assert!(spanning_connected(5, &e).is_ok());
        assert!(spanning_connected(5, &e[1..]).is_err());
        let mut zero = e.clone();
        zero[0].2 = 0.0;
        assert!(spanning_connected(5, &zero).is_err());
    }

    #[test]
    fn identity_checks_reject_one_changed_bit() {
        let e = path(4);
        let mut f = e.clone();
        assert!(same_edges(&e, &f).is_ok());
        f[1].2 = f64::from_bits(f[1].2.to_bits() ^ 1);
        assert!(same_edges(&e, &f).is_err());
        let x = vec![1.0, 2.0];
        assert!(same_bits(&x, &x).is_ok());
        assert!(same_bits(&x, &[1.0, f64::from_bits(2f64.to_bits() ^ 1)]).is_err());
    }

    #[test]
    fn edge_map_follows_update_semantics() {
        let mut g = EdgeMap::new(path(4));
        g.apply(&[
            UpdateOp::Insert {
                u: 1,
                v: 0,
                weight: 0.5,
            },
            UpdateOp::Delete { u: 2, v: 1 },
            UpdateOp::Reweight {
                u: 3,
                v: 2,
                weight: 7.0,
            },
            UpdateOp::Reweight {
                u: 0,
                v: 3,
                weight: 9.0,
            },
        ]);
        assert_eq!(g.edges(), vec![(0, 1, 1.5), (2, 3, 7.0)]);
    }

    #[test]
    fn kappa_check_rejects_an_overweighted_sparsifier() {
        let g = grid_2d(6, 6, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 3);
        let edges = ingest_edges(&g);
        // The stale sparsifier: a comb (every vertical edge plus row 0).
        let comb: Vec<_> = edges
            .iter()
            .copied()
            .filter(|&(u, v, _)| u.abs_diff(v) == 6 || (u < 6 && v < 6))
            .collect();
        let h0 = Graph::from_edges(36, &comb).unwrap();
        let (k, k0, verdict) = kappa_not_worse(&g, &g, &h0);
        assert!(verdict.is_ok(), "{k} vs {k0}");
        // One edge weight inflated: H outweighs G across it, λmin falls.
        let mut heavy = edges.clone();
        heavy[7].2 *= 1e4;
        let h = Graph::from_edges(36, &heavy).unwrap();
        assert!(kappa_not_worse(&g, &h, &h0).2.is_err());
    }

    #[test]
    fn state_check_rejects_an_altered_recovered_state() {
        let g = grid_2d(6, 6, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 3);
        let engine = SnapshotEngine::setup(&g, &SetupConfig::default().with_seed(3)).unwrap();
        let before = normalized(engine.export_state());
        let restored = SnapshotEngine::from_state(engine.export_state()).unwrap();
        let after = normalized(restored.export_state());
        assert!(same_value(&before, &after, "state").is_ok());
        let mut altered = after.clone();
        altered.engine.edge_slots[0].as_mut().unwrap().2 += 1e-12;
        assert!(same_value(&before, &altered, "state").is_err());
        let mut altered = after;
        altered.sequence += 1;
        assert!(same_value(&before, &altered, "state").is_err());
    }
}
