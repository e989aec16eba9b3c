//! Property tests pinning the frozen CSR evolution kernel to the legacy
//! row-list matrix it replaced.
//!
//! The refactor's contract is *bit*-identity, not approximate equality:
//! the CSR gather accumulates each destination's contributions in
//! ascending source order, exactly the order the legacy scatter produced
//! them, and zero-mass sources contribute `+0.0` terms that cannot change
//! any bit of a non-negative accumulator. These properties exercise that
//! claim over random (sub)stochastic matrices — including rows with no
//! outgoing edges, which the legacy normalization turns into self-loops.

use flow_recon::model::{CsrMatrix, Distribution, MatrixBuilder};
use proptest::prelude::*;

/// The pre-CSR implementation, reproduced verbatim as the reference.
struct LegacyMatrix {
    rows: Vec<Vec<(usize, f64)>>,
}

impl LegacyMatrix {
    fn new(n: usize) -> Self {
        LegacyMatrix {
            rows: vec![Vec::new(); n],
        }
    }

    fn add_edge(&mut self, from: usize, to: usize, p: f64) {
        assert!(to < self.rows.len(), "to-state {to} out of range");
        assert!(p >= 0.0 && p.is_finite(), "edge probability invalid: {p}");
        if p == 0.0 {
            return;
        }
        let row = &mut self.rows[from];
        if let Some(e) = row.iter_mut().find(|(t, _)| *t == to) {
            e.1 += p;
        } else {
            row.push((to, p));
        }
    }

    fn normalize_rows(&mut self) {
        for (i, row) in self.rows.iter_mut().enumerate() {
            let s: f64 = row.iter().map(|(_, p)| p).sum();
            if s > 0.0 {
                for e in row.iter_mut() {
                    e.1 /= s;
                }
            } else {
                row.push((i, 1.0));
            }
        }
    }

    fn evolve(&self, dist: &Distribution) -> Distribution {
        let mut out = vec![0.0; self.rows.len()];
        for (from, row) in self.rows.iter().enumerate() {
            let mass = dist.mass(from);
            if mass == 0.0 {
                continue;
            }
            for &(to, p) in row {
                out[to] += mass * p;
            }
        }
        Distribution::from_masses(out)
    }

    fn evolve_n(&self, dist: &Distribution, steps: usize) -> Distribution {
        let mut d = dist.clone();
        for _ in 0..steps {
            d = self.evolve(&d);
        }
        d
    }

    fn evolve_n_extrapolated(&self, dist: &Distribution, steps: usize, tol: f64) -> Distribution {
        let mut d = dist.clone();
        let mut prev_total = d.total();
        let mut prev_ratio = f64::NAN;
        for k in 0..steps {
            let next = self.evolve(&d);
            let total = next.total();
            let ratio = if prev_total > 0.0 {
                total / prev_total
            } else {
                0.0
            };
            let mut shape_delta = 0.0;
            if total > 0.0 && prev_total > 0.0 {
                for i in 0..next.len() {
                    shape_delta += (next.mass(i) / total - d.mass(i) / prev_total).abs();
                }
            }
            let ratio_stable = (ratio - prev_ratio).abs() <= tol;
            d = next;
            prev_total = total;
            prev_ratio = ratio;
            if shape_delta <= tol && ratio_stable {
                let remaining = (steps - k - 1) as f64;
                let factor = if ratio >= 1.0 {
                    1.0
                } else {
                    ratio.powf(remaining)
                };
                let scaled: Vec<f64> = d.as_slice().iter().map(|&p| p * factor).collect();
                return Distribution::from_masses(scaled);
            }
            if total == 0.0 {
                return d;
            }
        }
        d
    }
}

/// Raw edge list: `(from, to, weight)` triples over `n` states.
type Edges = Vec<(usize, usize, f64)>;

/// Strategy: a state count and raw edges over it (duplicates allowed —
/// both implementations must accumulate them identically). Endpoints are
/// drawn from 0..8 and folded into range with `% n`; some states end up
/// with no outgoing edges, exercising the self-loop fallback.
fn edges_strategy() -> impl Strategy<Value = (usize, Edges)> {
    let edge = (0usize..8, 0usize..8, 0.0f64..1.0);
    (1usize..=8, proptest::collection::vec(edge, 0..=24)).prop_map(|(n, raw)| {
        let edges = raw.into_iter().map(|(f, t, w)| (f % n, t % n, w)).collect();
        (n, edges)
    })
}

/// Strategy: an initial mass vector with forced zero entries, so the
/// legacy zero-mass row skip (vs the gather's `+0.0` terms) is hit.
fn masses_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        proptest::option::weighted(0.6, 0.0f64..1.0).prop_map(|m| m.unwrap_or(0.0)),
        n,
    )
}

/// Builds the legacy matrix from the raw edges and normalizes it, then
/// builds the CSR from the legacy rows with the same `add_edge` call
/// sequence, so both hold the same stochastic weights.
fn stochastic_pair(n: usize, edges: &Edges) -> (LegacyMatrix, CsrMatrix) {
    let mut legacy = LegacyMatrix::new(n);
    for &(from, to, w) in edges {
        legacy.add_edge(from, to, w);
    }
    legacy.normalize_rows();
    let mut builder = MatrixBuilder::new(n);
    for (from, row) in legacy.rows.iter().enumerate() {
        for &(to, p) in row {
            builder.add_edge(from, to, p);
        }
    }
    (legacy, builder.freeze())
}

/// Substochastic variant: pre-normalized weights, each row damped by its
/// own factor, and rows with no surviving edges left genuinely empty —
/// the shape `absent_matrix` produces.
fn substochastic_pair(n: usize, edges: &Edges, damp: &[f64]) -> (LegacyMatrix, CsrMatrix) {
    let mut row_sum = vec![0.0f64; n];
    for &(from, _, w) in edges {
        row_sum[from] += w;
    }
    let mut legacy = LegacyMatrix::new(n);
    let mut builder = MatrixBuilder::new(n);
    for &(from, to, w) in edges {
        if row_sum[from] > 0.0 {
            let p = w / row_sum[from] * damp[from];
            legacy.add_edge(from, to, p);
            builder.add_edge(from, to, p);
        }
    }
    (legacy, builder.freeze())
}

fn assert_bit_identical(legacy: &Distribution, csr: &Distribution) -> Result<(), TestCaseError> {
    prop_assert_eq!(legacy.len(), csr.len());
    for (i, (a, b)) in legacy.as_slice().iter().zip(csr.as_slice()).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "state {}: legacy {} vs csr {}",
            i,
            a,
            b
        );
    }
    Ok(())
}

fn check_pair(
    legacy: &LegacyMatrix,
    csr: &CsrMatrix,
    masses: Vec<f64>,
    steps: usize,
) -> Result<(), TestCaseError> {
    let d = Distribution::from_masses(masses);
    assert_bit_identical(&legacy.evolve(&d), &csr.evolve(&d))?;
    assert_bit_identical(&legacy.evolve_n(&d, steps), &csr.evolve_n(&d, steps))?;
    const TOL: f64 = 1e-11;
    // Long horizon so the extrapolation's early-exit branch is reachable.
    assert_bit_identical(
        &legacy.evolve_n_extrapolated(&d, 50 * (steps + 1), TOL),
        &csr.evolve_n_extrapolated(&d, 50 * (steps + 1), TOL),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn stochastic_evolution_bit_matches_legacy(
        shape in edges_strategy(),
        steps in 0usize..12,
        seed_masses in proptest::collection::vec(0.0f64..1.0, 8),
    ) {
        let (n, edges) = shape;
        let (legacy, csr) = stochastic_pair(n, &edges);
        prop_assert!(csr.is_stochastic(1e-12));
        check_pair(&legacy, &csr, seed_masses[..n].to_vec(), steps)?;
    }

    #[test]
    fn substochastic_evolution_bit_matches_legacy(
        shape in edges_strategy(),
        damp in proptest::collection::vec(0.0f64..1.0, 8),
        steps in 0usize..12,
    ) {
        let (n, edges) = shape;
        let (legacy, csr) = substochastic_pair(n, &edges, &damp);
        prop_assert!(csr.is_substochastic(1e-12));
        // Concentrated initial mass, as in the attack's `I₀`.
        let mut masses = vec![0.0; n];
        masses[0] = 1.0;
        check_pair(&legacy, &csr, masses, steps)?;
    }

    #[test]
    fn sparse_initial_masses_bit_match_legacy(
        shape in edges_strategy(),
        masses in masses_strategy(8),
        steps in 0usize..12,
    ) {
        let (n, edges) = shape;
        let (legacy, csr) = stochastic_pair(n, &edges);
        check_pair(&legacy, &csr, masses[..n].to_vec(), steps)?;
    }

    /// Exercises the dev-profile `debug_assert!` invariants added with the
    /// determinism policy (DESIGN.md): `freeze` asserts CSR row-pointer
    /// monotonicity, and every `evolve_into` asserts mass conservation
    /// (preserved within 1e-9 for stochastic chains, never created for
    /// substochastic ones). Any violation panics inside the call; the
    /// explicit total checks document the same bounds at the API surface.
    #[test]
    fn csr_invariants_hold_under_evolution(
        shape in edges_strategy(),
        damp in proptest::collection::vec(0.0f64..1.0, 8),
        masses in masses_strategy(8),
        steps in 1usize..20,
    ) {
        let (n, edges) = shape;
        let d = Distribution::from_masses(masses[..n].to_vec());
        let src_total = d.total();

        let (_, stochastic) = stochastic_pair(n, &edges);
        let evolved = stochastic.evolve_n(&d, steps);
        prop_assert!((evolved.total() - src_total).abs() <= 1e-9 * (1.0 + src_total));

        let (_, sub) = substochastic_pair(n, &edges, &damp);
        let leaked = sub.evolve_n(&d, steps);
        prop_assert!(leaked.total() <= src_total + 1e-9);
        let fast = sub.evolve_n_extrapolated(&d, 10 * steps, 1e-11);
        prop_assert!(fast.total() <= src_total + 1e-9);
    }
}

#[test]
fn row_accessors_match_legacy_layout() {
    let mut legacy = LegacyMatrix::new(3);
    let mut builder = MatrixBuilder::new(3);
    for &(f, t, w) in &[
        (0usize, 2usize, 0.25f64),
        (0, 1, 0.5),
        (2, 0, 1.0),
        (0, 2, 0.25),
    ] {
        legacy.add_edge(f, t, w);
        builder.add_edge(f, t, w);
    }
    let csr = builder.freeze();
    for i in 0..3 {
        let legacy_row: Vec<(usize, f64)> = legacy.rows[i].clone();
        let csr_row: Vec<(usize, f64)> = csr.row(i).collect();
        assert_eq!(legacy_row, csr_row, "row {i} differs");
        assert_eq!(
            legacy_row.iter().map(|(_, p)| p).sum::<f64>(),
            csr.row_sum(i)
        );
    }
    assert_eq!(csr.n_edges(), 3); // the duplicate 0→2 edge accumulated
}
