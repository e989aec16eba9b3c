//! Sparse transition matrices and the distribution evolution of Eqn (8).
//!
//! The matrix layer is split into a build phase and a frozen phase:
//!
//! * [`MatrixBuilder`] accumulates edges (hash-indexed rows, so repeated
//!   [`MatrixBuilder::add_edge`] calls are O(1) instead of an O(row)
//!   scan) and supports the §IV-A1 row normalization;
//! * [`CsrMatrix`] — produced by [`MatrixBuilder::freeze`] — is an
//!   immutable compressed-sparse-row matrix carrying a precomputed
//!   transpose, so every evolution step is a cache-friendly gather into a
//!   caller-provided scratch buffer with no per-step allocation.
//!
//! Freezing preserves numerics exactly: the transpose stores each
//! destination row's contributions in ascending source order, which is the
//! same floating-point addition order the row-list scatter used, so
//! [`CsrMatrix::evolve`] is bit-identical to the legacy implementation.

use crate::Distribution;
use std::collections::hash_map::Entry;
// detlint::allow(D1): per-row O(1) accumulation index (PR 2's build-phase
// speedup); row entry order comes from the insertion-ordered row Vec, and
// the map itself is never iterated.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;

/// An edge-accumulation builder for a sparse, row-major Markov transition
/// matrix.
///
/// Row `from` holds the outgoing edges `(to, probability)` of state `from`
/// in insertion order. Proper chains have rows summing to 1; the probe
/// calculations of §V also use *substochastic* matrices (rows summing to
/// ≤ 1) whose lost mass represents "the target flow arrived". Call
/// [`MatrixBuilder::freeze`] to obtain the immutable [`CsrMatrix`] the
/// evolution kernels run on.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixBuilder {
    rows: Vec<Vec<(usize, f64)>>,
    /// Per-row map from destination state to its position in the row,
    /// making `add_edge` accumulation O(1).
    // detlint::allow(D1): position lookup only; never iterated.
    #[allow(clippy::disallowed_types)]
    index: Vec<HashMap<usize, usize>>,
}

impl MatrixBuilder {
    /// Creates a builder with `n` states and no edges.
    #[must_use]
    #[allow(clippy::disallowed_types)]
    pub fn new(n: usize) -> Self {
        MatrixBuilder {
            rows: vec![Vec::new(); n],
            // detlint::allow(D1): position lookup only; never iterated.
            index: vec![HashMap::new(); n],
        }
    }

    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.rows.len()
    }

    /// Adds probability `p` to the edge `from → to` (accumulating if the
    /// edge already exists).
    ///
    /// # Panics
    ///
    /// Panics if either state is out of range, or `p` is negative or
    /// non-finite.
    pub fn add_edge(&mut self, from: usize, to: usize, p: f64) {
        assert!(from < self.rows.len(), "from-state {from} out of range");
        assert!(to < self.rows.len(), "to-state {to} out of range");
        assert!(p >= 0.0 && p.is_finite(), "edge probability invalid: {p}");
        if p == 0.0 {
            return;
        }
        let row = &mut self.rows[from];
        match self.index[from].entry(to) {
            Entry::Occupied(e) => row[*e.get()].1 += p,
            Entry::Vacant(v) => {
                v.insert(row.len());
                row.push((to, p));
            }
        }
    }

    /// The outgoing edges of a state, in insertion order.
    #[must_use]
    pub fn row(&self, from: usize) -> &[(usize, f64)] {
        &self.rows[from]
    }

    /// Sum of the outgoing probabilities of a state.
    #[must_use]
    pub fn row_sum(&self, from: usize) -> f64 {
        self.rows[from].iter().map(|(_, p)| p).sum()
    }

    /// Freezes the accumulated edges into an immutable [`CsrMatrix`].
    ///
    /// Row entries keep their insertion order (so row sums stay
    /// bit-identical to the builder's); the transpose lists each
    /// destination's contributions in ascending source order.
    #[must_use]
    pub fn freeze(self) -> CsrMatrix {
        let n = self.rows.len();
        let nnz: usize = self.rows.iter().map(Vec::len).sum();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0usize);
        for row in &self.rows {
            for &(to, p) in row {
                col_idx.push(to);
                values.push(p);
            }
            row_ptr.push(col_idx.len());
        }
        // Transpose: count in-degrees, prefix-sum, then fill by walking the
        // forward rows in source order — which leaves every transpose row
        // sorted by ascending source state.
        let mut t_row_ptr = vec![0usize; n + 1];
        for &to in &col_idx {
            t_row_ptr[to + 1] += 1;
        }
        for i in 0..n {
            t_row_ptr[i + 1] += t_row_ptr[i];
        }
        let mut t_col_idx = vec![0usize; nnz];
        let mut t_values = vec![0.0f64; nnz];
        let mut fill = t_row_ptr.clone();
        for from in 0..n {
            for k in row_ptr[from]..row_ptr[from + 1] {
                let slot = fill[col_idx[k]];
                t_col_idx[slot] = from;
                t_values[slot] = values[k];
                fill[col_idx[k]] = slot + 1;
            }
        }
        let frozen = CsrMatrix {
            n,
            row_ptr,
            col_idx,
            values,
            t_row_ptr,
            t_col_idx,
            t_values,
        };
        debug_assert!(
            frozen.csr_well_formed(),
            "freeze produced malformed CSR arrays"
        );
        frozen
    }
}

/// A frozen, immutable sparse transition matrix in compressed-sparse-row
/// form, with a precomputed transpose for gather-style evolution.
///
/// Produced by [`MatrixBuilder::freeze`]. All evolution kernels
/// ([`CsrMatrix::evolve_into`], [`CsrMatrix::evolve_n`],
/// [`CsrMatrix::evolve_n_extrapolated`]) are bit-identical to the legacy
/// row-list scatter: the transpose keeps each destination row's entries in
/// ascending source order, so every accumulator sees the same additions in
/// the same order.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    /// Forward CSR (row = source state, insertion order preserved).
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
    /// Transposed CSR (row = destination state, ascending source order).
    t_row_ptr: Vec<usize>,
    t_col_idx: Vec<usize>,
    t_values: Vec<f64>,
}

impl CsrMatrix {
    /// Structural invariants of both CSR encodings: pointer arrays span
    /// `n + 1` entries, start at 0, end at `nnz`, grow monotonically, and
    /// every column index is in range. Checked by `debug_assert!` at
    /// freeze time — dev builds catch a corrupted kernel before it can
    /// silently skew every downstream distribution.
    fn csr_well_formed(&self) -> bool {
        let ok = |ptr: &[usize], idx: &[usize], values: &[f64]| {
            ptr.len() == self.n + 1
                && ptr.first() == Some(&0)
                && ptr.last() == Some(&idx.len())
                && ptr.windows(2).all(|w| w[0] <= w[1])
                && idx.len() == values.len()
                && idx.iter().all(|&c| c < self.n)
        };
        ok(&self.row_ptr, &self.col_idx, &self.values)
            && ok(&self.t_row_ptr, &self.t_col_idx, &self.t_values)
    }

    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.n
    }

    /// Total number of stored edges.
    // detlint::allow(D10): checked against the legacy layout in tests/matrix_equivalence.rs
    #[must_use]
    pub fn n_edges(&self) -> usize {
        self.col_idx.len()
    }

    /// The outgoing edges `(to, probability)` of a state, in the order the
    /// builder accumulated them.
    pub fn row(&self, from: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.row_ptr[from]..self.row_ptr[from + 1];
        self.col_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// Sum of the outgoing probabilities of a state.
    #[must_use]
    pub fn row_sum(&self, from: usize) -> f64 {
        self.values[self.row_ptr[from]..self.row_ptr[from + 1]]
            .iter()
            .sum()
    }

    /// Whether every row sums to 1 within `tol`.
    // detlint::allow(D10): oracle of tests/matrix_equivalence.rs and tests/properties.rs
    #[must_use]
    pub fn is_stochastic(&self, tol: f64) -> bool {
        (0..self.n).all(|i| (self.row_sum(i) - 1.0).abs() <= tol)
    }

    /// Whether every row sums to at most `1 + tol`.
    // detlint::allow(D10): oracle of tests/matrix_equivalence.rs and tests/properties.rs
    #[must_use]
    pub fn is_substochastic(&self, tol: f64) -> bool {
        (0..self.n).all(|i| self.row_sum(i) <= 1.0 + tol)
    }

    /// One step of distribution evolution into a caller-provided scratch
    /// buffer: `dst[to] = Σ_from src[from] · P(from → to)` — the `Aᵀ·I`
    /// product of the paper's Eqn (8).
    ///
    /// Every slot of `dst` is overwritten; it need not be zeroed.
    ///
    /// Dispatches on the density of `src`: a concentrated distribution
    /// (early steps of evolution from `I₀`) is cheapest as a forward-row
    /// scatter that skips zero-mass sources, a mixed one as a
    /// transpose-row gather. Both accumulate each `dst[to]` in ascending
    /// source order and differ only by `+0.0` terms from zero-mass
    /// sources, so the result is bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if either slice's length differs from the state count.
    pub fn evolve_into(&self, src: &[f64], dst: &mut [f64]) {
        assert_eq!(src.len(), self.n, "distribution/matrix size mismatch");
        assert_eq!(dst.len(), self.n, "distribution/matrix size mismatch");
        let occupied = src.iter().filter(|&&p| p != 0.0).count();
        if occupied * 4 <= self.n {
            dst.fill(0.0);
            for (from, &p) in src.iter().enumerate() {
                if p == 0.0 {
                    continue;
                }
                let span = self.row_ptr[from]..self.row_ptr[from + 1];
                for (&to, &w) in self.col_idx[span.clone()].iter().zip(&self.values[span]) {
                    dst[to] += p * w;
                }
            }
        } else {
            for (to, out) in dst.iter_mut().enumerate() {
                let span = self.t_row_ptr[to]..self.t_row_ptr[to + 1];
                let mut acc = 0.0;
                for (&from, &p) in self.t_col_idx[span.clone()]
                    .iter()
                    .zip(&self.t_values[span])
                {
                    acc += src[from] * p;
                }
                *out = acc;
            }
        }
        // Dev-build invariant: evolution can redistribute mass but never
        // create it — for a row-stochastic matrix the total is preserved
        // within 1e-9, and in general it is bounded by the largest row sum.
        #[cfg(debug_assertions)]
        {
            let src_total: f64 = src.iter().sum();
            let dst_total: f64 = dst.iter().sum();
            let mut max_row_sum = 0.0f64;
            let mut stochastic = true;
            for i in 0..self.n {
                let s = self.row_sum(i);
                max_row_sum = max_row_sum.max(s);
                if (s - 1.0).abs() > 1e-9 {
                    stochastic = false;
                }
            }
            debug_assert!(
                dst.iter().all(|p| p.is_finite() && *p >= 0.0),
                "evolve_into produced a negative or non-finite mass"
            );
            debug_assert!(
                dst_total <= src_total * max_row_sum.max(1.0) + 1e-9,
                "evolve_into created probability mass: {src_total} -> {dst_total}"
            );
            debug_assert!(
                !stochastic || (dst_total - src_total).abs() <= 1e-9,
                "stochastic evolution lost mass: {src_total} -> {dst_total}"
            );
        }
    }

    /// One step of distribution evolution, allocating the output.
    ///
    /// # Panics
    ///
    /// Panics if the distribution's length differs from the state count.
    #[must_use]
    pub fn evolve(&self, dist: &Distribution) -> Distribution {
        let mut out = Distribution::from_masses(vec![0.0; self.n]);
        self.evolve_into(dist.as_slice(), out.as_mut_slice());
        out
    }

    /// `steps` steps of evolution: `I_T = (Aᵀ)^T · I_0` (Eqn 8).
    ///
    /// Internally ping-pongs between two scratch buffers — no per-step
    /// allocation.
    #[must_use]
    pub fn evolve_n(&self, dist: &Distribution, steps: usize) -> Distribution {
        assert_eq!(dist.len(), self.n, "distribution/matrix size mismatch");
        let mut cur = dist.as_slice().to_vec();
        let mut next = vec![0.0; self.n];
        for _ in 0..steps {
            self.evolve_into(&cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        Distribution::from_masses(cur)
    }

    /// Like [`CsrMatrix::evolve_n`], but stops early once the chain has
    /// mixed and extrapolates the remaining steps geometrically.
    ///
    /// After enough steps, both a stochastic chain and a substochastic one
    /// reach a fixed *shape*: `dist_{k+1} ≈ r · dist_k` element-wise for a
    /// constant decay ratio `r` (`r = 1` for a proper chain, `r < 1` when
    /// mass leaks to the removed target-arrival transitions). Once the
    /// normalized shape and the ratio have both stabilized within `tol`,
    /// the remaining `steps - k` steps are applied as a scalar factor
    /// `r^{steps-k}`. This turns the `T = 750`-step evolutions of the
    /// paper's evaluation into ~100 steps with error below `tol`.
    #[must_use]
    pub fn evolve_n_extrapolated(
        &self,
        dist: &Distribution,
        steps: usize,
        tol: f64,
    ) -> Distribution {
        assert_eq!(dist.len(), self.n, "distribution/matrix size mismatch");
        let mut cur = dist.as_slice().to_vec();
        let mut next = vec![0.0; self.n];
        let mut prev_total: f64 = cur.iter().sum();
        let mut prev_ratio = f64::NAN;
        for k in 0..steps {
            self.evolve_into(&cur, &mut next);
            let total: f64 = next.iter().sum();
            let ratio = if prev_total > 0.0 {
                total / prev_total
            } else {
                0.0
            };
            // Shape change, scale-compensated.
            let mut shape_delta = 0.0;
            if total > 0.0 && prev_total > 0.0 {
                for (&np, &cp) in next.iter().zip(&cur) {
                    shape_delta += (np / total - cp / prev_total).abs();
                }
            }
            let ratio_stable = (ratio - prev_ratio).abs() <= tol;
            std::mem::swap(&mut cur, &mut next);
            prev_total = total;
            prev_ratio = ratio;
            if shape_delta <= tol && ratio_stable {
                let remaining = (steps - k - 1) as f64;
                let factor = if ratio >= 1.0 {
                    1.0
                } else {
                    ratio.powf(remaining)
                };
                let scaled: Vec<f64> = cur.iter().map(|&p| p * factor).collect();
                return Distribution::from_masses(scaled);
            }
            if total == 0.0 {
                return Distribution::from_masses(cur); // fully absorbed
            }
        }
        Distribution::from_masses(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state_chain() -> MatrixBuilder {
        let mut m = MatrixBuilder::new(2);
        m.add_edge(0, 0, 0.9);
        m.add_edge(0, 1, 0.1);
        m.add_edge(1, 1, 1.0);
        m
    }

    #[test]
    fn edges_accumulate() {
        let mut m = MatrixBuilder::new(2);
        m.add_edge(0, 1, 0.25);
        m.add_edge(0, 1, 0.25);
        assert_eq!(m.row(0), &[(1, 0.5)]);
        // Zero-probability edges are dropped.
        m.add_edge(0, 0, 0.0);
        assert_eq!(m.row(0), &[(1, 0.5)]);
        let frozen = m.freeze();
        assert_eq!(frozen.n_edges(), 1);
        assert_eq!(frozen.row(0).collect::<Vec<_>>(), vec![(1, 0.5)]);
    }

    #[test]
    fn stochastic_checks() {
        let m = two_state_chain().freeze();
        assert!(m.is_stochastic(1e-12));
        assert!(m.is_substochastic(1e-12));
        let mut sub = two_state_chain();
        sub.rows[0][1].1 = 0.05; // row 0 sums to 0.95
        let frozen = sub.freeze();
        assert!(!frozen.is_stochastic(1e-12));
        assert!(frozen.is_substochastic(1e-12));
        assert!((frozen.row_sum(0) - 0.95).abs() < 1e-15);
    }

    #[test]
    fn evolve_moves_mass_along_edges() {
        let m = two_state_chain().freeze();
        let d0 = Distribution::point(2, 0);
        let d1 = m.evolve(&d0);
        assert!((d1.mass(0) - 0.9).abs() < 1e-12);
        assert!((d1.mass(1) - 0.1).abs() < 1e-12);
        // State 1 is absorbing: mass accumulates there.
        let d10 = m.evolve_n(&d0, 10);
        assert!((d10.mass(0) - 0.9f64.powi(10)).abs() < 1e-12);
        assert!((d10.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evolve_into_overwrites_scratch() {
        let m = two_state_chain().freeze();
        let mut scratch = vec![7.0, 7.0]; // stale garbage must be overwritten
        m.evolve_into(&[1.0, 0.0], &mut scratch);
        assert!((scratch[0] - 0.9).abs() < 1e-12);
        assert!((scratch[1] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn substochastic_evolution_loses_mass() {
        let mut m = two_state_chain();
        m.rows[0][0].1 = 0.8; // row 0 now sums to 0.9
        let d = m.freeze().evolve_n(&Distribution::point(2, 0), 3);
        assert!(d.total() < 1.0);
    }

    #[test]
    fn extrapolated_matches_exact_stochastic() {
        let mut m = MatrixBuilder::new(3);
        m.add_edge(0, 1, 0.6);
        m.add_edge(0, 0, 0.4);
        m.add_edge(1, 2, 0.5);
        m.add_edge(1, 0, 0.5);
        m.add_edge(2, 2, 0.7);
        m.add_edge(2, 1, 0.3);
        let m = m.freeze();
        let d0 = Distribution::point(3, 0);
        let exact = m.evolve_n(&d0, 500);
        let fast = m.evolve_n_extrapolated(&d0, 500, 1e-12);
        for i in 0..3 {
            assert!((exact.mass(i) - fast.mass(i)).abs() < 1e-9, "state {i}");
        }
    }

    #[test]
    fn extrapolated_matches_exact_substochastic() {
        let mut m = MatrixBuilder::new(2);
        m.add_edge(0, 0, 0.5);
        m.add_edge(0, 1, 0.3); // leaks 0.2 per step
        m.add_edge(1, 1, 0.8);
        m.add_edge(1, 0, 0.1); // leaks 0.1 per step
        let m = m.freeze();
        let d0 = Distribution::point(2, 0);
        let exact = m.evolve_n(&d0, 400);
        let fast = m.evolve_n_extrapolated(&d0, 400, 1e-13);
        assert!(exact.total() > 0.0);
        for i in 0..2 {
            let rel = (exact.mass(i) - fast.mass(i)).abs() / exact.total();
            assert!(
                rel < 1e-6,
                "state {i}: {} vs {}",
                exact.mass(i),
                fast.mass(i)
            );
        }
    }

    #[test]
    fn extrapolated_short_horizon_is_exact() {
        let m = two_state_chain().freeze();
        let d0 = Distribution::point(2, 0);
        for steps in [0, 1, 2, 5] {
            let exact = m.evolve_n(&d0, steps);
            let fast = m.evolve_n_extrapolated(&d0, steps, 1e-12);
            for i in 0..2 {
                assert!((exact.mass(i) - fast.mass(i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "to-state 5 out of range")]
    fn bad_to_edge_panics() {
        MatrixBuilder::new(2).add_edge(0, 5, 0.1);
    }

    #[test]
    #[should_panic(expected = "from-state 5 out of range")]
    fn bad_from_edge_panics() {
        // Regression: an out-of-range `from` used to die with a raw
        // index-out-of-bounds panic instead of the documented message.
        MatrixBuilder::new(2).add_edge(5, 0, 0.1);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn evolve_size_mismatch_panics() {
        let m = two_state_chain().freeze();
        let _ = m.evolve(&Distribution::point(3, 0));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn evolve_into_size_mismatch_panics() {
        let m = two_state_chain().freeze();
        let mut dst = vec![0.0; 3];
        m.evolve_into(&[1.0, 0.0], &mut dst);
    }
}
