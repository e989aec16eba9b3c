//! State-count formulas of §IV-A2 and §IV-B — the paper's scalability
//! argument for the compact model.

/// Number of states of the **basic** model, per the formula of §IV-A2:
///
/// ```text
/// Σ_{Rules' ⊆ Rules, |Rules'| ≤ n}  |Rules'|! · Π_{rule_j ∈ Rules'} (t_j + 1)
/// ```
///
/// `timeouts[j]` is `t_j` in steps; `capacity` is `n`. Returned as `f64`
/// because the count overflows `u128` already for modest parameters.
///
/// # Panics
///
/// Panics if more than 30 rules are supplied (2³⁰ subsets is the practical
/// enumeration limit).
#[must_use]
pub fn basic_state_count(timeouts: &[u32], capacity: usize) -> f64 {
    assert!(
        timeouts.len() <= 30,
        "subset enumeration supports at most 30 rules"
    );
    let r = timeouts.len();
    let mut total = 0.0f64;
    for mask in 0u32..(1u32 << r) {
        let k = mask.count_ones() as usize;
        if k > capacity {
            continue;
        }
        let mut term = (1..=k).map(|i| i as f64).product::<f64>();
        for (j, &t) in timeouts.iter().enumerate() {
            if mask & (1 << j) != 0 {
                term *= f64::from(t) + 1.0;
            }
        }
        total += term;
    }
    total
}

/// Exact integer version of [`basic_state_count`], for the tests that
/// count states; `None` on overflow.
#[cfg(test)]
pub(crate) fn basic_state_count_exact(timeouts: &[u32], capacity: usize) -> Option<u128> {
    assert!(
        timeouts.len() <= 30,
        "subset enumeration supports at most 30 rules"
    );
    let r = timeouts.len();
    let mut total: u128 = 0;
    for mask in 0u32..(1u32 << r) {
        let k = mask.count_ones() as usize;
        if k > capacity {
            continue;
        }
        let mut term: u128 = (1..=k as u128).product();
        for (j, &t) in timeouts.iter().enumerate() {
            if mask & (1 << j) != 0 {
                term = term.checked_mul(u128::from(t) + 1)?;
            }
        }
        total = total.checked_add(term)?;
    }
    Some(total)
}

/// Binomial coefficient C(n, k) as `u128`; `None` on overflow.
#[must_use]
pub fn binomial(n: usize, k: usize) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.checked_mul((n - i) as u128)?;
        acc /= (i + 1) as u128;
    }
    Some(acc)
}

/// Number of states of the **compact** model as printed in §IV-B:
/// `Σ_{n'=1}^{n} C(|Rules|, n')` — note the paper's sum starts at 1 and so
/// excludes the empty cache.
#[must_use]
pub fn compact_state_count_paper(n_rules: usize, capacity: usize) -> Option<u128> {
    let mut total: u128 = 0;
    for k in 1..=capacity.min(n_rules) {
        total = total.checked_add(binomial(n_rules, k)?)?;
    }
    Some(total)
}

/// Number of states our compact model actually uses: the paper's count
/// **plus the empty-cache state** (the chain starts from an empty table).
#[must_use]
pub fn compact_state_count(n_rules: usize, capacity: usize) -> Option<u128> {
    compact_state_count_paper(n_rules, capacity).and_then(|c| c.checked_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(12, 0), Some(1));
        assert_eq!(binomial(12, 6), Some(924));
        assert_eq!(binomial(5, 7), Some(0));
        assert_eq!(binomial(4, 2), Some(6));
    }

    #[test]
    fn compact_count_matches_paper_parameters() {
        // |Rules| = 12, n = 6 (the evaluation's parameters):
        // 12 + 66 + 220 + 495 + 792 + 924 = 2509, plus the empty state.
        assert_eq!(compact_state_count_paper(12, 6), Some(2509));
        assert_eq!(compact_state_count(12, 6), Some(2510));
    }

    #[test]
    fn compact_count_caps_at_rule_count() {
        // Capacity larger than the rule set: all 2^R - 1 nonempty subsets.
        assert_eq!(compact_state_count_paper(4, 10), Some(15));
    }

    #[test]
    fn basic_count_single_rule() {
        // One rule, timeout t, capacity 1: empty state + t+1 timer values.
        assert_eq!(basic_state_count_exact(&[5], 1), Some(1 + 6));
        assert_eq!(basic_state_count(&[5], 1), 7.0);
    }

    #[test]
    fn basic_count_two_rules() {
        // Rules with t=1,2; capacity 2:
        // {} -> 1; {r0} -> 2; {r1} -> 3; {r0,r1} -> 2! * 2*3 = 12. Total 18.
        assert_eq!(basic_state_count_exact(&[1, 2], 2), Some(18));
        // Capacity 1 drops the pair term.
        assert_eq!(basic_state_count_exact(&[1, 2], 1), Some(6));
    }

    #[test]
    fn float_and_exact_agree_when_exact_fits() {
        let t = [3, 4, 5, 6];
        let exact = basic_state_count_exact(&t, 3).unwrap();
        let float = basic_state_count(&t, 3);
        assert!((float - exact as f64).abs() < 1e-6 * exact as f64 + 1e-9);
    }

    #[test]
    fn papers_quoted_example_diverges_from_its_formula() {
        // §IV-A2 quotes ≈5.9e7 states for |Rules|=10, t_j=100, n=8; the
        // printed formula gives astronomically more. We record the actual
        // value of the formula here so EXPERIMENTS.md can report both.
        let count = basic_state_count(&[100; 10], 8);
        assert!(
            count > 5.9e7,
            "formula value {count} should exceed the quoted 5.9e7"
        );
        assert!(
            count > 1e16,
            "formula value is astronomically larger: {count}"
        );
    }
}
