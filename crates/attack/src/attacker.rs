//! The attacker flavors evaluated in §VI.

use crate::plan::AttackPlan;
use crate::robust::{robust_probe, ProbePolicy, RobustState, Verdict};
use flowspace::FlowId;
use netsim::Simulation;
use rand::Rng;
use recon_core::probe::DecisionTree;
use serde::{Deserialize, Serialize};
use std::convert::Infallible;

/// Which attacker strategy to run (§VI-B, plus extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttackerKind {
    /// Probes the target flow itself; answers `Q_f̂`.
    Naive,
    /// Probes the model's optimal flow; answers its `Q_f`.
    Model,
    /// Probes the model's optimal flow **excluding the target** (Fig. 7);
    /// answers its `Q_f`.
    RestrictedModel,
    /// No probe: answers a Bernoulli draw from the prior `P(X̂=1)`.
    Random,
    /// Issues the plan's non-adaptive multi-probe sequence and classifies
    /// with the §V-B decision tree (requires
    /// [`plan_attack_full`](crate::plan_attack_full)).
    MultiProbe,
    /// Follows the plan's adaptive probing policy (extension; requires
    /// [`plan_attack_full`](crate::plan_attack_full)).
    Adaptive,
}

impl AttackerKind {
    /// The paper's four §VI-B flavors, in display order.
    #[must_use]
    pub fn all() -> [AttackerKind; 4] {
        [
            AttackerKind::Naive,
            AttackerKind::Model,
            AttackerKind::RestrictedModel,
            AttackerKind::Random,
        ]
    }

    /// Stable lowercase name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AttackerKind::Naive => "naive",
            AttackerKind::Model => "model",
            AttackerKind::RestrictedModel => "model-restricted",
            AttackerKind::Random => "random",
            AttackerKind::MultiProbe => "multi-probe",
            AttackerKind::Adaptive => "adaptive",
        }
    }
}

/// A ready-to-run attacker: knows which probe(s) to send and how to turn
/// outcomes into a verdict.
#[derive(Debug, Clone)]
pub enum Attacker {
    /// Single-probe attacker answering the probe's outcome directly
    /// (§VI-B: "returning the result of query f (i.e., Q_f)").
    SingleProbe {
        /// The flow to probe.
        probe: FlowId,
    },
    /// Single-probe attacker answering the Bayes decision
    /// `argmax_x P(X̂=x | Q_f=q)`. Identical to [`Attacker::SingleProbe`]
    /// whenever the probe satisfies the detector condition; when it does
    /// not (the restricted attacker of Fig. 7 may be denied every
    /// detector-grade probe), it degrades gracefully to the better prior
    /// answer instead of anti-correlating.
    BayesProbe {
        /// The flow to probe.
        probe: FlowId,
        /// The verdict on a hit: `P(X̂=1 | Q=1) > ½`.
        present_if_hit: bool,
        /// The verdict on a miss: `P(X̂=1 | Q=0) > ½`.
        present_if_miss: bool,
    },
    /// Prior-only attacker.
    Prior {
        /// `P(X̂ = 1)` to sample from.
        p_present: f64,
    },
    /// Multi-probe attacker with a decision tree (§V-B).
    Tree(DecisionTree),
    /// Adaptive attacker following a probing policy (extension).
    Adaptive(recon_core::adaptive::AdaptiveTree),
}

impl Attacker {
    /// Instantiates the given flavor from an attack plan.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`AttackerKind::MultiProbe`] or
    /// [`AttackerKind::Adaptive`] but the plan was built without the
    /// corresponding tree (use
    /// [`plan_attack_full`](crate::plan_attack_full)).
    #[must_use]
    pub fn from_plan(kind: AttackerKind, plan: &AttackPlan, target: FlowId) -> Self {
        match kind {
            AttackerKind::Naive => Attacker::SingleProbe { probe: target },
            AttackerKind::Model => Attacker::SingleProbe {
                probe: plan.optimal.probe,
            },
            AttackerKind::RestrictedModel => {
                let a = &plan.optimal_non_target;
                let prior_present = 1.0 - plan.p_absent;
                let or_prior = |p: f64| if p.is_nan() { prior_present } else { p };
                Attacker::BayesProbe {
                    probe: a.probe,
                    present_if_hit: or_prior(a.p_present_given_hit) > 0.5,
                    present_if_miss: or_prior(1.0 - a.p_absent_given_miss) > 0.5,
                }
            }
            AttackerKind::Random => Attacker::Prior {
                p_present: 1.0 - plan.p_absent,
            },
            AttackerKind::MultiProbe => Attacker::Tree(
                plan.multi
                    .clone()
                    .expect("plan lacks a multi-probe tree; use plan_attack_full"),
            ),
            AttackerKind::Adaptive => Attacker::Adaptive(
                plan.adaptive
                    .clone()
                    .expect("plan lacks an adaptive policy; use plan_attack_full"),
            ),
        }
    }

    /// Runs the attack against a live simulation at the current simulation
    /// time, returning the verdict "the target flow occurred in the
    /// window".
    pub fn decide<R: Rng + ?Sized>(&self, sim: &mut Simulation, rng: &mut R) -> bool {
        let Ok(present) = self.traverse(rng, |f| Ok::<_, Infallible>(sim.probe(f).hit));
        present
    }

    /// Fault-tolerant variant of [`Attacker::decide`]: every probe goes
    /// through the robust measurement loop (timeout, retries, MAD
    /// outlier rejection, drift-aware classification — see
    /// [`crate::robust`]). A question whose measurements exhaust the
    /// retry budget returns [`Verdict::Inconclusive`]; the handled
    /// faults are tallied in `state.counters`.
    ///
    /// On a fault-free network this takes exactly the same measurements
    /// as [`Attacker::decide`] and agrees with it.
    pub fn decide_robust<R: Rng + ?Sized>(
        &self,
        sim: &mut Simulation,
        rng: &mut R,
        policy: &ProbePolicy,
        state: &mut RobustState,
    ) -> Verdict {
        let measured = self.traverse(rng, |f| {
            robust_probe(sim, f, policy, state)
                .map(|obs| obs.hit)
                .ok_or(())
        });
        match measured {
            Ok(present) => Verdict::from_present(present),
            Err(()) => {
                state.counters.inconclusive += 1;
                Verdict::Inconclusive
            }
        }
    }

    /// Walks the attacker's probes in order, taking each outcome (hit or
    /// not) from `measure`, and returns the verdict. The first failed
    /// measurement ends the walk with its error; the prior attacker
    /// probes nothing and draws its verdict from `rng`.
    fn traverse<R: Rng + ?Sized, E>(
        &self,
        rng: &mut R,
        mut measure: impl FnMut(FlowId) -> Result<bool, E>,
    ) -> Result<bool, E> {
        Ok(match self {
            Attacker::SingleProbe { probe } => measure(*probe)?,
            Attacker::BayesProbe {
                probe,
                present_if_hit,
                present_if_miss,
            } => {
                if measure(*probe)? {
                    *present_if_hit
                } else {
                    *present_if_miss
                }
            }
            Attacker::Prior { p_present } => rng.gen::<f64>() < *p_present,
            Attacker::Tree(tree) => {
                let mut outcomes = Vec::with_capacity(tree.probes().len());
                for &f in tree.probes() {
                    outcomes.push(measure(f)?);
                }
                tree.decide(&outcomes)
            }
            Attacker::Adaptive(tree) => {
                let mut outcomes = Vec::with_capacity(tree.depth());
                while let Some(probe) = tree.next_probe(&outcomes) {
                    outcomes.push(measure(probe)?);
                    if outcomes.len() == tree.depth() {
                        break;
                    }
                }
                tree.decide(&outcomes)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowspace::{FlowSet, Rule, RuleSet, Timeout};
    use netsim::NetConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rules() -> RuleSet {
        RuleSet::new(
            vec![Rule::from_flow_set(
                FlowSet::from_flows(4, [FlowId(0), FlowId(1)]),
                1,
                Timeout::idle(25),
            )],
            4,
        )
        .unwrap()
    }

    #[test]
    fn kinds_have_stable_names() {
        let names: Vec<&str> = AttackerKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["naive", "model", "model-restricted", "random"]);
    }

    #[test]
    fn single_probe_answers_hit_state() {
        let mut sim = Simulation::new(NetConfig::eval_topology(rules(), 2, 0.02), 1);
        let mut rng = StdRng::seed_from_u64(1);
        let atk = Attacker::SingleProbe { probe: FlowId(0) };
        // Nothing cached: the probe misses -> verdict "absent".
        assert!(!atk.decide(&mut sim, &mut rng));
        // The probe itself installed the rule: a second attack says "hit".
        assert!(atk.decide(&mut sim, &mut rng));
    }

    #[test]
    fn prior_attacker_matches_probability() {
        let mut sim = Simulation::new(NetConfig::eval_topology(rules(), 2, 0.02), 2);
        let mut rng = StdRng::seed_from_u64(2);
        let atk = Attacker::Prior { p_present: 0.8 };
        let yes = (0..5000).filter(|_| atk.decide(&mut sim, &mut rng)).count();
        let frac = yes as f64 / 5000.0;
        assert!((frac - 0.8).abs() < 0.03, "frac {frac}");
    }

    #[test]
    fn bayes_probe_answers_posterior_not_outcome() {
        let mut sim = Simulation::new(NetConfig::eval_topology(rules(), 2, 0.02), 7);
        let mut rng = StdRng::seed_from_u64(7);
        // A probe whose hit would NOT imply presence: both branches say
        // "absent".
        let atk = Attacker::BayesProbe {
            probe: FlowId(0),
            present_if_hit: false,
            present_if_miss: false,
        };
        assert!(!atk.decide(&mut sim, &mut rng)); // miss branch
        assert!(!atk.decide(&mut sim, &mut rng)); // hit branch (rule now cached)
                                                  // And one that answers the outcome directly behaves like
                                                  // SingleProbe.
        let mut sim = Simulation::new(NetConfig::eval_topology(rules(), 2, 0.02), 8);
        let atk = Attacker::BayesProbe {
            probe: FlowId(0),
            present_if_hit: true,
            present_if_miss: false,
        };
        assert!(!atk.decide(&mut sim, &mut rng));
        assert!(atk.decide(&mut sim, &mut rng));
    }

    #[test]
    fn prior_extremes_are_deterministic() {
        let mut sim = Simulation::new(NetConfig::eval_topology(rules(), 2, 0.02), 3);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(Attacker::Prior { p_present: 1.0 }.decide(&mut sim, &mut rng));
        assert!(!Attacker::Prior { p_present: 0.0 }.decide(&mut sim, &mut rng));
    }

    #[test]
    fn robust_decide_agrees_with_decide_on_clean_network() {
        let policy = crate::robust::ProbePolicy::default();
        for (kind, atk) in [
            ("single", Attacker::SingleProbe { probe: FlowId(0) }),
            (
                "bayes",
                Attacker::BayesProbe {
                    probe: FlowId(0),
                    present_if_hit: true,
                    present_if_miss: false,
                },
            ),
        ] {
            let mut plain = Simulation::new(NetConfig::eval_topology(rules(), 2, 0.02), 17);
            let mut robust = Simulation::new(NetConfig::eval_topology(rules(), 2, 0.02), 17);
            let mut rng_a = StdRng::seed_from_u64(17);
            let mut rng_b = StdRng::seed_from_u64(17);
            let mut state = crate::robust::RobustState::new(&policy);
            for _ in 0..3 {
                let direct = atk.decide(&mut plain, &mut rng_a);
                let verdict = atk.decide_robust(&mut robust, &mut rng_b, &policy, &mut state);
                assert_eq!(verdict.answer(), Some(direct), "{kind}");
            }
            assert_eq!(state.counters.timeouts, 0);
            assert_eq!(state.counters.inconclusive, 0);
        }
    }

    #[test]
    fn robust_decide_goes_inconclusive_under_total_loss() {
        let mut cfg = NetConfig::eval_topology(rules(), 2, 0.02);
        cfg.faults.packet_loss = 1.0;
        let mut sim = Simulation::new(cfg, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let policy = crate::robust::ProbePolicy::default();
        let mut state = crate::robust::RobustState::new(&policy);
        let atk = Attacker::SingleProbe { probe: FlowId(0) };
        let v = atk.decide_robust(&mut sim, &mut rng, &policy, &mut state);
        assert_eq!(v, crate::robust::Verdict::Inconclusive);
        assert_eq!(state.counters.inconclusive, 1);
        assert_eq!(state.counters.probes, 1 + u64::from(policy.max_retries));
        // The prior attacker needs no probe and still answers.
        let prior = Attacker::Prior { p_present: 1.0 };
        let v = prior.decide_robust(&mut sim, &mut rng, &policy, &mut state);
        assert_eq!(v.answer(), Some(true));
    }
}
