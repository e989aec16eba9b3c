//! The end-to-end attacker harness.
//!
//! Ties the Markov models of `recon-core` to the `netsim` network: builds
//! an attack plan for a sampled scenario (which probe to send), realizes
//! the scenario as live Poisson traffic against a simulated switch, lets
//! each attacker flavor probe and answer, and scores the answers against
//! the simulation's ground truth — reproducing the paper's §VI evaluation
//! loop.
//!
//! Attackers (§VI-B):
//!
//! * **naive** — probes the target flow itself and returns `Q_f̂`;
//! * **model** — probes the information-gain-optimal flow and returns its
//!   `Q_f`;
//! * **restricted model** — like model, but forbidden from probing the
//!   target (Fig. 7's scenario);
//! * **random** — answers from the prior alone, without probing;
//! * **tree** — issues a multi-probe sequence and classifies via the §V-B
//!   decision tree.
//!
//! Each engine has one entry point. [`plan_attack_full`] plans (with
//! [`plan_attack`] as the paper's default shorthand) and a [`TrialRun`]
//! runs a batch of trials; [`sweep::SweepParameter`] sets one swept
//! scenario parameter, so a sweep is a plan and a batch per value. Every
//! parallel fan-out goes through [`recon_core::exec::map_indexed`], so
//! the [`ExecPolicy`] argument changes wall time, never results. No
//! function here reads [`THREADS_ENV_VAR`]; callers pass their policy
//! explicitly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attacker;
mod calibrate;
mod plan;
mod robust;
pub mod sweep;
mod timing;
mod trial;

pub use attacker::{Attacker, AttackerKind};
pub use calibrate::{calibrate_threshold, CalibratedThreshold, DRIFT_LIMIT};
pub use plan::{plan_attack, plan_attack_full, AttackPlan, PlanError};
pub use recon_core::exec::{ExecPolicy, THREADS_ENV_VAR};
pub use robust::{
    robust_probe, FaultCounters, ProbePolicy, RobustObservation, RobustState, RttWindow, Verdict,
};
pub use timing::{measure_latency, LatencyStats, LatencyTable};
pub use trial::{
    run_trials_robust_policy, run_trials_with_policy, scenario_net_config, Accuracy, TrialReport,
    TrialRun,
};
