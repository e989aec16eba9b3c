//! The discrete-event simulation loop.

use crate::config::{ConfigError, NetConfig};
use crate::fault::{FaultKind, FaultPlan, JitterBursts};
use crate::queue::EventQueue;
use crate::switch::{Lookup, Switch, SwitchMode};
use crate::topology::NodeId;
use crate::{Gaussian, LatencyModel, ShiftedLogNormal};
use flowspace::{FlowId, RuleId, RuleSet};
use obs::trace::{CompKind, TraceEv};
use obs::{metrics, FlightRecorder, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

pub use crate::switch::SwitchStats;

/// Salt deriving the fault-RNG stream from the trial seed. Faults draw
/// from their own stream so that a zero-probability fault (or a no-op
/// plan) consumes no randomness and leaves the latency stream — and
/// therefore every RTT — bit-identical to a fault-free run.
const FAULT_STREAM_SALT: u64 = 0xFA17_0BAD_5EED_0001;

/// Counters of injected faults, exposed for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Data-plane packets lost on a link (forward hops and replies).
    pub packets_dropped: u64,
    /// Table-miss packet-ins that never reached the controller.
    pub packet_ins_lost: u64,
    /// Flow-mods lost on the control channel.
    pub flow_mods_lost: u64,
    /// Flow-mods delayed on the control channel.
    pub flow_mods_delayed: u64,
    /// Flow-mods rejected by a full table (`OFPFMFC_TABLE_FULL`).
    pub flow_mods_rejected: u64,
    /// Probes that hit their response deadline without a reply.
    pub probe_timeouts: u64,
}

impl FaultStats {
    /// Tallies one injected fault of `kind` in the counter its
    /// [`label`](FaultKind::label) names.
    pub fn count(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::PacketsDropped => self.packets_dropped += 1,
            FaultKind::PacketInsLost => self.packet_ins_lost += 1,
            FaultKind::FlowModsLost => self.flow_mods_lost += 1,
            FaultKind::FlowModsDelayed => self.flow_mods_delayed += 1,
            FaultKind::FlowModsRejected => self.flow_mods_rejected += 1,
            FaultKind::ProbeTimeouts => self.probe_timeouts += 1,
        }
    }

    /// Adds another simulation's counters into this one (unsigned adds:
    /// commutative and associative, the trial-engine merge contract).
    pub fn merge(&mut self, other: &FaultStats) {
        self.packets_dropped += other.packets_dropped;
        self.packet_ins_lost += other.packet_ins_lost;
        self.flow_mods_lost += other.flow_mods_lost;
        self.flow_mods_delayed += other.flow_mods_delayed;
        self.flow_mods_rejected += other.flow_mods_rejected;
        self.probe_timeouts += other.probe_timeouts;
    }

    /// Records the counters into `recorder` under the
    /// `netsim.fault.*` metric names.
    pub fn record_into(&self, recorder: &mut Recorder) {
        recorder.add(metrics::FAULT_PACKETS_DROPPED, self.packets_dropped);
        recorder.add(metrics::FAULT_PACKET_INS_LOST, self.packet_ins_lost);
        recorder.add(metrics::FAULT_FLOW_MODS_LOST, self.flow_mods_lost);
        recorder.add(metrics::FAULT_FLOW_MODS_DELAYED, self.flow_mods_delayed);
        recorder.add(metrics::FAULT_FLOW_MODS_REJECTED, self.flow_mods_rejected);
        recorder.add(metrics::FAULT_PROBE_TIMEOUTS, self.probe_timeouts);
    }
}

/// Burst-jitter episode state: the link layer alternates between quiet
/// and burst periods with exponentially distributed durations, toggling
/// lazily as simulation time passes the next boundary.
#[derive(Debug)]
struct JitterState {
    bursts: JitterBursts,
    active: bool,
    next_toggle: f64,
}

/// The attacker's measurement of one probe (§III): the observed response
/// time and its classification against the 1 ms threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeObservation {
    /// The probed flow.
    pub flow: FlowId,
    /// When the probe was injected (simulation seconds).
    pub sent_at: f64,
    /// Observed round-trip time (seconds).
    pub rtt: f64,
    /// `rtt < threshold`: the probe matched an already-cached rule
    /// (`Q_f = 1` in the paper's notation).
    pub hit: bool,
}

/// A packet traveling toward the server, hop by hop.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Packet {
    flow: FlowId,
    probe: Option<u64>,
    injected_at: f64,
}

/// Simulation events. Switches are named by their hop position on the
/// forward path (`path[hop]`), the index of their state in
/// `Simulation::switches`.
#[derive(Debug, Clone, PartialEq)]
enum EventKind {
    /// The packet reaches the switch at `hop` on its way to the server.
    AtSwitch { hop: usize, packet: Packet },
    /// The controller's flow-mod for `rule` reaches the switch at `hop`.
    ControllerReply { hop: usize, rule: RuleId },
    /// The packet reached the server host; the echo reply is generated.
    AtServer { packet: Packet },
    /// A probe's echo reply reaches the attacker.
    ReplyArrives { packet: Packet },
}

/// One exponential draw with the given mean, floored at a picosecond so
/// episode boundaries always advance. A non-positive mean yields
/// infinity: the episode never ends, which keeps degenerate jitter
/// parameters (zero-length periods) from spinning the toggle loop.
fn exponential(mean: f64, rng: &mut StdRng) -> f64 {
    if mean <= 0.0 {
        return f64::INFINITY;
    }
    let u: f64 = 1.0 - rng.gen::<f64>();
    (-mean * u.ln()).max(1e-12)
}

/// A packet parked behind an in-flight controller query, with its park
/// time. The first packet of a buffer is the one whose miss sent the
/// packet-in (the initiator); later ones joined the query in flight.
/// Joiners' waits are billed to the `packet_in` RTT component; the
/// initiator's wait is already decomposed into controller + install at
/// miss time.
type ParkedPacket = (Packet, f64);

/// A running simulated network: hosts, per-switch flow tables, a reactive
/// controller and a common server, per §VI-A's client–server layout.
///
/// Packets are forwarded **hop by hop** along shortest paths. The ingress
/// switch (where the clients and the attacker attach) is always reactive —
/// the attack surface; transit switches forward proactively by default
/// (the paper's pre-installed path rules) or reactively when
/// [`NetConfig::transit_reactive`] is set. Echo replies ride the
/// pre-installed reply rule: no lookups, pure propagation (§VI-A).
///
/// Only the switches on the ingress→server path ever see a packet, so
/// only they get state: set-up and teardown cost O(path length), not
/// O(fabric size).
#[derive(Debug)]
pub struct Simulation {
    /// The controller's reactive rule set.
    rules: RuleSet,
    /// Seconds per model step Δ (scales rule timeouts to TTLs).
    delta: f64,
    /// One link segment's latency ([`LatencyModel::segment`]).
    segment: Gaussian,
    /// The controller's rule-setup delay.
    rule_setup: ShiftedLogNormal,
    faults: FaultPlan,
    /// Number of switches in the topology, for range-checking node ids.
    fabric_len: usize,
    rng: StdRng,
    now: f64,
    queue: EventQueue<EventKind>,
    /// Forward path from the ingress switch (`path[0]`) to the server's
    /// switch (the last element), inclusive.
    path: Vec<NodeId>,
    /// State of the switches on `path`, indexed by hop.
    switches: Vec<Switch>,
    /// Packets parked at a switch waiting for a rule installation, one
    /// reused buffer per `(hop, rule)` query at index
    /// `hop * rules.len() + rule`, in arrival order (see
    /// [`ParkedPacket`]). A query is in flight exactly when its buffer
    /// is non-empty: every path that ends a query (install, flow-mod
    /// loss, table-full reject) empties the buffer, and a lost
    /// packet-in is never parked.
    parked: Vec<Vec<ParkedPacket>>,
    /// Completed probe observations by token.
    probe_results: Vec<Option<ProbeObservation>>,
    /// Dedicated RNG stream for fault draws (see [`FAULT_STREAM_SALT`]).
    fault_rng: StdRng,
    /// Burst-jitter episode state, if the fault plan enables jitter.
    jitter: Option<JitterState>,
    /// Injected-fault counters.
    fault_stats: FaultStats,
    /// Optional metric sink (probe RTT histograms, robust-loop spans).
    /// Disabled by default: recording never influences the simulation,
    /// it only observes it.
    recorder: Recorder,
    /// Optional causal flight recorder: every probe's chain of events
    /// and RTT components, stamped under the context set by
    /// [`Simulation::attach_flight`]. Disabled by default; like the
    /// metric recorder it never feeds back into the simulation.
    flight: FlightRecorder,
}

impl Simulation {
    /// Creates a simulation with a deterministic RNG seed.
    ///
    /// `config` may be borrowed: the simulation copies out what its
    /// event loop reads and keeps switch state only for the
    /// ingress→server path, so building one costs O(path length)
    /// whatever the size of the topology, once the topology has routed
    /// toward the server (the `NetConfig` constructors do so; otherwise
    /// the first simulation runs that one BFS).
    ///
    /// # Panics
    ///
    /// Panics if the ingress and server switches are disconnected.
    #[must_use]
    pub fn new(config: impl Borrow<NetConfig>, seed: u64) -> Self {
        let config = config.borrow();
        let path = config
            .topology
            .path(config.ingress, config.server)
            .expect("ingress and server must be connected");
        let switches = (0..path.len())
            .map(|hop| {
                let (mode, capacity) = if hop == 0 {
                    (SwitchMode::Reactive, config.capacity)
                } else if config.transit_reactive {
                    (SwitchMode::Reactive, config.transit_capacity)
                } else {
                    (SwitchMode::Proactive, config.transit_capacity.max(1))
                };
                Switch::new(
                    mode,
                    capacity,
                    config.defense,
                    config.rules.len(),
                    config.policy,
                )
            })
            .collect();
        let mut fault_rng = StdRng::seed_from_u64(seed ^ FAULT_STREAM_SALT);
        let jitter = config.faults.jitter.map(|bursts| JitterState {
            bursts,
            active: false,
            next_toggle: exponential(bursts.period_secs, &mut fault_rng),
        });
        Simulation {
            rules: config.rules.clone(),
            delta: config.delta,
            segment: config.latency.segment(),
            rule_setup: config.latency.rule_setup,
            faults: config.faults,
            fabric_len: config.topology.len(),
            parked: vec![Vec::new(); path.len() * config.rules.len()],
            switches,
            path,
            rng: StdRng::seed_from_u64(seed),
            now: 0.0,
            queue: EventQueue::new(),
            probe_results: Vec::new(),
            fault_rng,
            jitter,
            fault_stats: FaultStats::default(),
            recorder: Recorder::disabled(),
            flight: FlightRecorder::disabled(),
        }
    }

    /// Like [`Simulation::new`], but validates the configuration first
    /// and returns a typed error instead of panicking on a malformed
    /// `NetConfig`.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found by [`NetConfig::validate`].
    pub fn try_new(config: impl Borrow<NetConfig>, seed: u64) -> Result<Self, ConfigError> {
        let config = config.borrow();
        config.validate()?;
        Ok(Simulation::new(config, seed))
    }

    /// Current simulation time, seconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Ingress-switch counters (the attacked switch).
    #[must_use]
    pub fn ingress_stats(&self) -> SwitchStats {
        self.switches[0].stats
    }

    /// Counters of faults injected so far.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Attaches a metric recorder; the simulation records probe-RTT
    /// histograms (and callers may record through
    /// [`Simulation::recorder_mut`]) until [`Simulation::take_recorder`]
    /// harvests it. Recording is observation only — it never feeds back
    /// into any simulated quantity.
    pub fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Removes and returns the attached recorder (a disabled one if none
    /// was attached).
    pub fn take_recorder(&mut self) -> Recorder {
        std::mem::replace(&mut self.recorder, Recorder::disabled())
    }

    /// The attached recorder, for instrumentation layered on top of the
    /// simulation (e.g. the robust probe loop's backoff histogram).
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// Attaches a flight recorder and stamps every subsequent event
    /// with context `ctx` (see [`obs::probe_ctx`]). Each simulation
    /// must own a distinct context: emission indices restart at 0 here,
    /// which is what makes merged contents schedule-independent.
    pub fn attach_flight(&mut self, mut flight: FlightRecorder, ctx: u64) {
        flight.begin(ctx);
        self.flight = flight;
    }

    /// Removes and returns the attached flight recorder (a disabled one
    /// if none was attached).
    pub fn take_flight(&mut self) -> FlightRecorder {
        std::mem::replace(&mut self.flight, FlightRecorder::disabled())
    }

    /// The attached flight recorder, for causal events layered on top
    /// of the simulation (the robust probe loop's retry/outlier/verdict
    /// stamps).
    pub fn flight_mut(&mut self) -> &mut FlightRecorder {
        &mut self.flight
    }

    /// The token of the most recently injected probe — what attack-side
    /// flight events are attributed to. `None` before any probe.
    #[must_use]
    pub fn last_probe_token(&self) -> Option<u64> {
        (!self.probe_results.is_empty()).then(|| self.probe_results.len() as u64 - 1)
    }

    /// Counters of an arbitrary switch: zero for a switch off the
    /// ingress→server path, which no packet ever reaches.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn stats_of(&self, node: NodeId) -> SwitchStats {
        self.on_path(node)
            .map_or_else(SwitchStats::default, |s| s.stats)
    }

    /// Rules currently cached in the ingress reactive table.
    #[must_use]
    pub fn cached_rules(&self) -> Vec<RuleId> {
        self.switches[0].cached_rules(self.now)
    }

    /// Rules currently cached at an arbitrary switch: none for a switch
    /// off the ingress→server path.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn cached_rules_at(&self, node: NodeId) -> Vec<RuleId> {
        self.on_path(node)
            .map_or_else(Vec::new, |s| s.cached_rules(self.now))
    }

    /// The state of switch `node` if it lies on the forward path.
    fn on_path(&self, node: NodeId) -> Option<&Switch> {
        assert!(
            node.0 < self.fabric_len,
            "switch {node} out of range (topology has {})",
            self.fabric_len
        );
        let hop = self.path.iter().position(|&n| n == node)?;
        Some(&self.switches[hop])
    }

    /// Schedules a genuine packet of `flow` to enter the network at
    /// absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_flow(&mut self, flow: FlowId, at: f64) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        let packet = Packet {
            flow,
            probe: None,
            injected_at: at,
        };
        // Host → ingress link.
        if self.link_drops(self.path[0], packet, at) {
            return;
        }
        let delay = self.segment_sample(at);
        self.push(at + delay, EventKind::AtSwitch { hop: 0, packet });
    }

    /// Runs all events with time ≤ `until` and advances the clock to it.
    pub fn run_until(&mut self, until: f64) {
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            if let Some((time, kind)) = self.queue.pop() {
                self.now = time;
                self.dispatch(time, kind);
            }
        }
        self.now = self.now.max(until);
    }

    /// Injects an attacker probe of `flow` right now, runs the simulation
    /// until its reply returns (processing intervening genuine traffic in
    /// order), and returns the timing observation.
    ///
    /// # Panics
    ///
    /// Panics if the reply can never arrive — which under a fault plan
    /// with packet loss is a real possibility; fault-tolerant callers
    /// should use [`Simulation::probe_with_timeout`] instead.
    pub fn probe(&mut self, flow: FlowId) -> ProbeObservation {
        self.probe_with_timeout(flow, f64::INFINITY)
            .expect("probe reply must eventually arrive")
    }

    /// Injects an attacker probe of `flow` right now and runs the
    /// simulation until its reply returns or `timeout` seconds elapse.
    ///
    /// On timeout the clock is advanced to the deadline (the attacker
    /// waited that long), a [`FaultKind::ProbeTimeouts`] fault is counted
    /// and flight-recorded, and `None` is returned — the explicit
    /// representation of a lost probe.
    /// An infinite `timeout` reproduces [`Simulation::probe`] except that
    /// an unanswerable probe yields `None` instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is not positive.
    pub fn probe_with_timeout(&mut self, flow: FlowId, timeout: f64) -> Option<ProbeObservation> {
        assert!(timeout > 0.0, "probe timeout must be positive");
        let token = self.probe_results.len() as u64;
        self.probe_results.push(None);
        let at = self.now;
        let deadline = at + timeout;
        let packet = Packet {
            flow,
            probe: Some(token),
            injected_at: at,
        };
        self.femit(
            at,
            Some(token),
            TraceEv::Inject {
                flow: flow.0 as u64,
            },
        );
        if !self.link_drops(self.path[0], packet, at) {
            let (base, extra) = self.segment_parts(at);
            self.femit_comp(at, Some(token), CompKind::Hop, base);
            self.femit_comp(at, Some(token), CompKind::Jitter, extra);
            self.push(at + (base + extra), EventKind::AtSwitch { hop: 0, packet });
        }
        loop {
            if let Some(obs) = self.probe_results[token as usize] {
                return Some(obs);
            }
            let timed_out = match self.queue.peek_time() {
                None => true,
                Some(t) => t > deadline,
            };
            if timed_out {
                if deadline.is_finite() {
                    self.now = self.now.max(deadline);
                    self.fault_event(FaultKind::ProbeTimeouts, None, Some(token), deadline);
                }
                return None;
            }
            if let Some((time, kind)) = self.queue.pop() {
                self.now = time;
                self.dispatch(time, kind);
            }
        }
    }

    /// [`Simulation::run_until`] followed by [`Simulation::probe`].
    pub fn probe_at(&mut self, flow: FlowId, at: f64) -> ProbeObservation {
        self.run_until(at);
        self.probe(flow)
    }

    fn push(&mut self, time: f64, kind: EventKind) {
        self.queue.push(time, kind);
    }

    /// Whether an injected fault with probability `p` fires. Takes no
    /// draw when `p` is zero, so disabled faults leave the fault stream
    /// untouched.
    fn fault_fires(&mut self, p: f64) -> bool {
        p > 0.0 && self.fault_rng.gen::<f64>() < p
    }

    /// Flight-records one event attributed to a probe. Events on
    /// genuine (non-probe) packets are skipped: the flight recorder is
    /// a per-probe causal log, and genuine traffic has no RTT to
    /// explain.
    fn femit(&mut self, time: f64, probe: Option<u64>, ev: TraceEv) {
        if probe.is_some() {
            self.flight.log(time, probe, ev);
        }
    }

    /// Flight-records one additive RTT component of a probe. Zero
    /// contributions are skipped — they cannot change the
    /// [`Breakdown`](obs::Breakdown) sum.
    fn femit_comp(&mut self, time: f64, probe: Option<u64>, kind: CompKind, secs: f64) {
        if probe.is_some() && secs != 0.0 {
            self.flight
                .log(time, probe, TraceEv::Component { kind, secs });
        }
    }

    /// Flight-records an injected fault on a probe's chain and tallies
    /// it — record label and counter both derive from the same
    /// [`FaultKind`], so they cannot diverge.
    fn fault_event(&mut self, kind: FaultKind, node: Option<NodeId>, probe: Option<u64>, at: f64) {
        self.fault_stats.count(kind);
        self.femit(
            at,
            probe,
            TraceEv::Fault {
                kind: kind.label(),
                node: node.map(|n| n.0 as u64),
            },
        );
    }

    /// One link-segment latency sample at time `now`, split into its
    /// base and jitter-extra parts (their sum is the delay applied).
    /// The draw order — base from the latency stream, then jitter from
    /// the fault stream — is the bit-compatibility contract with the
    /// pre-split `segment_sample`.
    fn segment_parts(&mut self, now: f64) -> (f64, f64) {
        let base = self.segment.sample(&mut self.rng);
        (base, self.jitter_extra(now))
    }

    /// One link-segment latency sample at time `now`: the base latency
    /// model plus any burst-jitter extra while an episode is active.
    fn segment_sample(&mut self, now: f64) -> f64 {
        let (base, extra) = self.segment_parts(now);
        base + extra
    }

    /// Advances the jitter episode state to `now` and returns the extra
    /// per-segment delay (0.0 outside bursts or without a jitter plan).
    fn jitter_extra(&mut self, now: f64) -> f64 {
        let Some(j) = self.jitter.as_mut() else {
            return 0.0;
        };
        while j.next_toggle <= now {
            j.active = !j.active;
            let mean = if j.active {
                j.bursts.burst_secs
            } else {
                j.bursts.period_secs
            };
            j.next_toggle += exponential(mean, &mut self.fault_rng);
        }
        if j.active {
            j.bursts.extra.sample(&mut self.fault_rng)
        } else {
            0.0
        }
    }

    /// Draws the per-link packet-loss fault for a hop towards `to` at
    /// time `at`; returns `true` (recording the drop) when the packet is
    /// lost.
    fn link_drops(&mut self, to: NodeId, packet: Packet, at: f64) -> bool {
        if !self.fault_fires(self.faults.packet_loss) {
            return false;
        }
        self.fault_event(FaultKind::PacketsDropped, Some(to), packet.probe, at);
        true
    }

    /// Forwards `packet` out of the switch at `hop` toward the server:
    /// either to the next switch on the path or to the server host.
    fn forward(&mut self, hop: usize, packet: Packet, at: f64, extra_delay: f64) {
        let (kind, to) = match self.path.get(hop + 1) {
            Some(&next) => (
                EventKind::AtSwitch {
                    hop: hop + 1,
                    packet,
                },
                next,
            ),
            None => (EventKind::AtServer { packet }, self.path[hop]),
        };
        if self.link_drops(to, packet, at) {
            return;
        }
        let (base, extra) = self.segment_parts(at);
        self.femit_comp(at, packet.probe, CompKind::Hop, base);
        self.femit_comp(at, packet.probe, CompKind::Jitter, extra);
        let hop = base + extra;
        self.push(at + extra_delay + hop, kind);
    }

    /// Index of the `(hop, rule)` query's buffer in `parked`.
    fn parked_slot(&self, hop: usize, rule: RuleId) -> usize {
        hop * self.rules.len() + rule.0
    }

    fn dispatch(&mut self, time: f64, kind: EventKind) {
        match kind {
            EventKind::AtSwitch { hop, packet } => {
                let node = self.path[hop];
                let lookup = self.switches[hop].lookup(packet.flow, time, &self.rules);
                match lookup {
                    Lookup::Hit { pad, rule } => {
                        // The Hit names the matched rule: the cached rule
                        // a reactive table matched, or at a proactive
                        // switch the highest-priority cover (none for an
                        // uncovered flow, which emits no Hit). Only
                        // derived when the flight recorder will record it.
                        if packet.probe.is_some() && self.flight.is_enabled() {
                            if let Some(matched) =
                                rule.or_else(|| self.rules.highest_covering(packet.flow))
                            {
                                self.femit(
                                    time,
                                    packet.probe,
                                    TraceEv::Hit {
                                        node: node.0 as u64,
                                        rule: matched.0 as u64,
                                    },
                                );
                            }
                        }
                        self.femit_comp(time, packet.probe, CompKind::Pad, pad);
                        self.forward(hop, packet, time, pad);
                    }
                    Lookup::Miss { rule } => {
                        // No packet parked behind the rule: no query is
                        // in flight, so this miss sends the packet-in.
                        let slot = self.parked_slot(hop, rule);
                        let fresh = self.parked[slot].is_empty();
                        self.femit(
                            time,
                            packet.probe,
                            TraceEv::Miss {
                                node: node.0 as u64,
                                rule: rule.0 as u64,
                                fresh,
                            },
                        );
                        if fresh {
                            if self.fault_fires(self.faults.packet_in_loss) {
                                // The packet-in never reaches the
                                // controller: no flow-mod will come, the
                                // packet is dropped unparked, and the
                                // next miss must query afresh.
                                self.fault_event(
                                    FaultKind::PacketInsLost,
                                    Some(node),
                                    packet.probe,
                                    time,
                                );
                                return;
                            }
                            self.femit(
                                time,
                                packet.probe,
                                TraceEv::PacketIn {
                                    node: node.0 as u64,
                                    rule: rule.0 as u64,
                                },
                            );
                            let mut setup = self.rule_setup.sample(&mut self.rng);
                            // The initiator's park time equals the full
                            // controller round: decompose it here, at
                            // incurrence, into the controller-service
                            // base and any injected install delay.
                            self.femit_comp(time, packet.probe, CompKind::Controller, setup);
                            if self.faults.flow_mod_delay_secs > 0.0
                                && self.fault_fires(self.faults.flow_mod_delay)
                            {
                                let extra = self.faults.flow_mod_delay_secs;
                                self.fault_event(
                                    FaultKind::FlowModsDelayed,
                                    Some(node),
                                    packet.probe,
                                    time,
                                );
                                self.femit_comp(time, packet.probe, CompKind::Install, extra);
                                setup += extra;
                            }
                            self.push(time + setup, EventKind::ControllerReply { hop, rule });
                        }
                        self.parked[slot].push((packet, time));
                    }
                    Lookup::Uncovered => {
                        // Every such packet detours via the controller
                        // (the pre-installed send-to-controller rule);
                        // nothing is installed.
                        self.femit(
                            time,
                            packet.probe,
                            TraceEv::Uncovered {
                                node: node.0 as u64,
                            },
                        );
                        let setup = self.rule_setup.sample(&mut self.rng);
                        self.femit_comp(time, packet.probe, CompKind::Controller, setup);
                        self.forward(hop, packet, time, setup);
                    }
                }
            }
            EventKind::ControllerReply { hop, rule } => {
                let node = self.path[hop];
                let slot = self.parked_slot(hop, rule);
                // Control-plane events are attributed to the probe whose
                // miss initiated the query (if it was probe traffic).
                let initiator = self.parked[slot].first().and_then(|(p, _)| p.probe);
                if self.fault_fires(self.faults.flow_mod_loss) {
                    // The flow-mod is lost on the control channel: no
                    // rule is cached and the packets buffered behind the
                    // query are dropped with it.
                    self.fault_event(FaultKind::FlowModsLost, Some(node), initiator, time);
                    self.parked[slot].clear();
                    return;
                }
                let rejected = self.switches[hop].is_full_at(time)
                    && self.fault_fires(self.faults.table_full_reject);
                if rejected {
                    // OFPFMFC_TABLE_FULL: the switch refuses the install
                    // instead of evicting a victim. The controller's
                    // packet-out side is unaffected, so the buffered
                    // packets are still forwarded — the probe correctly
                    // observes a slow miss, but nothing is cached.
                    self.fault_event(FaultKind::FlowModsRejected, Some(node), initiator, time);
                } else {
                    let evicted = self.switches[hop].install(rule, time, &self.rules, self.delta);
                    self.femit(
                        time,
                        initiator,
                        TraceEv::Install {
                            node: node.0 as u64,
                            rule: rule.0 as u64,
                            evicted: evicted.map(|r| r.0 as u64),
                        },
                    );
                }
                // Forwarding pushes events but dispatches none, so nothing
                // parks behind this query while its buffer is out.
                let mut released = std::mem::take(&mut self.parked[slot]);
                for (i, (packet, parked_at)) in released.drain(..).enumerate() {
                    if i > 0 {
                        // Joiners waited on someone else's query: their
                        // whole park is packet-in wait. The initiator
                        // accounted its own wait at incurrence, as
                        // Controller (+ Install) components.
                        self.femit_comp(time, packet.probe, CompKind::PacketIn, time - parked_at);
                    }
                    self.forward(hop, packet, time, 0.0);
                }
                self.parked[slot] = released;
            }
            EventKind::AtServer { packet } => {
                // The echo reply rides the pre-installed reply rule: no
                // lookups, one propagation sample per path segment. Loss
                // is drawn once for the whole reply path.
                if self.fault_fires(self.faults.packet_loss) {
                    self.fault_event(FaultKind::PacketsDropped, None, packet.probe, time);
                    return;
                }
                let segments = self.path.len() + 1; // server link + hops + host link
                if packet.probe.is_none() {
                    // Nothing reads a genuine packet's reply, so it is not
                    // scheduled and its base samples are not drawn: the
                    // latency stream jumps the words they would read,
                    // which leaves every later draw in place. The jitter
                    // extras come from the fault stream, where burst
                    // toggles must keep their places: draw them.
                    let words = segments as u128 * Gaussian::WORDS_PER_SAMPLE;
                    self.rng.set_word_pos(self.rng.get_word_pos() + words);
                    for _ in 0..segments {
                        self.jitter_extra(time);
                    }
                    return;
                }
                let mut delay = 0.0;
                let mut base_sum = 0.0;
                let mut extra_sum = 0.0;
                for _ in 0..segments {
                    let (base, extra) = self.segment_parts(time);
                    base_sum += base;
                    extra_sum += extra;
                    delay += base + extra;
                }
                self.femit_comp(time, packet.probe, CompKind::Hop, base_sum);
                self.femit_comp(time, packet.probe, CompKind::Jitter, extra_sum);
                self.push(time + delay, EventKind::ReplyArrives { packet });
            }
            EventKind::ReplyArrives { packet } => {
                let rtt = time - packet.injected_at;
                self.femit(time, packet.probe, TraceEv::Delivered { rtt });
                if let Some(token) = packet.probe {
                    let hit = rtt < LatencyModel::threshold();
                    self.recorder.observe(
                        if hit {
                            metrics::PROBE_RTT_HIT
                        } else {
                            metrics::PROBE_RTT_MISS
                        },
                        rtt,
                    );
                    self.probe_results[token as usize] = Some(ProbeObservation {
                        flow: packet.flow,
                        sent_at: packet.injected_at,
                        rtt,
                        hit,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Defense, DelayPadding};
    use flowspace::{FlowSet, Rule, RuleSet, Timeout};
    use obs::FlightDump;

    fn rules() -> RuleSet {
        // rule0 covers f0 (t=25 steps); rule1 covers f1,f2 (t=50). f3 is
        // uncovered.
        RuleSet::new(
            vec![
                Rule::from_flow_set(FlowSet::from_flows(4, [FlowId(0)]), 2, Timeout::idle(25)),
                Rule::from_flow_set(
                    FlowSet::from_flows(4, [FlowId(1), FlowId(2)]),
                    1,
                    Timeout::idle(50),
                ),
            ],
            4,
        )
        .unwrap()
    }

    fn sim(seed: u64) -> Simulation {
        Simulation::new(NetConfig::eval_topology(rules(), 2, 0.02), seed)
    }

    #[test]
    fn first_probe_misses_second_hits() {
        let mut s = sim(1);
        let p1 = s.probe(FlowId(0));
        assert!(!p1.hit, "first probe should miss: rtt {}", p1.rtt);
        assert!(p1.rtt > 1e-3);
        let p2 = s.probe(FlowId(0));
        assert!(p2.hit, "second probe should hit: rtt {}", p2.rtt);
        assert!(p2.rtt < 1e-3);
    }

    #[test]
    fn recorder_collects_rtt_histograms_without_perturbing() {
        let mut observed = sim(1);
        observed.attach_recorder(Recorder::enabled());
        let mut plain = sim(1);
        let (o1, p1) = (observed.probe(FlowId(0)), plain.probe(FlowId(0)));
        let (o2, p2) = (observed.probe(FlowId(0)), plain.probe(FlowId(0)));
        assert_eq!((o1, o2), (p1, p2), "recording must not change RTTs");
        let r = observed.take_recorder();
        let miss = r.histogram(metrics::PROBE_RTT_MISS).expect("miss hist");
        let hit = r.histogram(metrics::PROBE_RTT_HIT).expect("hit hist");
        assert_eq!(miss.count(), 1);
        assert_eq!(hit.count(), 1);
        assert_eq!(miss.min(), Some(o1.rtt));
        assert_eq!(hit.min(), Some(o2.rtt));
        assert!(observed.take_recorder().is_empty(), "harvest leaves none");
    }

    /// A config exercising every flight-recorder component kind: every
    /// fault at 30 %, periodic jitter bursts, injected install delay,
    /// and delay padding on fresh rules.
    fn stormy_config() -> NetConfig {
        let mut cfg = NetConfig::eval_topology(rules(), 2, 0.02);
        cfg.faults = crate::FaultPlan::uniform(0.3);
        cfg.faults.flow_mod_delay_secs = 5.0e-3;
        cfg.faults.jitter = Some(crate::JitterBursts {
            period_secs: 0.5,
            burst_secs: 0.25,
            extra: crate::Gaussian {
                mean: 0.5e-3,
                std: 0.1e-3,
            },
        });
        cfg.defense = Defense {
            delay_first: Some(DelayPadding {
                packets: 2,
                pad_secs: 4.0e-3,
            }),
            ..Defense::default()
        };
        cfg
    }

    #[test]
    fn flight_recorder_does_not_perturb_observations() {
        let mut traced = Simulation::new(stormy_config(), 21);
        traced.attach_flight(FlightRecorder::enabled(), obs::trace::probe_ctx(0, 0, 0));
        let mut plain = Simulation::new(stormy_config(), 21);
        for _ in 0..3 {
            for f in [FlowId(0), FlowId(1), FlowId(0), FlowId(2), FlowId(3)] {
                assert_eq!(
                    traced.probe_with_timeout(f, 0.05),
                    plain.probe_with_timeout(f, 0.05),
                    "tracing must not change observations"
                );
            }
        }
        assert_eq!(traced.fault_stats(), plain.fault_stats());
        assert!(!traced.take_flight().is_empty());
    }

    #[test]
    fn dumped_flight_reconciles_every_delivered_probe() {
        let ctx = obs::trace::probe_ctx(3, 7, 1);
        let mut s = Simulation::new(stormy_config(), 22);
        s.attach_flight(FlightRecorder::enabled(), ctx);
        for _ in 0..10 {
            for f in [FlowId(0), FlowId(1), FlowId(0), FlowId(2), FlowId(3)] {
                let _ = s.probe_with_timeout(f, 0.05);
            }
        }
        let dump = FlightDump::parse(&s.take_flight().dump_string("sim")).unwrap();
        let delivered = dump.delivered();
        assert!(!delivered.is_empty(), "some probes must deliver");
        for (probe, b) in delivered {
            assert_eq!(probe.ctx, ctx);
            let residual = b.residual().expect("delivered probe has an rtt");
            assert!(
                residual.abs() < 1e-9,
                "probe {probe:?}: rtt {:?} vs components {:?} (residual {residual:e})",
                b.rtt,
                b.components(),
            );
        }
    }

    #[test]
    fn fault_stats_merge_and_record() {
        let a = FaultStats {
            packets_dropped: 1,
            probe_timeouts: 2,
            ..FaultStats::default()
        };
        let b = FaultStats {
            packets_dropped: 3,
            flow_mods_lost: 4,
            ..FaultStats::default()
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.packets_dropped, 4);
        assert_eq!(m.probe_timeouts, 2);
        assert_eq!(m.flow_mods_lost, 4);
        let mut r = Recorder::enabled();
        m.record_into(&mut r);
        assert_eq!(r.counter(metrics::FAULT_PACKETS_DROPPED), 4);
        assert_eq!(r.counter(metrics::FAULT_FLOW_MODS_LOST), 4);
        assert_eq!(r.counter(metrics::FAULT_FLOW_MODS_DELAYED), 0);
    }

    #[test]
    fn overlapping_rule_covers_sibling_flow() {
        let mut s = sim(2);
        // f1 installs rule1, which also covers f2.
        s.schedule_flow(FlowId(1), 0.1);
        s.run_until(0.2);
        let p = s.probe(FlowId(2));
        assert!(p.hit, "rule1 covers f2: rtt {}", p.rtt);
    }

    #[test]
    fn idle_timeout_expires_rule() {
        let mut s = sim(3);
        s.schedule_flow(FlowId(0), 0.0);
        s.run_until(0.1);
        // TTL = 25 steps × 0.02 s = 0.5 s; probe at 0.7 s should miss.
        let p = s.probe_at(FlowId(0), 0.7);
        assert!(!p.hit, "rule should have expired: rtt {}", p.rtt);
    }

    #[test]
    fn genuine_reply_is_jumped_not_scheduled() {
        let mut s = sim(4);
        s.schedule_flow(FlowId(1), 0.05);
        s.run_until(0.2);
        // The miss installed rule1, the packet reached the server, and
        // its reply left nothing queued. The latency stream still stands
        // where drawing every segment would leave it: one setup sample
        // and `path.len() + 1` segments each way, each a Box–Muller
        // sample of four words.
        assert_eq!(s.ingress_stats().installs, 1);
        assert_eq!(s.queue.peek_time(), None);
        let samples = 1 + 2 * (s.path.len() as u128 + 1);
        assert_eq!(s.rng.get_word_pos(), samples * 4);
    }

    #[test]
    fn uncovered_flow_always_slow_and_installs_nothing() {
        let mut s = sim(5);
        let p1 = s.probe(FlowId(3));
        let p2 = s.probe(FlowId(3));
        assert!(!p1.hit && !p2.hit);
        assert!(s.cached_rules().is_empty());
        assert_eq!(s.ingress_stats().uncovered, 2);
    }

    #[test]
    fn flow_outside_the_universe_is_uncovered() {
        let rules = RuleSet::new(
            vec![Rule::from_flow_set(
                FlowSet::from_flows(16, [FlowId(3)]),
                10,
                Timeout::idle(25),
            )],
            16,
        )
        .unwrap();
        let mut s = Simulation::new(NetConfig::eval_topology(rules, 6, 0.02), 8);
        s.schedule_flow(FlowId(99), 0.0);
        let p = s.probe(FlowId(99));
        assert!(!p.hit, "an uncovered probe detours via the controller");
        assert_eq!(s.ingress_stats().uncovered, 2);
        assert!(s.cached_rules().is_empty());
        // The same holds with a rule cached.
        let _ = s.probe(FlowId(3));
        assert!(!s.probe(FlowId(99)).hit);
        assert_eq!(s.ingress_stats().uncovered, 3);
        assert_eq!(s.cached_rules(), vec![RuleId(0)]);
    }

    #[test]
    fn eviction_in_live_network() {
        // Capacity 1: installing a second rule evicts the first.
        let mut s = Simulation::new(NetConfig::eval_topology(rules(), 1, 0.02), 6);
        let _ = s.probe(FlowId(0)); // install rule0
        let _ = s.probe(FlowId(1)); // install rule1, evicting rule0
        assert_eq!(s.cached_rules(), vec![RuleId(1)]);
        let p = s.probe(FlowId(0));
        assert!(!p.hit, "rule0 was evicted");
        assert!(s.ingress_stats().evictions >= 1);
    }

    #[test]
    fn pending_packets_share_one_install() {
        let mut s = sim(7);
        // Two genuine packets of the same flow in quick succession: the
        // second arrives while the first's query is in flight.
        s.schedule_flow(FlowId(0), 0.0);
        s.schedule_flow(FlowId(0), 0.0005);
        s.run_until(0.1);
        let st = s.ingress_stats();
        assert_eq!(st.misses, 2);
        assert_eq!(st.installs, 1);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = sim(42);
        let mut b = sim(42);
        for f in [FlowId(0), FlowId(1), FlowId(0)] {
            assert_eq!(a.probe(f).rtt, b.probe(f).rtt);
        }
        let mut c = sim(43);
        assert_ne!(a.probe(FlowId(2)).rtt, c.probe(FlowId(2)).rtt);
    }

    #[test]
    fn proactive_defense_blinds_probes() {
        let mut cfg = NetConfig::eval_topology(rules(), 2, 0.02);
        cfg.defense = Defense {
            proactive: true,
            ..Defense::default()
        };
        let mut s = Simulation::new(cfg, 8);
        // Every probe hits, regardless of history.
        assert!(s.probe(FlowId(0)).hit);
        assert!(s.probe(FlowId(2)).hit);
        assert!(s.probe(FlowId(3)).hit);
    }

    #[test]
    fn delay_padding_masks_fresh_rules() {
        let mut cfg = NetConfig::eval_topology(rules(), 2, 0.02);
        cfg.defense = Defense {
            delay_first: Some(DelayPadding {
                packets: 3,
                pad_secs: 4.0e-3,
            }),
            ..Defense::default()
        };
        let mut s = Simulation::new(cfg, 9);
        let _ = s.probe(FlowId(0)); // miss (slow anyway)
                                    // The next probes hit but are padded above the threshold: the
                                    // attacker cannot distinguish them from misses.
        let p2 = s.probe(FlowId(0));
        assert!(!p2.hit, "padded hit should look slow: rtt {}", p2.rtt);
    }

    #[test]
    fn run_until_advances_clock_monotonically() {
        let mut s = sim(10);
        s.run_until(1.0);
        assert_eq!(s.now(), 1.0);
        s.run_until(0.5); // no-op, clock does not go backward
        assert_eq!(s.now(), 1.0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut s = sim(11);
        s.run_until(1.0);
        s.schedule_flow(FlowId(0), 0.5);
    }

    #[test]
    fn flight_records_miss_install_hit_sequence() {
        let cfg = NetConfig::eval_topology(rules(), 2, 0.02);
        let mut s = Simulation::new(&cfg, 20);
        s.attach_flight(FlightRecorder::enabled(), obs::trace::probe_ctx(0, 0, 0));
        let _ = s.probe(FlowId(0)); // miss + install
        let _ = s.probe(FlowId(0)); // hit
        let flight = s.take_flight();
        // Events at the *ingress* switch tell the side-channel story:
        // miss + install on probe 0, hit on probe 1. Transit switches
        // contribute their own (proactive) hits.
        let ingress = cfg.ingress.0 as u64;
        let at_ingress: Vec<(Option<u64>, &str)> = flight
            .records()
            .filter_map(|(_, r)| match r.ev {
                TraceEv::Miss { node, .. } if node == ingress => Some((r.probe, "miss")),
                TraceEv::Install { node, .. } if node == ingress => Some((r.probe, "install")),
                TraceEv::Hit { node, .. } if node == ingress => Some((r.probe, "hit")),
                _ => None,
            })
            .collect();
        assert_eq!(
            at_ingress,
            vec![(Some(0), "miss"), (Some(0), "install"), (Some(1), "hit")]
        );
        let dump = FlightDump::parse(&flight.dump_string("sim")).unwrap();
        assert_eq!(dump.delivered().len(), 2);
        // Timestamps are monotone.
        let times: Vec<f64> = flight.records().map(|(_, r)| r.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn single_switch_topology_works() {
        let mut s = Simulation::new(NetConfig::single_switch(rules(), 2, 0.02), 12);
        let p1 = s.probe(FlowId(0));
        let p2 = s.probe(FlowId(0));
        assert!(!p1.hit && p2.hit);
        // Two segments each way: RTT still well under the threshold.
        assert!(p2.rtt < 1e-3, "single-switch warm rtt {}", p2.rtt);
    }

    #[test]
    fn transit_switches_proactive_by_default() {
        let cfg = NetConfig::eval_topology(rules(), 2, 0.02);
        let mut s = Simulation::new(&cfg, 13);
        s.schedule_flow(FlowId(1), 0.0);
        s.run_until(0.2);
        // Only the ingress switch saw reactive work.
        let path = cfg.topology.path(cfg.ingress, cfg.server).unwrap();
        for &node in &path[1..] {
            assert_eq!(s.stats_of(node).misses, 0, "transit {node} missed");
            assert!(s.cached_rules_at(node).is_empty());
        }
        assert_eq!(s.ingress_stats().misses, 1);
    }

    #[test]
    fn reactive_transit_switches_install_their_own_rules() {
        // The 16-switch evaluation topology (a 3-switch path) and a k = 4
        // fat tree (20 switches, a 5-switch path through the core).
        for (mut cfg, path_len) in [
            (NetConfig::eval_topology(rules(), 2, 0.02), 3),
            (NetConfig::fat_tree(rules(), 4, 2, 0.02), 5),
        ] {
            cfg.transit_reactive = true;
            let mut s = Simulation::new(&cfg, 14);
            s.schedule_flow(FlowId(1), 0.0);
            s.run_until(0.5);
            let path = cfg.topology.path(cfg.ingress, cfg.server).unwrap();
            assert_eq!(path.len(), path_len);
            for i in 0..cfg.topology.len() {
                let node = NodeId(i);
                if path.contains(&node) {
                    assert_eq!(s.stats_of(node).misses, 1, "{node}");
                    assert_eq!(s.cached_rules_at(node), vec![RuleId(1)], "{node}");
                } else {
                    // Off the path: no packet ever reaches the switch.
                    assert_eq!(s.stats_of(node), SwitchStats::default(), "{node}");
                    assert!(s.cached_rules_at(node).is_empty(), "{node}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stats_of_out_of_range_node_panics() {
        let _ = sim(16).stats_of(NodeId(16));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cached_rules_at_out_of_range_node_panics() {
        let _ = sim(17).cached_rules_at(NodeId(16));
    }

    #[test]
    fn reactive_transit_slows_cold_flows_more() {
        // With every switch missing, the cold RTT pays one setup per hop.
        let mut cfg = NetConfig::eval_topology(rules(), 2, 0.02);
        cfg.transit_reactive = true;
        let mut multi = Simulation::new(cfg, 15);
        let cold_multi = multi.probe(FlowId(0)).rtt;
        let mut single = sim(15);
        let cold_single = single.probe(FlowId(0)).rtt;
        // 3 setups (3 switches on the path) vs 1: strictly slower on
        // average; with the 1.3 ms setup floor this holds per-sample.
        assert!(
            cold_multi > cold_single,
            "multi {cold_multi} should exceed single {cold_single}"
        );
        // Warm probes are fast in both.
        assert!(multi.probe(FlowId(0)).hit);
        assert!(single.probe(FlowId(0)).hit);
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_to_no_plan() {
        // Wiring a (no-op) FaultPlan through the simulator must not
        // perturb the latency RNG stream: same seed, same RTTs.
        let mut plain = sim(99);
        let mut cfg = NetConfig::eval_topology(rules(), 2, 0.02);
        cfg.faults = crate::FaultPlan::none();
        let mut with_plan = Simulation::new(cfg, 99);
        for f in [FlowId(0), FlowId(1), FlowId(0), FlowId(2)] {
            assert_eq!(plain.probe(f).rtt, with_plan.probe(f).rtt);
        }
        assert_eq!(with_plan.fault_stats(), FaultStats::default());
    }

    #[test]
    fn probe_timeout_returns_none_and_advances_clock() {
        // Certain loss: the probe never comes back.
        let mut cfg = NetConfig::eval_topology(rules(), 2, 0.02);
        cfg.faults.packet_loss = 1.0;
        let mut s = Simulation::new(cfg, 30);
        s.attach_flight(FlightRecorder::enabled(), obs::trace::probe_ctx(0, 0, 0));
        let res = s.probe_with_timeout(FlowId(0), 0.05);
        assert_eq!(res, None);
        assert_eq!(s.now(), 0.05, "clock advances to the deadline");
        assert_eq!(s.fault_stats().probe_timeouts, 1);
        assert!(s.fault_stats().packets_dropped >= 1);
        assert!(s.take_flight().records().any(|(_, r)| matches!(
            r.ev,
            TraceEv::Fault {
                kind: "probe_timeouts",
                ..
            }
        )));
    }

    #[test]
    fn probe_with_infinite_timeout_matches_probe() {
        let mut a = sim(31);
        let mut b = sim(31);
        let pa = a.probe(FlowId(0));
        let pb = b.probe_with_timeout(FlowId(0), f64::INFINITY).unwrap();
        assert_eq!(pa.rtt, pb.rtt);
        assert_eq!(pa.hit, pb.hit);
    }

    #[test]
    fn lost_packet_in_leaves_next_miss_fresh() {
        let mut cfg = NetConfig::eval_topology(rules(), 2, 0.02);
        cfg.faults.packet_in_loss = 1.0;
        let mut s = Simulation::new(cfg, 32);
        assert_eq!(s.probe_with_timeout(FlowId(0), 0.05), None);
        assert_eq!(s.fault_stats().packet_ins_lost, 1);
        assert!(s.cached_rules().is_empty(), "no rule installed");
        // The in-flight marker was cleared: a later probe queries afresh
        // (and is lost afresh — every packet-in is lost here).
        assert_eq!(s.probe_with_timeout(FlowId(0), 0.05), None);
        assert_eq!(s.fault_stats().packet_ins_lost, 2);
    }

    #[test]
    fn lost_flow_mod_drops_buffered_packets() {
        let mut cfg = NetConfig::eval_topology(rules(), 2, 0.02);
        cfg.faults.flow_mod_loss = 1.0;
        let mut s = Simulation::new(cfg, 33);
        assert_eq!(s.probe_with_timeout(FlowId(0), 0.1), None);
        assert_eq!(s.fault_stats().flow_mods_lost, 1);
        assert!(s.cached_rules().is_empty());
    }

    #[test]
    fn delayed_flow_mod_slows_the_miss() {
        let mut cfg = NetConfig::eval_topology(rules(), 2, 0.02);
        cfg.faults.flow_mod_delay = 1.0;
        cfg.faults.flow_mod_delay_secs = 50.0e-3;
        let mut s = Simulation::new(cfg, 34);
        let p = s.probe(FlowId(0));
        assert!(!p.hit);
        assert!(p.rtt > 50.0e-3, "rtt {} should include the delay", p.rtt);
        assert_eq!(s.fault_stats().flow_mods_delayed, 1);
        // The rule still installs: the follow-up probe hits fast.
        assert!(s.probe(FlowId(0)).hit);
    }

    #[test]
    fn table_full_rejection_blocks_caching_but_forwards() {
        // Capacity 1 and certain rejection: the second rule can never be
        // cached, but its packets still get through (slow misses).
        let mut cfg = NetConfig::eval_topology(rules(), 1, 0.02);
        cfg.faults.table_full_reject = 1.0;
        let mut s = Simulation::new(cfg, 35);
        let p0 = s.probe(FlowId(0)); // table empty: installs normally
        assert!(!p0.hit);
        assert_eq!(s.cached_rules(), vec![RuleId(0)]);
        let p1 = s.probe(FlowId(1)); // table full: rejected, no eviction
        assert!(!p1.hit, "rejected install still answers as a miss");
        assert_eq!(s.fault_stats().flow_mods_rejected, 1);
        assert_eq!(s.cached_rules(), vec![RuleId(0)], "no eviction happened");
        let p1b = s.probe(FlowId(1)); // still not cached: misses again
        assert!(!p1b.hit);
        assert_eq!(s.ingress_stats().evictions, 0);
    }

    #[test]
    fn jitter_bursts_inflate_rtts() {
        // A permanently-active burst regime (quiet time ~0 → the first
        // toggle happens immediately... here we use a long burst starting
        // early) must add delay to every segment.
        let mut cfg = NetConfig::eval_topology(rules(), 2, 0.02);
        cfg.faults.jitter = Some(crate::JitterBursts {
            period_secs: 1e-9,
            burst_secs: 1e9,
            extra: crate::Gaussian {
                mean: 2.0e-3,
                std: 0.0,
            },
        });
        let mut noisy = Simulation::new(cfg, 36);
        let mut clean = sim(36);
        let _ = clean.probe(FlowId(0));
        let _ = noisy.probe(FlowId(0));
        // Warm probes: the clean run hits fast, the noisy run pays ~2 ms
        // per segment and is pushed over the 1 ms threshold.
        let pc = clean.probe(FlowId(0));
        let pn = noisy.probe(FlowId(0));
        assert!(pc.hit);
        assert!(!pn.hit, "jitter should blow the hit budget: {}", pn.rtt);
        assert!(pn.rtt > pc.rtt);
    }

    #[test]
    fn faulty_runs_are_deterministic_under_seed() {
        let mut cfg = NetConfig::eval_topology(rules(), 2, 0.02);
        cfg.faults = crate::FaultPlan::uniform(0.3);
        let mut a = Simulation::new(&cfg, 77);
        let mut b = Simulation::new(&cfg, 77);
        for f in [FlowId(0), FlowId(1), FlowId(0), FlowId(2), FlowId(3)] {
            assert_eq!(a.probe_with_timeout(f, 0.05), b.probe_with_timeout(f, 0.05));
        }
        assert_eq!(a.fault_stats(), b.fault_stats());
    }

    #[test]
    fn try_new_rejects_malformed_configs() {
        let mut cfg = NetConfig::eval_topology(rules(), 2, 0.02);
        cfg.faults.packet_loss = 7.0;
        assert!(matches!(
            Simulation::try_new(cfg, 1),
            Err(crate::ConfigError::FaultProbabilityOutOfRange { .. })
        ));
        let ok = Simulation::try_new(NetConfig::eval_topology(rules(), 2, 0.02), 1);
        assert!(ok.is_ok());
    }

    #[test]
    fn longer_paths_have_larger_rtts_on_average() {
        // Hop-by-hop latency now scales with the topology.
        let mk = |topo: crate::Topology, ingress: usize, server: usize, seed: u64| {
            let mut cfg = NetConfig::eval_topology(rules(), 2, 0.02);
            cfg.ingress = NodeId(ingress);
            cfg.server = NodeId(server);
            cfg.topology = topo;
            Simulation::new(cfg, seed)
        };
        let mut short_sum = 0.0;
        let mut long_sum = 0.0;
        for seed in 0..40 {
            let mut short = mk(crate::Topology::linear(2), 0, 1, seed);
            let _ = short.probe(FlowId(0)); // warm
            short_sum += short.probe(FlowId(0)).rtt;
            let mut long = mk(crate::Topology::linear(8), 0, 7, seed);
            let _ = long.probe(FlowId(0));
            long_sum += long.probe(FlowId(0)).rtt;
        }
        assert!(
            long_sum > short_sum * 1.5,
            "8-switch path ({long_sum}) should be well above 2-switch ({short_sum})"
        );
    }
}
