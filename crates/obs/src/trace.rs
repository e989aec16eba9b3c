//! The flight recorder: bounded, deterministic, causal event traces.
//!
//! Metrics (the [`Recorder`](crate::Recorder)) answer *how much*; the
//! flight recorder answers *why this probe was slow*. Every probe a
//! simulation injects gets a [`ProbeId`], and every event on its causal
//! chain — link hops, table misses, packet-ins, flow-mod installs,
//! injected faults, attack-side retries and verdicts — is stamped with
//! it, in **sim time**. The result is a per-probe causal chain that can
//! be dumped, on a crash too ([`FlightRecorder::dump_jsonl`]), and read
//! back ([`FlightDump::parse`]) to count events by kind and decompose
//! each delivered probe's RTT ([`FlightDump::delivered`]), or rendered on
//! a Perfetto timeline ([`FlightRecorder::to_chrome_trace`], checked by
//! [`validate_chrome_trace`]).
//!
//! # Determinism under parallel merge
//!
//! A naive bounded ring ("drop the oldest by arrival") makes the
//! retained set depend on the merge schedule. Instead every record is
//! keyed by `(ctx, seq)` — `ctx` identifies the emitting simulation
//! (packed unit/trial/attacker, see [`probe_ctx`]) and `seq` is the
//! emission index within that simulation — and the recorder keeps the
//! **largest `capacity` keys**. "Keep the top-C elements of a set" is
//! associative and commutative, so the merged contents are a pure
//! function of the recorded event set: identical across thread counts
//! and merge orders (pinned by `experiments/tests/trace_determinism.rs`).
//! `dropped` is `total_recorded - retained`, equally schedule-free.
//!
//! Like the metrics recorder, a disabled flight recorder is
//! pointer-sized and every operation is one branch — recording stays
//! resident in the hot paths at zero cost, and never feeds back into
//! any computation (CSVs are byte-identical with tracing on or off).

use crate::manifest::{fmt_f64, json_escape};
use crate::read::{at, field, parse, ReadError};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Default retained-event capacity of an enabled recorder.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Current flight-recorder dump format version.
pub const FLIGHTREC_VERSION: u64 = 1;

/// Context id used by the jobs supervisor's own bracket events
/// (unit start/panic/watchdog/interrupt). `u64::MAX` sorts after every
/// simulation context, so supervision events are always retained and a
/// crash dump's final lines identify the failing unit.
pub const SUPERVISOR_CTX: u64 = u64::MAX;

/// Packs `(unit, trial, attacker)` into the 64-bit context id a
/// simulation's events are keyed under: `unit << 40 | trial << 8 |
/// attacker`. 24 bits of unit, 32 of trial and 8 of attacker index are
/// far beyond any experiment in the workspace.
#[must_use]
pub fn probe_ctx(unit: usize, trial: usize, attacker: usize) -> u64 {
    ((unit as u64) << 40) | (((trial as u64) & 0xFFFF_FFFF) << 8) | ((attacker as u64) & 0xFF)
}

/// Identity of one probe: the emitting simulation's context and the
/// probe token that simulation allocated (its `probe_results` index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProbeId {
    /// Emitting-simulation context (see [`probe_ctx`]).
    pub ctx: u64,
    /// Probe token within that simulation.
    pub token: u64,
}

impl ProbeId {
    /// The unit index packed into the context.
    #[must_use]
    pub fn unit(self) -> u64 {
        self.ctx >> 40
    }

    /// The trial index packed into the context.
    #[must_use]
    pub fn trial(self) -> u64 {
        (self.ctx >> 8) & 0xFFFF_FFFF
    }

    /// The attacker index packed into the context.
    #[must_use]
    pub fn attacker(self) -> u64 {
        self.ctx & 0xFF
    }
}

/// The RTT component a [`TraceEv::Component`] sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CompKind {
    /// Base per-segment link latency.
    Hop,
    /// Jitter-burst extra on a link segment.
    Jitter,
    /// Controller service time (rule setup / uncovered detour).
    Controller,
    /// Injected flow-mod delivery delay.
    Install,
    /// Time parked at a switch waiting on a packet-in another packet of
    /// the same rule already initiated.
    PacketIn,
    /// Defense delay padding added on the hit path.
    Pad,
}

impl CompKind {
    /// Stable lowercase label, used in dumps and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CompKind::Hop => "hop",
            CompKind::Jitter => "jitter",
            CompKind::Controller => "controller",
            CompKind::Install => "install",
            CompKind::PacketIn => "packet_in",
            CompKind::Pad => "pad",
        }
    }
}

/// One structured flight-recorder event. Fields are raw ids (`u64`) so
/// `obs` stays independent of netsim's types; the emitting layer maps
/// its `NodeId`/`RuleId`/`FlowId` down.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEv {
    /// A probe entered the network.
    Inject {
        /// Flow id probed.
        flow: u64,
    },
    /// Flow-table hit at a switch.
    Hit {
        /// Switch node id.
        node: u64,
        /// Matching rule id.
        rule: u64,
    },
    /// Flow-table miss at a switch.
    Miss {
        /// Switch node id.
        node: u64,
        /// Missing rule id.
        rule: u64,
        /// Whether this miss initiates the packet-in (false: the packet
        /// parks behind an in-flight one).
        fresh: bool,
    },
    /// A packet-in left for the controller.
    PacketIn {
        /// Switch node id.
        node: u64,
        /// Rule id requested.
        rule: u64,
    },
    /// The controller's flow-mod installed a rule.
    Install {
        /// Switch node id.
        node: u64,
        /// Installed rule id.
        rule: u64,
        /// Rule evicted to make room, if any.
        evicted: Option<u64>,
    },
    /// No rule covers the flow; the packet detoured via the controller.
    Uncovered {
        /// Switch node id.
        node: u64,
    },
    /// The probe's reply reached the attacker.
    Delivered {
        /// Round-trip time in sim seconds.
        rtt: f64,
    },
    /// An injected fault on the probe's chain, by fault-counter label
    /// (`packets_dropped`, `packet_ins_lost`, `flow_mods_lost`,
    /// `flow_mods_delayed`, `flow_mods_rejected`, `probe_timeouts`).
    Fault {
        /// The fault's canonical label.
        kind: &'static str,
        /// Switch node id when the fault is localized.
        node: Option<u64>,
    },
    /// An additive RTT component sample (see [`CompKind`]); the sum of
    /// a probe's components reconciles to its delivered RTT.
    Component {
        /// Which component.
        kind: CompKind,
        /// Seconds contributed.
        secs: f64,
    },
    /// Robust loop: a retry was issued.
    Retry {
        /// 0-based attempt that failed.
        attempt: u64,
        /// Backoff wait before the next attempt, in sim seconds.
        backoff: f64,
    },
    /// Robust loop: a sample was discarded as a MAD outlier.
    Outlier {
        /// The discarded RTT.
        rtt: f64,
    },
    /// Robust loop: an accepted sample was classified.
    Classified {
        /// The accepted RTT.
        rtt: f64,
        /// Whether it classified as a flow-table hit.
        hit: bool,
    },
    /// A question's final verdict (`present` / `absent` /
    /// `inconclusive`), stamped with the attacker kind.
    Verdict {
        /// Verdict label.
        verdict: &'static str,
        /// Attacker kind label.
        attacker: &'static str,
    },
    /// A named span (e.g. planner phases), in seconds.
    Span {
        /// Span name (a metric-style dotted label).
        name: &'static str,
        /// Duration in seconds.
        secs: f64,
    },
    /// Supervisor bracket: a unit attempt started.
    UnitStart {
        /// Unit index.
        unit: u64,
        /// 0-based attempt.
        attempt: u64,
    },
    /// Supervisor bracket: a unit attempt completed.
    UnitOk {
        /// Unit index.
        unit: u64,
        /// 0-based attempt.
        attempt: u64,
    },
    /// Supervisor bracket: a unit attempt panicked.
    UnitPanic {
        /// Unit index.
        unit: u64,
        /// 0-based attempt.
        attempt: u64,
    },
    /// Supervisor bracket: the watchdog abandoned a unit attempt.
    WatchdogFire {
        /// Unit index.
        unit: u64,
        /// 0-based attempt.
        attempt: u64,
        /// The exceeded deadline in milliseconds.
        limit_ms: u64,
    },
    /// Supervisor bracket: the job was interrupted before this unit.
    Interrupted {
        /// First unit not run.
        unit: u64,
    },
}

impl TraceEv {
    /// Stable event-kind label, used in dumps, summaries and the
    /// Perfetto export.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEv::Inject { .. } => "inject",
            TraceEv::Hit { .. } => "hit",
            TraceEv::Miss { .. } => "miss",
            TraceEv::PacketIn { .. } => "packet_in",
            TraceEv::Install { .. } => "install",
            TraceEv::Uncovered { .. } => "uncovered",
            TraceEv::Delivered { .. } => "delivered",
            TraceEv::Fault { .. } => "fault",
            TraceEv::Component { .. } => "component",
            TraceEv::Retry { .. } => "retry",
            TraceEv::Outlier { .. } => "outlier",
            TraceEv::Classified { .. } => "classified",
            TraceEv::Verdict { .. } => "verdict",
            TraceEv::Span { .. } => "span",
            TraceEv::UnitStart { .. } => "unit_start",
            TraceEv::UnitOk { .. } => "unit_ok",
            TraceEv::UnitPanic { .. } => "unit_panic",
            TraceEv::WatchdogFire { .. } => "watchdog_fire",
            TraceEv::Interrupted { .. } => "interrupted",
        }
    }

    /// The event's extra fields as JSON object members (no braces),
    /// empty for field-less payloads.
    fn args_json(&self) -> String {
        let opt = |v: &Option<u64>| v.map_or_else(|| "null".to_string(), |n| n.to_string());
        match self {
            TraceEv::Inject { flow } => format!("\"flow\":{flow}"),
            TraceEv::Hit { node, rule } => format!("\"node\":{node},\"rule\":{rule}"),
            TraceEv::Miss { node, rule, fresh } => {
                format!("\"node\":{node},\"rule\":{rule},\"fresh\":{fresh}")
            }
            TraceEv::PacketIn { node, rule } => format!("\"node\":{node},\"rule\":{rule}"),
            TraceEv::Install {
                node,
                rule,
                evicted,
            } => format!(
                "\"node\":{node},\"rule\":{rule},\"evicted\":{}",
                opt(evicted)
            ),
            TraceEv::Uncovered { node } => format!("\"node\":{node}"),
            TraceEv::Delivered { rtt } => format!("\"rtt\":{}", fmt_f64(*rtt)),
            TraceEv::Fault { kind, node } => {
                format!("\"fault\":\"{}\",\"node\":{}", json_escape(kind), opt(node))
            }
            TraceEv::Component { kind, secs } => {
                format!("\"comp\":\"{}\",\"secs\":{}", kind.name(), fmt_f64(*secs))
            }
            TraceEv::Retry { attempt, backoff } => {
                format!("\"attempt\":{attempt},\"backoff\":{}", fmt_f64(*backoff))
            }
            TraceEv::Outlier { rtt } => format!("\"rtt\":{}", fmt_f64(*rtt)),
            TraceEv::Classified { rtt, hit } => {
                format!("\"rtt\":{},\"hit\":{hit}", fmt_f64(*rtt))
            }
            TraceEv::Verdict { verdict, attacker } => format!(
                "\"verdict\":\"{}\",\"attacker\":\"{}\"",
                json_escape(verdict),
                json_escape(attacker)
            ),
            TraceEv::Span { name, secs } => {
                format!(
                    "\"span\":\"{}\",\"secs\":{}",
                    json_escape(name),
                    fmt_f64(*secs)
                )
            }
            TraceEv::UnitStart { unit, attempt } | TraceEv::UnitOk { unit, attempt } => {
                format!("\"unit\":{unit},\"attempt\":{attempt}")
            }
            TraceEv::UnitPanic { unit, attempt } => {
                format!("\"unit\":{unit},\"attempt\":{attempt}")
            }
            TraceEv::WatchdogFire {
                unit,
                attempt,
                limit_ms,
            } => format!("\"unit\":{unit},\"attempt\":{attempt},\"limit_ms\":{limit_ms}"),
            TraceEv::Interrupted { unit } => format!("\"unit\":{unit}"),
        }
    }
}

/// One retained flight-recorder record.
#[derive(Debug, Clone, PartialEq)]
struct TraceRecord {
    /// Sim time of the event, seconds.
    time: f64,
    /// Probe token within the emitting context, when attributable.
    probe: Option<u64>,
    /// The structured event.
    ev: TraceEv,
}

/// Per-probe RTT decomposition: additive components in sim seconds,
/// reconciled against the recorded RTT by [`Breakdown::residual`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// The recorded round-trip time, if the probe was delivered.
    pub rtt: Option<f64>,
    /// Base link-hop latency.
    pub hop: f64,
    /// Jitter-burst extras.
    pub jitter: f64,
    /// Controller service time.
    pub controller: f64,
    /// Injected flow-mod delays.
    pub install: f64,
    /// Time parked behind another packet's packet-in.
    pub packet_in: f64,
    /// Defense delay padding.
    pub pad: f64,
    /// Events attributed to the probe (any kind).
    pub events: usize,
}

impl Breakdown {
    /// Sum of all components, added in [`Breakdown::components`] order.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.components().iter().map(|&(_, secs)| secs).sum()
    }

    /// `rtt - total()`, or `None` for undelivered probes. Within 1e-9
    /// of zero for every delivered probe (float-summation slack only).
    #[must_use]
    pub fn residual(&self) -> Option<f64> {
        self.rtt.map(|r| r - self.total())
    }

    /// Adds `secs` to the component a dump labels `comp`
    /// ([`CompKind::name`]); an unknown label adds nothing.
    fn add(&mut self, comp: &str, secs: f64) {
        let slot = match comp {
            "hop" => &mut self.hop,
            "jitter" => &mut self.jitter,
            "controller" => &mut self.controller,
            "install" => &mut self.install,
            "packet_in" => &mut self.packet_in,
            "pad" => &mut self.pad,
            _ => return,
        };
        *slot += secs;
    }

    /// Component `(label, seconds)` pairs in label order, the order
    /// reports list them in.
    #[must_use]
    pub fn components(&self) -> [(&'static str, f64); 6] {
        [
            ("controller", self.controller),
            ("hop", self.hop),
            ("install", self.install),
            ("jitter", self.jitter),
            ("packet_in", self.packet_in),
            ("pad", self.pad),
        ]
    }
}

/// The store behind an enabled flight recorder.
#[derive(Debug, Clone, Default, PartialEq)]
struct Inner {
    /// Retained records, keyed `(ctx, seq)`; only the largest
    /// `capacity` keys are kept.
    events: BTreeMap<(u64, u64), TraceRecord>,
    /// Retention bound.
    capacity: usize,
    /// Context stamped on subsequent [`FlightRecorder::log`] calls.
    ctx: u64,
    /// Next emission index within `ctx`.
    seq: u64,
    /// Records recorded but no longer retained.
    dropped: u64,
}

/// A bounded causal-event recorder. Disabled: pointer-sized, one branch
/// per call. Enabled: fork per worker, merge back — merged contents are
/// independent of schedule and merge order (see module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightRecorder {
    inner: Option<Box<Inner>>,
}

impl FlightRecorder {
    /// A no-op recorder.
    #[must_use]
    pub fn disabled() -> Self {
        FlightRecorder { inner: None }
    }

    /// An empty, collecting recorder with [`DEFAULT_CAPACITY`].
    #[must_use]
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty, collecting recorder retaining at most `capacity`
    /// records (minimum 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            inner: Some(Box::new(Inner {
                capacity: capacity.max(1),
                ..Inner::default()
            })),
        }
    }

    /// Whether this recorder collects anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The retention bound (0 when disabled).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.as_deref().map_or(0, |i| i.capacity)
    }

    /// An empty recorder with the same enabled-ness and capacity — what
    /// each worker (or each simulation) records into before the merge.
    #[must_use]
    pub fn fork(&self) -> Self {
        match self.inner.as_deref() {
            Some(i) => Self::with_capacity(i.capacity),
            None => Self::disabled(),
        }
    }

    /// Sets the context stamped on subsequent [`log`](Self::log) calls
    /// and resets its emission counter. Each context must be driven by
    /// exactly one recorder between forks (the trial engine guarantees
    /// this: one simulation per `(unit, trial, attacker)`).
    pub fn begin(&mut self, ctx: u64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.ctx = ctx;
            inner.seq = 0;
        }
    }

    /// The context last set by [`begin`](Self::begin).
    #[must_use]
    pub fn ctx(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.ctx)
    }

    /// Records one event at sim time `time`, attributed to `probe`
    /// (a token within the current context) when given.
    pub fn log(&mut self, time: f64, probe: Option<u64>, ev: TraceEv) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let key = (inner.ctx, inner.seq);
        inner.seq += 1;
        inner.events.insert(key, TraceRecord { time, probe, ev });
        while inner.events.len() > inner.capacity {
            inner.events.pop_first();
            inner.dropped += 1;
        }
    }

    /// Folds another recorder's records in. Keys never collide across
    /// distinct contexts; retention keeps the largest `capacity` keys,
    /// so the result is independent of merge order.
    pub fn merge(&mut self, other: FlightRecorder) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let Some(theirs) = other.inner else {
            return;
        };
        inner.dropped += theirs.dropped;
        inner.events.extend(theirs.events);
        while inner.events.len() > inner.capacity {
            inner.events.pop_first();
            inner.dropped += 1;
        }
    }

    /// Retained record count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.as_deref().map_or(0, |i| i.events.len())
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records recorded but evicted by the retention bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.dropped)
    }

    /// One JSON line per record (no header), `(ctx, seq)` order.
    fn record_lines(&self, out: &mut String) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        for (&(ctx, seq), rec) in &inner.events {
            let probe = rec
                .probe
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let args = rec.ev.args_json();
            let sep = if args.is_empty() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"ctx\":{ctx},\"seq\":{seq},\"time\":{},\"probe\":{probe},\"kind\":\"{}\"{sep}{args}}}",
                fmt_f64(rec.time),
                rec.ev.kind(),
            );
        }
    }

    /// Serializes the full dump: a typed header line (version, source
    /// name, capacity, retained/dropped counts) followed by one JSON
    /// line per retained record in `(ctx, seq)` order.
    #[must_use]
    pub fn dump_string(&self, source: &str) -> String {
        let mut out = String::with_capacity(64 + self.len() * 96);
        let _ = writeln!(
            out,
            "{{\"version\":{FLIGHTREC_VERSION},\"kind\":\"flightrec\",\"source\":\"{}\",\"capacity\":{},\"events\":{},\"dropped\":{}}}",
            json_escape(source),
            self.capacity(),
            self.len(),
            self.dropped(),
        );
        self.record_lines(&mut out);
        out
    }

    /// Writes the dump to `path` with [`write_atomic`](crate::write_atomic):
    /// a kill mid-dump leaves the previous file or none, never a torn one.
    ///
    /// # Errors
    ///
    /// Any error from [`write_atomic`](crate::write_atomic).
    pub fn dump_jsonl(&self, path: &Path, source: &str) -> std::io::Result<()> {
        crate::write_atomic(path, self.dump_string(source))
    }

    /// Renders the retained records as Chrome trace-event JSON (the
    /// format Perfetto and `chrome://tracing` load): one object with a
    /// `traceEvents` array. Mapping: `pid` = unit (`ctx >> 40`), `tid` =
    /// trial/attacker (`ctx & 0xFF_FFFF_FFFF`), `ts` = sim time in
    /// microseconds. Component and span records become complete (`"X"`)
    /// slices with a `dur`; everything else an instant (`"i"`).
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        if let Some(inner) = self.inner.as_deref() {
            for (&(ctx, seq), rec) in &inner.events {
                if !first {
                    out.push(',');
                }
                first = false;
                let (pid, tid) = if ctx == SUPERVISOR_CTX {
                    (0xFF_FFFF_u64, 0xFF_FFFF_FFFF_u64)
                } else {
                    (ctx >> 40, ctx & 0xFF_FFFF_FFFF)
                };
                let ts_us = rec.time * 1e6;
                let (ph, dur) = match &rec.ev {
                    TraceEv::Component { secs, .. } | TraceEv::Span { secs, .. } => {
                        ("X", Some(secs * 1e6))
                    }
                    _ => ("i", None),
                };
                let name = match &rec.ev {
                    TraceEv::Component { kind, .. } => kind.name(),
                    TraceEv::Span { name, .. } => name,
                    other => other.kind(),
                };
                let probe = rec
                    .probe
                    .map_or_else(|| "null".to_string(), |p| p.to_string());
                let args = rec.ev.args_json();
                let sep = if args.is_empty() { "" } else { "," };
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":{pid},\"tid\":{tid}",
                    json_escape(name),
                    fmt_f64(ts_us),
                );
                if let Some(d) = dur {
                    let _ = write!(out, ",\"dur\":{}", fmt_f64(d));
                }
                // "i" (instant) events require a scope; "t" = thread.
                if ph == "i" {
                    out.push_str(",\"s\":\"t\"");
                }
                let _ = write!(
                    out,
                    ",\"args\":{{\"seq\":{seq},\"probe\":{probe}{sep}{args}}}}}"
                );
            }
        }
        out.push_str("]}");
        out
    }
}

/// One record of a flight dump, read back.
#[derive(Debug, Clone, PartialEq)]
pub struct DumpRecord {
    /// The emitting simulation's context (see [`probe_ctx`]).
    pub ctx: u64,
    /// The emission index within `ctx`.
    pub seq: u64,
    /// Sim time of the event, seconds.
    pub time: f64,
    /// Probe token within `ctx`, when attributable.
    pub probe: Option<u64>,
    /// The event's kind label ([`TraceEv::kind`]).
    pub kind: String,
    /// The whole line, the event's own fields among the rest.
    line: Value,
}

impl DumpRecord {
    /// An integer field of the event: the `unit` a supervisor bracket
    /// names (`unit_start`, `unit_ok`, `unit_panic`, `watchdog_fire`,
    /// `interrupted`), a switch event's `node` and `rule`, an injected
    /// packet's `flow`.
    #[must_use]
    pub fn int(&self, key: &str) -> Option<u64> {
        at(&self.line, key).ok()
    }
}

/// A flight dump ([`FlightRecorder::dump_string`]) read back: the
/// header's provenance and every retained record, in `(ctx, seq)` order.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// The program that dumped it.
    pub source: String,
    /// The recorder's retention bound.
    pub capacity: u64,
    /// Records recorded but not retained.
    pub dropped: u64,
    /// The retained records.
    pub records: Vec<DumpRecord>,
}

impl FlightDump {
    /// Reads a dump: its typed header, then one record per line. Blank
    /// lines are skipped.
    ///
    /// # Errors
    ///
    /// [`ReadError`] when the header is not a version-1 `flightrec`
    /// header, a record line does not parse, or the header's record
    /// count differs from the lines that follow (a cut-short dump).
    pub fn parse(text: &str) -> Result<Self, ReadError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, header) = lines
            .next()
            .ok_or_else(|| ReadError("empty flight dump".into()))?;
        let header = parse(header).map_err(|e| e.context("header"))?;
        if field(&header, "kind").and_then(Value::as_str) != Some("flightrec") {
            return Err(ReadError(
                "not a flight dump (header lacks \"kind\":\"flightrec\")".into(),
            ));
        }
        let head = |key| at::<u64>(&header, key).map_err(|e| e.context("header"));
        let version = head("version")?;
        if version != FLIGHTREC_VERSION {
            return Err(ReadError(format!(
                "flight dump version {version}, this reader reads {FLIGHTREC_VERSION}"
            )));
        }
        let (capacity, events, dropped) = (head("capacity")?, head("events")?, head("dropped")?);
        let mut records = Vec::new();
        for (i, line) in lines {
            let record = Self::record(line).map_err(|e| e.context(&format!("line {}", i + 1)))?;
            records.push(record);
        }
        if records.len() as u64 != events {
            return Err(ReadError(format!(
                "header promises {events} records, found {}",
                records.len()
            )));
        }
        Ok(FlightDump {
            source: at(&header, "source").map_err(|e| e.context("header"))?,
            capacity,
            dropped,
            records,
        })
    }

    fn record(line: &str) -> Result<DumpRecord, ReadError> {
        let line = parse(line)?;
        Ok(DumpRecord {
            ctx: at(&line, "ctx")?,
            seq: at(&line, "seq")?,
            time: at(&line, "time")?,
            probe: at(&line, "probe")?,
            kind: at(&line, "kind")?,
            line,
        })
    }

    /// Record counts by kind, in kind order.
    #[must_use]
    pub fn counts_by_kind(&self) -> BTreeMap<&str, u64> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            *out.entry(r.kind.as_str()).or_insert(0) += 1;
        }
        out
    }

    /// Every delivered probe with its RTT decomposition, in
    /// `(ctx, token)` order: the components and the RTT of the records
    /// attributed to it. A probe whose records were not all retained
    /// decomposes into what was.
    #[must_use]
    pub fn delivered(&self) -> Vec<(ProbeId, Breakdown)> {
        let mut probes: BTreeMap<ProbeId, Breakdown> = BTreeMap::new();
        for r in &self.records {
            let Some(token) = r.probe else { continue };
            let b = probes.entry(ProbeId { ctx: r.ctx, token }).or_default();
            b.events += 1;
            match r.kind.as_str() {
                "component" => {
                    if let (Ok(comp), Ok(secs)) =
                        (at::<String>(&r.line, "comp"), at(&r.line, "secs"))
                    {
                        b.add(&comp, secs);
                    }
                }
                "delivered" => b.rtt = at(&r.line, "rtt").ok(),
                _ => {}
            }
        }
        probes
            .into_iter()
            .filter(|(_, b)| b.rtt.is_some())
            .collect()
    }
}

/// Checks a Chrome trace-event export ([`FlightRecorder::to_chrome_trace`])
/// and returns its event count: a top-level `traceEvents` array whose
/// entries all carry a string `name` and `ph` and numeric `ts`, `pid`
/// and `tid`, with a `dur` on complete (`"X"`) slices and a scope `s` on
/// instants (`"i"`).
///
/// # Errors
///
/// [`ReadError`] naming the first entry that breaks the format.
pub fn validate_chrome_trace(text: &str) -> Result<usize, ReadError> {
    let v = parse(text)?;
    let events = field(&v, "traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| ReadError("no top-level \"traceEvents\" array".into()))?;
    for (i, ev) in events.iter().enumerate() {
        let fail = |what: &str| ReadError(format!("traceEvents[{i}] {what}"));
        let text = |key| field(ev, key).and_then(Value::as_str);
        let num = |key| field(ev, key).and_then(Value::as_num);
        if ev.as_object().is_none() {
            return Err(fail("is not an object"));
        }
        if text("name").is_none() {
            return Err(fail("lacks a string \"name\""));
        }
        for key in ["ts", "pid", "tid"] {
            if num(key).is_none() {
                return Err(fail(&format!("lacks a numeric \"{key}\"")));
            }
        }
        match text("ph") {
            None => return Err(fail("lacks a string \"ph\"")),
            Some("X") if num("dur").is_none() => {
                return Err(fail("is a complete slice without a numeric \"dur\""));
            }
            Some("i") if text("s").is_none() => {
                return Err(fail("is an instant without a scope \"s\""));
            }
            Some(_) => {}
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_pointer_sized_and_inert() {
        assert_eq!(
            std::mem::size_of::<FlightRecorder>(),
            std::mem::size_of::<usize>()
        );
        let mut f = FlightRecorder::disabled();
        f.begin(7);
        f.log(0.0, Some(0), TraceEv::Inject { flow: 1 });
        assert!(!f.is_enabled());
        assert!(f.is_empty());
        assert_eq!(f.dropped(), 0);
        let dump = FlightDump::parse(&f.dump_string("off")).unwrap();
        assert!(dump.records.is_empty() && dump.delivered().is_empty());
    }

    #[test]
    fn fork_preserves_enabledness_and_capacity() {
        let f = FlightRecorder::with_capacity(9);
        let g = f.fork();
        assert!(g.is_enabled());
        assert_eq!(g.capacity(), 9);
        assert!(FlightRecorder::disabled().fork().inner.is_none());
    }

    #[test]
    fn retention_keeps_largest_keys_and_counts_drops() {
        let mut f = FlightRecorder::with_capacity(3);
        for ctx in 0..5u64 {
            let mut w = f.fork();
            w.begin(ctx);
            w.log(ctx as f64, Some(0), TraceEv::Inject { flow: ctx });
            f.merge(w);
        }
        assert_eq!(f.len(), 3);
        assert_eq!(f.dropped(), 2);
        let dump = FlightDump::parse(&f.dump_string("retention")).unwrap();
        let ctxs: Vec<u64> = dump.records.iter().map(|r| r.ctx).collect();
        assert_eq!(ctxs, vec![2, 3, 4]);
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |ctx: u64, n: u64| {
            let mut w = FlightRecorder::with_capacity(4);
            w.begin(ctx);
            for i in 0..n {
                w.log(i as f64, Some(i), TraceEv::Inject { flow: i });
            }
            w
        };
        let mut a = FlightRecorder::with_capacity(4);
        a.merge(mk(1, 3));
        a.merge(mk(2, 3));
        let mut b = FlightRecorder::with_capacity(4);
        b.merge(mk(2, 3));
        b.merge(mk(1, 3));
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.dropped(), 2);
    }

    #[test]
    fn delivered_probe_decomposes_into_its_components() {
        let mut f = FlightRecorder::enabled();
        f.begin(probe_ctx(1, 2, 0));
        let p = Some(0);
        f.log(0.0, p, TraceEv::Inject { flow: 9 });
        f.log(
            0.0,
            p,
            TraceEv::Component {
                kind: CompKind::Hop,
                secs: 1e-4,
            },
        );
        f.log(
            1e-4,
            p,
            TraceEv::Component {
                kind: CompKind::Controller,
                secs: 2e-3,
            },
        );
        f.log(
            2.1e-3,
            p,
            TraceEv::Component {
                kind: CompKind::Jitter,
                secs: 5e-5,
            },
        );
        f.log(2.15e-3, p, TraceEv::Delivered { rtt: 2.15e-3 });
        // A second probe of the context that never delivered.
        f.log(3e-3, Some(1), TraceEv::Inject { flow: 9 });
        let dump = FlightDump::parse(&f.dump_string("t")).unwrap();
        let delivered = dump.delivered();
        assert_eq!(delivered.len(), 1);
        let (id, b) = delivered[0];
        assert_eq!(
            id,
            ProbeId {
                ctx: probe_ctx(1, 2, 0),
                token: 0
            }
        );
        assert_eq!((id.unit(), id.trial(), id.attacker()), (1, 2, 0));
        assert_eq!(b.rtt, Some(2.15e-3));
        assert_eq!((b.hop, b.controller, b.jitter), (1e-4, 2e-3, 5e-5));
        assert!(b.residual().unwrap().abs() < 1e-12, "{b:?}");
        assert_eq!(b.events, 5);
    }

    #[test]
    fn dump_has_typed_header_and_one_line_per_record() {
        let mut f = FlightRecorder::enabled();
        f.begin(3);
        f.log(
            0.5,
            Some(0),
            TraceEv::Miss {
                node: 1,
                rule: 2,
                fresh: true,
            },
        );
        f.log(
            0.6,
            None,
            TraceEv::Fault {
                kind: "flow_mods_lost",
                node: Some(1),
            },
        );
        let dump = f.dump_string("unit_test");
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\":\"flightrec\""), "{}", lines[0]);
        assert!(lines[0].contains("\"version\":1"));
        assert!(lines[0].contains("\"events\":2"));
        assert!(lines[1].contains("\"kind\":\"miss\""));
        assert!(lines[1].contains("\"fresh\":true"));
        assert!(lines[2].contains("\"fault\":\"flow_mods_lost\""));
        assert!(lines[2].contains("\"probe\":null"));
    }

    #[test]
    fn dump_jsonl_writes_the_dump_string() {
        let dir = std::env::temp_dir().join("obs-trace-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.flightrec.jsonl");
        let mut f = FlightRecorder::enabled();
        f.begin(1);
        f.log(0.0, Some(0), TraceEv::Inject { flow: 4 });
        f.dump_jsonl(&path, "x").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"version\":"));
        assert_eq!(text, f.dump_string("x"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chrome_trace_is_well_formed_mapping() {
        let mut f = FlightRecorder::enabled();
        f.begin(probe_ctx(2, 1, 1));
        f.log(1e-3, Some(0), TraceEv::Inject { flow: 4 });
        f.log(
            1e-3,
            Some(0),
            TraceEv::Component {
                kind: CompKind::Hop,
                secs: 5e-5,
            },
        );
        let json = f.to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":"));
        assert!(json.contains(&format!("\"pid\":{}", 2)));
        assert!(json.contains(&format!("\"tid\":{}", (1u64 << 8) | 1)));
    }

    #[test]
    fn counts_and_delivered_summaries() {
        let mut f = FlightRecorder::enabled();
        f.begin(1);
        f.log(0.0, Some(0), TraceEv::Inject { flow: 1 });
        f.log(1.0, Some(0), TraceEv::Delivered { rtt: 4e-3 });
        f.log(2.0, Some(1), TraceEv::Inject { flow: 2 });
        f.log(3.0, Some(1), TraceEv::Delivered { rtt: 9e-5 });
        let dump = FlightDump::parse(&f.dump_string("c")).unwrap();
        let counts = dump.counts_by_kind();
        assert_eq!(counts["inject"], 2);
        assert_eq!(counts["delivered"], 2);
        assert_eq!(dump.delivered().len(), 2);
    }

    /// One event of every kind, each with its fields set.
    fn every_event() -> Vec<(Option<u64>, TraceEv)> {
        let comp = |kind| TraceEv::Component {
            kind,
            secs: 1.25e-4,
        };
        vec![
            (Some(0), TraceEv::Inject { flow: 3 }),
            (Some(0), TraceEv::Hit { node: 1, rule: 2 }),
            (
                Some(0),
                TraceEv::Miss {
                    node: 1,
                    rule: 2,
                    fresh: false,
                },
            ),
            (Some(0), TraceEv::PacketIn { node: 1, rule: 2 }),
            (
                Some(0),
                TraceEv::Install {
                    node: 1,
                    rule: 2,
                    evicted: Some(4),
                },
            ),
            (
                Some(0),
                TraceEv::Install {
                    node: 1,
                    rule: 5,
                    evicted: None,
                },
            ),
            (Some(1), TraceEv::Uncovered { node: 6 }),
            (Some(0), TraceEv::Delivered { rtt: 4.07e-3 }),
            (
                None,
                TraceEv::Fault {
                    kind: "flow_mods_lost",
                    node: Some(1),
                },
            ),
            (
                Some(1),
                TraceEv::Fault {
                    kind: "probe_timeouts",
                    node: None,
                },
            ),
            (Some(0), comp(CompKind::Hop)),
            (Some(0), comp(CompKind::Jitter)),
            (Some(0), comp(CompKind::Controller)),
            (Some(0), comp(CompKind::Install)),
            (Some(0), comp(CompKind::PacketIn)),
            (Some(0), comp(CompKind::Pad)),
            (
                Some(1),
                TraceEv::Retry {
                    attempt: 0,
                    backoff: 0.05,
                },
            ),
            (Some(1), TraceEv::Outlier { rtt: 0.5 }),
            (
                Some(1),
                TraceEv::Classified {
                    rtt: 8.7e-5,
                    hit: true,
                },
            ),
            (
                None,
                TraceEv::Verdict {
                    verdict: "present",
                    attacker: "model",
                },
            ),
            (
                None,
                TraceEv::Span {
                    name: "question",
                    secs: 0.1,
                },
            ),
            (
                None,
                TraceEv::UnitStart {
                    unit: 3,
                    attempt: 0,
                },
            ),
            (
                None,
                TraceEv::UnitOk {
                    unit: 3,
                    attempt: 0,
                },
            ),
            (
                None,
                TraceEv::UnitPanic {
                    unit: 3,
                    attempt: 1,
                },
            ),
            (
                None,
                TraceEv::WatchdogFire {
                    unit: 3,
                    attempt: 2,
                    limit_ms: 500,
                },
            ),
            (None, TraceEv::Interrupted { unit: 4 }),
        ]
    }

    #[test]
    fn dump_reads_back_to_the_retained_records() {
        let mut f = FlightRecorder::with_capacity(20);
        f.begin(probe_ctx(2, 1, 1));
        for (i, (probe, ev)) in every_event().into_iter().enumerate() {
            f.log(i as f64 * 1e-3 + 1.0 / 3.0, probe, ev);
        }
        let dump = FlightDump::parse(&f.dump_string("round_trip")).unwrap();
        assert_eq!(dump.source, "round_trip");
        assert_eq!((dump.capacity, dump.dropped), (20, 6));
        let inner = f.inner.as_deref().unwrap();
        assert_eq!(dump.records.len(), inner.events.len());
        for (read, (&(ctx, seq), rec)) in dump.records.iter().zip(&inner.events) {
            assert_eq!((read.ctx, read.seq), (ctx, seq));
            assert_eq!(read.time.to_bits(), rec.time.to_bits());
            assert_eq!((read.probe, read.kind.as_str()), (rec.probe, rec.ev.kind()));
            let fields = parse(&format!("{{{}}}", rec.ev.args_json())).unwrap();
            for (key, value) in fields.as_object().unwrap() {
                assert_eq!(field(&read.line, key), Some(value), "{key} of {:?}", rec.ev);
            }
        }
        // Every component label adds to its own slot of the breakdown.
        let delivered = dump.delivered();
        assert_eq!(delivered.len(), 1);
        let (_, b) = delivered[0];
        assert!(
            b.components().iter().all(|&(_, secs)| secs == 1.25e-4),
            "{b:?}"
        );
        let interrupted = dump.records.last().unwrap();
        assert_eq!(
            (interrupted.kind.as_str(), interrupted.int("unit")),
            ("interrupted", Some(4))
        );
    }

    #[test]
    fn dump_reader_refuses_what_the_writer_never_writes() {
        let mut f = FlightRecorder::enabled();
        f.begin(1);
        f.log(0.0, Some(0), TraceEv::Inject { flow: 1 });
        f.log(1.0, Some(0), TraceEv::Delivered { rtt: 4e-3 });
        let dump = f.dump_string("x");
        let err = |text: &str| FlightDump::parse(text).unwrap_err().0;
        assert_eq!(err(""), "empty flight dump");
        let cut: String = dump.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert_eq!(err(&cut), "header promises 2 records, found 1");
        assert!(err(&dump.replace("flightrec", "manifest")).starts_with("not a flight dump"));
        assert_eq!(
            err(&dump.replace("\"version\":1", "\"version\":2")),
            "flight dump version 2, this reader reads 1"
        );
        assert!(err(&dump.replace("\"seq\":1", "\"seq\":-1")).starts_with("line 3: \"seq\""));
    }

    #[test]
    fn chrome_trace_check_accepts_the_export_and_names_what_is_wrong() {
        let mut f = FlightRecorder::enabled();
        f.begin(probe_ctx(0, 1, 2));
        for (probe, ev) in every_event() {
            f.log(0.25, probe, ev);
        }
        f.begin(SUPERVISOR_CTX);
        f.log(
            0.0,
            None,
            TraceEv::UnitOk {
                unit: 0,
                attempt: 0,
            },
        );
        assert_eq!(validate_chrome_trace(&f.to_chrome_trace()), Ok(f.len()));
        let check = |text: &str| validate_chrome_trace(text).unwrap_err().0;
        assert_eq!(
            check("{\"notTraceEvents\":[]}"),
            "no top-level \"traceEvents\" array"
        );
        assert_eq!(
            check("{\"traceEvents\":[3]}"),
            "traceEvents[0] is not an object"
        );
        assert_eq!(
            check("{\"traceEvents\":[{\"name\":\"x\"}]}"),
            "traceEvents[0] lacks a numeric \"ts\""
        );
        let slice = "{\"name\":\"x\",\"ph\":\"X\",\"ts\":0,\"pid\":0,\"tid\":0}";
        assert_eq!(
            check(&format!("{{\"traceEvents\":[{slice}]}}")),
            "traceEvents[0] is a complete slice without a numeric \"dur\""
        );
        let instant = slice.replace("\"X\"", "\"i\"");
        assert_eq!(
            check(&format!("{{\"traceEvents\":[{instant}]}}")),
            "traceEvents[0] is an instant without a scope \"s\""
        );
        assert!(check("{\"traceEvents\":[").starts_with("JSON error"));
    }
}
