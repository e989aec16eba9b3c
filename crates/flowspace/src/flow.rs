//! Flow identifiers and their concrete packet-header representation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An abstract flow identifier: an index into a finite flow universe.
///
/// The paper identifies a flow with an IP-header 5-tuple, but all of its
/// models operate on a finite universe of flow identifiers (its evaluation
/// uses 16, distinguished by source address). `FlowId(i)` is the `i`-th flow
/// of that universe; [`FlowKey`] maps it back to a concrete header when the
/// network simulator needs one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The index of this flow within its universe.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl From<u32> for FlowId {
    fn from(v: u32) -> Self {
        FlowId(v)
    }
}

/// Transport protocol of a concrete flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// ICMP echo (the paper's evaluation traffic: probe + reply).
    Icmp,
    /// TCP (e.g., the HTTP example attack of §III-A).
    Tcp,
    /// UDP.
    Udp,
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Icmp => write!(f, "icmp"),
            Protocol::Tcp => write!(f, "tcp"),
            Protocol::Udp => write!(f, "udp"),
        }
    }
}

/// A concrete 5-tuple-style header used by the network simulator.
///
/// The paper's evaluation distinguishes flows purely by source IP
/// (`10.0.1.0` … `10.0.1.15`, all destined to `10.0.1.16`); [`FlowKey::for_eval`]
/// builds exactly that mapping. Ports are retained so richer scenarios (e.g.
/// the HTTP reconnaissance example) can be expressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source transport port (0 for ICMP).
    pub src_port: u16,
    /// Destination transport port (0 for ICMP).
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: Protocol,
}

/// Base address `10.0.1.0` used by the paper's evaluation topology.
pub(crate) const EVAL_BASE_IP: u32 = (10 << 24) | (1 << 8);

impl FlowKey {
    /// The paper's evaluation mapping: flow `i` is an ICMP flow from
    /// `10.0.1.i` to the common server `10.0.1.16`.
    ///
    /// ```
    /// use flowspace::{FlowId, FlowKey};
    /// let key = FlowKey::for_eval(FlowId(3));
    /// assert_eq!(key.src_ip & 0xff, 3);
    /// assert_eq!(key.dst_ip & 0xff, 16);
    /// ```
    #[must_use]
    pub fn for_eval(flow: FlowId) -> Self {
        FlowKey {
            src_ip: EVAL_BASE_IP + flow.0,
            dst_ip: EVAL_BASE_IP + 16,
            src_port: 0,
            dst_port: 0,
            proto: Protocol::Icmp,
        }
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ip = |v: u32| {
            format!(
                "{}.{}.{}.{}",
                v >> 24,
                (v >> 16) & 255,
                (v >> 8) & 255,
                v & 255
            )
        };
        write!(
            f,
            "{} {}:{} -> {}:{}",
            self.proto,
            ip(self.src_ip),
            self.src_port,
            ip(self.dst_ip),
            self.dst_port
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_id_display_and_index() {
        assert_eq!(FlowId(7).to_string(), "f7");
        assert_eq!(FlowId(7).index(), 7);
        assert_eq!(FlowId::from(3u32), FlowId(3));
    }

    #[test]
    fn display_formats_dotted_quad() {
        let key = FlowKey::for_eval(FlowId(5));
        let s = key.to_string();
        assert!(s.contains("10.0.1.5"), "{s}");
        assert!(s.contains("10.0.1.16"), "{s}");
        assert!(s.starts_with("icmp"), "{s}");
    }
}
