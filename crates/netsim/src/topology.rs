//! Switch-level network topologies with shortest-path routing.
//!
//! Routes are computed one destination at a time: the first route asked
//! for toward `dst` runs one BFS from `dst` over the adjacency lists and
//! keeps the resulting next-hop column, so a topology costs O(n + links)
//! plus n entries per destination routed.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a switch in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Error constructing or routing over a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A link referenced a node outside the topology.
    BadLink(usize, usize),
    /// No path exists between the two nodes.
    Disconnected(NodeId, NodeId),
    /// A route named a node outside the topology.
    UnknownNode(NodeId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::BadLink(a, b) => write!(f, "link ({a}, {b}) references unknown node"),
            TopologyError::Disconnected(a, b) => write!(f, "no path between {a} and {b}"),
            TopologyError::UnknownNode(v) => write!(f, "unknown node {v}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// FNV-1a over the little-endian bytes of the given words; the
/// deterministic per-pair hash behind the fat tree's ECMP choice.
fn fnv1a(words: [u64; 3]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// How a node picks its next hop among the neighbours one hop closer to
/// the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Routing {
    /// The neighbour that discovered the node in a BFS from the
    /// destination (adjacency order breaks ties).
    BfsParent,
    /// Per-pair deterministic ECMP: the neighbour `w` minimising
    /// `(fnv1a([src, dst, w]), w)`.
    Ecmp,
}

/// An undirected switch graph with shortest-path routing, computed per
/// destination on first use.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(from = "TopologyRepr", into = "TopologyRepr")]
pub struct Topology {
    n: usize,
    adj: Vec<Vec<usize>>,
    routing: Routing,
    /// `toward[dst][src]` = next node from `src` toward `dst`
    /// (`usize::MAX` if unreachable, `dst` at `dst`), filled by one BFS
    /// the first time a route toward `dst` is asked for.
    toward: Vec<OnceLock<Vec<usize>>>,
}

/// The serialized form of a [`Topology`]: the graph and its routing rule,
/// without the route cache.
#[derive(Serialize, Deserialize)]
struct TopologyRepr {
    n: usize,
    adj: Vec<Vec<usize>>,
    routing: Routing,
}

impl From<TopologyRepr> for Topology {
    fn from(r: TopologyRepr) -> Self {
        Topology::with_routing(r.n, r.adj, r.routing)
    }
}

impl From<Topology> for TopologyRepr {
    fn from(t: Topology) -> Self {
        TopologyRepr {
            n: t.n,
            adj: t.adj,
            routing: t.routing,
        }
    }
}

/// Equal graphs with equal routing rules route identically, whichever
/// routes either has computed so far.
impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        (self.n, &self.adj, self.routing) == (other.n, &other.adj, other.routing)
    }
}

impl Topology {
    /// Builds a topology with `n` switches and the given undirected links.
    ///
    /// # Errors
    ///
    /// [`TopologyError::BadLink`] if any link endpoint is out of range.
    pub fn new(n: usize, links: &[(usize, usize)]) -> Result<Self, TopologyError> {
        for &(a, b) in links {
            if a >= n || b >= n || a == b {
                return Err(TopologyError::BadLink(a, b));
            }
        }
        Ok(Self::from_valid_links(n, links, Routing::BfsParent))
    }

    /// Builds from links already known to be in range and loop-free —
    /// the named constructors wire their graphs by construction, so
    /// they skip [`Topology::new`]'s validation (and its error path).
    fn from_valid_links(n: usize, links: &[(usize, usize)], routing: Routing) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in links {
            debug_assert!(a < n && b < n && a != b, "link ({a}, {b}) invalid");
            if !adj[a].contains(&b) {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        Topology::with_routing(n, adj, routing)
    }

    /// A topology over `adj` with no route computed yet.
    fn with_routing(n: usize, adj: Vec<Vec<usize>>, routing: Routing) -> Self {
        Topology {
            n,
            adj,
            routing,
            toward: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// A single-switch topology.
    #[must_use]
    pub fn single_switch() -> Self {
        Topology::from_valid_links(1, &[], Routing::BfsParent)
    }

    /// A linear chain of `n` switches.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    // detlint::allow(D10): tests/topology_equivalence.rs routes linear(1..=9) against the dense builder
    #[must_use]
    pub fn linear(n: usize) -> Self {
        assert!(n > 0, "need at least one switch");
        let links: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        Topology::from_valid_links(n, &links, Routing::BfsParent)
    }

    /// A 16-switch topology modeled on Stanford University's backbone
    /// network (the paper's §VI-A dataset): two core routers (`s0`, `s1`)
    /// interconnected, with 14 zone routers each dual-homed to both cores.
    ///
    /// ```
    /// use netsim::{NodeId, Topology};
    /// let t = Topology::stanford_backbone();
    /// assert_eq!(t.len(), 16);
    /// // Zone to zone is two hops via a core.
    /// assert_eq!(t.distance(NodeId(2), NodeId(9)).unwrap(), 2);
    /// ```
    #[must_use]
    pub fn stanford_backbone() -> Self {
        let mut links = vec![(0, 1)];
        for z in 2..16 {
            links.push((0, z));
            links.push((1, z));
        }
        Topology::from_valid_links(16, &links, Routing::BfsParent)
    }

    /// A k-ary fat-tree (Al-Fares et al.): `(k/2)²` core switches plus
    /// `k` pods of `k/2` aggregation and `k/2` edge switches each —
    /// `5k²/4` switches and `k³/2` links total (k=16 → 320, k=32 →
    /// 1280 switches). Cores are numbered first, then pods contiguously
    /// (aggregation before edge; see [`Topology::fat_tree_edge`]).
    /// Aggregation switch `i` of every pod uplinks to cores
    /// `i·k/2 .. (i+1)·k/2`.
    ///
    /// Path selection is ECMP-style but deterministic: among the
    /// equal-cost next hops toward a destination, each `(src, dst)` pair
    /// commits to the neighbor minimizing an FNV-1a hash of the triple —
    /// the per-flow hashing real fabrics do, reproduced bit-for-bit on
    /// every build.
    ///
    /// # Panics
    ///
    /// Panics if `k` is odd or less than 2.
    #[must_use]
    pub fn fat_tree(k: usize) -> Self {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree arity k must be even and ≥ 2"
        );
        let half = k / 2;
        let cores = half * half;
        let n = cores + k * k;
        let mut links = Vec::with_capacity(k * k * half);
        for p in 0..k {
            let pod = cores + p * k;
            for i in 0..half {
                let agg = pod + i;
                for j in 0..half {
                    links.push((agg, pod + half + j)); // agg ↔ edge, full bipartite
                    links.push((agg, i * half + j)); // agg ↔ its core block
                }
            }
        }
        Topology::from_valid_links(n, &links, Routing::Ecmp)
    }

    /// The node id of edge switch `index` in `pod` of a `k`-ary fat
    /// tree built by [`Topology::fat_tree`].
    ///
    /// # Panics
    ///
    /// Panics if `k` is odd or less than 2, `pod >= k`, or
    /// `index >= k/2`.
    #[must_use]
    pub fn fat_tree_edge(k: usize, pod: usize, index: usize) -> NodeId {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree arity k must be even and ≥ 2"
        );
        let half = k / 2;
        assert!(pod < k, "pod {pod} out of range for k={k}");
        assert!(index < half, "edge index {index} out of range for k={k}");
        NodeId(half * half + pod * k + half + index)
    }

    /// Number of undirected links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Number of switches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the topology has no switches.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Neighbors of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    // detlint::allow(D10): checked against the dense builder's adjacency in tests/topology_equivalence.rs
    #[must_use]
    pub fn neighbors(&self, node: NodeId) -> &[usize] {
        &self.adj[node.0]
    }

    /// The next-hop column toward `dst`, computed on first use.
    fn column(&self, src: NodeId, dst: NodeId) -> Result<&[usize], TopologyError> {
        for node in [src, dst] {
            if node.0 >= self.n {
                return Err(TopologyError::UnknownNode(node));
            }
        }
        Ok(self.toward[dst.0].get_or_init(|| self.route_toward(dst.0)))
    }

    /// One BFS from `dst`: every reachable node's next hop toward `dst`
    /// under the topology's routing rule.
    fn route_toward(&self, dst: usize) -> Vec<usize> {
        let mut next = vec![usize::MAX; self.n];
        let mut dist = vec![usize::MAX; self.n];
        next[dst] = dst;
        dist[dst] = 0;
        let mut q = VecDeque::from([dst]);
        while let Some(v) = q.pop_front() {
            for &w in &self.adj[v] {
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    // First hop from w toward dst is v.
                    next[w] = v;
                    q.push_back(w);
                }
            }
        }
        if self.routing == Routing::Ecmp {
            for src in 0..self.n {
                let d = dist[src];
                if src == dst || d == usize::MAX {
                    continue;
                }
                let key = |w: usize| (fnv1a([src as u64, dst as u64, w as u64]), w);
                if let Some(w) = self.adj[src]
                    .iter()
                    .copied()
                    .filter(|&w| dist[w] + 1 == d)
                    .min_by_key(|&w| key(w))
                {
                    next[src] = w;
                }
            }
        }
        next
    }

    /// The next hop from `src` toward `dst`.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownNode`] if either node is out of range;
    /// [`TopologyError::Disconnected`] if no path exists.
    // detlint::allow(D10): checked against the dense builder's next hops in tests/topology_equivalence.rs
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Result<NodeId, TopologyError> {
        let h = self.column(src, dst)?[src.0];
        if h == usize::MAX {
            Err(TopologyError::Disconnected(src, dst))
        } else {
            Ok(NodeId(h))
        }
    }

    /// The full shortest path from `src` to `dst`, inclusive.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownNode`] if either node is out of range;
    /// [`TopologyError::Disconnected`] if no path exists.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Result<Vec<NodeId>, TopologyError> {
        let next = self.column(src, dst)?;
        let mut path = vec![src];
        let mut cur = src.0;
        while cur != dst.0 {
            cur = next[cur];
            if cur == usize::MAX {
                return Err(TopologyError::Disconnected(src, dst));
            }
            path.push(NodeId(cur));
        }
        Ok(path)
    }

    /// Hop count of the shortest path.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownNode`] if either node is out of range;
    /// [`TopologyError::Disconnected`] if no path exists.
    pub fn distance(&self, src: NodeId, dst: NodeId) -> Result<usize, TopologyError> {
        Ok(self.path(src, dst)?.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_paths() {
        let t = Topology::linear(4);
        assert_eq!(t.len(), 4);
        let p = t.path(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(t.distance(NodeId(0), NodeId(3)).unwrap(), 3);
        assert_eq!(t.distance(NodeId(2), NodeId(2)).unwrap(), 0);
    }

    #[test]
    fn single_switch_is_trivial() {
        let t = Topology::single_switch();
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.path(NodeId(0), NodeId(0)).unwrap(), vec![NodeId(0)]);
    }

    #[test]
    fn stanford_backbone_properties() {
        let t = Topology::stanford_backbone();
        assert_eq!(t.len(), 16);
        // Any two zone routers are at most 2 hops apart (via a core).
        for a in 2..16 {
            for b in 2..16 {
                if a != b {
                    assert!(t.distance(NodeId(a), NodeId(b)).unwrap() <= 2);
                }
            }
        }
        // Zone routers are dual-homed.
        for z in 2..16 {
            assert_eq!(t.neighbors(NodeId(z)).len(), 2);
        }
    }

    #[test]
    fn bad_link_rejected() {
        assert_eq!(
            Topology::new(2, &[(0, 5)]),
            Err(TopologyError::BadLink(0, 5))
        );
        assert_eq!(
            Topology::new(2, &[(1, 1)]),
            Err(TopologyError::BadLink(1, 1))
        );
    }

    #[test]
    fn disconnected_detected() {
        let t = Topology::new(3, &[(0, 1)]).unwrap();
        assert!(matches!(
            t.next_hop(NodeId(0), NodeId(2)),
            Err(TopologyError::Disconnected(_, _))
        ));
        let err = t.path(NodeId(2), NodeId(1)).unwrap_err();
        assert!(err.to_string().contains("no path"));
    }

    #[test]
    fn fat_tree_shape_and_distances() {
        // (k/2)² cores plus k pods of k/2 aggregation and k/2 edge
        // switches: 5k²/4 switches. Each aggregation switch links to the
        // k/2 edge switches of its pod and to k/2 cores, and there are
        // k·k/2 of them: k³/2 links.
        for k in [2, 4, 8, 16, 32] {
            let t = Topology::fat_tree(k);
            assert_eq!(t.len(), 5 * k * k / 4, "switches for k={k}");
            assert_eq!(t.link_count(), k * k * k / 2, "links for k={k}");
        }
        let t = Topology::fat_tree(4);
        assert_eq!((t.len(), t.link_count()), (20, 32));
        let e00 = Topology::fat_tree_edge(4, 0, 0);
        let e01 = Topology::fat_tree_edge(4, 0, 1);
        let e30 = Topology::fat_tree_edge(4, 3, 0);
        // Same pod: edge–agg–edge, two hops.
        assert_eq!(t.distance(e00, e01).unwrap(), 2);
        // Cross pod: edge–agg–core–agg–edge, four hops.
        assert_eq!(t.distance(e00, e30).unwrap(), 4);
        // Edge switches have k/2 uplinks (no host links modeled).
        assert_eq!(t.neighbors(e00).len(), 2);
    }

    #[test]
    fn fat_tree_is_deterministic() {
        let a = Topology::fat_tree(8);
        let b = Topology::fat_tree(8);
        assert_eq!(a, b, "construction and ECMP choices must be stable");
        // Spot-check: the committed path between two fixed edges never
        // changes across builds (guards the ECMP hash).
        let src = Topology::fat_tree_edge(8, 0, 0);
        let dst = Topology::fat_tree_edge(8, 7, 3);
        assert_eq!(a.path(src, dst).unwrap(), b.path(src, dst).unwrap());
        assert_eq!(a.distance(src, dst).unwrap(), 4);
    }

    #[test]
    fn fat_tree_paths_are_valid_shortest_paths() {
        let t = Topology::fat_tree(4);
        for s in 0..t.len() {
            for d in 0..t.len() {
                let p = t.path(NodeId(s), NodeId(d)).unwrap();
                assert!(p.len() <= 5, "fat-tree diameter is 4");
                // Consecutive path nodes are adjacent.
                for w in p.windows(2) {
                    assert!(t.neighbors(w[0]).contains(&w[1].0));
                }
            }
        }
    }

    #[test]
    fn fat_tree_64_routes_one_destination_in_linear_memory() {
        let t = Topology::fat_tree(64);
        assert_eq!((t.len(), t.link_count()), (5_120, 131_072));
        let src = Topology::fat_tree_edge(64, 0, 0);
        let dst = Topology::fat_tree_edge(64, 63, 0);
        assert_eq!(t.distance(src, dst), Ok(4));
        // One column of n next hops, not an all-pairs table.
        let filled: Vec<usize> = (0..t.len())
            .filter(|&d| t.toward[d].get().is_some())
            .collect();
        assert_eq!(filled, vec![dst.0]);
    }

    #[test]
    fn routes_are_cached_per_destination_and_ignored_by_eq() {
        let t = Topology::fat_tree(4);
        let fresh = t.clone();
        let (a, b) = (
            Topology::fat_tree_edge(4, 0, 0),
            Topology::fat_tree_edge(4, 3, 1),
        );
        let p = t.path(a, b).unwrap();
        assert_eq!(t, fresh, "a filled cache leaves the graph equal");
        let warm = t.clone();
        assert!(
            warm.toward[b.0].get().is_some(),
            "a clone carries its columns"
        );
        assert_eq!(warm.path(a, b).unwrap(), p);
        assert_eq!(fresh.path(a, b).unwrap(), p);
    }

    #[test]
    fn unknown_nodes_are_typed_errors() {
        let t = Topology::linear(3);
        let (ok, bad) = (NodeId(1), NodeId(3));
        for (src, dst) in [(bad, ok), (ok, bad)] {
            let err = TopologyError::UnknownNode(bad);
            assert_eq!(t.next_hop(src, dst), Err(err.clone()));
            assert_eq!(t.path(src, dst), Err(err.clone()));
            assert_eq!(t.distance(src, dst), Err(err));
        }
        assert!(TopologyError::UnknownNode(bad).to_string().contains("s3"));
    }

    #[test]
    fn serde_round_trip_keeps_routing_rule() {
        for t in [Topology::fat_tree(4), Topology::stanford_backbone()] {
            let _ = t.path(NodeId(0), NodeId(5));
            let json = serde_json::to_string(&t).unwrap();
            assert!(
                !json.contains("toward"),
                "the route cache is not serialized"
            );
            let back: Topology = serde_json::from_str(&json).unwrap();
            assert_eq!(back, t);
            for d in 0..t.len() {
                for s in 0..t.len() {
                    assert_eq!(
                        back.next_hop(NodeId(s), NodeId(d)),
                        t.next_hop(NodeId(s), NodeId(d))
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn fat_tree_rejects_odd_arity() {
        let _ = Topology::fat_tree(3);
    }

    #[test]
    fn duplicate_links_deduplicated() {
        let t = Topology::new(2, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(t.neighbors(NodeId(0)), &[1]);
    }
}
