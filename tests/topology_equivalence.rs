//! Routing equivalence gate: `Topology` computes each destination's
//! next hops on first use, and for every `(src, dst)` pair they must
//! equal those of the dense all-pairs builder it replaced. Same next
//! hops mean same paths, so every simulator RNG draw and every output
//! byte stays put.
//!
//! The reference below is that builder verbatim, with one change: it
//! routes toward a given list of destinations instead of always all of
//! them, so the 1,280-switch fat tree can be checked toward a handful
//! of destinations without an all-pairs pass.

use flow_recon::netsim::{NodeId, Topology, TopologyError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// The dense builder's state: adjacency and `next_hop[src][dst]`
/// (`usize::MAX` if unreachable or not routed, `src` if `src == dst`).
struct Dense {
    adj: Vec<Vec<usize>>,
    next_hop: Vec<Vec<usize>>,
}

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

fn from_valid_links(n: usize, links: &[(usize, usize)], dsts: &[usize]) -> Dense {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in links {
        debug_assert!(a < n && b < n && a != b, "link ({a}, {b}) invalid");
        if !adj[a].contains(&b) {
            adj[a].push(b);
            adj[b].push(a);
        }
    }
    // BFS from every destination to fill next hops.
    let mut next_hop = vec![vec![usize::MAX; n]; n];
    for &dst in dsts {
        let mut dist = vec![usize::MAX; n];
        dist[dst] = 0;
        next_hop[dst][dst] = dst;
        let mut q = VecDeque::from([dst]);
        while let Some(v) = q.pop_front() {
            for &w in &adj[v] {
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    // First hop from w toward dst is v.
                    next_hop[w][dst] = v;
                    q.push_back(w);
                }
            }
        }
    }
    Dense { adj, next_hop }
}

fn fat_tree(k: usize, dsts: &[usize]) -> Dense {
    let half = k / 2;
    let cores = half * half;
    let n = cores + k * k;
    let mut links = Vec::new();
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
    let mut t = from_valid_links(n, &links, dsts);
    // Replace the BFS-parent next hops with the deterministic ECMP
    // choice. dist[i][v] = hops from v to dsts[i].
    let mut dist = vec![vec![usize::MAX; n]; dsts.len()];
    for (&dst, d) in dsts.iter().zip(dist.iter_mut()) {
        d[dst] = 0;
        let mut q = VecDeque::from([dst]);
        while let Some(v) = q.pop_front() {
            for &w in &t.adj[v] {
                if d[w] == usize::MAX {
                    d[w] = d[v] + 1;
                    q.push_back(w);
                }
            }
        }
    }
    for src in 0..n {
        for (&dst, to_dst) in dsts.iter().zip(dist.iter()) {
            if src == dst {
                continue;
            }
            let d = to_dst[src];
            if d == usize::MAX {
                continue;
            }
            let mut best: Option<(u64, usize)> = None;
            for &w in &t.adj[src] {
                if to_dst[w] + 1 == d {
                    let key = (fnv1a([src as u64, dst as u64, w as u64]), w);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
            if let Some((_, w)) = best {
                t.next_hop[src][dst] = w;
            }
        }
    }
    t
}

/// `t` has the reference's adjacency, and its next hop from every
/// source toward each of `dsts` is the reference's, `Disconnected`
/// included; its paths follow those hops.
fn assert_same_routes(name: &str, t: &Topology, r: &Dense, dsts: &[usize]) {
    assert_eq!(t.len(), r.adj.len(), "{name}: switch count");
    for (v, adj) in r.adj.iter().enumerate() {
        assert_eq!(t.neighbors(NodeId(v)), &adj[..], "{name}: neighbors of {v}");
    }
    for &dst in dsts {
        let dst_id = NodeId(dst);
        for src in 0..r.adj.len() {
            let (src_id, at) = (NodeId(src), format!("{name}: {src} → {dst}"));
            let want = match r.next_hop[src][dst] {
                usize::MAX => Err(TopologyError::Disconnected(src_id, dst_id)),
                h => Ok(NodeId(h)),
            };
            assert_eq!(t.next_hop(src_id, dst_id), want, "{at}");
            match want {
                Err(e) => assert_eq!(t.path(src_id, dst_id), Err(e), "{at}"),
                Ok(_) => {
                    let path = t.path(src_id, dst_id).unwrap();
                    assert_eq!(path.first(), Some(&src_id), "{at}");
                    assert_eq!(path.last(), Some(&dst_id), "{at}");
                    for hop in path.windows(2) {
                        assert_eq!(r.next_hop[hop[0].0][dst], hop[1].0, "{at}");
                    }
                }
            }
        }
    }
}

fn all(n: usize) -> Vec<usize> {
    (0..n).collect()
}

#[test]
fn fat_trees_route_like_the_dense_ecmp_builder() {
    for k in [2, 4, 8, 16] {
        let t = Topology::fat_tree(k);
        let dsts = all(t.len());
        assert_same_routes(&format!("fat_tree({k})"), &t, &fat_tree(k, &dsts), &dsts);
    }
}

#[test]
fn fat_tree_32_routes_toward_the_server_like_the_dense_builder() {
    let k = 32;
    let dsts: Vec<usize> = [
        Topology::fat_tree_edge(k, 31, 0),
        Topology::fat_tree_edge(k, 0, 0),
        Topology::fat_tree_edge(k, 17, 9),
        NodeId(0),     // first core
        NodeId(255),   // last core
        NodeId(256),   // pod 0's first aggregation switch
        NodeId(1_279), // the last edge switch
    ]
    .iter()
    .map(|v| v.0)
    .collect();
    let t = Topology::fat_tree(k);
    assert_same_routes("fat_tree(32)", &t, &fat_tree(k, &dsts), &dsts);
}

#[test]
fn named_topologies_route_like_the_dense_bfs_builder() {
    let mut links = vec![(0, 1)];
    for z in 2..16 {
        links.push((0, z));
        links.push((1, z));
    }
    let dsts = all(16);
    assert_same_routes(
        "stanford_backbone",
        &Topology::stanford_backbone(),
        &from_valid_links(16, &links, &dsts),
        &dsts,
    );
    let single = from_valid_links(1, &[], &[0]);
    assert_same_routes("single_switch", &Topology::single_switch(), &single, &[0]);
    for n in 1..=9 {
        let links: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        let dsts = all(n);
        let r = from_valid_links(n, &links, &dsts);
        assert_same_routes(&format!("linear({n})"), &Topology::linear(n), &r, &dsts);
    }
}

#[test]
fn random_graphs_route_like_the_dense_bfs_builder() {
    let mut rng = StdRng::seed_from_u64(0x70b0_1091);
    let mut disconnected = 0;
    for case in 0..300 {
        let n = rng.gen_range(1usize..=24);
        let mut links: Vec<(usize, usize)> = Vec::new();
        if n > 1 {
            // Sparse to dense: the sparse end leaves disconnected parts.
            for _ in 0..rng.gen_range(0..=2 * n) {
                let a = rng.gen_range(0..n);
                let b = (a + rng.gen_range(1..n)) % n;
                links.push((a, b));
                if rng.gen_bool(0.2) {
                    // A duplicate, either way round.
                    links.push(if rng.gen_bool(0.5) { (a, b) } else { (b, a) });
                }
            }
        }
        let t = Topology::new(n, &links).unwrap();
        let dsts = all(n);
        let r = from_valid_links(n, &links, &dsts);
        disconnected += usize::from(r.next_hop.iter().flatten().any(|&h| h == usize::MAX));
        assert_same_routes(&format!("random graph {case} (n={n})"), &t, &r, &dsts);
    }
    assert!(
        disconnected >= 50,
        "only {disconnected} graphs had disconnected parts"
    );
}
