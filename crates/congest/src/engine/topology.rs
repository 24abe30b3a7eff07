//! Per-run routing: the shard layout of the node-id space, and where a
//! directed edge's messages are received, read off the graph itself.
//!
//! A run builds no per-edge table. A send over `v`'s `port` is addressed,
//! once, to where it arrives: the neighbour `w` on that port and `w`'s
//! port back to `v`, a binary search in `w`'s sorted neighbours
//! ([`Topology::recv`]). The receiving shard follows from `w` and the
//! shard bounds by arithmetic. Shards are contiguous node-id ranges, so
//! the directed edges a shard *receives* correspond one-to-one to its own
//! nodes' CSR slots `first_out[lo]..first_out[hi]` (slot `first_out[w] +
//! back` for the edge into `w` over `back`): that range indexes the
//! shard's delivery partition, which lets the delivery backends route
//! staged messages without locks and size their flat arrays by their own
//! dirs.

use lcs_graph::{Graph, NodeId};
use std::ops::Range;

/// Where a message arrives: the receiving node and the port it arrives
/// on.
pub(crate) type To = (u32, u32);

/// Immutable per-run routing state shared by the delivery backends and the
/// shard workers (read-only across threads): `O(shards)` words.
pub(crate) struct Topology<'g> {
    g: &'g Graph,
    /// Shard boundaries over the node-id space: shard `s` owns nodes
    /// `starts[s]..starts[s + 1]`, with `starts[s] = ⌊s·n / shards⌋`.
    /// Length `num_shards + 1`.
    starts: Vec<u32>,
}

impl<'g> Topology<'g> {
    /// Splits the node-id space into `shards` contiguous, near-equal
    /// ranges.
    pub fn build(g: &'g Graph, shards: usize) -> Self {
        let n = g.num_nodes();
        let shards = shards.max(1).min(n.max(1));
        let starts = (0..=shards).map(|s| (s * n / shards) as u32).collect();
        Topology { g, starts }
    }

    /// The graph the run simulates.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Number of directed edges (`2m`). Production code sizes per-shard
    /// structures via [`shard_dirs`](Topology::shard_dirs); this remains
    /// for the delivery unit tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn num_dirs(&self) -> usize {
        *self.g.first_out().last().unwrap_or(&0) as usize
    }

    /// Number of nodes in the simulated network — the `n` the id-aware
    /// message sizing ([`MessageSize::size_bits_in`]) is billed against.
    ///
    /// [`MessageSize::size_bits_in`]: crate::MessageSize::size_bits_in
    pub fn num_nodes(&self) -> usize {
        self.g.num_nodes()
    }

    /// Number of shards the node-id space is split into.
    pub fn num_shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// The node range `[lo, hi)` owned by shard `s`.
    pub fn shard_range(&self, s: usize) -> (u32, u32) {
        (self.starts[s], self.starts[s + 1])
    }

    /// The shard owning `node`: the largest `s` with `⌊s·n / shards⌋ ≤
    /// node`, i.e. `⌊((node + 1)·shards − 1) / n⌋` — one division, and
    /// none with one shard.
    #[inline]
    pub fn shard_of(&self, node: u32) -> usize {
        let n = self.g.num_nodes() as u64;
        debug_assert!(u64::from(node) < n);
        let shards = self.starts.len() as u64 - 1;
        if shards == 1 {
            return 0;
        }
        (((u64::from(node) + 1) * shards - 1) / n) as usize
    }

    /// Where a send over `node`'s `port` arrives: the neighbour and its
    /// port back to `node`, a binary search in the neighbour's sorted
    /// heads. Its own inverse: `recv` of the result is `(node, port)`.
    #[inline]
    pub fn recv(&self, node: u32, port: u32) -> To {
        let (v, w) = (NodeId(node), self.g.heads(NodeId(node))[port as usize]);
        let back = self.g.port_to(w, v).expect("an edge's reverse slot exists");
        (w.0, back as u32)
    }

    /// The CSR slot of `node`'s `port`, which indexes the delivery
    /// partition of the shard owning `node` ([`shard_dirs`]).
    ///
    /// [`shard_dirs`]: Self::shard_dirs
    #[inline]
    pub fn slot(&self, (node, port): To) -> u32 {
        self.g.first_out()[node as usize] + port
    }

    /// The ports shard `s`'s nodes receive on — their CSR slots, each the
    /// reverse of one directed edge into the shard — which index its
    /// delivery partition.
    pub fn shard_dirs(&self, s: usize) -> Range<u32> {
        let (lo, hi) = self.shard_range(s);
        let first_out = self.g.first_out();
        first_out[lo as usize]..first_out[hi as usize]
    }

    /// The sender of what arrives at `(node, port)`: its node and port.
    /// Only used on error-reporting paths.
    pub fn sender_of(&self, (node, port): To) -> (NodeId, usize) {
        let (v, back) = self.recv(node, port);
        (NodeId(v), back as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::gen;

    #[test]
    fn reverse_ports_pair_up() {
        let g = gen::grid(4, 5);
        let topo = Topology::build(&g, 3);
        for v in g.nodes() {
            for port in 0..g.degree(v) as u32 {
                let (recv, back) = topo.recv(v.0, port);
                assert_eq!(g.heads(v)[port as usize], NodeId(recv));
                // The reverse port of the reverse port is the original.
                assert_eq!(topo.recv(recv, back), (v.0, port));
            }
        }
    }

    #[test]
    fn shards_partition_the_id_space() {
        for n in [1, 2, 7, 10, 64] {
            let g = gen::path(n);
            for shards in [1, 2, 3, 4, 10, 16] {
                let topo = Topology::build(&g, shards);
                assert_eq!(topo.shard_range(0).0, 0);
                assert_eq!(topo.shard_range(topo.num_shards() - 1).1, n as u32);
                for s in 0..topo.num_shards() {
                    let (lo, hi) = topo.shard_range(s);
                    assert!(lo < hi, "n={n} shards={shards}: shard {s} is empty");
                    for v in lo..hi {
                        assert_eq!(topo.shard_of(v), s, "n={n} shards={shards}");
                    }
                }
            }
        }
    }

    #[test]
    fn each_dir_is_received_in_the_shard_of_its_reverse_slot() {
        let g = gen::grid(4, 5);
        for shards in [1, 2, 3, 7] {
            let topo = Topology::build(&g, shards);
            let mut counts = vec![0usize; topo.num_shards()];
            for v in g.nodes() {
                for port in 0..g.degree(v) as u32 {
                    let to = topo.recv(v.0, port);
                    let s = topo.shard_of(to.0);
                    assert!(topo.shard_dirs(s).contains(&topo.slot(to)));
                    counts[s] += 1;
                }
            }
            for (s, &c) in counts.iter().enumerate() {
                assert_eq!(c, topo.shard_dirs(s).len());
            }
            assert_eq!(counts.iter().sum::<usize>(), topo.num_dirs());
        }
    }

    #[test]
    fn sender_of_inverts_dir_ids() {
        let g = gen::torus(3, 4);
        let topo = Topology::build(&g, 2);
        for v in g.nodes() {
            for port in 0..g.degree(v) {
                let dir = g.first_out()[v.index()] + port as u32;
                let to = topo.recv(v.0, port as u32);
                assert_eq!(topo.sender_of(to), (v, port));
                assert_eq!(topo.slot((v.0, port as u32)), dir);
            }
        }
    }
}
