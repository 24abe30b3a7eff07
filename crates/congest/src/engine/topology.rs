//! Per-run routing tables: the directed-edge reverse map and the shard
//! layout of the node-id space.
//!
//! Messages are addressed by *directed edge id* — the graph's CSR slot
//! index `first_out[v] + port`, reused verbatim so the engine needs no
//! per-run index building beyond one O(n + m) reverse-port table. Shards
//! are contiguous node-id ranges; since a directed edge has exactly one
//! receiver, each dir belongs to exactly one receiver shard, which is what
//! lets the delivery backends route staged messages without locks.

use lcs_graph::{Graph, NodeId};

/// Immutable per-run routing state shared by the delivery backends and the
/// shard workers (read-only across threads).
pub(crate) struct Topology<'g> {
    g: &'g Graph,
    /// dir -> (receiver node, receiver's port back to the sender).
    dir_recv: Vec<(u32, u32)>,
    /// Shard boundaries over the node-id space: shard `s` owns nodes
    /// `starts[s]..starts[s + 1]`. Length `num_shards + 1`.
    starts: Vec<u32>,
    /// dir -> shard of the *receiver*, precomputed so the hot flush path
    /// routes envelopes without the boundary scan in [`shard_of`].
    ///
    /// [`shard_of`]: Topology::shard_of
    dir_shard: Vec<u32>,
    /// dir -> dense index within the receiver shard's dir partition,
    /// assigned in ascending global-dir order (so with one shard it is the
    /// identity). Lets the per-shard delivery partitions use flat arrays
    /// sized by their own dir count.
    dir_local: Vec<u32>,
    /// Per-shard partition sizes: `shard_dirs[s]` dirs are received by
    /// shard `s`.
    shard_dirs: Vec<usize>,
}

impl<'g> Topology<'g> {
    /// Builds the reverse-port table in O(n + m) and splits the node-id
    /// space into `shards` contiguous, near-equal ranges.
    pub fn build(g: &'g Graph, shards: usize) -> Self {
        let n = g.num_nodes();
        let first_out = g.first_out();
        let num_dirs = *first_out.last().unwrap_or(&0) as usize;

        // dir -> (receiver, receiver's port back), built by pairing each
        // undirected edge's two CSR slots. A slot's side is 1 iff its tail
        // is the edge's larger endpoint, derivable from the head entry
        // alone (endpoints are canonical `u < v`, so tail > head ⟺ tail is
        // the larger endpoint).
        let mut edge_dirs: Vec<[u32; 2]> = vec![[0; 2]; g.num_edges()];
        for v in g.nodes() {
            let base = first_out[v.index()];
            let heads = g.heads(v);
            for (port, &e) in g.edge_ids(v).iter().enumerate() {
                let side = usize::from(v > heads[port]);
                edge_dirs[e.index()][side] = base + port as u32;
            }
        }
        let mut dir_recv: Vec<(u32, u32)> = vec![(0, 0); num_dirs];
        for v in g.nodes() {
            let base = first_out[v.index()];
            let heads = g.heads(v);
            for (port, &e) in g.edge_ids(v).iter().enumerate() {
                let side = usize::from(v > heads[port]);
                let back = edge_dirs[e.index()][1 - side];
                let recv = heads[port];
                dir_recv[(base + port as u32) as usize] = (recv.0, back - first_out[recv.index()]);
            }
        }

        let shards = shards.max(1).min(n.max(1));
        let starts: Vec<u32> = (0..=shards).map(|s| (s * n / shards) as u32).collect();
        let mut topo = Topology {
            g,
            dir_recv,
            starts,
            dir_shard: Vec::new(),
            dir_local: Vec::new(),
            shard_dirs: Vec::new(),
        };

        // Receiver-shard routing: one more O(m) pass. `dir_local` is dense
        // within each shard and ascending in global dir order, so the
        // delivery partitions can index flat arrays by it while preserving
        // the global order whenever they iterate their own dirs.
        let mut dir_shard = vec![0u32; num_dirs];
        let mut dir_local = vec![0u32; num_dirs];
        let mut shard_dirs = vec![0usize; shards];
        for dir in 0..num_dirs {
            let s = topo.shard_of(topo.dir_recv[dir].0);
            dir_shard[dir] = s as u32;
            dir_local[dir] = shard_dirs[s] as u32;
            shard_dirs[s] += 1;
        }
        topo.dir_shard = dir_shard;
        topo.dir_local = dir_local;
        topo.shard_dirs = shard_dirs;
        topo
    }

    /// Number of directed edges (`2m`). Production code sizes per-shard
    /// structures via [`shard_dir_count`](Topology::shard_dir_count); this
    /// remains for the delivery unit tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn num_dirs(&self) -> usize {
        self.dir_recv.len()
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

    /// The shard owning `node`. Linear scan over the interior boundaries:
    /// at most `threads - 1` entries, and none at all with one shard, which
    /// returns before setting up the scan. Only the table build calls it —
    /// once per dir, so the early return is worth tens of microseconds of
    /// every one-lane run; the round loop reads the precomputed
    /// [`dir_shard`](Topology::dir_shard).
    #[inline]
    pub fn shard_of(&self, node: u32) -> usize {
        debug_assert!((node as usize) < self.g.num_nodes());
        if self.starts.len() == 2 {
            return 0;
        }
        self.starts[1..self.starts.len() - 1]
            .iter()
            .take_while(|&&b| b <= node)
            .count()
    }

    /// `(receiver node, receiver's port back to the sender)` of `dir`.
    #[inline]
    pub fn recv(&self, dir: u32) -> (u32, u32) {
        self.dir_recv[dir as usize]
    }

    /// The shard that *receives* (and therefore delivers) `dir`.
    #[inline]
    pub fn dir_shard(&self, dir: u32) -> usize {
        self.dir_shard[dir as usize] as usize
    }

    /// Dense index of `dir` within its receiver shard's partition.
    #[inline]
    pub fn dir_local(&self, dir: u32) -> usize {
        self.dir_local[dir as usize] as usize
    }

    /// Number of dirs received by shard `s` — the size of its delivery
    /// partition.
    #[inline]
    pub fn shard_dir_count(&self, s: usize) -> usize {
        self.shard_dirs[s]
    }

    /// The sender side of `dir`: `(node, port)`. O(log n) — only used on
    /// error-reporting paths.
    pub fn sender_of(&self, dir: u32) -> (NodeId, usize) {
        let first_out = self.g.first_out();
        let v = first_out.partition_point(|&b| b <= dir) - 1;
        (NodeId(v as u32), (dir - first_out[v]) as usize)
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
        let first_out = g.first_out();
        for v in g.nodes() {
            let base = first_out[v.index()];
            for port in 0..g.degree(v) {
                let dir = base + port as u32;
                let (recv, back) = topo.recv(dir);
                // The reverse slot of the reverse slot is the original.
                let back_dir = first_out[recv as usize] + back;
                let (r2, p2) = topo.recv(back_dir);
                assert_eq!((r2, p2), (v.0, port as u32));
            }
        }
    }

    #[test]
    fn shards_partition_the_id_space() {
        let g = gen::path(10);
        for shards in [1, 2, 3, 4, 10, 16] {
            let topo = Topology::build(&g, shards);
            assert_eq!(topo.shard_range(0).0, 0);
            assert_eq!(topo.shard_range(topo.num_shards() - 1).1, 10);
            for s in 0..topo.num_shards() {
                let (lo, hi) = topo.shard_range(s);
                assert!(lo <= hi);
                for v in lo..hi {
                    assert_eq!(topo.shard_of(v), s);
                }
            }
        }
    }

    #[test]
    fn dir_partitions_are_dense_and_order_preserving() {
        let g = gen::grid(4, 5);
        for shards in [1, 2, 3, 7] {
            let topo = Topology::build(&g, shards);
            let mut counts = vec![0usize; topo.num_shards()];
            let mut last_local = vec![None::<usize>; topo.num_shards()];
            for dir in 0..topo.num_dirs() as u32 {
                let s = topo.dir_shard(dir);
                assert_eq!(s, topo.shard_of(topo.recv(dir).0));
                let local = topo.dir_local(dir);
                // Dense and ascending in global dir order within a shard.
                assert_eq!(local, counts[s]);
                if let Some(prev) = last_local[s] {
                    assert_eq!(local, prev + 1);
                }
                last_local[s] = Some(local);
                counts[s] += 1;
            }
            for (s, &c) in counts.iter().enumerate() {
                assert_eq!(c, topo.shard_dir_count(s));
            }
            assert_eq!(counts.iter().sum::<usize>(), topo.num_dirs());
        }
        // Single shard: dir_local is the identity.
        let topo = Topology::build(&g, 1);
        for dir in 0..topo.num_dirs() as u32 {
            assert_eq!(topo.dir_local(dir), dir as usize);
        }
    }

    #[test]
    fn sender_of_inverts_dir_ids() {
        let g = gen::torus(3, 4);
        let topo = Topology::build(&g, 2);
        for v in g.nodes() {
            for port in 0..g.degree(v) {
                let dir = g.first_out()[v.index()] + port as u32;
                assert_eq!(topo.sender_of(dir), (v, port));
            }
        }
    }
}
