//! Message size accounting for the CONGEST bandwidth limit.

/// Bits needed to address one of `n` entities (nodes, parts, edges): the
/// `⌈log₂(n+1)⌉` of the CONGEST model's `O(log n)`-bit id assumption. At
/// least 1 even for degenerate networks.
///
/// ```
/// use lcs_congest::id_bits;
/// assert_eq!(id_bits(1), 1);
/// assert_eq!(id_bits(64), 7);
/// assert_eq!(id_bits(1 << 20), 21);
/// ```
pub fn id_bits(n: usize) -> usize {
    let n = n.max(1) as u64;
    (u64::BITS - n.leading_zeros()) as usize
}

/// Types that can report their wire size in bits.
///
/// The simulator checks every sent message against the per-round bandwidth
/// (`O(log n)` bits by default) and bills [`RunMetrics::bits`] accordingly.
/// Implementations should account for what a reasonable binary encoding
/// would use — exact bit-packing is not required, but sizes must scale
/// correctly: a message carrying two node ids must report roughly
/// `2·log n`, not a constant.
///
/// There is one way to size a message,
/// [`size_bits_in`](MessageSize::size_bits_in): id payloads (node / part /
/// fragment ids) report [`id_bits`]`(n)` so bits-metrics scale as
/// `O(log n)` like the model assumes; value payloads (raw `u64`
/// aggregates, hashes) ignore `n` and bill their full width.
///
/// [`RunMetrics::bits`]: crate::RunMetrics::bits
pub trait MessageSize {
    /// Size of this message in bits in an `n`-node network. Id payloads
    /// scale as [`id_bits`]`(n)`; value payloads keep their fixed width.
    fn size_bits_in(&self, n: usize) -> usize;

    /// The *marginal* cost in bits of appending this message to a
    /// [`PackedMsg`] batch whose previous element is `prev` — the
    /// multi-value-message compression hook of [`SimConfig::message_packing`].
    ///
    /// The default is the full [`size_bits_in`](MessageSize::size_bits_in)
    /// (no shared framing). Enum message types whose variants carry a
    /// discriminant tag should drop the tag when `prev` has the same
    /// discriminant: a run of same-variant values is encoded as one tag
    /// followed by the fixed-width payloads, which is exactly how k values
    /// of `O(log n / k)` bits ride one `O(log n)`-bit CONGEST message.
    ///
    /// Implementations must never report more than `size_bits_in` here —
    /// packing may only compress, or the batch billing of [`PackedMsg`]
    /// would exceed the sum of its parts.
    ///
    /// [`SimConfig::message_packing`]: crate::SimConfig::message_packing
    fn size_bits_packed_in(&self, prev: &Self, n: usize) -> usize {
        let _ = prev;
        self.size_bits_in(n)
    }
}

/// The wire envelope of the engine: either a single protocol message (the
/// unpacked fast path, billed exactly like the raw message) or a coalesced
/// batch of values that one directed edge carries in one round.
///
/// With [`SimConfig::message_packing`]` = k > 1` the engine groups the
/// sends of one node-round by `(port, priority)` and coalesces up to `k`
/// sends of a group into one `Batch`, greedily while the batch stays within
/// the per-message bandwidth budget. A batch counts as **one** CONGEST message (one
/// `messages` tick, one queue slot, one delivery round) and
/// [`size_bits_in`](MessageSize::size_bits_in) bills its true packed width:
/// the first value at full size plus each later value at its
/// [`size_bits_packed_in`](MessageSize::size_bits_packed_in) marginal cost.
///
/// Receivers never see this type — the shard unpacks a batch into
/// individual [`Incoming`] entries (same port, original send order), so
/// protocol results are identical at every packing level.
///
/// [`SimConfig::message_packing`]: crate::SimConfig::message_packing
/// [`Incoming`]: crate::Incoming
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PackedMsg<M> {
    /// A single unpacked value; the wire format (and exact bit cost) of a
    /// `message_packing = 1` send.
    One(M),
    /// Two or more values coalesced for one edge-round. Invariant
    /// (maintained by the engine's packer): `len >= 2`, all values were
    /// issued to one port with one priority in one callback, and the packed
    /// width fits the bandwidth budget.
    Batch(Vec<M>),
}

impl<M> PackedMsg<M> {
    /// Number of protocol-level values carried.
    pub fn len(&self) -> usize {
        match self {
            PackedMsg::One(_) => 1,
            PackedMsg::Batch(vs) => vs.len(),
        }
    }

    /// Whether the envelope is empty (never true for engine-built
    /// envelopes; present for completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The carried values, in issue order.
    pub fn iter(&self) -> std::slice::Iter<'_, M> {
        match self {
            PackedMsg::One(m) => std::slice::from_ref(m).iter(),
            PackedMsg::Batch(vs) => vs.iter(),
        }
    }

    /// Unpacks into the carried values, applying `f` to each in issue
    /// order — the receiver-side delivery loop.
    pub fn for_each(self, mut f: impl FnMut(M)) {
        match self {
            PackedMsg::One(m) => f(m),
            PackedMsg::Batch(vs) => vs.into_iter().for_each(&mut f),
        }
    }
}

impl<M: MessageSize> MessageSize for PackedMsg<M> {
    /// The true packed width: first value at full size, every later value
    /// at its marginal [`size_bits_packed_in`](MessageSize::size_bits_packed_in)
    /// cost (shared framing billed once per run).
    fn size_bits_in(&self, n: usize) -> usize {
        match self {
            PackedMsg::One(m) => m.size_bits_in(n),
            PackedMsg::Batch(vs) => {
                let mut bits = 0;
                let mut prev: Option<&M> = None;
                for m in vs {
                    bits += match prev {
                        None => m.size_bits_in(n),
                        Some(p) => m.size_bits_packed_in(p, n),
                    };
                    prev = Some(m);
                }
                bits
            }
        }
    }
}

/// Envelope types the calendar queue can coalesce at *delivery* time.
///
/// Send-side packing ([`SimConfig::message_packing`]) only merges sends
/// issued within one node-round; a trickle sender that emits
/// one value per round never benefits. Delivery-time merging closes that
/// gap: when a queued-mode token fires, the backend absorbs follow-up
/// envelopes of the same (port, priority) — in FIFO order — into the firing
/// envelope, as long as the combined value count stays within the packing
/// factor and the combined width within the bandwidth budget.
///
/// The defaults make a type unmergeable (`merge_cost_in` = `usize::MAX`
/// never fits any budget), so only [`PackedMsg`] — the engine's actual wire
/// envelope — opts in.
///
/// [`SimConfig::message_packing`]: crate::SimConfig::message_packing
pub(crate) trait Mergeable {
    /// Number of protocol-level values carried.
    fn values(&self) -> usize {
        1
    }

    /// Bits added to `self`'s packed width by absorbing `other` behind it,
    /// in an `n`-node network. `usize::MAX` (the default) means "cannot
    /// merge".
    fn merge_cost_in(&self, other: &Self, n: usize) -> usize {
        let _ = (other, n);
        usize::MAX
    }

    /// Appends `other`'s values behind `self`'s. Only called after
    /// [`merge_cost_in`](Mergeable::merge_cost_in) returned a finite cost.
    fn absorb(&mut self, other: Self)
    where
        Self: Sized,
    {
        let _ = other;
        unreachable!("absorb called on an unmergeable message type");
    }
}

impl<M: MessageSize> Mergeable for PackedMsg<M> {
    fn values(&self) -> usize {
        self.len()
    }

    fn merge_cost_in(&self, other: &Self, n: usize) -> usize {
        // Marginal cost of other's values appended behind self's last
        // value — the same chaining rule PackedMsg::size_bits_in uses, so
        // billing an absorbed batch equals billing it as one send-side
        // batch.
        let mut prev = match self {
            PackedMsg::One(m) => m,
            PackedMsg::Batch(vs) => match vs.last() {
                Some(m) => m,
                None => return other.size_bits_in(n),
            },
        };
        let mut cost = 0usize;
        for m in other.iter() {
            cost = cost.saturating_add(m.size_bits_packed_in(prev, n));
            prev = m;
        }
        cost
    }

    fn absorb(&mut self, other: Self) {
        let mut vs = match std::mem::replace(self, PackedMsg::Batch(Vec::new())) {
            PackedMsg::One(m) => vec![m],
            PackedMsg::Batch(vs) => vs,
        };
        match other {
            PackedMsg::One(m) => vs.push(m),
            PackedMsg::Batch(os) => vs.extend(os),
        }
        *self = PackedMsg::Batch(vs);
    }
}

impl MessageSize for () {
    fn size_bits_in(&self, _n: usize) -> usize {
        1
    }
}

impl MessageSize for bool {
    fn size_bits_in(&self, _n: usize) -> usize {
        1
    }
}

/// Raw 32-bit payload: billed at full width regardless of `n`. Id payloads
/// want an `n`-aware [`MessageSize::size_bits_in`] impl, billing
/// [`id_bits`]`(n)`, so the bits-metric scales as `O(log n)`.
impl MessageSize for u32 {
    fn size_bits_in(&self, _n: usize) -> usize {
        32
    }
}

impl<A: MessageSize, B: MessageSize> MessageSize for (A, B) {
    fn size_bits_in(&self, n: usize) -> usize {
        self.0.size_bits_in(n) + self.1.size_bits_in(n)
    }
}

impl<T: MessageSize> MessageSize for Option<T> {
    fn size_bits_in(&self, n: usize) -> usize {
        1 + self.as_ref().map_or(0, |m| m.size_bits_in(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        // Raw payloads are n-independent.
        for n in [2, 1000] {
            assert_eq!(().size_bits_in(n), 1);
            assert_eq!(true.size_bits_in(n), 1);
            assert_eq!(7u32.size_bits_in(n), 32);
        }
    }

    #[test]
    fn composite_sizes() {
        assert_eq!((1u32, 2u32).size_bits_in(64), 64);
        assert_eq!(Some(1u32).size_bits_in(64), 33);
        assert_eq!(None::<u32>.size_bits_in(64), 1);
        // Composites forward the n-aware sizing to their components.
        assert_eq!((Tagged::Id(1), 2u32).size_bits_in(64), 3 + 7 + 32);
        assert_eq!(Some(Tagged::Id(1)).size_bits_in(64), 1 + 3 + 7);
    }

    #[test]
    fn id_bits_is_ceil_log2() {
        assert_eq!(id_bits(0), 1);
        assert_eq!(id_bits(1), 1);
        assert_eq!(id_bits(2), 2);
        assert_eq!(id_bits(3), 2);
        assert_eq!(id_bits(4), 3);
        assert_eq!(id_bits(255), 8);
        assert_eq!(id_bits(256), 9);
        assert_eq!(id_bits(100_000), 17);
    }

    /// A test message with a 3-bit tag whose marginal cost drops the tag
    /// for same-variant runs — the shape real protocol enums use.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Tagged {
        Id(u32),
        Val(u64),
    }

    impl MessageSize for Tagged {
        fn size_bits_in(&self, n: usize) -> usize {
            match self {
                Tagged::Id(_) => 3 + id_bits(n),
                Tagged::Val(_) => 3 + 64,
            }
        }

        fn size_bits_packed_in(&self, prev: &Self, n: usize) -> usize {
            if std::mem::discriminant(self) == std::mem::discriminant(prev) {
                self.size_bits_in(n) - 3
            } else {
                self.size_bits_in(n)
            }
        }
    }

    #[test]
    fn packed_one_bills_exactly_the_inner_message() {
        let one = PackedMsg::One(Tagged::Id(9));
        assert_eq!(one.size_bits_in(100), Tagged::Id(9).size_bits_in(100));
        assert_eq!(one.len(), 1);
        assert!(!one.is_empty());
    }

    #[test]
    fn packed_batch_bills_marginal_costs_after_the_first() {
        // Homogeneous run: one 3-bit tag + three id payloads.
        let b = PackedMsg::Batch(vec![Tagged::Id(1), Tagged::Id(2), Tagged::Id(3)]);
        assert_eq!(b.size_bits_in(64), (3 + 7) + 7 + 7);
        // A variant switch restarts the tag.
        let mixed = PackedMsg::Batch(vec![Tagged::Id(1), Tagged::Id(2), Tagged::Val(9)]);
        assert_eq!(mixed.size_bits_in(64), (3 + 7) + 7 + (3 + 64));
        // Default marginal (no compression): batch = sum of parts.
        let plain = PackedMsg::Batch(vec![7u32, 8, 9]);
        assert_eq!(plain.size_bits_in(1000), 96);
    }

    #[test]
    fn merge_cost_matches_send_side_batch_billing() {
        // Absorbing envelopes one by one must bill exactly what one big
        // send-side batch of the same values would.
        let mut env = PackedMsg::One(Tagged::Id(1));
        let mut width = env.size_bits_in(64);
        for follow in [
            PackedMsg::One(Tagged::Id(2)),
            PackedMsg::Batch(vec![Tagged::Id(3), Tagged::Val(9)]),
        ] {
            width += env.merge_cost_in(&follow, 64);
            env.absorb(follow);
        }
        let reference = PackedMsg::Batch(vec![
            Tagged::Id(1),
            Tagged::Id(2),
            Tagged::Id(3),
            Tagged::Val(9),
        ]);
        assert_eq!(env, reference);
        assert_eq!(width, reference.size_bits_in(64));
        assert_eq!(env.values(), 4);
    }

    #[test]
    fn packed_unpacking_preserves_issue_order() {
        let b = PackedMsg::Batch(vec![10u32, 20, 30]);
        assert_eq!(b.iter().copied().collect::<Vec<_>>(), vec![10, 20, 30]);
        let mut got = Vec::new();
        b.for_each(|m| got.push(m));
        assert_eq!(got, vec![10, 20, 30]);
    }
}
