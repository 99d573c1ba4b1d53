//! The backwarding store (§III.2 of the paper): for every request a
//! proxy has forwarded and not yet answered, the stack of hops its reply
//! must retrace. ADC, unlimited ADC, SOAP and the caching tree keep one.

use crate::ids::{NodeId, ProxyId, RequestId};
use crate::message::Reply;
use crate::stats::Tally;
use adc_obs::Probe;
use std::collections::hash_map::Entry;
#[expect(
    clippy::disallowed_types,
    reason = "keyed access only, never iterated, so hasher order cannot leak into results"
)]
use std::collections::HashMap;

/// The previous hops of one pending request, most recent on top.
///
/// Without fault duplicates a request visits a proxy at most twice (the
/// second visit is a detected loop and goes to the origin), so two hops
/// are held inline and only a third spills to the heap.
#[derive(Debug, Clone, PartialEq, Eq)]
enum HopStack {
    One(NodeId),
    Two(NodeId, NodeId),
    Spilled(Vec<NodeId>),
}

impl HopStack {
    fn push(&mut self, hop: NodeId) {
        match self {
            HopStack::One(first) => *self = HopStack::Two(*first, hop),
            HopStack::Two(first, second) => *self = HopStack::Spilled(vec![*first, *second, hop]),
            HopStack::Spilled(hops) => hops.push(hop),
        }
    }
}

/// Pending requests and their backwarding hops, unwound last in, first
/// out per request. Each call probes the map once, and a request that
/// loops at most once never allocates.
#[derive(Debug, Default)]
pub struct Backwarding {
    #[expect(clippy::disallowed_types, reason = "keyed access only, never iterated")]
    pending: HashMap<RequestId, HopStack>,
}

impl Backwarding {
    /// Creates an empty store.
    pub fn new() -> Self {
        Backwarding::default()
    }

    /// Records that `request` arrived from `hop`. Returns `true` when the
    /// request was already pending here: a forwarding loop.
    pub fn push(&mut self, request: RequestId, hop: NodeId) -> bool {
        match self.pending.entry(request) {
            Entry::Occupied(mut stack) => {
                stack.get_mut().push(hop);
                true
            }
            Entry::Vacant(slot) => {
                slot.insert(HopStack::One(hop));
                false
            }
        }
    }

    /// Pops the hop `reply` retraces from proxy `at`, accounting for the
    /// reply in `tally`: a match is a processed reply, and a reply for a
    /// request not pending here is orphaned and gets `None`.
    pub fn pop_reply<P: Probe>(
        &mut self,
        at: ProxyId,
        reply: &Reply,
        tally: &mut Tally,
        probe: &mut P,
    ) -> Option<NodeId> {
        tally.reply(probe, at, reply, self.pop(reply.id))
    }

    fn pop(&mut self, request: RequestId) -> Option<NodeId> {
        let Entry::Occupied(mut pending) = self.pending.entry(request) else {
            return None;
        };
        let stack = pending.get_mut();
        match stack {
            HopStack::One(hop) => {
                let hop = *hop;
                pending.remove();
                Some(hop)
            }
            HopStack::Two(first, second) => {
                let hop = *second;
                *stack = HopStack::One(*first);
                Some(hop)
            }
            HopStack::Spilled(hops) => {
                let hop = hops.pop();
                if hops.is_empty() {
                    pending.remove();
                }
                hop
            }
        }
    }

    /// Number of requests awaiting a reply.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Returns `true` when no request awaits a reply.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Number of hops stacked for `request`.
    #[cfg(test)]
    pub(crate) fn depth(&self, request: RequestId) -> usize {
        match self.pending.get(&request) {
            None => 0,
            Some(HopStack::One(_)) => 1,
            Some(HopStack::Two(..)) => 2,
            Some(HopStack::Spilled(hops)) => hops.len(),
        }
    }

    /// Forgets every pending request.
    pub fn clear(&mut self) {
        self.pending.clear();
    }
}
