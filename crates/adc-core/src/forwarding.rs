//! The forwarding skeleton the learning agents share: the paper's
//! `Receive_Request` (Figure 5) and `Receive_Reply` (Figure 7), with the
//! lookup and the learning step left to the agent.
//!
//! ADC looks up its mapping tables, unlimited ADC its unbounded map and
//! SOAP its category map. Everything else is written here once: the loop
//! and hop-limit checks, the random peer, the backwarding store, resolver
//! adoption and the caching claim.

use crate::agent::ActionSink;
use crate::backwarding::Backwarding;
use crate::ids::{Location, NodeId, ProxyId};
use crate::message::{Reply, Request};
use crate::proxy::DEFAULT_OBJECT_SIZE;
use crate::stats::{ProxyStats, Tally};
use adc_obs::{Probe, SimEvent};
use rand::{Rng, RngCore};

/// One learning proxy's identity, peer set, backwarding store and
/// accounting, and the two halves of its forwarding algorithm.
#[derive(Debug)]
pub struct ForwardingCore {
    id: ProxyId,
    /// All proxies in the system, including this one; random forwarding
    /// selects uniformly over this set ("including itself").
    peers: Vec<ProxyId>,
    max_hops: u32,
    /// For every pending request, the stack of previous hops (a stack
    /// because a looping request can traverse the same proxy twice).
    pending: Backwarding,
    tally: Tally,
}

impl ForwardingCore {
    /// The core of proxy `id` forwarding over `peers`, sending a request
    /// that arrives with `max_hops` hops to the origin.
    ///
    /// # Panics
    ///
    /// Panics if `peers` does not contain `id`.
    pub fn new(id: ProxyId, peers: Vec<ProxyId>, max_hops: u32) -> Self {
        assert!(peers.contains(&id), "peer set must include the proxy");
        ForwardingCore {
            id,
            peers,
            max_hops,
            pending: Backwarding::new(),
            tally: Tally::default(),
        }
    }

    /// This proxy's identity.
    pub fn id(&self) -> ProxyId {
        self.id
    }

    /// The peer set random forwarding draws from (including this proxy).
    pub(crate) fn peers(&self) -> &[ProxyId] {
        &self.peers
    }

    /// Number of requests awaiting a reply.
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// The counters so far.
    pub fn stats(&self) -> &ProxyStats {
        self.tally.stats()
    }

    /// The accounting the agent records its own decisions into.
    pub fn tally_mut(&mut self) -> &mut Tally {
        &mut self.tally
    }

    /// A local hit: records it and answers the request's sender from the
    /// cache.
    #[inline]
    pub fn hit<P: Probe>(&mut self, request: Request, probe: &mut P, out: &mut ActionSink) {
        let event = SimEvent::LocalHit {
            proxy: self.id.raw(),
            object: request.object.raw(),
        };
        self.tally.record(probe, event);
        let reply = Reply::from_cache(&request, self.id, DEFAULT_OBJECT_SIZE);
        out.send(request.sender, reply);
    }

    /// Figure 5's miss path: remembers the backwarding hop, then forwards
    /// the request to the origin on a loop or at the hop limit, else to
    /// the location `lookup` returns. `Remote` is a learned forward,
    /// `This` (responsible but not holding the data) goes to the origin,
    /// and no entry goes to a uniformly random peer. `lookup` runs only
    /// when the loop and hop-limit checks pass.
    #[inline]
    pub fn miss<P: Probe>(
        &mut self,
        request: Request,
        lookup: impl FnOnce() -> Option<Location>,
        rng: &mut dyn RngCore,
        probe: &mut P,
        out: &mut ActionSink,
    ) {
        let (proxy, object) = (self.id.raw(), request.object.raw());
        let looped = self.pending.push(request.id, request.sender);
        // Each branch records its own variant, so the record folds to the
        // one counter that variant moves.
        let tally = &mut self.tally;
        let to = if looped {
            tally.record(probe, SimEvent::LoopDetected { proxy, object });
            NodeId::Origin
        } else if request.hops >= self.max_hops {
            let hops = request.hops;
            let event = SimEvent::HopLimitHit {
                proxy,
                object,
                hops,
            };
            tally.record(probe, event);
            NodeId::Origin
        } else {
            match lookup() {
                Some(Location::Remote(p)) => {
                    let to = p.raw();
                    tally.record(probe, SimEvent::ForwardLearned { proxy, object, to });
                    NodeId::Proxy(p)
                }
                Some(Location::This) => {
                    tally.record(probe, SimEvent::OriginThisMiss { proxy, object });
                    NodeId::Origin
                }
                None => {
                    let i = rng.gen_range(0..self.peers.len());
                    #[expect(clippy::indexing_slicing, reason = "i < peers.len() by gen_range")]
                    let peer = self.peers[i];
                    let to = peer.raw();
                    tally.record(probe, SimEvent::ForwardRandom { proxy, object, to });
                    NodeId::Proxy(peer)
                }
            }
        };
        let mut forwarded = request;
        forwarded.sender = NodeId::Proxy(self.id);
        forwarded.hops += 1;
        out.send(to, forwarded);
    }

    /// Figure 7: pops the hop `reply` retraces (an orphan stops here),
    /// makes this proxy the resolver of an origin reply, and passes the
    /// resolver's location to `learn`, which updates the agent's tables
    /// and says whether the object's data is now held here. If it is and
    /// nobody nearer the resolver cached it, this proxy claims the
    /// caching location ("focus on only one caching location") before
    /// the reply moves on.
    #[inline]
    pub fn reply<P: Probe>(
        &mut self,
        mut reply: Reply,
        probe: &mut P,
        out: &mut ActionSink,
        learn: impl FnOnce(Location, &mut Tally, &mut P) -> bool,
    ) {
        let Some(prev_hop) = self
            .pending
            .pop_reply(self.id, &reply, &mut self.tally, probe)
        else {
            return;
        };
        // A null resolver means the data came from the origin server;
        // this proxy becomes the official resolver.
        let resolver = *reply.resolver.get_or_insert(self.id);
        if resolver != self.id {
            // Backwarding taught us a remote owner for this object.
            let event = SimEvent::BackwardAdoption {
                proxy: self.id.raw(),
                object: reply.object.raw(),
                owner: resolver.raw(),
            };
            self.tally.record(probe, event);
        }
        let location = Location::from_proxy(resolver, self.id);
        if learn(location, &mut self.tally, probe) && reply.cached_by.is_none() {
            reply.resolver = Some(self.id);
            reply.cached_by = Some(self.id);
        }
        out.send(prev_hop, reply);
    }

    /// Number of hops stacked for `request`.
    #[cfg(test)]
    pub(crate) fn pending_depth(&self, request: crate::ids::RequestId) -> usize {
        self.pending.depth(request)
    }

    /// Forgets every pending request and drops the store changes no
    /// runtime drained, as a restart would. Counters are kept.
    pub fn reset(&mut self) {
        self.pending.clear();
        self.tally.drain();
    }
}
