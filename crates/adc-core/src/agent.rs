//! The sans-IO agent abstraction.
//!
//! A [`CacheAgent`] consumes messages and emits [`Action`]s; it never
//! touches a socket, a clock or a global RNG. The discrete-event simulator
//! (`adc-sim`) and the TCP runtime (`adc-net`) both drive the same
//! agents, so every algorithmic decision is testable in isolation and
//! deterministic under a seeded RNG.

use crate::ids::{NodeId, ObjectId, ProxyId};
use crate::message::{Message, Reply, Request};
use crate::stats::ProxyStats;
use adc_obs::{NullProbe, Probe};
use rand::RngCore;

/// An instruction from an agent to its runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Transmit `message` to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message to deliver.
        message: Message,
    },
}

impl Action {
    /// Convenience constructor for a send action.
    pub fn send(to: impl Into<NodeId>, message: impl Into<Message>) -> Self {
        Action::Send {
            to: to.into(),
            message: message.into(),
        }
    }
}

/// A reusable scratch buffer agents push their [`Action`]s into.
///
/// Runtimes allocate one sink, pass it to every
/// [`CacheAgent::on_request`] / [`CacheAgent::on_reply`] call and drain
/// it afterwards, so steady-state message handling performs no heap
/// allocation (the backing `Vec` is retained across deliveries).
///
/// The contract between agent and runtime:
///
/// - the runtime hands the agent an **empty** sink (it drains or clears
///   it between deliveries);
/// - the agent appends zero or more actions in the order they should be
///   executed and never reads, reorders or removes prior contents;
/// - the runtime executes the actions in push order.
#[derive(Debug, Default)]
pub struct ActionSink {
    actions: Vec<Action>,
}

impl ActionSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        ActionSink::default()
    }

    /// Creates an empty sink with pre-reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        ActionSink {
            actions: Vec::with_capacity(capacity),
        }
    }

    /// Appends an action.
    pub fn push(&mut self, action: Action) {
        self.actions.push(action);
    }

    /// Appends a send action (mirrors [`Action::send`]).
    pub fn send(&mut self, to: impl Into<NodeId>, message: impl Into<Message>) {
        self.actions.push(Action::send(to, message));
    }

    /// Number of buffered actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Returns `true` when no actions are buffered.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Removes and returns the last buffered action.
    pub fn pop(&mut self) -> Option<Action> {
        self.actions.pop()
    }

    /// Drops all buffered actions, keeping the allocation.
    pub fn clear(&mut self) {
        self.actions.clear();
    }

    /// Borrows the buffered actions in push order.
    pub fn as_slice(&self) -> &[Action] {
        &self.actions
    }

    /// Removes and yields the buffered actions in push order, keeping
    /// the allocation for reuse.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Action> {
        self.actions.drain(..)
    }
}

/// A change to the agent's object store that the runtime must mirror when
/// it manages real object payloads (the TCP runtime does; the simulator
/// tracks IDs only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// The object's data should now be stored locally.
    Store(ObjectId),
    /// The object's data should be evicted.
    Evict(ObjectId),
}

/// A proxy-cache agent: ADC or one of the baselines.
///
/// Runtimes deliver every incoming message through [`CacheAgent::on_request`]
/// or [`CacheAgent::on_reply`], which push the resulting transmissions
/// into a runtime-owned [`ActionSink`], and then execute the buffered
/// actions. The RNG is injected so a run is a pure function of its seeds.
///
/// Both handlers are generic over a [`Probe`] receiving typed
/// [`SimEvent`](adc_obs::SimEvent)s. Emission sites are guarded by
/// `P::ENABLED`, an associated constant, so driving an agent with the
/// default [`NullProbe`] monomorphizes every probe hook away — the
/// disabled path compiles to the unobserved code. The trait is therefore
/// not object-safe; runtimes are generic over their agent type.
pub trait CacheAgent {
    /// This agent's proxy identity.
    fn proxy_id(&self) -> ProxyId;

    /// Handles an incoming request (the paper's `Receive_Request`).
    /// Pushes the single resulting transmission into `out`: a reply
    /// toward the sender on a cache hit, or a forwarded request
    /// otherwise.
    fn on_request<P: Probe>(
        &mut self,
        request: Request,
        rng: &mut dyn RngCore,
        probe: &mut P,
        out: &mut ActionSink,
    );

    /// Handles an incoming reply on the backwarding path (the paper's
    /// `Receive_Reply`). Pushes nothing if the reply does not match any
    /// pending request (e.g. a duplicate under failure injection).
    fn on_reply<P: Probe>(&mut self, reply: Reply, probe: &mut P, out: &mut ActionSink);

    /// Allocating convenience wrapper around [`CacheAgent::on_request`]
    /// for tests and examples that drive one delivery at a time. Hot
    /// paths should reuse an [`ActionSink`] instead.
    #[expect(
        clippy::expect_used,
        reason = "every on_request impl pushes exactly one action (checked in debug builds)"
    )]
    fn request_action(&mut self, request: Request, rng: &mut dyn RngCore) -> Action {
        let mut out = ActionSink::new();
        self.on_request(request, rng, &mut NullProbe, &mut out);
        debug_assert_eq!(out.len(), 1, "on_request emits exactly one action");
        out.pop().expect("on_request emits exactly one action")
    }

    /// Allocating convenience wrapper around [`CacheAgent::on_reply`];
    /// returns `None` for orphaned replies. Hot paths should reuse an
    /// [`ActionSink`] instead.
    fn reply_action(&mut self, reply: Reply) -> Option<Action> {
        let mut out = ActionSink::new();
        self.on_reply(reply, &mut NullProbe, &mut out);
        debug_assert!(out.len() <= 1, "on_reply emits at most one action");
        out.pop()
    }

    /// The proxy this agent currently believes owns `object` (resolved to
    /// a concrete proxy id, with `THIS`-style self references mapped to
    /// the agent's own id), or `None` when nothing is known.
    ///
    /// Used by the convergence sampler to measure inter-proxy agreement;
    /// agents without a notion of learned ownership keep the default.
    fn owner_hint(&self, object: ObjectId) -> Option<ProxyId> {
        let _ = object;
        None
    }

    /// Counters accumulated so far.
    fn stats(&self) -> &ProxyStats;

    /// Drains cache store/evict events accumulated since the last call.
    /// Runtimes that hold real payloads apply these to their byte store;
    /// the simulator may ignore them.
    fn drain_cache_events(&mut self) -> Vec<CacheEvent>;

    /// Number of objects currently cached.
    fn cached_objects(&self) -> usize;

    /// Returns `true` if the object's data is currently cached.
    fn is_cached(&self, object: ObjectId) -> bool;

    /// Forgets all learned state — tables, cached objects, pending
    /// backwarding information — as if the proxy had just restarted.
    /// Counters are preserved (they measure work done, not state held).
    ///
    /// Used by the simulator's churn injection to study how each scheme
    /// recovers from a proxy restart (the paper's unexplored "changes of
    /// the infrastructure" parameter).
    fn reset(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, RequestId};

    #[test]
    fn action_send_constructor() {
        let req = Request::new(
            RequestId::new(ClientId::new(0), 1),
            ObjectId::new(5),
            ClientId::new(0),
        );
        let a = Action::send(ProxyId::new(2), req);
        match a {
            Action::Send { to, message } => {
                assert_eq!(to, NodeId::Proxy(ProxyId::new(2)));
                assert_eq!(message.object(), ObjectId::new(5));
            }
        }
    }

    #[test]
    fn action_sink_buffers_in_push_order_and_reuses_allocation() {
        let req = Request::new(
            RequestId::new(ClientId::new(0), 1),
            ObjectId::new(5),
            ClientId::new(0),
        );
        let mut sink = ActionSink::with_capacity(4);
        assert!(sink.is_empty());
        sink.send(ProxyId::new(1), req);
        sink.push(Action::send(ProxyId::new(2), req));
        assert_eq!(sink.len(), 2);
        let dests: Vec<NodeId> = sink.drain().map(|Action::Send { to, .. }| to).collect();
        assert_eq!(
            dests,
            vec![
                NodeId::Proxy(ProxyId::new(1)),
                NodeId::Proxy(ProxyId::new(2))
            ]
        );
        assert!(sink.is_empty());
        sink.send(ProxyId::new(3), req);
        assert_eq!(sink.as_slice().len(), 1);
        sink.clear();
        assert!(sink.pop().is_none());
    }
}
