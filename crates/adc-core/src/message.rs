//! Request and reply messages exchanged between clients, proxies and the
//! origin server.

use crate::ids::{ClientId, NodeId, ObjectId, ProxyId, RequestId};

/// Who ultimately produced the object data for a request.
///
/// Set once by the resolving node and never rewritten (unlike the
/// [`Reply::resolver`] field, which proxies on the backwarding path *do*
/// rewrite as part of the agreement protocol). Metrics use this to count
/// hits: a request served from any proxy cache is a hit, one served by the
/// origin server is a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// The origin server resolved the request (miss).
    Origin,
    /// A proxy served the object from its local cache (hit).
    Cache(ProxyId),
}

impl ServedFrom {
    /// Returns `true` when the request was a proxy-cache hit.
    pub fn is_hit(self) -> bool {
        matches!(self, ServedFrom::Cache(_))
    }
}

/// A request for an object, travelling client → proxy → … → resolver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Globally unique request ID (client address + counter).
    pub id: RequestId,
    /// The requested object.
    pub object: ObjectId,
    /// The client that issued the request.
    pub client: ClientId,
    /// The node that sent this message on its current hop (rewritten by
    /// each forwarder, the paper's `Request.setSender(this)`).
    pub sender: NodeId,
    /// Number of proxy forwardings so far (`Request.isMaxHops()`).
    pub hops: u32,
}

impl Request {
    /// Creates the initial request as a client would emit it.
    pub fn new(id: RequestId, object: ObjectId, client: ClientId) -> Self {
        Request {
            id,
            object,
            client,
            sender: NodeId::Client(client),
            hops: 0,
        }
    }
}

/// A reply carrying the resolved object back along the forwarding path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// The request this reply answers.
    pub id: RequestId,
    /// The resolved object.
    pub object: ObjectId,
    /// The client the reply is ultimately destined for.
    pub client: ClientId,
    /// The proxy all backwarding proxies should agree on as the object's
    /// location. `None` means the data came straight from the origin
    /// server and no proxy has claimed it yet (the paper's "a NULL value
    /// stays for the data from the origin server").
    pub resolver: Option<ProxyId>,
    /// The proxy that holds (or just stored) a cached copy, if any — the
    /// paper's `reply.notCached()` test. Only one proxy per reply path may
    /// claim this.
    pub cached_by: Option<ProxyId>,
    /// Who actually produced the data (immutable; used for hit/miss
    /// accounting).
    pub served_from: ServedFrom,
    /// Size of the object in bytes (workload-assigned; informational in
    /// the simulator, real payload length in the TCP runtime).
    pub size: u32,
}

impl Reply {
    /// Builds the reply the origin server sends: resolver unset, marked as
    /// served by the origin.
    pub fn from_origin(req: &Request, size: u32) -> Self {
        Reply {
            id: req.id,
            object: req.object,
            client: req.client,
            resolver: None,
            cached_by: None,
            served_from: ServedFrom::Origin,
            size,
        }
    }

    /// Builds the reply a proxy sends when it serves `req` from its local
    /// cache: it is both the resolver and the caching location.
    pub fn from_cache(req: &Request, proxy: ProxyId, size: u32) -> Self {
        Reply {
            id: req.id,
            object: req.object,
            client: req.client,
            resolver: Some(proxy),
            cached_by: Some(proxy),
            served_from: ServedFrom::Cache(proxy),
            size,
        }
    }
}

/// Any message on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message {
    /// A request travelling toward a resolver.
    Request(Request),
    /// A reply travelling back toward the client.
    Reply(Reply),
}

impl Message {
    /// The request ID this message belongs to.
    pub fn request_id(&self) -> RequestId {
        match self {
            Message::Request(r) => r.id,
            Message::Reply(r) => r.id,
        }
    }

    /// The object this message concerns.
    pub fn object(&self) -> ObjectId {
        match self {
            Message::Request(r) => r.object,
            Message::Reply(r) => r.object,
        }
    }
}

impl From<Request> for Message {
    fn from(r: Request) -> Self {
        Message::Request(r)
    }
}

impl From<Reply> for Message {
    fn from(r: Reply) -> Self {
        Message::Reply(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> Request {
        Request::new(
            RequestId::new(ClientId::new(1), 7),
            ObjectId::new(42),
            ClientId::new(1),
        )
    }

    #[test]
    fn new_request_starts_at_client() {
        let r = request();
        assert_eq!(r.sender, NodeId::Client(ClientId::new(1)));
        assert_eq!(r.hops, 0);
    }

    #[test]
    fn origin_reply_has_no_resolver() {
        let rep = Reply::from_origin(&request(), 1024);
        assert!(rep.resolver.is_none());
        assert!(rep.cached_by.is_none());
        assert!(!rep.served_from.is_hit());
    }

    #[test]
    fn cache_reply_is_a_hit() {
        let p = ProxyId::new(3);
        let rep = Reply::from_cache(&request(), p, 1024);
        assert_eq!(rep.resolver, Some(p));
        assert_eq!(rep.cached_by, Some(p));
        assert!(rep.served_from.is_hit());
    }

    #[test]
    fn message_accessors() {
        let req = request();
        let m: Message = req.into();
        assert_eq!(m.request_id(), req.id);
        assert_eq!(m.object(), req.object);
        let m: Message = Reply::from_origin(&req, 1).into();
        assert_eq!(m.request_id(), req.id);
    }
}
