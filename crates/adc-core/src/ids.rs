//! Identifier newtypes used throughout the ADC system.
//!
//! The paper identifies objects by URL and requests by "the client's IP
//! address and an internal request counter". We keep the same structure but
//! use compact integer newtypes; [`ObjectId::from_url`] provides the
//! URL-to-ID mapping (the paper's future-work note about hashing URLs with
//! MD5 to save memory — we use a 64-bit FNV-1a which serves the same
//! purpose in a simulation).

use std::fmt;

/// A cacheable object (the paper's `OBJ-ID`, i.e. a URL).
///
/// # Examples
///
/// ```
/// use adc_core::ObjectId;
///
/// let a = ObjectId::from_url("http://example.com/index.html");
/// let b = ObjectId::from_url("http://example.com/index.html");
/// assert_eq!(a, b);
/// assert_ne!(a, ObjectId::from_url("http://example.com/other.html"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// Creates an object ID directly from a raw 64-bit value.
    pub const fn new(raw: u64) -> Self {
        ObjectId(raw)
    }

    /// Derives an object ID from a URL string via 64-bit FNV-1a.
    ///
    /// Deterministic across runs and platforms.
    pub fn from_url(url: &str) -> Self {
        ObjectId(fnv1a_64(url.as_bytes()))
    }

    /// Returns the raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj:{}", self.0)
    }
}

impl From<u64> for ObjectId {
    fn from(raw: u64) -> Self {
        ObjectId(raw)
    }
}

/// 64-bit FNV-1a hash; small, allocation-free and stable.
pub(crate) fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// One proxy agent in the cooperative proxy set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProxyId(pub u32);

impl ProxyId {
    /// Creates a proxy ID.
    pub const fn new(raw: u32) -> Self {
        ProxyId(raw)
    }

    /// Returns the raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ProxyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Proxy[{}]", self.0)
    }
}

/// A requesting client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u32);

impl ClientId {
    /// Creates a client ID.
    pub const fn new(raw: u32) -> Self {
        ClientId(raw)
    }

    /// Returns the raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client:{}", self.0)
    }
}

/// Globally unique request identifier.
///
/// The paper: "Each request comes with a global unique ID (usually based on
/// the clients IP address and an internal request counter), which is used to
/// give each proxy the option to identify forwarding loops."
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId {
    /// The client that issued the request.
    pub client: ClientId,
    /// The client's own monotone request counter.
    pub seq: u64,
}

impl RequestId {
    /// Creates a request ID from a client and its request counter.
    pub const fn new(client: ClientId, seq: u64) -> Self {
        RequestId { client, seq }
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req:{}:{}", self.client.0, self.seq)
    }
}

/// Any addressable endpoint in the system: a client, a proxy, or the origin
/// server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// A requesting client.
    Client(ClientId),
    /// A cooperative proxy.
    Proxy(ProxyId),
    /// The origin server that can always resolve a request.
    Origin,
}

impl NodeId {
    /// Returns the proxy ID if this node is a proxy.
    pub fn as_proxy(self) -> Option<ProxyId> {
        match self {
            NodeId::Proxy(p) => Some(p),
            _ => None,
        }
    }

    /// Returns `true` if this node is the origin server.
    pub fn is_origin(self) -> bool {
        matches!(self, NodeId::Origin)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Client(c) => write!(f, "{c}"),
            NodeId::Proxy(p) => write!(f, "{p}"),
            NodeId::Origin => write!(f, "origin"),
        }
    }
}

impl From<ClientId> for NodeId {
    fn from(c: ClientId) -> Self {
        NodeId::Client(c)
    }
}

impl From<ProxyId> for NodeId {
    fn from(p: ProxyId) -> Self {
        NodeId::Proxy(p)
    }
}

/// The learned location of an object, as stored in a mapping-table entry
/// (the paper's `PROXY` column: either `Proxy[i]` or `THIS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// This proxy is itself responsible for the object (`THIS`).
    This,
    /// A remote peer proxy is responsible.
    Remote(ProxyId),
}

impl Location {
    /// Resolves the location from the point of view of proxy `me`.
    pub fn resolve(self, me: ProxyId) -> ProxyId {
        match self {
            Location::This => me,
            Location::Remote(p) => p,
        }
    }

    /// Normalizes a concrete proxy address into `This`/`Remote` from the
    /// point of view of proxy `me`.
    pub fn from_proxy(proxy: ProxyId, me: ProxyId) -> Self {
        if proxy == me {
            Location::This
        } else {
            Location::Remote(proxy)
        }
    }

    /// Returns `true` for the `THIS` marker.
    pub fn is_this(self) -> bool {
        matches!(self, Location::This)
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::This => write!(f, "This"),
            Location::Remote(p) => write!(f, "{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_id_from_url_is_deterministic() {
        let a = ObjectId::from_url("http://www.xy634/");
        let b = ObjectId::from_url("http://www.xy634/");
        assert_eq!(a, b);
    }

    #[test]
    fn object_id_from_url_differs_for_different_urls() {
        assert_ne!(
            ObjectId::from_url("http://www.xy634/"),
            ObjectId::from_url("http://www.xy34/")
        );
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn location_resolution() {
        let me = ProxyId::new(3);
        assert_eq!(Location::This.resolve(me), me);
        assert_eq!(
            Location::Remote(ProxyId::new(7)).resolve(me),
            ProxyId::new(7)
        );
        assert_eq!(Location::from_proxy(me, me), Location::This);
        assert_eq!(
            Location::from_proxy(ProxyId::new(1), me),
            Location::Remote(ProxyId::new(1))
        );
        assert!(Location::This.is_this());
        assert!(!Location::Remote(ProxyId::new(0)).is_this());
    }

    #[test]
    fn node_id_helpers() {
        let p = NodeId::Proxy(ProxyId::new(2));
        assert_eq!(p.as_proxy(), Some(ProxyId::new(2)));
        assert!(!p.is_origin());
        assert!(NodeId::Origin.is_origin());
        assert_eq!(NodeId::Origin.as_proxy(), None);
    }

    #[test]
    fn display_formats_match_paper_style() {
        assert_eq!(ProxyId::new(5).to_string(), "Proxy[5]");
        assert_eq!(Location::This.to_string(), "This");
        assert_eq!(RequestId::new(ClientId::new(9), 4).to_string(), "req:9:4");
    }
}
