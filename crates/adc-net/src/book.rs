//! The address book mapping logical node IDs to socket addresses.

use adc_core::{ClientId, NodeId, ProxyId};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{PoisonError, RwLock};

/// Maps [`NodeId`]s to the socket addresses where they listen.
///
/// Proxy and origin addresses are fixed at cluster start; clients register
/// themselves as they join.
#[derive(Debug)]
pub struct AddressBook {
    proxies: Vec<SocketAddr>,
    origin: SocketAddr,
    clients: RwLock<HashMap<u32, SocketAddr>>,
}

impl AddressBook {
    /// Creates a book over the given proxy addresses and origin address.
    pub fn new(proxies: Vec<SocketAddr>, origin: SocketAddr) -> Self {
        AddressBook {
            proxies,
            origin,
            clients: RwLock::new(HashMap::new()),
        }
    }

    /// Number of proxies.
    pub fn num_proxies(&self) -> u32 {
        self.proxies.len() as u32
    }

    /// Registers (or re-registers) a client's listen address.
    pub fn register_client(&self, client: ClientId, addr: SocketAddr) {
        self.clients
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(client.raw(), addr);
    }

    /// Resolves a node to its socket address.
    pub fn addr_of(&self, node: NodeId) -> Option<SocketAddr> {
        match node {
            NodeId::Proxy(p) => self.proxies.get(p.raw() as usize).copied(),
            NodeId::Origin => Some(self.origin),
            NodeId::Client(c) => self
                .clients
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .get(&c.raw())
                .copied(),
        }
    }

    /// The address of proxy `p`.
    pub fn proxy_addr(&self, p: ProxyId) -> Option<SocketAddr> {
        self.proxies.get(p.raw() as usize).copied()
    }

    /// The origin server's address.
    pub fn origin_addr(&self) -> SocketAddr {
        self.origin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn resolves_all_node_kinds() {
        let book = AddressBook::new(vec![addr(1000), addr(1001)], addr(2000));
        assert_eq!(
            book.addr_of(NodeId::Proxy(ProxyId::new(1))),
            Some(addr(1001))
        );
        assert_eq!(book.addr_of(NodeId::Origin), Some(addr(2000)));
        assert_eq!(book.addr_of(NodeId::Proxy(ProxyId::new(9))), None);
        assert_eq!(book.addr_of(NodeId::Client(ClientId::new(5))), None);
        book.register_client(ClientId::new(5), addr(3000));
        assert_eq!(
            book.addr_of(NodeId::Client(ClientId::new(5))),
            Some(addr(3000))
        );
        assert_eq!(book.num_proxies(), 2);
        assert_eq!(book.origin_addr(), addr(2000));
    }
}
