//! The network latency model.
//!
//! Latencies shape reported response times and the interleaving of
//! concurrent flows; hit and hop counts are latency-independent, which is
//! why the paper could validate its single-host runs against the
//! distributed testbed.

use crate::time::SimTime;
use adc_core::NodeId;

/// One-way latencies between node classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Client ↔ proxy latency (LAN).
    pub client_proxy: SimTime,
    /// Proxy ↔ proxy latency (LAN or metro).
    pub proxy_proxy: SimTime,
    /// Proxy ↔ origin latency (WAN).
    pub proxy_origin: SimTime,
    /// Service time the origin spends per request.
    pub origin_service: SimTime,
}

impl Default for LatencyModel {
    /// A LAN proxy farm in front of a WAN origin: 1 ms client–proxy,
    /// 2 ms proxy–proxy, 40 ms to the origin, 2 ms origin service time.
    fn default() -> Self {
        LatencyModel {
            client_proxy: SimTime::from_millis(1),
            proxy_proxy: SimTime::from_millis(2),
            proxy_origin: SimTime::from_millis(40),
            origin_service: SimTime::from_millis(2),
        }
    }
}

impl LatencyModel {
    /// A zero-latency model: every transfer is instantaneous. Useful for
    /// pure hit/hop studies and fast tests.
    pub fn instant() -> Self {
        LatencyModel {
            client_proxy: SimTime::ZERO,
            proxy_proxy: SimTime::ZERO,
            proxy_origin: SimTime::ZERO,
            origin_service: SimTime::ZERO,
        }
    }

    /// One-way latency for a transfer from `from` to `to`.
    ///
    /// A node sending to itself costs nothing (no network transfer).
    pub fn latency(&self, from: NodeId, to: NodeId) -> SimTime {
        use NodeId::*;
        if from == to {
            return SimTime::ZERO;
        }
        match (from, to) {
            (Client(_), Proxy(_)) | (Proxy(_), Client(_)) => self.client_proxy,
            (Proxy(_), Proxy(_)) => self.proxy_proxy,
            (Proxy(_), Origin) | (Origin, Proxy(_)) => self.proxy_origin,
            // Clients never talk to the origin directly in this system,
            // but give the path a sane cost anyway.
            (Client(_), Origin) | (Origin, Client(_)) => self.proxy_origin,
            (Client(_), Client(_)) => self.client_proxy,
            (Origin, Origin) => SimTime::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_core::{ClientId, ProxyId};

    fn client() -> NodeId {
        NodeId::Client(ClientId::new(0))
    }

    fn proxy(i: u32) -> NodeId {
        NodeId::Proxy(ProxyId::new(i))
    }

    #[test]
    fn class_latencies() {
        let m = LatencyModel::default();
        assert_eq!(m.latency(client(), proxy(0)), m.client_proxy);
        assert_eq!(m.latency(proxy(0), client()), m.client_proxy);
        assert_eq!(m.latency(proxy(0), proxy(1)), m.proxy_proxy);
        assert_eq!(m.latency(proxy(0), NodeId::Origin), m.proxy_origin);
        assert_eq!(m.latency(NodeId::Origin, proxy(0)), m.proxy_origin);
    }

    #[test]
    fn self_transfer_is_free() {
        let m = LatencyModel::default();
        assert_eq!(m.latency(proxy(3), proxy(3)), SimTime::ZERO);
    }

    #[test]
    fn instant_model_is_all_zero() {
        let m = LatencyModel::instant();
        assert_eq!(m.latency(client(), proxy(0)), SimTime::ZERO);
        assert_eq!(m.latency(proxy(0), NodeId::Origin), SimTime::ZERO);
        assert_eq!(m.origin_service, SimTime::ZERO);
    }
}
