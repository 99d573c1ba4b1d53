//! One-call assembly of a full ADC (or baseline) deployment on
//! localhost: origin server, N proxy nodes, and clients on demand.

use crate::book::AddressBook;
use crate::client::{NetClient, TraceScrapeResult};
use crate::flight::FlightRecorder;
use crate::node::{OriginNode, ProxyNode};
use crate::trace::NodeTracer;
use adc_baselines::CarpProxy;
use adc_core::{AdcConfig, AdcProxy, CacheAgent, ClientId, NullProbe, ProxyId, ProxyStats};
use adc_obs::netspan::ORIGIN_LANE;
use parking_lot::Mutex;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Optional subsystems a cluster can be spawned with.
#[derive(Debug, Default, Clone)]
pub struct ClusterOptions {
    /// When `Some(capacity)`, every node (proxies and origin) records
    /// live spans into a ring of this many slots and answers in-band
    /// trace scrapes.
    pub trace_capacity: Option<usize>,
    /// When present, nodes dump a post-mortem on panic and the traced
    /// driver dumps peers it declares dead.
    pub flight: Option<Arc<FlightRecorder>>,
}

/// A running localhost cluster.
///
/// The nodes' threads are detached: dropping the cluster leaves them
/// running until the process exits.
#[derive(Debug)]
pub struct Cluster<A> {
    /// Shared node address book.
    pub book: Arc<AddressBook>,
    /// The proxy nodes, indexed by proxy ID.
    pub proxies: Vec<ProxyNode<A>>,
    /// The origin server.
    pub origin: OriginNode,
    /// The instant all node clocks are compared against by
    /// [`Cluster::collect_traces`]. Each node still stamps spans on its
    /// own epoch; this one anchors the scrape-time offset estimates.
    pub epoch: Instant,
    traced: bool,
}

impl<A: CacheAgent + Send + 'static> Cluster<A> {
    /// Spawns an origin server and one proxy node per agent, all on
    /// ephemeral localhost ports. Tracing off, no flight recorder.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    ///
    /// # Panics
    ///
    /// Panics if `agents` is empty.
    pub async fn spawn_with_agents(agents: Vec<A>) -> io::Result<Cluster<A>> {
        Self::spawn_with_agents_opts(agents, ClusterOptions::default()).await
    }

    /// Spawns a cluster with explicit [`ClusterOptions`].
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    ///
    /// # Panics
    ///
    /// Panics if `agents` is empty.
    pub async fn spawn_with_agents_opts(
        agents: Vec<A>,
        options: ClusterOptions,
    ) -> io::Result<Cluster<A>> {
        assert!(!agents.is_empty(), "need at least one proxy agent");
        let origin_listener = TcpListener::bind("127.0.0.1:0")?;
        let origin_addr = origin_listener.local_addr()?;
        let mut proxy_listeners = Vec::with_capacity(agents.len());
        let mut proxy_addrs = Vec::with_capacity(agents.len());
        for _ in &agents {
            let l = TcpListener::bind("127.0.0.1:0")?;
            proxy_addrs.push(l.local_addr()?);
            proxy_listeners.push(l);
        }
        let book = Arc::new(AddressBook::new(proxy_addrs, origin_addr));
        let tracer_for = |lane: u32| {
            options
                .trace_capacity
                .map(|cap| Arc::new(Mutex::new(NodeTracer::new(lane, cap))))
        };
        let origin =
            OriginNode::spawn_full(origin_listener, Arc::clone(&book), tracer_for(ORIGIN_LANE));
        let proxies = agents
            .into_iter()
            .zip(proxy_listeners)
            .enumerate()
            .map(|(i, (agent, listener))| {
                ProxyNode::spawn_full(
                    agent,
                    listener,
                    Arc::clone(&book),
                    0xADC0 + i as u64,
                    Arc::new(Mutex::new(NullProbe)),
                    tracer_for(i as u32),
                    options.flight.clone(),
                )
            })
            .collect();
        Ok(Cluster {
            book,
            proxies,
            origin,
            epoch: Instant::now(),
            traced: options.trace_capacity.is_some(),
        })
    }

    /// Whether the cluster's nodes record live spans.
    pub fn is_traced(&self) -> bool {
        self.traced
    }

    /// Starts a client attached to this cluster. When the cluster is
    /// traced, so is the client: requests carry a context and root
    /// `client_wait` spans are recorded client-side.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub async fn client(&self, id: ClientId) -> io::Result<NetClient> {
        if self.traced {
            // The ring is per-client, so a modest default holds a full
            // scrape interval of root spans.
            NetClient::start_traced(id, Arc::clone(&self.book), 4096).await
        } else {
            NetClient::start(id, Arc::clone(&self.book)).await
        }
    }

    /// Number of proxies.
    pub fn num_proxies(&self) -> u32 {
        self.proxies.len() as u32
    }

    /// Snapshot of one proxy's counters.
    pub fn proxy_stats(&self, p: ProxyId) -> ProxyStats {
        *self.proxies[p.raw() as usize].agent.lock().stats()
    }

    /// Scrapes proxy `p`'s Prometheus text exposition over the wire.
    ///
    /// # Errors
    ///
    /// Returns `NotFound` for an unknown proxy, otherwise the errors of
    /// [`crate::client::scrape_metrics`].
    pub async fn metrics_text(&self, p: ProxyId) -> io::Result<String> {
        let addr = self
            .book
            .proxy_addr(p)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no such proxy {p}")))?;
        crate::client::scrape_metrics(addr).await
    }

    /// Scrapes the origin server's Prometheus text exposition.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`crate::client::scrape_metrics`].
    pub async fn origin_metrics_text(&self) -> io::Result<String> {
        crate::client::scrape_metrics(self.book.origin_addr()).await
    }

    /// Drains every live node's span ring over the wire and returns the
    /// concatenated JSON Lines — a quick textual view; use
    /// [`Cluster::collect_traces`] for the clock-aligned merge inputs.
    ///
    /// # Errors
    ///
    /// Propagates scrape errors from live proxies (dead ones are
    /// skipped).
    pub async fn trace_text(&self) -> io::Result<String> {
        let mut out = String::new();
        for (name, scrape) in self.collect_traces().await? {
            let _ = name; // lanes flattened in the text view
            out.push_str(&scrape.jsonl);
        }
        Ok(out)
    }

    /// Scrapes every live node's span ring, labelling each scrape with
    /// its lane name (`proxy-<p>`, `origin`). Collector clock samples
    /// are relative to [`Cluster::epoch`]. Dead proxies are skipped —
    /// their rings are only reachable via the flight recorder.
    ///
    /// # Errors
    ///
    /// Propagates scrape errors from live nodes.
    pub async fn collect_traces(&self) -> io::Result<Vec<(String, TraceScrapeResult)>> {
        let mut out = Vec::with_capacity(self.proxies.len() + 1);
        for (i, node) in self.proxies.iter().enumerate() {
            if !node.is_alive() {
                continue;
            }
            let p = ProxyId::new(i as u32);
            let addr = self.book.proxy_addr(p).expect("own proxy is in the book");
            let scrape = crate::client::scrape_trace(addr, self.epoch).await?;
            out.push((format!("proxy-{i}"), scrape));
        }
        let scrape = crate::client::scrape_trace(self.book.origin_addr(), self.epoch).await?;
        out.push(("origin".to_string(), scrape));
        Ok(out)
    }

    /// Kills proxy `p`: marks it dead and pokes its listener so the
    /// blocked accept observes the flag. In-flight requests through it
    /// will time out, which is what the traced driver's peer-death
    /// detection keys on.
    pub async fn kill_proxy(&self, p: ProxyId) {
        let node = &self.proxies[p.raw() as usize];
        node.kill();
        if let Some(addr) = self.book.proxy_addr(p) {
            // Wake-up connection: the accept returns, sees !alive, and
            // the node's accept loop exits.
            let _ = TcpStream::connect(addr);
        }
    }

    /// Cluster-wide counters.
    pub fn cluster_stats(&self) -> ProxyStats {
        let mut total = ProxyStats::default();
        for node in &self.proxies {
            total.merge(node.agent.lock().stats());
        }
        total
    }
}

impl Cluster<CarpProxy> {
    /// Spawns `n` CARP hashing proxies with per-proxy LRU caches.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub async fn spawn_carp(n: u32, cache_capacity: usize) -> io::Result<Cluster<CarpProxy>> {
        let agents = (0..n)
            .map(|i| CarpProxy::new(ProxyId::new(i), n, cache_capacity))
            .collect();
        Self::spawn_with_agents(agents).await
    }
}

impl Cluster<AdcProxy> {
    /// Spawns `n` ADC proxies with the given configuration.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub async fn spawn_adc(n: u32, config: AdcConfig) -> io::Result<Cluster<AdcProxy>> {
        let agents = (0..n)
            .map(|i| AdcProxy::new(ProxyId::new(i), n, config.clone()))
            .collect();
        Self::spawn_with_agents(agents).await
    }

    /// Spawns `n` ADC proxies with live tracing on: every node records
    /// spans into a ring of `trace_capacity` and answers in-band trace
    /// scrapes.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub async fn spawn_adc_traced(
        n: u32,
        config: AdcConfig,
        trace_capacity: usize,
    ) -> io::Result<Cluster<AdcProxy>> {
        let agents = (0..n)
            .map(|i| AdcProxy::new(ProxyId::new(i), n, config.clone()))
            .collect();
        Self::spawn_with_agents_opts(
            agents,
            ClusterOptions {
                trace_capacity: Some(trace_capacity),
                flight: None,
            },
        )
        .await
    }
}
