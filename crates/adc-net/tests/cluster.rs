//! End-to-end tests of the TCP runtime: real sockets, real bytes.

use adc_core::{AdcConfig, CacheAgent, ClientId, ObjectId, ProxyId, ServedFrom};
use adc_net::{
    drive_workload_traced, origin_body, AddressBook, Cluster, ClusterOptions, FlightRecorder,
    NetClient,
};
use adc_obs::netspan::{parse_net_spans_jsonl, NetSpan};
use adc_workload::{Phase, RequestRecord, SizeModel};
use std::collections::HashSet;
use std::time::Duration;

fn small_config() -> AdcConfig {
    AdcConfig::builder()
        .single_capacity(64)
        .multiple_capacity(64)
        .cache_capacity(32)
        .max_hops(8)
        .build()
}

#[tokio::test]
async fn request_resolves_with_correct_body() {
    let cluster = Cluster::spawn_adc(3, small_config()).await.unwrap();
    let client = cluster.client(ClientId::new(0)).await.unwrap();
    let object = ObjectId::new(1234);
    let (reply, body) = client.request(object, ProxyId::new(0)).await.unwrap();
    assert_eq!(reply.object, object);
    assert_eq!(reply.size as usize, body.len());
    // Body is the origin's deterministic content.
    assert_eq!(body, origin_body(object, &SizeModel::default()));
    assert_eq!(client.in_flight(), 0);
}

/// A request whose send fails must not stay counted as in flight, for
/// either request call.
#[tokio::test]
async fn failed_send_leaves_no_request_in_flight() {
    // A port that was bound and released: connecting is refused.
    let closed = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let book = std::sync::Arc::new(AddressBook::new(vec![closed], closed));
    let client = NetClient::start(ClientId::new(0), book).await.unwrap();
    let err = client
        .request(ObjectId::new(1), ProxyId::new(0))
        .await
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    assert_eq!(client.in_flight(), 0, "request leaked its pending slot");
    let err = client
        .request_timeout(ObjectId::new(2), ProxyId::new(0), Duration::from_secs(1))
        .await
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    assert_eq!(client.in_flight(), 0);
}

#[tokio::test]
async fn repeated_requests_become_cache_hits() {
    let cluster = Cluster::spawn_adc(3, small_config()).await.unwrap();
    let client = cluster.client(ClientId::new(1)).await.unwrap();
    let object = ObjectId::new(777);
    let mut served = Vec::new();
    for _ in 0..8 {
        let (reply, body) = client.request(object, ProxyId::new(1)).await.unwrap();
        assert!(!body.is_empty());
        served.push(reply.served_from);
    }
    // After learning, some requests must be served from a proxy cache
    // with the same body the origin produced.
    assert!(
        served.iter().any(|s| s.is_hit()),
        "no cache hits after 8 requests: {served:?}"
    );
    // And the cached copy is byte-identical.
    let (reply, body) = client.request(object, ProxyId::new(1)).await.unwrap();
    assert!(reply.served_from.is_hit());
    assert_eq!(body, origin_body(object, &SizeModel::default()));
}

#[tokio::test]
async fn different_entry_proxies_converge_on_one_location() {
    let cluster = Cluster::spawn_adc(4, small_config()).await.unwrap();
    let client = cluster.client(ClientId::new(2)).await.unwrap();
    let object = ObjectId::new(31337);
    // Hammer the object through every entry proxy.
    for round in 0..6 {
        for p in 0..4 {
            let _ = client
                .request(object, ProxyId::new((p + round) % 4))
                .await
                .unwrap();
        }
    }
    // All proxies now hold a mapping for the object; the ones that do not
    // cache it agree on a location that does.
    let mut cached_at = Vec::new();
    for node in &cluster.proxies {
        if node.agent.lock().is_cached(object) {
            cached_at.push(node.agent.lock().proxy_id());
        }
    }
    assert!(
        !cached_at.is_empty(),
        "object should be cached somewhere after 24 requests"
    );
    let (reply, _) = client.request(object, ProxyId::new(0)).await.unwrap();
    assert!(matches!(reply.served_from, ServedFrom::Cache(_)));
}

#[tokio::test]
async fn concurrent_clients_all_get_answers() {
    let cluster = Cluster::spawn_adc(3, small_config()).await.unwrap();
    let mut tasks = Vec::new();
    let cluster = std::sync::Arc::new(cluster);
    for c in 0..8u32 {
        let cluster = std::sync::Arc::clone(&cluster);
        tasks.push(tokio::spawn(async move {
            let client = cluster.client(ClientId::new(c)).await.unwrap();
            for i in 0..20u64 {
                let object = ObjectId::new(i % 5); // shared hot objects
                let via = ProxyId::new((i % 3) as u32);
                let (reply, body) = client.request(object, via).await.unwrap();
                assert_eq!(reply.object, object);
                assert_eq!(reply.size as usize, body.len());
            }
        }));
    }
    for t in tasks {
        t.await.unwrap();
    }
    let stats = cluster.cluster_stats();
    assert!(stats.requests_received >= 160);
    assert!(stats.local_hits > 0, "hot objects should produce hits");
}

#[tokio::test]
async fn stats_and_store_sizes_are_exposed() {
    let cluster = Cluster::spawn_adc(2, small_config()).await.unwrap();
    let client = cluster.client(ClientId::new(9)).await.unwrap();
    for i in 0..10u64 {
        client
            .request(ObjectId::new(i), ProxyId::new(0))
            .await
            .unwrap();
    }
    assert_eq!(cluster.num_proxies(), 2);
    let p0 = cluster.proxy_stats(ProxyId::new(0));
    assert!(p0.requests_received >= 10);
    let stored: usize = cluster.proxies.iter().map(|p| p.stored_objects()).sum();
    let cached: usize = cluster
        .proxies
        .iter()
        .map(|p| p.agent.lock().cached_objects())
        .sum();
    // The byte store mirrors the agents' cache decisions.
    assert_eq!(stored, cached);
}

#[tokio::test]
async fn carp_cluster_over_tcp_routes_to_owner() {
    let cluster = adc_net::Cluster::spawn_carp(3, 32).await.unwrap();
    let client = cluster.client(ClientId::new(5)).await.unwrap();
    let object = ObjectId::new(4242);
    // First request: origin miss; afterwards: hits at the hash owner no
    // matter which proxy the client enters through.
    let (first, _) = client.request(object, ProxyId::new(0)).await.unwrap();
    assert!(!first.served_from.is_hit());
    for entry in 0..3u32 {
        let (reply, body) = client.request(object, ProxyId::new(entry)).await.unwrap();
        assert!(reply.served_from.is_hit(), "entry {entry} missed");
        assert_eq!(reply.size as usize, body.len());
    }
    // Exactly one proxy holds the object (hash routing never replicates).
    let holders = cluster
        .proxies
        .iter()
        .filter(|p| p.agent.lock().is_cached(object))
        .count();
    assert_eq!(holders, 1);
}

use adc_metrics::{sample_value, Family};

#[tokio::test]
async fn scraped_metrics_validate_and_reconcile_with_stats() {
    let cluster = Cluster::spawn_adc(3, small_config()).await.unwrap();
    let client = cluster.client(ClientId::new(9)).await.unwrap();
    for i in 0..30u64 {
        client
            .request(ObjectId::new(i % 7), ProxyId::new((i % 3) as u32))
            .await
            .unwrap();
    }
    for p in 0..3u32 {
        let text = cluster.metrics_text(ProxyId::new(p)).await.unwrap();
        adc_metrics::validate_prometheus(&text)
            .unwrap_or_else(|e| panic!("proxy {p} exposition invalid: {e}"));
        let stats = cluster.proxy_stats(ProxyId::new(p));
        assert_eq!(
            sample_value(&text, Family::REQUESTS_RECEIVED.name(), p),
            Some(stats.requests_received),
            "proxy {p} request counter drifted from its stats snapshot"
        );
        assert_eq!(
            sample_value(&text, Family::LOCAL_HITS.name(), p),
            Some(stats.local_hits),
        );
        // The exposed gauge mirrors the live byte store.
        let stored = cluster.proxies[p as usize].stored_objects() as u64;
        assert_eq!(
            sample_value(&text, Family::CACHED_OBJECTS.name(), p),
            Some(stored)
        );
    }
}

#[tokio::test]
async fn origin_scrape_counts_served_requests() {
    let cluster = Cluster::spawn_adc(2, small_config()).await.unwrap();
    let client = cluster.client(ClientId::new(10)).await.unwrap();
    // Distinct cold objects: every request reaches the origin exactly once.
    for i in 100..110u64 {
        client
            .request(ObjectId::new(i), ProxyId::new(0))
            .await
            .unwrap();
    }
    let text = cluster.origin_metrics_text().await.unwrap();
    adc_metrics::validate_prometheus(&text).unwrap();
    let served = adc_metrics::sample(&text, Family::ORIGIN_REQUESTS.name())
        .expect("origin exposition missing its request counter");
    assert_eq!(served, 10);
}

#[tokio::test]
async fn scrape_does_not_disturb_request_traffic() {
    let cluster = Cluster::spawn_adc(2, small_config()).await.unwrap();
    let client = cluster.client(ClientId::new(11)).await.unwrap();
    for i in 0..5u64 {
        client
            .request(ObjectId::new(i), ProxyId::new(0))
            .await
            .unwrap();
        // Interleave a scrape between requests on a fresh connection.
        let text = cluster.metrics_text(ProxyId::new(0)).await.unwrap();
        assert!(text.contains(Family::REQUESTS_RECEIVED.name()));
    }
    assert_eq!(client.in_flight(), 0);
    // Proxy-to-proxy forwards also count, so at least the 5 client entries.
    let stats = cluster.proxy_stats(ProxyId::new(0));
    assert!(stats.requests_received >= 5);
}

fn record(seq: u64, client: u32, object: u64) -> RequestRecord {
    RequestRecord {
        seq,
        client: ClientId::new(client),
        object: ObjectId::new(object),
        size: 0,
        phase: Phase::Fill,
    }
}

/// All spans a set of scrapes holds, regardless of lane.
fn all_spans(scrapes: &[(String, adc_net::TraceScrapeResult)]) -> Vec<NetSpan> {
    scrapes
        .iter()
        .flat_map(|(name, s)| {
            parse_net_spans_jsonl(&s.jsonl)
                .unwrap_or_else(|e| panic!("lane {name} scraped bad JSONL: {e}"))
        })
        .collect()
}

#[tokio::test]
async fn traced_cluster_links_one_trace_across_nodes() {
    let cluster = Cluster::spawn_adc_traced(4, small_config(), 4096)
        .await
        .unwrap();
    // Cold objects through varied entry proxies: every request crosses
    // at least client -> proxy -> origin, many hop proxy-to-proxy.
    let workload: Vec<RequestRecord> = (0..40u64)
        .map(|i| record(i, i as u32 % 4, 500 + i))
        .collect();
    let traced = drive_workload_traced(&cluster, workload, Duration::from_secs(5), None)
        .await
        .unwrap();
    assert_eq!(traced.report.completed, 40);
    assert_eq!(traced.report.timeouts, 0);
    assert!(traced.dead_proxies.is_empty());

    let client_trace = traced
        .client_trace
        .expect("traced cluster traces its client");
    let client_spans = parse_net_spans_jsonl(&client_trace.jsonl).unwrap();
    assert_eq!(
        client_spans.len(),
        40,
        "one root client_wait span per request"
    );
    assert!(client_spans.iter().all(|s| s.parent_span == 0));

    let scrapes = cluster.collect_traces().await.unwrap();
    assert_eq!(scrapes.len(), 5, "four proxy lanes plus the origin");
    let node_spans = all_spans(&scrapes);
    assert!(!node_spans.is_empty());

    // Every node span belongs to a trace some client request minted.
    let roots: HashSet<u64> = client_spans.iter().map(|s| s.trace_id).collect();
    assert!(node_spans.iter().all(|s| roots.contains(&s.trace_id)));

    // At least one trace id spans two or more distinct nodes: the
    // cluster-wide linkage the merge keys on.
    let mut nodes_by_trace: std::collections::HashMap<u64, HashSet<u32>> =
        std::collections::HashMap::new();
    for s in &node_spans {
        nodes_by_trace.entry(s.trace_id).or_default().insert(s.node);
    }
    assert!(
        nodes_by_trace.values().any(|nodes| nodes.len() >= 2),
        "no trace crossed nodes: {nodes_by_trace:?}"
    );

    // Parent/child linkage survives the wire: some node span nests
    // under another recorded span (a client root or an upstream hop).
    let span_ids: HashSet<u64> = client_spans
        .iter()
        .chain(node_spans.iter())
        .map(|s| s.span_id)
        .collect();
    assert!(
        node_spans.iter().any(|s| span_ids.contains(&s.parent_span)),
        "no cross-node parent linkage"
    );

    // A second scrape finds drained rings.
    let again = cluster.collect_traces().await.unwrap();
    assert!(all_spans(&again).is_empty(), "scrape must drain the rings");
}

#[tokio::test]
async fn trace_drop_counter_reconciles_metrics_with_the_ring() {
    // A tiny ring forces overwrites on proxy 0.
    let agents = (0..2u32)
        .map(|i| adc_core::AdcProxy::new(ProxyId::new(i), 2, small_config()))
        .collect();
    let cluster = Cluster::spawn_with_agents_opts(
        agents,
        ClusterOptions {
            trace_capacity: Some(4),
            flight: None,
        },
    )
    .await
    .unwrap();
    let client = cluster.client(ClientId::new(3)).await.unwrap();
    for i in 0..30u64 {
        client
            .request(ObjectId::new(900 + i), ProxyId::new(0))
            .await
            .unwrap();
    }
    let text = cluster.metrics_text(ProxyId::new(0)).await.unwrap();
    adc_metrics::validate_prometheus(&text).unwrap();
    let dropped_metric = sample_value(&text, Family::NET_TRACE_DROPPED.name(), 0)
        .expect("traced node exposes its drop counter");
    let spans_metric = sample_value(&text, Family::NET_TRACE_SPANS.name(), 0)
        .expect("traced node exposes its span counter");
    // Block-scope the guard: clippy's await_holding_lock is lexical and
    // ignores an explicit drop before the awaits below.
    {
        let tracer = cluster.proxies[0].tracer.as_ref().unwrap().lock();
        assert_eq!(
            dropped_metric,
            tracer.dropped_total(),
            "metric must reconcile with the ring's own counter"
        );
        assert_eq!(spans_metric, tracer.counters().recorded);
    }
    assert!(
        dropped_metric > 0,
        "30 spans through a 4-slot ring must drop"
    );

    // An untraced cluster exposes no trace families at all.
    let untraced = Cluster::spawn_adc(2, small_config()).await.unwrap();
    let text = untraced.metrics_text(ProxyId::new(0)).await.unwrap();
    assert!(text.contains(Family::REQUESTS_RECEIVED.name()));
    for family in [Family::NET_TRACE_SPANS, Family::NET_TRACE_DROPPED] {
        assert!(
            !text.contains(family.name()),
            "untraced node exposes {family:?}"
        );
    }
}

#[tokio::test]
async fn killed_proxy_trips_the_watchdog_and_dumps_a_postmortem() {
    let dir = std::env::temp_dir().join(format!("adc-flight-e2e-{}", std::process::id()));
    let recorder = std::sync::Arc::new(FlightRecorder::new(&dir, 16).unwrap());
    let agents = (0..4u32)
        .map(|i| adc_core::AdcProxy::new(ProxyId::new(i), 4, small_config()))
        .collect();
    let cluster = Cluster::spawn_with_agents_opts(
        agents,
        ClusterOptions {
            trace_capacity: Some(1024),
            flight: Some(std::sync::Arc::clone(&recorder)),
        },
    )
    .await
    .unwrap();

    // Warm the doomed proxy so its post-mortem has spans to show.
    let warm: Vec<RequestRecord> = (0..8u64).map(|i| record(i, 1, 700 + i)).collect();
    drive_workload_traced(&cluster, warm, Duration::from_secs(5), Some(&recorder))
        .await
        .unwrap();

    cluster.kill_proxy(ProxyId::new(1)).await;

    // Every record prefers the dead proxy; the watchdog must strike it
    // out and reroute the rest.
    let workload: Vec<RequestRecord> = (0..10u64).map(|i| record(i, 1, 800 + i)).collect();
    let traced = drive_workload_traced(
        &cluster,
        workload,
        Duration::from_millis(400),
        Some(&recorder),
    )
    .await
    .unwrap();
    assert!(
        traced.dead_proxies.contains(&ProxyId::new(1)),
        "the killed proxy must be declared dead: {:?}",
        traced.dead_proxies
    );
    assert_eq!(traced.postmortems.len(), traced.dead_proxies.len());
    assert_eq!(
        traced.report.completed + traced.report.timeouts,
        10,
        "every record is accounted for"
    );
    // Rerouted requests can still time out when a live proxy forwards
    // into the dead one, but some must get through.
    assert!(
        traced.report.completed >= 1,
        "rerouting must save records after the strikes: {:?}",
        traced.report
    );

    let path = &traced.postmortems[0];
    assert_eq!(path, &recorder.path_for(1));
    let text = std::fs::read_to_string(path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty());
    for line in &lines {
        adc_obs::validate_json(line).expect("post-mortem lines are JSON");
    }
    assert!(lines[0].contains("\"node\":1"));
    assert!(lines[0].contains("consecutive timeouts"));
    assert!(lines[0].contains(Family::REQUESTS_RECEIVED.name()));
    assert!(lines.len() > 1, "warmed proxy dumps its recent spans");

    // The dead proxy is skipped by later trace sweeps instead of
    // hanging them.
    let scrapes = cluster.collect_traces().await.unwrap();
    assert_eq!(scrapes.len(), 4, "three live proxies plus the origin");
    assert!(scrapes.iter().all(|(name, _)| name != "proxy-1"));

    std::fs::remove_dir_all(&dir).ok();
}

#[tokio::test]
async fn panicking_agent_takes_the_node_down_and_dumps() {
    /// An agent that panics when asked for the poisoned object.
    #[derive(Debug)]
    struct PoisonAgent {
        inner: adc_core::AdcProxy,
        poison: ObjectId,
    }
    impl CacheAgent for PoisonAgent {
        fn proxy_id(&self) -> ProxyId {
            self.inner.proxy_id()
        }
        fn on_request<P: adc_core::Probe>(
            &mut self,
            request: adc_core::Request,
            rng: &mut dyn rand::RngCore,
            probe: &mut P,
            out: &mut adc_core::ActionSink,
        ) {
            assert!(request.object != self.poison, "poisoned object");
            self.inner.on_request(request, rng, probe, out);
        }
        fn on_reply<P: adc_core::Probe>(
            &mut self,
            reply: adc_core::Reply,
            probe: &mut P,
            out: &mut adc_core::ActionSink,
        ) {
            self.inner.on_reply(reply, probe, out);
        }
        fn stats(&self) -> &adc_core::ProxyStats {
            self.inner.stats()
        }
        fn drain_cache_events(&mut self) -> Vec<adc_core::CacheEvent> {
            self.inner.drain_cache_events()
        }
        fn cached_objects(&self) -> usize {
            self.inner.cached_objects()
        }
        fn is_cached(&self, object: ObjectId) -> bool {
            self.inner.is_cached(object)
        }
        fn reset(&mut self) {
            self.inner.reset();
        }
    }

    let dir = std::env::temp_dir().join(format!("adc-flight-panic-{}", std::process::id()));
    let recorder = std::sync::Arc::new(FlightRecorder::new(&dir, 8).unwrap());
    let poison = ObjectId::new(666);
    let agents = (0..2u32)
        .map(|i| PoisonAgent {
            inner: adc_core::AdcProxy::new(ProxyId::new(i), 2, small_config()),
            poison,
        })
        .collect();
    let cluster = Cluster::spawn_with_agents_opts(
        agents,
        ClusterOptions {
            trace_capacity: Some(64),
            flight: Some(std::sync::Arc::clone(&recorder)),
        },
    )
    .await
    .unwrap();
    let client = cluster.client(ClientId::new(8)).await.unwrap();
    client
        .request(ObjectId::new(5), ProxyId::new(0))
        .await
        .unwrap();
    assert!(cluster.proxies[0].is_alive());

    // The poisoned request panics the handler: no reply, node down,
    // post-mortem on disk.
    let poisoned = client
        .request_timeout(poison, ProxyId::new(0), Duration::from_millis(500))
        .await;
    assert!(poisoned.is_err());
    assert!(!cluster.proxies[0].is_alive(), "panic must kill the node");
    let text = std::fs::read_to_string(recorder.path_for(0)).unwrap();
    assert!(text
        .lines()
        .next()
        .unwrap()
        .contains("panic in frame handler"));
    for line in text.lines() {
        adc_obs::validate_json(line).unwrap();
    }

    std::fs::remove_dir_all(&dir).ok();
}
