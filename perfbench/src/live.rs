//! Closed-loop replay through a live loopback cluster.
//!
//! `LIVE_LANES` client threads each own a [`NetClient`] and replay every
//! `LIVE_LANES`-th record of the trace, one outstanding request each,
//! entering through proxy `record.client mod n` (the simulator's sticky
//! assignment). Every reply body is checked against
//! [`adc_net::origin_body`] after the timed replay, from a fingerprint
//! taken on arrival, so the check costs the clients almost nothing.

use adc_core::{CacheAgent, ClientId, ObjectId, ProxyId, ProxyStats, RequestId};
use adc_net::{Cluster, NetClient};
use adc_sim::thread_cpu_now;
use adc_workload::{RequestRecord, SizeModel};
use std::io;
use std::time::{Duration, Instant};

/// Client threads, hence requests in flight: the machine's two cores.
pub const LIVE_LANES: usize = 2;

/// Per-request timeout; a request that exceeds it counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Consecutive timeouts after which a lane gives up (its remaining
/// requests count as not completed), bounding a wedged run.
const MAX_TIMEOUTS_IN_ROW: u32 = 3;

/// One client request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct ClientSpan {
    /// The issuing lane.
    pub lane: usize,
    /// The request's wire id, which agent spans carry too.
    pub request: RequestId,
    /// The requested object.
    pub object: ObjectId,
    /// Send time, ns since the span epoch.
    pub start_ns: u64,
    /// Round trip, ns.
    pub dur_ns: u64,
}

/// Outcome of one replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// Requests issued.
    pub attempted: u64,
    /// Requests answered with the right body.
    pub completed: u64,
    /// Completed requests served from a proxy cache.
    pub hits: u64,
    /// Requests that timed out, failed on the socket, returned a wrong
    /// body or were never issued after a lane gave up.
    pub failed: u64,
    /// Round trip of every answered request, ns.
    pub latencies_ns: Vec<u64>,
    /// Every request, when spans were asked for.
    pub spans: Vec<ClientSpan>,
    /// Wall time of the replay.
    pub wall: Duration,
    /// Client-thread CPU time over wall time, averaged over lanes.
    pub lane_cpu_fraction: f64,
    /// Cluster counters accumulated during the replay.
    pub stats: ProxyStats,
}

/// A running cluster plus one client per lane.
#[derive(Debug)]
pub struct LiveRig<A> {
    /// The cluster.
    pub cluster: Cluster<A>,
    clients: Vec<NetClient>,
    /// Requests each client has issued so far: its next request's seq.
    issued: Vec<u64>,
}

impl<A: CacheAgent + Send + 'static> LiveRig<A> {
    /// Spawns a loopback cluster of `agents` and one client per lane.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn spawn(agents: Vec<A>) -> io::Result<Self> {
        tokio::runtime::block_on(async move {
            let cluster = Cluster::spawn_with_agents(agents).await?;
            let mut clients = Vec::with_capacity(LIVE_LANES);
            for lane in 0..LIVE_LANES {
                // Ids far above the trace's clients, which only pick the
                // entry proxy.
                clients.push(
                    cluster
                        .client(ClientId::new(u32::MAX - 1 - lane as u32))
                        .await?,
                );
            }
            Ok(LiveRig {
                cluster,
                clients,
                issued: vec![0; LIVE_LANES],
            })
        })
    }

    /// Restarts every proxy cold: tables, caches and byte stores are
    /// emptied, sockets and connections stay up.
    pub fn reset(&self) {
        for node in &self.cluster.proxies {
            let mut agent = node.agent.lock();
            agent.reset();
            agent.drain_cache_events();
            node.store.lock().clear();
        }
    }

    /// Replays `records`, recording a [`ClientSpan`] per request when
    /// `spans` is set (their clock starts at `epoch`).
    pub fn replay(&mut self, records: &[RequestRecord], spans: bool, epoch: Instant) -> Replay {
        let proxies = self.cluster.num_proxies();
        let before = self.cluster.cluster_stats();
        let start = Instant::now();
        let lanes: Vec<Lane> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter()
                .zip(&self.issued)
                .enumerate()
                .map(|(lane, (client, &issued))| {
                    let mine = records.iter().skip(lane).step_by(LIVE_LANES);
                    scope.spawn(move || run_lane(lane, client, issued, mine, proxies, spans, epoch))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client lane panicked"))
                .collect()
        });
        let wall = start.elapsed();
        let stats = stats_delta(&self.cluster.cluster_stats(), &before);

        let sizes = SizeModel::default();
        let mut replay = Replay {
            wall,
            stats,
            ..Replay::default()
        };
        for (lane, result) in lanes.into_iter().enumerate() {
            self.issued[lane] += result.issued;
            replay.attempted += result.assigned;
            replay.failed += result.assigned - result.answers.len() as u64;
            for answer in &result.answers {
                let expected = adc_net::origin_body(answer.object, &sizes);
                if answer.len != expected.len() || answer.fingerprint != fingerprint(&expected) {
                    replay.failed += 1;
                    continue;
                }
                replay.completed += 1;
                replay.hits += u64::from(answer.hit);
                replay.latencies_ns.push(answer.dur_ns);
            }
            replay.spans.extend(result.spans);
            replay.lane_cpu_fraction +=
                result.cpu.as_secs_f64() / wall.as_secs_f64().max(1e-9) / LIVE_LANES as f64;
        }
        replay
    }
}

/// A reply as it arrived; checked against the origin after the replay.
struct Answer {
    object: ObjectId,
    hit: bool,
    len: usize,
    fingerprint: u64,
    dur_ns: u64,
}

struct Lane {
    assigned: u64,
    issued: u64,
    answers: Vec<Answer>,
    spans: Vec<ClientSpan>,
    cpu: Duration,
}

fn run_lane<'a>(
    lane: usize,
    client: &NetClient,
    issued: u64,
    records: impl Iterator<Item = &'a RequestRecord>,
    proxies: u32,
    record_spans: bool,
    epoch: Instant,
) -> Lane {
    let cpu_start = thread_cpu_now();
    let records: Vec<&RequestRecord> = records.collect();
    let mut out = Lane {
        assigned: records.len() as u64,
        issued: 0,
        answers: Vec::with_capacity(records.len()),
        spans: Vec::new(),
        cpu: Duration::ZERO,
    };
    tokio::runtime::block_on(async {
        let mut timeouts_in_row = 0;
        for record in records {
            if timeouts_in_row >= MAX_TIMEOUTS_IN_ROW {
                break;
            }
            let via = ProxyId::new(record.client.raw() % proxies);
            let request = RequestId::new(client.id(), issued + out.issued);
            out.issued += 1;
            let start = Instant::now();
            let result = client
                .request_timeout(record.object, via, REQUEST_TIMEOUT)
                .await;
            let dur_ns = start.elapsed().as_nanos() as u64;
            if record_spans {
                out.spans.push(ClientSpan {
                    lane,
                    request,
                    object: record.object,
                    start_ns: start.duration_since(epoch).as_nanos() as u64,
                    dur_ns,
                });
            }
            match result {
                Ok((reply, body)) if reply.object == record.object => {
                    timeouts_in_row = 0;
                    out.answers.push(Answer {
                        object: record.object,
                        hit: reply.served_from.is_hit(),
                        len: body.len(),
                        fingerprint: fingerprint(&body),
                        dur_ns,
                    });
                }
                Ok(_) => timeouts_in_row = 0,
                Err(e) if e.kind() == io::ErrorKind::TimedOut => timeouts_in_row += 1,
                Err(_) => {}
            }
        }
    });
    out.cpu = thread_cpu_now().saturating_sub(cpu_start);
    out
}

/// A cheap 64-bit digest of a body (word-wise multiply-xor).
fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h ^ word)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `after - before`, field by field.
fn stats_delta(after: &ProxyStats, before: &ProxyStats) -> ProxyStats {
    ProxyStats {
        requests_received: after.requests_received - before.requests_received,
        local_hits: after.local_hits - before.local_hits,
        forwards_learned: after.forwards_learned - before.forwards_learned,
        forwards_random: after.forwards_random - before.forwards_random,
        origin_loops: after.origin_loops - before.origin_loops,
        origin_max_hops: after.origin_max_hops - before.origin_max_hops,
        origin_this_miss: after.origin_this_miss - before.origin_this_miss,
        replies_processed: after.replies_processed - before.replies_processed,
        replies_orphaned: after.replies_orphaned - before.replies_orphaned,
        cache_insertions: after.cache_insertions - before.cache_insertions,
        cache_evictions: after.cache_evictions - before.cache_evictions,
    }
}
