//! Live TCP cluster replay behind the `net_trace` binary.
//!
//! Spawns a real [`Cluster`] of ADC proxies on loopback with tracing on,
//! replays a deterministic request stream through it, scrapes every
//! node's span ring and merges the scrapes onto the collector timeline.

use crate::netmerge::{merge_node_traces, MergedTrace, NodeTrace};
use adc_core::{AdcConfig, ClientId, ObjectId};
use adc_net::{drive_workload_traced, Cluster};
use adc_workload::{Phase, RequestRecord};
use std::io;
use std::time::{Duration, Instant};

/// Entry proxies in the standard live replay (one client lane plus
/// `proxy-0..=3` plus `origin` in the merged trace).
pub const LIVE_PROXIES: u32 = 4;

/// Outcome of one live replay.
#[derive(Debug)]
pub struct LiveReplay {
    /// Requests in the replayed stream.
    pub requests: u64,
    /// Requests completed (the rest timed out).
    pub completed: u64,
    /// Requests served from some proxy cache.
    pub hits: u64,
    /// Wall-clock time of the replay itself (cluster spawn and trace
    /// scraping excluded).
    pub wall: Duration,
    /// Spans dropped by full rings across every scraped node, plus the
    /// client ring. Zero unless the ring capacity is undersized.
    pub spans_dropped: u64,
    /// The clock-aligned cross-node merge.
    pub merged: MergedTrace,
}

impl LiveReplay {
    /// Requests per wall-clock second.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.wall.as_secs_f64()
        }
    }
}

/// A deterministic request stream that exercises every span segment:
/// two thirds of requests revisit a 16-object hot set (local hits and
/// proxy-to-proxy forwards once the mapping tables learn), one third
/// are cold misses that must reach the origin. Clients rotate through
/// the entry proxies so traces enter the cluster everywhere.
pub fn live_workload(requests: u64) -> Vec<RequestRecord> {
    (0..requests)
        .map(|i| {
            let object = if i % 3 < 2 { 100 + i % 16 } else { 10_000 + i };
            RequestRecord {
                seq: i,
                client: ClientId::new((i % u64::from(LIVE_PROXIES)) as u32),
                object: ObjectId::new(object),
                size: 1024,
                phase: Phase::Fill,
            }
        })
        .collect()
}

fn live_config() -> AdcConfig {
    AdcConfig::builder()
        .single_capacity(256)
        .multiple_capacity(256)
        .cache_capacity(64)
        .max_hops(8)
        .build()
}

/// Spawns a fresh [`LIVE_PROXIES`]-proxy ADC cluster on loopback with
/// span rings of `trace_capacity` entries per node, replays `workload`
/// through it, ends with a full scrape and returns the clock-aligned
/// merge.
///
/// # Errors
///
/// Propagates socket and scrape errors, and lane parse errors as
/// [`io::ErrorKind::InvalidData`].
pub fn replay_live(workload: Vec<RequestRecord>, trace_capacity: usize) -> io::Result<LiveReplay> {
    tokio::runtime::block_on(async move {
        let requests = workload.len() as u64;
        let timeout = Duration::from_secs(5);
        let cluster =
            Cluster::spawn_adc_traced(LIVE_PROXIES, live_config(), trace_capacity).await?;
        let start = Instant::now();
        let traced = drive_workload_traced(&cluster, workload, timeout, None).await?;
        let wall = start.elapsed();

        let mut scrapes = cluster.collect_traces().await?;
        if let Some(client) = traced.client_trace {
            scrapes.insert(0, ("client".to_string(), client));
        }
        let mut spans_dropped = 0;
        let mut nodes = Vec::with_capacity(scrapes.len());
        for (name, scrape) in &scrapes {
            spans_dropped += scrape.dropped;
            nodes.push(
                NodeTrace::from_scrape(name, scrape)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
            );
        }
        Ok(LiveReplay {
            requests,
            completed: traced.report.completed,
            hits: traced.report.hits,
            wall,
            spans_dropped,
            merged: merge_node_traces(&nodes),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_mixes_hot_and_cold_across_entry_proxies() {
        let w = live_workload(60);
        assert_eq!(w.len(), 60);
        let hot = w.iter().filter(|r| r.object.raw() < 10_000).count();
        assert_eq!(hot, 40, "two thirds revisit the hot set");
        let clients: std::collections::HashSet<u32> = w.iter().map(|r| r.client.raw()).collect();
        assert_eq!(clients.len(), LIVE_PROXIES as usize);
    }

    #[test]
    fn traced_replay_merges_every_lane() {
        let replay = replay_live(live_workload(60), 4096).expect("live replay");
        assert_eq!(replay.completed, 60);
        assert_eq!(replay.spans_dropped, 0);
        let merged = &replay.merged;
        // client + four proxies + origin.
        assert_eq!(merged.lanes.len(), LIVE_PROXIES as usize + 2);
        // Every request leaves the client lane for an entry proxy.
        assert_eq!(merged.cross_node_traces, 60);
        assert!(replay.requests_per_sec() > 0.0);
    }
}
