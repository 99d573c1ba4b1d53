//! Replays a workload against a live TCP cluster and reports hit
//! statistics — the bridge between `adc-workload` streams and the real
//! deployment, mirroring what the simulator does for the modelled one.

use crate::client::TraceScrapeResult;
use crate::cluster::Cluster;
use crate::flight::FlightRecorder;
use adc_core::{CacheAgent, ClientId, ProxyId};
use adc_workload::RequestRecord;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Consecutive timeouts through one proxy before the traced driver
/// declares it dead, stops routing to it, and (with a flight recorder)
/// dumps its post-mortem.
pub const PEER_DEATH_THRESHOLD: u32 = 3;

/// Results of replaying a workload over TCP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveReport {
    /// Requests completed.
    pub completed: u64,
    /// Requests served from a proxy cache.
    pub hits: u64,
    /// Requests that timed out (counted, not retried).
    pub timeouts: u64,
    /// Total object-body bytes received by the client.
    pub bytes_received: u64,
    /// Wall-clock duration of the replay.
    pub wall_time: Duration,
}

impl DriveReport {
    /// Fraction of completed requests served from proxy caches.
    pub fn hit_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.hits as f64 / self.completed as f64
        }
    }
}

/// Replays `workload` through `cluster`, one request at a time, entering
/// through proxy `client mod n` (the simulator's sticky assignment).
///
/// Uses a single client endpoint regardless of the records' client IDs —
/// the ID only selects the entry proxy, matching the simulator's
/// accounting.
///
/// # Errors
///
/// Propagates socket errors other than per-request timeouts (which are
/// counted in the report).
pub async fn drive_workload<A: CacheAgent + Send + 'static>(
    cluster: &Cluster<A>,
    workload: impl IntoIterator<Item = RequestRecord>,
    per_request_timeout: Duration,
) -> io::Result<DriveReport> {
    let n = cluster.num_proxies();
    let client = cluster.client(ClientId::new(u32::MAX - 1)).await?;
    let start = Instant::now();
    let mut report = DriveReport {
        completed: 0,
        hits: 0,
        timeouts: 0,
        bytes_received: 0,
        wall_time: Duration::ZERO,
    };
    for record in workload {
        let via = ProxyId::new(record.client.raw() % n);
        match client
            .request_timeout(record.object, via, per_request_timeout)
            .await
        {
            Ok((reply, body)) => {
                report.completed += 1;
                report.bytes_received += body.len() as u64;
                if reply.served_from.is_hit() {
                    report.hits += 1;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                report.timeouts += 1;
            }
            Err(e) => return Err(e),
        }
    }
    report.wall_time = start.elapsed();
    Ok(report)
}

/// Results of a traced replay: the plain [`DriveReport`] plus the
/// client-side trace scrape and what the peer-death watchdog saw.
#[derive(Debug)]
pub struct TracedDriveReport {
    /// The hit/timeout accounting, as in [`drive_workload`].
    pub report: DriveReport,
    /// The client's own span ring drained at the end of the replay,
    /// with collector-clock samples on [`Cluster::epoch`] so it merges
    /// like any scraped node lane. `None` when the cluster is untraced.
    pub client_trace: Option<TraceScrapeResult>,
    /// Proxies the watchdog declared dead during the replay.
    pub dead_proxies: Vec<ProxyId>,
    /// Post-mortem files written for the dead proxies (flight recorder
    /// runs only).
    pub postmortems: Vec<PathBuf>,
}

/// Whether a request error looks like the entry proxy dying (silent or
/// connection-level failure) rather than a driver-side bug.
fn is_peer_death_signal(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
    )
}

/// Like [`drive_workload`] but with live-tracing plumbing: the client
/// records root spans, consecutive per-proxy failures (timeouts or
/// connection errors) trip a peer-death watchdog (threshold
/// `PEER_DEATH_THRESHOLD`, 3) that reroutes around the dead proxy, and —
/// when `flight` is given — each death dumps the proxy's post-mortem
/// from the shared in-process handles.
///
/// # Errors
///
/// Propagates socket errors that are not peer-death signals; returns
/// `BrokenPipe` when every proxy has been declared dead.
pub async fn drive_workload_traced<A: CacheAgent + Send + 'static>(
    cluster: &Cluster<A>,
    workload: impl IntoIterator<Item = RequestRecord>,
    per_request_timeout: Duration,
    flight: Option<&FlightRecorder>,
) -> io::Result<TracedDriveReport> {
    let n = cluster.num_proxies();
    let client = cluster.client(ClientId::new(u32::MAX - 1)).await?;
    let start = Instant::now();
    let mut report = DriveReport {
        completed: 0,
        hits: 0,
        timeouts: 0,
        bytes_received: 0,
        wall_time: Duration::ZERO,
    };
    let mut consecutive_timeouts = vec![0u32; n as usize];
    let mut dead = vec![false; n as usize];
    let mut dead_proxies = Vec::new();
    let mut postmortems = Vec::new();
    for record in workload {
        // Sticky assignment, rerouted past proxies declared dead. The
        // check is the driver's own strike table, not the in-process
        // alive flag: detection must stay observational, as it would be
        // against a remote deployment.
        let preferred = record.client.raw() % n;
        let Some(via) = (0..n)
            .map(|step| (preferred + step) % n)
            .find(|&p| !dead[p as usize])
        else {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "every proxy is dead",
            ));
        };
        match client
            .request_timeout(record.object, ProxyId::new(via), per_request_timeout)
            .await
        {
            Ok((reply, body)) => {
                consecutive_timeouts[via as usize] = 0;
                report.completed += 1;
                report.bytes_received += body.len() as u64;
                if reply.served_from.is_hit() {
                    report.hits += 1;
                }
            }
            Err(e) if is_peer_death_signal(&e) => {
                report.timeouts += 1;
                consecutive_timeouts[via as usize] += 1;
                if consecutive_timeouts[via as usize] >= PEER_DEATH_THRESHOLD {
                    dead[via as usize] = true;
                    let p = ProxyId::new(via);
                    dead_proxies.push(p);
                    if let Some(flight) = flight {
                        let now_us = cluster.epoch.elapsed().as_micros() as u64;
                        let reason = format!(
                            "driver declared peer dead after {PEER_DEATH_THRESHOLD} consecutive timeouts"
                        );
                        if let Ok(path) =
                            flight.dump_proxy(&cluster.proxies[via as usize], now_us, &reason)
                        {
                            postmortems.push(path);
                        }
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
    report.wall_time = start.elapsed();
    // Drain the client's own ring, sampling the collector clock around
    // the node-clock read so the merger can align it exactly like a
    // wire scrape (with a near-zero uncertainty window).
    let client_trace = client.tracer().map(|tracer| {
        let sent_us = cluster.epoch.elapsed().as_micros() as u64;
        let (dropped, jsonl) = tracer.lock().scrape();
        let node_now_us = client.epoch().elapsed().as_micros() as u64;
        let recv_us = cluster.epoch.elapsed().as_micros() as u64;
        TraceScrapeResult {
            node_now_us,
            dropped,
            jsonl,
            sent_us,
            recv_us,
        }
    });
    Ok(TracedDriveReport {
        report,
        client_trace,
        dead_proxies,
        postmortems,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_core::AdcConfig;
    use adc_workload::StationaryZipf;

    #[tokio::test]
    async fn replay_over_tcp_produces_hits() {
        let config = AdcConfig::builder()
            .single_capacity(128)
            .multiple_capacity(128)
            .cache_capacity(64)
            .max_hops(8)
            .build();
        let cluster = Cluster::spawn_adc(3, config).await.unwrap();
        let workload: Vec<RequestRecord> = StationaryZipf::new(30, 1.0, 6, 5).take(400).collect();
        let report = drive_workload(&cluster, workload, Duration::from_secs(5))
            .await
            .unwrap();
        assert_eq!(report.completed, 400);
        assert_eq!(report.timeouts, 0);
        assert!(
            report.hit_rate() > 0.3,
            "hot objects over TCP should hit: {:.3}",
            report.hit_rate()
        );
        assert!(report.bytes_received > 0);
        // The TCP cluster's own counters agree on the workload volume.
        assert!(cluster.cluster_stats().requests_received >= 400);
    }
}
