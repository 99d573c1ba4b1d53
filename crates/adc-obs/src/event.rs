//! The typed simulation-event taxonomy.
//!
//! Every decision an agent makes is one event: `adc-core`'s `Tally`
//! folds it into the agent's `ProxyStats`, queues the store change it
//! names and hands it to the probe in one call, so the counters are a
//! view of this stream. The simulator adds the flow events
//! ([`SimEvent::RequestInjected`], [`SimEvent::RequestCompleted`]) and
//! the churn restarts ([`SimEvent::ProxyRestarted`]).
//!
//! Events use **raw identifiers** (`u32` proxies/clients, `u64` objects)
//! rather than the `adc-core` newtypes: this crate sits *below* `adc-core`
//! in the dependency graph (the agent trait takes a [`Probe`] parameter),
//! so it cannot name those types. Emitters call `.raw()` at the call site;
//! the conversion is free.
//!
//! [`Probe`]: crate::Probe

use std::fmt;

/// Which of the three mapping tables (or outside of them) an entry sits
/// in; used by [`SimEvent::TableMigration`] to describe the edge an
/// entry took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableLevel {
    /// Not tracked in any table (not yet seen, or forgotten).
    Out,
    /// The single-table (LRU of once-seen objects).
    Single,
    /// The multiple-table (ordered by average inter-request time).
    Multiple,
    /// The caching table (object data stored locally).
    Caching,
}

impl TableLevel {
    /// Stable lower-case name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            TableLevel::Out => "out",
            TableLevel::Single => "single",
            TableLevel::Multiple => "multiple",
            TableLevel::Caching => "caching",
        }
    }
}

impl fmt::Display for TableLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured event emitted by an agent or the simulator runner.
///
/// Each variant is exactly one decision or state change in the ADC
/// algorithm; `ProxyStats::fold` in `adc-core` defines which counter it
/// moves, so a run's event stream reconciles with its `ProxyStats`
/// totals (a property test pins this for every agent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A workload request entered the system.
    RequestInjected {
        /// Issuing client.
        client: u32,
        /// The client's request counter.
        seq: u64,
        /// Requested object.
        object: u64,
    },
    /// A reply reached its client; the flow is complete.
    RequestCompleted {
        /// Issuing client.
        client: u32,
        /// The client's request counter.
        seq: u64,
        /// Requested object.
        object: u64,
        /// The proxy whose cache served the reply; `None` when the
        /// origin did. A hit is `server.is_some()`.
        server: Option<u32>,
        /// Message transfers the flow took end to end.
        hops: u32,
        /// Simulated injection time, microseconds.
        start_us: u64,
    },
    /// A miss was forwarded to the location learned from the tables.
    ForwardLearned {
        /// Forwarding proxy.
        proxy: u32,
        /// Requested object.
        object: u64,
        /// Learned peer the request went to.
        to: u32,
    },
    /// A miss with no table entry was forwarded to a random peer.
    ForwardRandom {
        /// Forwarding proxy.
        proxy: u32,
        /// Requested object.
        object: u64,
        /// The randomly chosen peer.
        to: u32,
    },
    /// A request visited the same proxy twice; sent to the origin.
    LoopDetected {
        /// Detecting proxy.
        proxy: u32,
        /// Requested object.
        object: u64,
    },
    /// A request exhausted the hop limit; sent to the origin.
    HopLimitHit {
        /// The proxy that gave up.
        proxy: u32,
        /// Requested object.
        object: u64,
        /// Hops the request had accumulated on arrival.
        hops: u32,
    },
    /// The tables named this proxy responsible (`THIS`) but the data is
    /// not stored; fetched from the origin.
    OriginThisMiss {
        /// The responsible-but-missing proxy.
        proxy: u32,
        /// Requested object.
        object: u64,
    },
    /// A request was served from the local cache.
    LocalHit {
        /// Serving proxy.
        proxy: u32,
        /// Requested object.
        object: u64,
    },
    /// A backwarding reply taught this proxy that a *remote* peer is the
    /// object's resolver (the paper's multicast-by-backwarding learning
    /// step).
    BackwardAdoption {
        /// Learning proxy.
        proxy: u32,
        /// The object whose location was learned.
        object: u64,
        /// The adopted owner.
        owner: u32,
    },
    /// An entry entered, left or moved between mapping tables.
    TableMigration {
        /// The proxy whose tables changed.
        proxy: u32,
        /// The migrating object.
        object: u64,
        /// Table the entry left.
        from: TableLevel,
        /// Table the entry entered.
        to: TableLevel,
    },
    /// The object's data was admitted into the local store.
    CacheInsert {
        /// Storing proxy.
        proxy: u32,
        /// Stored object.
        object: u64,
    },
    /// The object's data was evicted from the local store.
    CacheEvict {
        /// Evicting proxy.
        proxy: u32,
        /// Evicted object.
        object: u64,
    },
    /// A reply matched no pending request (duplicate or injected fault)
    /// and was dropped.
    ReplyOrphaned {
        /// The proxy that dropped it.
        proxy: u32,
        /// The orphaned reply's object.
        object: u64,
    },
    /// A scheduled restart emptied the proxy's tables, store and pending
    /// requests (churn). No decision is counted: the occupancy it drops
    /// was state, not work.
    ProxyRestarted {
        /// The restarted proxy.
        proxy: u32,
    },
}

/// The discriminant of a [`SimEvent`], for counting and labelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum EventKind {
    /// [`SimEvent::RequestInjected`]
    RequestInjected = 0,
    /// [`SimEvent::RequestCompleted`]
    RequestCompleted,
    /// [`SimEvent::ForwardLearned`]
    ForwardLearned,
    /// [`SimEvent::ForwardRandom`]
    ForwardRandom,
    /// [`SimEvent::LoopDetected`]
    LoopDetected,
    /// [`SimEvent::HopLimitHit`]
    HopLimitHit,
    /// [`SimEvent::OriginThisMiss`]
    OriginThisMiss,
    /// [`SimEvent::LocalHit`]
    LocalHit,
    /// [`SimEvent::BackwardAdoption`]
    BackwardAdoption,
    /// [`SimEvent::TableMigration`]
    TableMigration,
    /// [`SimEvent::CacheInsert`]
    CacheInsert,
    /// [`SimEvent::CacheEvict`]
    CacheEvict,
    /// [`SimEvent::ReplyOrphaned`]
    ReplyOrphaned,
    /// [`SimEvent::ProxyRestarted`]
    ProxyRestarted,
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; 14] = [
        EventKind::RequestInjected,
        EventKind::RequestCompleted,
        EventKind::ForwardLearned,
        EventKind::ForwardRandom,
        EventKind::LoopDetected,
        EventKind::HopLimitHit,
        EventKind::OriginThisMiss,
        EventKind::LocalHit,
        EventKind::BackwardAdoption,
        EventKind::TableMigration,
        EventKind::CacheInsert,
        EventKind::CacheEvict,
        EventKind::ReplyOrphaned,
        EventKind::ProxyRestarted,
    ];

    /// Number of kinds (length of [`EventKind::ALL`]).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name, used as the `"event"` field by the
    /// exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RequestInjected => "request_injected",
            EventKind::RequestCompleted => "request_completed",
            EventKind::ForwardLearned => "forward_learned",
            EventKind::ForwardRandom => "forward_random",
            EventKind::LoopDetected => "loop_detected",
            EventKind::HopLimitHit => "hop_limit_hit",
            EventKind::OriginThisMiss => "origin_this_miss",
            EventKind::LocalHit => "local_hit",
            EventKind::BackwardAdoption => "backward_adoption",
            EventKind::TableMigration => "table_migration",
            EventKind::CacheInsert => "cache_insert",
            EventKind::CacheEvict => "cache_evict",
            EventKind::ReplyOrphaned => "reply_orphaned",
            EventKind::ProxyRestarted => "proxy_restarted",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl SimEvent {
    /// This event's kind.
    pub fn kind(&self) -> EventKind {
        match self {
            SimEvent::RequestInjected { .. } => EventKind::RequestInjected,
            SimEvent::RequestCompleted { .. } => EventKind::RequestCompleted,
            SimEvent::ForwardLearned { .. } => EventKind::ForwardLearned,
            SimEvent::ForwardRandom { .. } => EventKind::ForwardRandom,
            SimEvent::LoopDetected { .. } => EventKind::LoopDetected,
            SimEvent::HopLimitHit { .. } => EventKind::HopLimitHit,
            SimEvent::OriginThisMiss { .. } => EventKind::OriginThisMiss,
            SimEvent::LocalHit { .. } => EventKind::LocalHit,
            SimEvent::BackwardAdoption { .. } => EventKind::BackwardAdoption,
            SimEvent::TableMigration { .. } => EventKind::TableMigration,
            SimEvent::CacheInsert { .. } => EventKind::CacheInsert,
            SimEvent::CacheEvict { .. } => EventKind::CacheEvict,
            SimEvent::ReplyOrphaned { .. } => EventKind::ReplyOrphaned,
            SimEvent::ProxyRestarted { .. } => EventKind::ProxyRestarted,
        }
    }

    /// The proxy that emitted or underwent the event, when there is one
    /// (runner-level flow events have none).
    pub fn proxy(&self) -> Option<u32> {
        match *self {
            SimEvent::RequestInjected { .. } | SimEvent::RequestCompleted { .. } => None,
            SimEvent::ForwardLearned { proxy, .. }
            | SimEvent::ForwardRandom { proxy, .. }
            | SimEvent::LoopDetected { proxy, .. }
            | SimEvent::HopLimitHit { proxy, .. }
            | SimEvent::OriginThisMiss { proxy, .. }
            | SimEvent::LocalHit { proxy, .. }
            | SimEvent::BackwardAdoption { proxy, .. }
            | SimEvent::TableMigration { proxy, .. }
            | SimEvent::CacheInsert { proxy, .. }
            | SimEvent::CacheEvict { proxy, .. }
            | SimEvent::ReplyOrphaned { proxy, .. }
            | SimEvent::ProxyRestarted { proxy } => Some(proxy),
        }
    }

    /// The object the event concerns; a restart concerns none.
    pub fn object(&self) -> Option<u64> {
        match *self {
            SimEvent::RequestInjected { object, .. }
            | SimEvent::RequestCompleted { object, .. }
            | SimEvent::ForwardLearned { object, .. }
            | SimEvent::ForwardRandom { object, .. }
            | SimEvent::LoopDetected { object, .. }
            | SimEvent::HopLimitHit { object, .. }
            | SimEvent::OriginThisMiss { object, .. }
            | SimEvent::LocalHit { object, .. }
            | SimEvent::BackwardAdoption { object, .. }
            | SimEvent::TableMigration { object, .. }
            | SimEvent::CacheInsert { object, .. }
            | SimEvent::CacheEvict { object, .. }
            | SimEvent::ReplyOrphaned { object, .. } => Some(object),
            SimEvent::ProxyRestarted { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip_and_names_unique() {
        let events = [
            SimEvent::RequestInjected {
                client: 1,
                seq: 2,
                object: 3,
            },
            SimEvent::RequestCompleted {
                client: 1,
                seq: 2,
                object: 3,
                server: Some(0),
                hops: 2,
                start_us: 0,
            },
            SimEvent::ForwardLearned {
                proxy: 0,
                object: 3,
                to: 1,
            },
            SimEvent::ForwardRandom {
                proxy: 0,
                object: 3,
                to: 1,
            },
            SimEvent::LoopDetected {
                proxy: 0,
                object: 3,
            },
            SimEvent::HopLimitHit {
                proxy: 0,
                object: 3,
                hops: 16,
            },
            SimEvent::OriginThisMiss {
                proxy: 0,
                object: 3,
            },
            SimEvent::LocalHit {
                proxy: 0,
                object: 3,
            },
            SimEvent::BackwardAdoption {
                proxy: 0,
                object: 3,
                owner: 2,
            },
            SimEvent::TableMigration {
                proxy: 0,
                object: 3,
                from: TableLevel::Single,
                to: TableLevel::Multiple,
            },
            SimEvent::CacheInsert {
                proxy: 0,
                object: 3,
            },
            SimEvent::CacheEvict {
                proxy: 0,
                object: 3,
            },
            SimEvent::ReplyOrphaned {
                proxy: 0,
                object: 3,
            },
            SimEvent::ProxyRestarted { proxy: 0 },
        ];
        assert_eq!(events.len(), EventKind::COUNT);
        let mut names = std::collections::BTreeSet::new();
        for (event, kind) in events.iter().zip(EventKind::ALL) {
            assert_eq!(event.kind(), kind);
            let object = (kind != EventKind::ProxyRestarted).then_some(3);
            assert_eq!(event.object(), object);
            assert!(names.insert(kind.name()), "duplicate name {}", kind);
        }
    }

    #[test]
    fn proxy_accessor_distinguishes_flow_events() {
        assert_eq!(
            SimEvent::RequestInjected {
                client: 1,
                seq: 0,
                object: 9
            }
            .proxy(),
            None
        );
        assert_eq!(
            SimEvent::LocalHit {
                proxy: 4,
                object: 9
            }
            .proxy(),
            Some(4)
        );
    }

    #[test]
    fn table_level_names() {
        assert_eq!(TableLevel::Out.to_string(), "out");
        assert_eq!(TableLevel::Caching.name(), "caching");
    }
}
