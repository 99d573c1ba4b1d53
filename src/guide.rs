//! # A guided tour of the ADC algorithm
//!
//! This module is documentation only — a walkthrough of the paper's
//! algorithm (§III–IV) as it exists in this codebase, for readers who
//! want to connect the published pseudocode to the Rust.
//!
//! ## The problem
//!
//! A farm of cooperating web proxies wants the union of its caches to
//! behave like one big cache: any proxy should be able to find an object
//! cached at any other proxy. Classic answers:
//!
//! * **Hash routing** (CARP, consistent hashing): a globally known
//!   function maps each URL to one owner proxy. Allocation is instant,
//!   but there is exactly one copy of everything — a hot object's owner
//!   becomes a bottleneck — and every proxy must agree on the function
//!   and the member list.
//! * **Hierarchies** (Harvest/Squid): misses climb a tree. Popular
//!   objects replicate along paths, but upper levels see every miss and
//!   every node stores everything that passes.
//!
//! ADC's bet: let each proxy *learn* the mapping instead. The learned
//! mapping can replicate hot objects (like a hierarchy) while keeping
//! cold objects unique (like hashing), and it needs neither a
//! coordinator nor a broadcast.
//!
//! ## The data structures
//!
//! Every proxy keeps three bounded tables of
//! [`TableEntry`](crate::TableEntry) rows `(OBJ-ID, PROXY, LAST, AVG,
//! HITS)`; see [`tables`](crate::tables):
//!
//! * the **single-table** ([`MappingTables::single`](crate::tables::MappingTables::single))
//!   is an LRU list of objects seen exactly once — a probation area
//!   sized so that "requests with at least two hits can occur";
//! * the **multiple-table** ([`MappingTables::multiple`](crate::tables::MappingTables::multiple))
//!   holds objects seen at least twice, ordered by their average
//!   inter-request time (best first);
//! * the **caching table** (same structure) lists the objects whose data
//!   is actually stored locally.
//!
//! The `AVG` column is the paper's whole popularity model: a two-point
//! moving average of the gap between consecutive requests,
//! [`TableEntry::calc_average`](crate::TableEntry::calc_average). Small
//! average = frequently requested = worth caching. Admission into a full
//! ordered table requires beating the *aged* average of the current
//! worst resident ([`TableEntry::aged_average`](crate::TableEntry::aged_average)):
//! `(avg + (now − last)) / 2`, so residents that stopped being requested
//! decay and become displaceable.
//!
//! ## The message flow
//!
//! [`AdcProxy::on_request`](crate::AdcProxy) (the paper's
//! `Receive_Request`):
//!
//! 1. bump the local clock (one tick per received request);
//! 2. if the object is in the local cache — serve it, refresh its entry
//!    with location `THIS`, send the reply back toward the requester;
//! 3. otherwise remember the previous hop (the *backwarding* stack),
//!    and forward: to the learned location if any table has an entry;
//!    to the origin server if the entry says `THIS` (we are responsible
//!    but do not hold it), if the request already visited us (a loop —
//!    detected by its globally unique ID), or if it exhausted the hop
//!    limit; to a uniformly random peer (including ourselves!) when we
//!    know nothing.
//!
//! [`AdcProxy::on_reply`](crate::AdcProxy) (`Receive_Reply`): the reply
//! retraces the forwarding path. Each proxy on the way pops its
//! backwarding hop, adopts the reply's resolver into its tables
//! (`Update_Entry`), optionally claims the caching role if it holds the
//! data and nobody upstream did, and passes the reply along. This
//! *multicast by backwarding* is the entire agreement protocol: every
//! proxy on the path ends up pointing at the same location for the
//! object, for free.
//!
//! ## Why it works (and when it doesn't)
//!
//! The tests in `tests/convergence.rs` verify the emergent claims: hot
//! objects end up cached at several proxies with all mapping entries
//! pointing at true holders; cold objects keep few copies; random
//! searching fades as learning progresses.
//!
//! The flip side, measured in `ablation_proxies`: random search scales
//! poorly with cluster size. At 5 proxies a blind walk finds a knowing
//! proxy quickly; at 10, loops terminate most searches early and the
//! hit rate sags while hash routing is size-independent. The paper ran
//! 5–8 proxies, where the trade is favourable.
//!
//! ## Reproducing the paper
//!
//! | Paper artifact | Here |
//! |---|---|
//! | `Receive_Request` (Fig. 5) | `AdcProxy::on_request` |
//! | `Forward_Addr` (Fig. 6) | `AdcProxy::forward_addr` (private; observable via stats) |
//! | `Receive_Reply` (Fig. 7) | `AdcProxy::on_reply` |
//! | `Update_Entry` (Fig. 8) | [`tables::MappingTables::update_entry`](crate::tables::MappingTables::update_entry) |
//! | `Calc_Average` (Fig. 9) | [`TableEntry::calc_average`](crate::TableEntry::calc_average) |
//! | aging (Fig. 4) | [`TableEntry::aged_average`](crate::TableEntry::aged_average) |
//! | CARP baseline (§V.1.1) | [`baselines::CarpProxy`](crate::baselines::CarpProxy) |
//! | Polygraph workload (§V.1.6) | [`workload::PolygraphConfig`](crate::workload::PolygraphConfig) |
//! | Figures 11–15 | `adc-bench` binaries `fig11_*` … `fig15_*` |
//!
//! Two places where the paper's prose under-determines the algorithm,
//! and the choices made here (both documented at the implementation
//! site):
//!
//! 1. **Looping backwarding.** A looped request visits a proxy twice, so
//!    the backwarding information is a *stack* of previous hops and the
//!    reply traverses the full loop back. The second pass happens at the
//!    same local-clock tick; counting it as a second "request" would
//!    give the object a zero inter-request gap (infinite popularity), so
//!    `Update_Entry` refreshes only the location on same-tick updates —
//!    "the average time between two requests" means two distinct
//!    requests.
//! 2. **Single→multiple promotion needs a real average.** The
//!    multiple-table "contains only objects that were requested more
//!    than once"; an entry with `HITS == 1` (average still 0) stays in
//!    the single-table no matter what, otherwise its zero average would
//!    rank it best-in-table forever.

// This module intentionally contains no items.
