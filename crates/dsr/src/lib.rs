//! Dynamic Source Routing with configurable route-caching strategies.
//!
//! This crate is the primary contribution of the reproduction of
//! *Marina & Das, "Performance of Route Caching Strategies in Dynamic
//! Source Routing" (ICDCS 2001)*: a full DSR implementation whose cache
//! behaviour is controlled by [`DsrConfig`] —
//!
//! - **base DSR** with the four standard optimizations (replies from
//!   cache, salvaging, gratuitous route repair, promiscuous listening,
//!   non-propagating route requests);
//! - **wider error notification** — broadcast route errors with
//!   conditional re-broadcast;
//! - **timer-based route expiry** — static or adaptive per-node timeout
//!   selection;
//! - **negative caches** — a blacklist of recently broken links, mutually
//!   exclusive with the route cache;
//! - **multipath caching** — up to `k` link-disjoint paths per
//!   destination with failover on route error instead of rediscovery.
//!
//! The protocol engine is [`DsrNode`]; supporting structures ([`PathCache`],
//! [`NegativeCache`], [`AdaptiveTimeout`], [`SendBuffer`], [`RequestTable`])
//! are public for inspection, testing, and the benchmark ablations.

#![warn(unreachable_pub)]

pub mod adaptive;
pub mod agent;
pub mod cache;
pub mod config;
pub mod request_table;
pub mod send_buffer;

pub use adaptive::AdaptiveTimeout;
pub use agent::{DsrEvent, DsrNode, DsrTimer};
pub use cache::negative::NegativeCache;
pub use cache::path_cache::{PathCache, PathEntry, RemovedLink};
pub use cache::{CacheEvent, RouteCache};
pub use config::{DsrConfig, ExpiryPolicy, MultipathConfig};
pub use packet::{CacheHitKind, DropReason};
pub use request_table::RequestTable;
pub use send_buffer::{PendingData, SendBuffer};
