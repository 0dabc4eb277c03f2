//! # dsr-caching
//!
//! A from-scratch Rust reproduction of *Marina & Das, "Performance of Route
//! Caching Strategies in Dynamic Source Routing" (ICDCS 2001)*: a complete
//! MANET simulation stack (discrete-event engine, random waypoint mobility,
//! WaveLAN-style radio, IEEE 802.11 DCF MAC) under a full DSR
//! implementation with the paper's three cache-correctness techniques —
//! wider error notification, timer-based (static/adaptive) route expiry,
//! and negative caches.
//!
//! This facade crate re-exports the workspace's public API. The most
//! common entry points:
//!
//! - [`runner::ScenarioConfig`] + [`runner::run_scenario`] — describe and
//!   execute a simulation;
//! - [`dsr::DsrConfig`] — select the protocol variant
//!   (`base()`, `wider_error()`, `adaptive_expiry()`, `negative_cache()`,
//!   `combined()`);
//! - [`metrics::Report`] — the paper's metrics for a run.
//!
//! # Quickstart
//!
//! ```
//! use dsr_caching::prelude::*;
//!
//! // 20 mobile nodes for 30 simulated seconds under base DSR.
//! let cfg = ScenarioConfig::tiny(0.0, 1.0, DsrConfig::base(), 7);
//! let report = run_scenario(cfg);
//! assert!(report.originated > 0);
//! ```

#![warn(unreachable_pub)]

pub use aodv;
pub use dsr;
pub use mac;
pub use metrics;
pub use mobility;
pub use obs;
pub use packet;
pub use phy;
pub use runner;
pub use sim_core;
pub use traffic;

/// The commonly used types in one import.
pub mod prelude {
    pub use aodv::{AodvConfig, AodvNode};
    pub use dsr::{DsrConfig, ExpiryPolicy};
    pub use metrics::Report;
    pub use mobility::{Field, Point, WaypointConfig};
    pub use runner::{
        replay_run, run_campaign, run_campaign_with, run_scenario, run_scenario_with, AuditLevel,
        CampaignConfig, CampaignResult, FaultEvent, FaultPlan, ForensicArtifact, Journal,
        JournalWriter, MobilitySpec, RunError, RunFailure, RunLimits, ScenarioConfig, Simulator,
        Zone,
    };
    pub use sim_core::{NodeId, SimDuration, SimTime};
    pub use traffic::TrafficConfig;
}
