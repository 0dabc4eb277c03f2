//! Scenario assembly and the simulation driver.
//!
//! [`ScenarioConfig`] describes a run (mobility, radio, MAC, DSR variant,
//! workload, duration); [`Simulator`] executes it deterministically and
//! produces a [`metrics::Report`].
//!
//! # Example
//!
//! ```
//! use runner::{run_scenario, ScenarioConfig};
//! use dsr::DsrConfig;
//!
//! // A 5-node static chain: every packet must traverse 4 hops.
//! let cfg = ScenarioConfig::static_line(5, 200.0, 2.0, DsrConfig::base(), 42);
//! let report = run_scenario(cfg);
//! assert!(report.delivery_fraction > 0.9);
//! ```

#![warn(unreachable_pub)]

pub mod audit;
mod cachestamp;
pub mod campaign;
pub mod config;
pub mod executor;
mod faults;
pub mod forensics;
pub mod journal;
mod observers;
pub mod sim;
pub mod trace;

pub use audit::{AuditLevel, AuditSummary};
pub use campaign::{
    replay_run, run_campaign, run_campaign_with, CampaignConfig, CampaignResult, RunError,
    RunFailure, RunLimits,
};
pub use config::{FaultEvent, FaultPlan, MobilitySpec, ScenarioConfig, Zone};
pub use forensics::{config_fingerprint, ForensicArtifact};
pub use journal::{Journal, JournalWriter};
pub use obs::ObsError;
pub use packet::{AgentCommand, RoutingAgent};
pub use sim::{run_scenario, run_scenario_with, CacheTraceBuf, HeartbeatSink, ObsSink, Simulator};
pub use trace::{TraceEvent, TraceKind, TraceSink};
