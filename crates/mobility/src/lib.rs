//! Node mobility for MANET simulation.
//!
//! Provides the [`MobilityModel`] abstraction and two implementations:
//!
//! - [`RandomWaypoint`] — the CMU Monarch random waypoint model used in the
//!   reproduced paper (random start, uniform-speed travel to random
//!   waypoints, configurable pause time);
//! - [`StaticPositions`] — fixed placements (lines, grids, explicit points)
//!   for controlled tests.
//!
//! plus [`LinkOracle`], the ground-truth connectivity oracle the
//! cache-quality metrics are computed against.
//!
//! # Example
//!
//! ```
//! use mobility::{RandomWaypoint, WaypointConfig, MobilityModel};
//! use sim_core::{RngFactory, NodeId, SimTime, SimDuration};
//!
//! let cfg = WaypointConfig::paper(SimDuration::from_secs(0.0)); // constant motion
//! let scenario = RandomWaypoint::generate(&cfg, RngFactory::new(42));
//! let p = scenario.position(NodeId::new(7), SimTime::from_secs(123.0));
//! assert!(scenario.field().contains(p));
//! ```

#![warn(unreachable_pub)]

pub mod geom;
pub mod grid;
pub mod model;
pub mod oracle;
pub mod waypoint;

pub use geom::{Field, Point};
pub use grid::NeighborGrid;
pub use model::{MobilityModel, StaticPositions};
pub use oracle::{sample_link_stats, LinkOracle, LinkStats};
pub use waypoint::{RandomWaypoint, WaypointConfig};
