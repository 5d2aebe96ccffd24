//! Discrete-event simulation substrate for the SVt reproduction.
//!
//! This crate provides the foundation every other crate in the workspace
//! builds on:
//!
//! * [`SimTime`]/[`SimDuration`] — picosecond-resolution simulated time;
//! * [`Clock`] — the logical clock with Table-1-style cost attribution;
//! * [`CostModel`] — the calibrated cost of every hardware and software
//!   primitive (see `DESIGN.md` § 5 for the calibration methodology);
//! * [`EventQueue`] — a deterministic discrete-event queue;
//! * [`MachineSpec`]/[`CpuLoc`]/[`Placement`] — the physical topology from
//!   Table 4 of the paper;
//! * [`DetRng`] — seeded deterministic randomness;
//! * [`FaultPlan`] — seeded deterministic fault injection (chaos
//!   campaigns that replay bit-for-bit from their seed).
//!
//! # Examples
//!
//! ```
//! use svt_sim::{Clock, CostModel, CostPart};
//!
//! let cost = CostModel::default();
//! let mut clock = Clock::new();
//! clock.push_part(CostPart::SwitchL2L0);
//! clock.charge(cost.vm_exit_hw);
//! clock.charge(cost.gpr_thunk());
//! clock.pop_part(CostPart::SwitchL2L0);
//! assert!(clock.part_time(CostPart::SwitchL2L0).as_ns() > 400.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod cost;
mod events;
mod faults;
mod hash;
mod rng;
mod sched;
pub mod snapshot;
mod sweep;
mod time;
mod topology;

pub use clock::{Clock, ClockSnapshot, CostPart};
pub use cost::CostModel;
pub use events::{EventId, EventQueue};
pub use faults::{FaultKind, FaultPlan};
pub use hash::{FnvBuildHasher, FnvHashMap, FnvHashSet, FnvHasher};
pub use rng::DetRng;
pub use sched::{assign_svt_cores, pick_min_local_time, SchedError};
pub use snapshot::{Snap, SnapError, SnapReader, SnapWriter};
pub use sweep::{host_parallelism, resolve_jobs, resolve_jobs_for, sweep};
pub use time::{SimDuration, SimTime};
pub use topology::{CpuLoc, MachineSpec, Placement, VmSpec};
