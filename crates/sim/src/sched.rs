//! Deterministic vCPU scheduling for the SMP machine.
//!
//! The SMP run loop interleaves N virtual CPUs, each with its own logical
//! [`Clock`](crate::Clock), over the physical [`MachineSpec`] topology. Two
//! pieces live here:
//!
//! * [`assign_svt_cores`] — maps vCPUs onto physical cores. SVt dedicates a
//!   whole core per vCPU: thread 0 runs the vCPU, thread 1 is reserved for
//!   its SVt sibling context (the paper's SMT pairing, § 4). Placement
//!   constraints therefore bind: a machine with C cores hosts at most C
//!   vCPUs.
//! * [`pick_min_local_time`] — the discrete-event pick policy. Among all
//!   runnable vCPUs it always runs the one with the *smallest local time*
//!   (ties break towards the lowest vCPU id). This keeps per-vCPU clocks
//!   loosely synchronized and — because the policy depends only on
//!   simulated state — makes the interleaving a pure function of seed and
//!   configuration.

use std::fmt;

use crate::time::SimTime;
use crate::topology::{CpuLoc, MachineSpec};

/// Error from [`assign_svt_cores`]: the requested vCPU count does not fit
/// the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// More vCPUs requested than physical cores available (each vCPU needs
    /// a full core: one thread for the vCPU, one for its SVt context).
    NotEnoughCores {
        /// vCPUs requested.
        requested: usize,
        /// Physical cores in the machine.
        available: usize,
    },
    /// The machine has no SMT sibling thread to host the SVt context.
    NoSmtSibling,
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::NotEnoughCores {
                requested,
                available,
            } => write!(
                f,
                "{requested} vCPUs requested but only {available} physical cores \
                 (one core per vCPU: thread 0 runs the vCPU, thread 1 its SVt context)"
            ),
            SchedError::NoSmtSibling => {
                f.write_str("machine has no SMT sibling thread for the SVt context")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// Places `n` vCPUs on the machine, one physical core each.
///
/// vCPU `i` lands on thread 0 of core `i % cores_per_socket` of socket
/// `i / cores_per_socket` — cores fill socket 0 first, matching the paper's
/// same-node pinning. Thread 1 of each assigned core is reserved for that
/// vCPU's SVt sibling (SW SVt's SVt-thread, or the HW SVt context pair).
///
/// # Examples
///
/// ```
/// use svt_sim::{assign_svt_cores, MachineSpec};
///
/// let spec = MachineSpec::isca19();
/// let locs = assign_svt_cores(&spec, 4).unwrap();
/// assert_eq!(locs.len(), 4);
/// // All on socket 0, distinct cores, vCPU thread 0.
/// assert!(locs.iter().all(|l| l.socket == 0 && l.thread == 0));
/// assert_eq!(assign_svt_cores(&spec, 17).is_err(), true);
/// ```
pub fn assign_svt_cores(spec: &MachineSpec, n: usize) -> Result<Vec<CpuLoc>, SchedError> {
    if spec.smt_per_core < 2 {
        return Err(SchedError::NoSmtSibling);
    }
    let cores = spec.sockets as usize * spec.cores_per_socket as usize;
    if n > cores {
        return Err(SchedError::NotEnoughCores {
            requested: n,
            available: cores,
        });
    }
    Ok((0..n)
        .map(|i| {
            let socket = (i / spec.cores_per_socket as usize) as u16;
            let core = (i % spec.cores_per_socket as usize) as u16;
            CpuLoc::new(socket, core, 0)
        })
        .collect())
}

/// Picks the runnable vCPU with the smallest local time, ties broken by
/// lowest id — the deterministic pick policy of the hypervisor's SMP run
/// loop (which filters runnability itself, from halted flags and inbox
/// depth).
///
/// # Examples
///
/// ```
/// use svt_sim::{pick_min_local_time, SimTime};
///
/// let runnable = [(0usize, SimTime::from_ns(20)), (2, SimTime::from_ns(5))];
/// assert_eq!(pick_min_local_time(runnable), Some(2));
/// assert_eq!(pick_min_local_time(std::iter::empty()), None);
/// ```
pub fn pick_min_local_time<I>(runnable: I) -> Option<usize>
where
    I: IntoIterator<Item = (usize, SimTime)>,
{
    runnable
        .into_iter()
        .min_by_key(|&(i, t)| (t, i))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_fills_socket0_first() {
        let spec = MachineSpec::isca19();
        let locs = assign_svt_cores(&spec, 10).unwrap();
        assert_eq!(locs[0], CpuLoc::new(0, 0, 0));
        assert_eq!(locs[7], CpuLoc::new(0, 7, 0));
        assert_eq!(locs[8], CpuLoc::new(1, 0, 0));
        // Distinct physical cores throughout.
        for (i, a) in locs.iter().enumerate() {
            for b in &locs[i + 1..] {
                assert!(!a.same_core(*b), "vCPUs share a core: {a} vs {b}");
            }
        }
    }

    #[test]
    fn assign_rejects_overcommit() {
        let spec = MachineSpec::isca19();
        assert!(assign_svt_cores(&spec, 16).is_ok());
        assert_eq!(
            assign_svt_cores(&spec, 17),
            Err(SchedError::NotEnoughCores {
                requested: 17,
                available: 16
            })
        );
    }

    #[test]
    fn assign_requires_smt() {
        let spec = MachineSpec {
            smt_per_core: 1,
            ..MachineSpec::isca19()
        };
        assert_eq!(assign_svt_cores(&spec, 1), Err(SchedError::NoSmtSibling));
    }

    #[test]
    fn pick_prefers_smallest_local_time() {
        let t = [
            SimTime::from_ns(50),
            SimTime::from_ns(10),
            SimTime::from_ns(30),
        ];
        assert_eq!(pick_min_local_time(t.into_iter().enumerate()), Some(1));
    }

    #[test]
    fn pick_ties_break_to_lowest_id() {
        let t = [SimTime::from_ns(5); 3];
        assert_eq!(pick_min_local_time(t.into_iter().enumerate()), Some(0));
    }
}
