//! Machine topology: sockets, cores and SMT threads.
//!
//! Reproduces Table 4 of the paper as the default [`MachineSpec`]
//! (2× Intel E5-2630v3: 2 sockets, 8 cores each, 2-way SMT) and classifies
//! the communication distance between any two hardware threads — the
//! paper's § 6.1 channel study depends on whether two threads are SMT
//! siblings, share a NUMA node, or sit on different NUMA nodes.

use std::fmt;

/// Location of one hardware thread (an SMT context) in the machine.
///
/// # Examples
///
/// ```
/// use svt_sim::CpuLoc;
///
/// let a = CpuLoc::new(0, 3, 0);
/// let b = CpuLoc::new(0, 3, 1);
/// assert!(a.same_core(b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuLoc {
    /// Socket (NUMA node) index.
    pub socket: u16,
    /// Core index within the socket.
    pub core: u16,
    /// SMT thread index within the core.
    pub thread: u16,
}

impl CpuLoc {
    /// Creates a location from socket/core/thread indices.
    pub const fn new(socket: u16, core: u16, thread: u16) -> Self {
        CpuLoc {
            socket,
            core,
            thread,
        }
    }

    /// Whether both locations share a physical core (SMT siblings or equal).
    pub fn same_core(self, other: CpuLoc) -> bool {
        self.socket == other.socket && self.core == other.core
    }

    /// Whether both locations share a NUMA node.
    pub fn same_node(self, other: CpuLoc) -> bool {
        self.socket == other.socket
    }
}

impl fmt::Display for CpuLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}c{}t{}", self.socket, self.core, self.thread)
    }
}

/// Communication distance class between two hardware threads, as studied in
/// the paper's § 6.1 channel micro-benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Same hardware thread: communication is a plain function call.
    SameThread,
    /// Two SMT threads of the same core (the SVt configuration).
    SmtSibling,
    /// Different cores on the same NUMA node.
    SameNodeCrossCore,
    /// Different NUMA nodes ("up to an order of magnitude longer response
    /// latency" per the paper).
    CrossNode,
}

crate::snap_enum! {
    "thread placement" => Placement { SameThread, SmtSibling, SameNodeCrossCore, CrossNode }
}

impl Placement {
    /// Classifies the distance between two locations.
    pub fn between(a: CpuLoc, b: CpuLoc) -> Placement {
        if a == b {
            Placement::SameThread
        } else if a.same_core(b) {
            Placement::SmtSibling
        } else if a.same_node(b) {
            Placement::SameNodeCrossCore
        } else {
            Placement::CrossNode
        }
    }

    /// All cross-thread placements, in increasing distance order.
    pub const ALL_REMOTE: [Placement; 3] = [
        Placement::SmtSibling,
        Placement::SameNodeCrossCore,
        Placement::CrossNode,
    ];
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Placement::SameThread => "same-thread",
            Placement::SmtSibling => "smt-sibling",
            Placement::SameNodeCrossCore => "same-node",
            Placement::CrossNode => "cross-node",
        };
        f.write_str(s)
    }
}

/// Physical machine shape (Table 4 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSpec {
    /// Number of sockets (NUMA nodes).
    pub sockets: u16,
    /// Cores per socket.
    pub cores_per_socket: u16,
    /// SMT threads per core.
    pub smt_per_core: u16,
    /// Base clock in MHz (2.4 GHz on the paper's E5-2630v3).
    pub freq_mhz: u32,
    /// Total RAM in MiB.
    pub ram_mib: u64,
    /// NIC line rate in Mbps (Intel X540-AT2: 10 GbE).
    pub nic_mbps: u64,
}

impl MachineSpec {
    /// The evaluation platform of the paper (Table 4).
    pub fn isca19() -> Self {
        MachineSpec {
            sockets: 2,
            cores_per_socket: 8,
            smt_per_core: 2,
            freq_mhz: 2400,
            ram_mib: 2 * 64 * 1024,
            nic_mbps: 10_000,
        }
    }

    /// Total number of hardware threads.
    pub fn hw_threads(&self) -> u32 {
        self.sockets as u32 * self.cores_per_socket as u32 * self.smt_per_core as u32
    }

    /// Iterates over every hardware-thread location in the machine.
    pub fn iter_threads(&self) -> impl Iterator<Item = CpuLoc> + '_ {
        let (s, c, t) = (self.sockets, self.cores_per_socket, self.smt_per_core);
        (0..s).flat_map(move |so| {
            (0..c).flat_map(move |co| (0..t).map(move |th| CpuLoc::new(so, co, th)))
        })
    }

    /// Whether a location exists on this machine.
    pub fn contains(&self, loc: CpuLoc) -> bool {
        loc.socket < self.sockets
            && loc.core < self.cores_per_socket
            && loc.thread < self.smt_per_core
    }
}

impl Default for MachineSpec {
    fn default() -> Self {
        MachineSpec::isca19()
    }
}

/// Nested-VM resource shape from Table 4 (vCPUs and RAM for L1 and L2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmSpec {
    /// vCPUs given to the L1 guest hypervisor (6, one reserved).
    pub l1_vcpus: u16,
    /// RAM given to L1, in MiB (50 GiB).
    pub l1_ram_mib: u64,
    /// vCPUs given to the L2 nested VM (3, one reserved).
    pub l2_vcpus: u16,
    /// RAM given to L2, in MiB (35 GiB).
    pub l2_ram_mib: u64,
}

impl VmSpec {
    /// The paper's Table 4 VM configuration.
    pub fn isca19() -> Self {
        VmSpec {
            l1_vcpus: 6,
            l1_ram_mib: 50 * 1024,
            l2_vcpus: 3,
            l2_ram_mib: 35 * 1024,
        }
    }
}

impl Default for VmSpec {
    fn default() -> Self {
        VmSpec::isca19()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isca19_machine_shape() {
        let m = MachineSpec::isca19();
        assert_eq!(m.hw_threads(), 32);
        assert_eq!(m.iter_threads().count(), 32);
        assert!(m.contains(CpuLoc::new(1, 7, 1)));
        assert!(!m.contains(CpuLoc::new(2, 0, 0)));
        assert!(!m.contains(CpuLoc::new(0, 8, 0)));
        assert!(!m.contains(CpuLoc::new(0, 0, 2)));
    }

    #[test]
    fn placement_classification() {
        let a = CpuLoc::new(0, 0, 0);
        assert_eq!(Placement::between(a, a), Placement::SameThread);
        assert_eq!(
            Placement::between(a, CpuLoc::new(0, 0, 1)),
            Placement::SmtSibling
        );
        assert_eq!(
            Placement::between(a, CpuLoc::new(0, 5, 0)),
            Placement::SameNodeCrossCore
        );
        assert_eq!(
            Placement::between(a, CpuLoc::new(1, 0, 0)),
            Placement::CrossNode
        );
    }

    #[test]
    fn placement_is_symmetric() {
        let m = MachineSpec {
            sockets: 2,
            cores_per_socket: 2,
            smt_per_core: 2,
            ..MachineSpec::isca19()
        };
        let locs: Vec<_> = m.iter_threads().collect();
        for &a in &locs {
            for &b in &locs {
                assert_eq!(Placement::between(a, b), Placement::between(b, a));
            }
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(CpuLoc::new(1, 2, 0).to_string(), "s1c2t0");
        assert_eq!(Placement::SmtSibling.to_string(), "smt-sibling");
    }

    #[test]
    fn vm_spec_matches_table4() {
        let v = VmSpec::isca19();
        assert_eq!(v.l1_vcpus, 6);
        assert_eq!(v.l2_vcpus, 3);
        assert_eq!(v.l1_ram_mib, 51_200);
        assert_eq!(v.l2_ram_mib, 35_840);
    }
}
