//! # SVt: Using SMT to Accelerate Nested Virtualization
//!
//! A full reproduction of Vilanova, Amit & Etsion's ISCA'19 paper as a
//! Rust workspace: a functional machine simulator (SMT core, VT-x-like
//! virtualization hardware, virtio devices), a KVM-like nested hypervisor
//! that runs the paper's Algorithm 1 literally, the SVt hardware/software
//! co-design, and workloads regenerating every table and figure of the
//! evaluation.
//!
//! This facade crate re-exports the workspace's public API; see the
//! individual crates for details:
//!
//! * [`sim`] — simulated time, cost model, events, topology;
//! * [`stats`] — the paper's measurement methodology;
//! * [`mem`] — guest memory and shared-memory rings;
//! * [`cpu`] — the SMT core with SVt extensions;
//! * [`arch`] — the ISA-neutral arch layer: VMCS analogue, exit
//!   reasons, EPT, APIC, and the x86/riscv backend dispatch;
//! * [`hv`] — the machine and the baseline nested hypervisor;
//! * [`core`] — the SVt contribution (HW and SW engines);
//! * [`virtio`] — virtqueues, virtio-net, virtio-blk;
//! * [`workloads`] — the evaluation runners;
//! * [`obs`] — metrics, the causal event graph (trap-stage spans) and run reports.
//!
//! # Examples
//!
//! ```
//! use svt::core::{nested_machine, SwitchMode};
//! use svt::hv::{GuestOp, OpLoop};
//! use svt::sim::SimDuration;
//!
//! // One nested cpuid costs ~10.4us on the baseline (Table 1)...
//! let mut m = nested_machine(SwitchMode::Baseline);
//! let mut prog = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
//! let t0 = m.clock.now();
//! m.run(&mut prog)?;
//! let baseline = m.clock.now().since(t0);
//!
//! // ...and roughly half that under the paper's hardware design.
//! let mut m = nested_machine(SwitchMode::HwSvt);
//! let mut prog = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
//! let t0 = m.clock.now();
//! m.run(&mut prog)?;
//! let hw = m.clock.now().since(t0);
//! assert!(baseline.ratio(hw) > 1.8);
//! # Ok::<(), svt::hv::MachineError>(())
//! ```

#![warn(missing_docs)]

pub use svt_arch as arch;
pub use svt_core as core;
pub use svt_cpu as cpu;
pub use svt_hv as hv;
pub use svt_mem as mem;
pub use svt_obs as obs;
pub use svt_sim as sim;
pub use svt_stats as stats;
pub use svt_virtio as virtio;
pub use svt_workloads as workloads;
