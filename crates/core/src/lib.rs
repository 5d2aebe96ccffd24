//! SVt: SMT-based acceleration of nested virtualization.
//!
//! The paper's contribution, on top of the `svt-hv` substrate:
//!
//! * [`HwSvtReflector`] — the hardware/software co-design (§§ 3–4): one
//!   hardware context per virtualization level, VM traps as thread
//!   stall/resume events, and `ctxtld`/`ctxtst` cross-context register
//!   access through the shared physical register file;
//! * [`SwSvtReflector`] — the software-only prototype (§ 5.2): L1's trap
//!   handling on an SVt-thread pinned to the SMT sibling, shared-memory
//!   command rings, `monitor`/`mwait` waiting, and the `SVT_BLOCKED`
//!   interrupt-deadlock avoidance protocol (§ 5.3);
//! * [`SwitchMode`]/[`nested_machine`] — one-line construction of the
//!   three machines the paper's figures compare.
//!
//! # Examples
//!
//! ```
//! use svt_core::{nested_machine, SwitchMode};
//! use svt_hv::{GuestOp, OpLoop};
//! use svt_sim::SimDuration;
//!
//! // Reproduce Fig. 6: one cpuid under each engine.
//! let mut times = Vec::new();
//! for mode in SwitchMode::ALL {
//!     let mut m = nested_machine(mode);
//!     let mut prog = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
//!     let t0 = m.clock.now();
//!     m.run(&mut prog)?;
//!     times.push((mode.label(), m.clock.now().since(t0).as_us()));
//! }
//! // Baseline > SW SVt > HW SVt.
//! assert!(times[0].1 > times[1].1 && times[1].1 > times[2].1);
//! # Ok::<(), svt_hv::MachineError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bypass;
mod commands;
mod degrade;
mod hw;
mod stack;
mod sw;

pub use bypass::BypassReflector;
pub use commands::{Command, ProtocolError, CMD_VM_RESUME, CMD_VM_TRAP, PAYLOAD_LEN};
pub use degrade::{
    transition_label, DegradeFsm, SvtHealth, FALLBACK_AFTER, HEAL_WINDOW, PROBE_EVERY,
};
pub use hw::HwSvtReflector;
pub use stack::{
    machine_with, nested_machine, nested_machine_on, smp_machine, smp_machine_on, smp_machine_with,
    SwitchMode,
};
pub use sw::{SwSvtReflector, WaitMode, POLL_STEAL_RATIO};
