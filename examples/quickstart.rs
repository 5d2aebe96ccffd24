//! Quickstart: boot the nested stack under each switch engine and compare
//! the cost of one trapping instruction.
//!
//! Run with: `cargo run --example quickstart`

use svt::core::{nested_machine, SwitchMode};
use svt::hv::{GuestOp, MachineError, OpLoop};
use svt::sim::SimDuration;

fn main() -> Result<(), MachineError> {
    println!("One cpuid instruction in a nested VM (L2), per switch engine:\n");
    let mut baseline_us = 0.0;
    for mode in SwitchMode::ALL {
        // A machine with the paper's Table 4 configuration: L0 hosts the
        // L1 guest hypervisor, which hosts the L2 nested VM.
        let mut m = nested_machine(mode);

        // The measured guest program: a loop of cpuid instructions, each
        // of which architecturally traps and runs the full Algorithm 1
        // reflection chain.
        // Events are counted machine-wide in the metrics registry; clear
        // it so the boot's own exits and transforms are not counted.
        let mut prog = OpLoop::new(GuestOp::Cpuid, 100, 0, SimDuration::ZERO);
        m.obs.metrics.clear();
        let before = m.clock.snapshot();
        m.run(&mut prog)?;
        let elapsed = m.clock.since_snapshot(&before);
        let metrics = &m.obs.metrics;
        let transforms =
            metrics.counter_total("transform_fwd") + metrics.counter_total("transform_bwd");

        let us = elapsed.busy_time().as_us() / 100.0;
        if mode == SwitchMode::Baseline {
            baseline_us = us;
        }
        println!(
            "  {:<10} {:>7.2} us/cpuid   ({} nested exits, {} transforms, speedup {:.2}x)",
            mode.label(),
            us,
            metrics.counter_total("vm_exit"),
            transforms,
            baseline_us / us,
        );
    }
    println!("\nPaper (Fig. 6): baseline 10.40us, SW SVt 1.23x, HW SVt 1.94x.");
    Ok(())
}
