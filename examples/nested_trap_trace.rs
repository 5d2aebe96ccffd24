//! An annotated walk through Algorithm 1: one nested VM trap, with the
//! paper's Table 1 attribution and the architectural events that occurred.
//!
//! Run with: `cargo run --example nested_trap_trace`

use svt::core::{nested_machine, SwitchMode};
use svt::hv::{GuestOp, MachineError, OpLoop};
use svt::sim::{CostPart, SimDuration};

fn main() -> Result<(), MachineError> {
    let mut m = nested_machine(SwitchMode::Baseline);

    // Warm up once (the nested bootstrap — vmptrld trap, vmcs01' writes,
    // vmlaunch emulation — is charged at machine construction).
    let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
    m.run(&mut warm)?;
    m.clock.reset_attribution();
    m.tracer.enable();
    m.obs.spans.enable();

    println!("Executing one cpuid in L2 (Algorithm 1 of the paper):\n");
    let rip_before = m.vcpu2().rip;
    let mut prog = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
    m.run(&mut prog)?;

    println!("Step-by-step attribution (Table 1 parts):");
    let steps = [
        (CostPart::L2Guest, "0. L2 executes cpuid"),
        (
            CostPart::SwitchL2L0,
            "1. VM trap into L0 + final VM resume of L2",
        ),
        (
            CostPart::Transform,
            "2. vmcs02->vmcs12 and vmcs12->vmcs02 transformations",
        ),
        (
            CostPart::L0Handler,
            "3. L0 handler (route, inject into vmcs12, VMRESUME checks)",
        ),
        (CostPart::SwitchL0L1, "4. World switches L0<->L1"),
        (
            CostPart::L1Handler,
            "5. L1's cpuid handler (incl. its own trap to L0)",
        ),
    ];
    let mut total = SimDuration::ZERO;
    for (part, label) in steps {
        let t = m.clock.part_time(part);
        total += t;
        println!("   {label:<60} {t}");
    }
    println!("   {:<60} {}", "Total", total);

    println!("\nArchitectural events during the trap:");
    for (name, v) in m.clock.counters() {
        println!("   {name:<24} {v}");
    }

    println!("\nArchitectural trace (oldest first):");
    for (at, ev) in m.tracer.events() {
        println!("   [{at}] {ev:?}");
    }

    println!("\nTrap-lifecycle spans (exportable as Chrome trace JSON):");
    for s in m.obs.spans.spans() {
        println!(
            "   trap #{:<3} {:<10} [{} .. {}] {:<18} {}",
            s.trap_seq,
            format!("{}/{}", s.level.name(), s.cat),
            s.begin,
            s.end,
            s.name,
            s.duration()
        );
    }
    println!(
        "   ({} spans; svt::obs::chrome_trace(spans) renders them for ui.perfetto.dev)",
        m.obs.spans.len()
    );

    println!("\nState effects:");
    println!(
        "   L2 RIP advanced by the emulated instruction: {:#x} -> {:#x}",
        rip_before,
        m.vcpu2().rip
    );
    println!(
        "   L1's shadow vmcs12 holds the reflected exit reason: code {}",
        m.vmcs12().read(svt::arch::VmcsField::ExitReason)
    );
    Ok(())
}
